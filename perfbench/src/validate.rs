//! The `validate` workload: the Table III loop.
//!
//! For each of the nine benchmarks a seeded set of legal points is drawn.
//! Each pass takes the next points of every benchmark ([`per_pass`] of
//! them), in a seeded order, through build → elaborate → `estimate_net`
//! → `place_and_route` → simulate on the
//! default backend, checks the simulated outputs against
//! `Benchmark::reference()` and scores the runtime estimate against the
//! simulated cycles. The simulator is nearly all of the host time, so the
//! explore path's layers sit idle here. After the window, every drawn
//! point's area estimate is scored against the synthesis model.

use std::time::Instant;

use dhdl_apps::Benchmark;
use dhdl_core::ParamValues;
use dhdl_dse::LegalSpace;
use dhdl_estimate::Estimator;
use dhdl_sim::{simulate_with, Backend, Bindings, SimResult};
use dhdl_synth::{design_hash, place_and_route};
use dhdl_target::Platform;

use crate::common::{
    area_truth, setups_before, suite, timed, AreaErrors, Ctx, Rng, CALIBRATION_SEED,
    SCORED_PER_BENCH,
};
use crate::probe::HostSpeed;
use crate::report::Report;
use crate::stats::{mean_abs_err_pct, median, tail};
use crate::trace::{span, Layer, Tracer};

/// Nominal length of one pass on the reference host; the run makes
/// `seconds / PASS_S` passes, so the work depends only on `--seconds`.
const PASS_S: f64 = 21.6;

/// Points of a benchmark per pass. Each benchmark gets about 2.4 s of
/// host time per pass on the reference host (its mean point time at
/// seeds 1–3 in the comments), so each weighs the same in the workload's
/// point rate, whatever its points cost.
fn per_pass(bench: &str) -> usize {
    match bench {
        "gemm" => 1,          // 2.43 s
        "gda" => 2,           // 1.04 s
        "kmeans" => 4,        // 0.67 s
        "attention" => 7,     // 0.37 s
        "conv2d" => 8,        // 0.28 s
        "outerprod" => 20,    // 0.12 s
        "blackscholes" => 22, // 0.11 s
        "tpchq6" => 50,       // 47 ms
        "dotproduct" => 140,  // 17 ms
        _ => 1,
    }
}

/// Output tolerance per benchmark: scale-normalized relative error, as
/// the functional tests use it.
fn tolerance(bench: &str) -> f64 {
    match bench {
        "outerprod" | "saxpy" => 1e-9,
        // f32 CND evaluation accumulates a few ulps against the f64
        // reference.
        "blackscholes" => 1e-3,
        _ => 1e-4,
    }
}

struct Bench {
    bench: Box<dyn Benchmark>,
    bindings: Bindings,
    reference: dhdl_apps::Arrays,
    points: Vec<ParamValues>,
}

struct Setup {
    estimator: Estimator,
    benches: Vec<Bench>,
}

/// How long each set-up took, in all and in its parts.
#[derive(Default)]
struct SetupTimes {
    total_s: Vec<f64>,
    calibrate_s: Vec<f64>,
    inputs_ms: Vec<f64>,
}

impl SetupTimes {
    /// Set up once and record how long it took.
    fn run(&mut self, seed: u64) -> Setup {
        let ((s, cal, inputs), secs) = timed(|| set_up(seed));
        self.total_s.push(secs);
        self.calibrate_s.push(cal);
        self.inputs_ms.push(inputs * 1e3);
        s
    }
}

/// Calibrate, generate every dataset and draw the points. Returns the
/// set-up with the calibration and dataset times in seconds.
fn set_up(seed: u64) -> (Setup, f64, f64) {
    let (estimator, calibrate_s) =
        timed(|| Estimator::calibrate(&Platform::maia(), CALIBRATION_SEED));
    let mut inputs_s = 0.0;
    let benches = suite()
        .into_iter()
        .enumerate()
        .map(|(i, bench)| {
            let ((bindings, reference), secs) = timed(|| {
                let mut bindings = Bindings::new();
                for (name, data) in bench.inputs() {
                    bindings = bindings.bind(&name, data);
                }
                (bindings, bench.reference())
            });
            inputs_s += secs;
            let legal = LegalSpace::new(&bench.param_space());
            let size = usize::try_from(legal.size()).expect("legal spaces fit in memory");
            let points = Rng::new(seed, 0x7A11 + i as u64)
                .distinct(size, SCORED_PER_BENCH)
                .into_iter()
                .map(|j| legal.point(j as u128))
                .collect();
            Bench {
                bench,
                bindings,
                reference,
                points,
            }
        })
        .collect();
    (Setup { estimator, benches }, calibrate_s, inputs_s)
}

/// Why one simulated output misses its reference at relative tolerance
/// `tol`, if it does. Errors are normalized by the reference's largest
/// magnitude, and a NaN counts as a miss.
fn array_mismatch(name: &str, got: &[f64], expected: &[f64], tol: f64) -> Option<String> {
    if got.len() != expected.len() {
        return Some(format!(
            "`{name}` has {} values, reference {}",
            got.len(),
            expected.len()
        ));
    }
    let scale = expected.iter().fold(1e-30f64, |m, v| m.max(v.abs()));
    let i = (0..got.len()).find(|&i| {
        let err = (got[i] - expected[i]).abs() / scale;
        err.is_nan() || err >= tol
    })?;
    Some(format!(
        "`{name}`[{i}] = {}, reference {}",
        got[i], expected[i]
    ))
}

/// Why a simulation fails the functional tests' checks, if it does:
/// every output within the benchmark's tolerance, and a positive cycle
/// count.
fn output_mismatch(b: &Bench, sim: &SimResult) -> Option<String> {
    let tol = tolerance(b.bench.name());
    for (name, expected) in &b.reference {
        let problem = match sim.output(name) {
            Ok(got) => array_mismatch(name, got, expected, tol),
            Err(e) => Some(e.to_string()),
        };
        if problem.is_some() {
            return problem;
        }
    }
    if sim.cycles > 0.0 {
        None
    } else {
        Some(format!("{} simulated cycles", sim.cycles))
    }
}

/// What one window of passes measured.
#[derive(Default)]
struct Window {
    /// Per point: build through simulate, in microseconds.
    latency_us: Vec<f64>,
    /// Simulated cycles, summed.
    cycles: f64,
    /// `(estimated, simulated)` cycles per point.
    runtime: Vec<(f64, f64)>,
}

impl Window {
    fn pts_per_s(&self) -> f64 {
        self.latency_us.len() as f64 / (self.latency_us.iter().sum::<f64>() / 1e6)
    }
}

/// Pass `pass`'s `(benchmark, point)` pairs, in a seeded order that
/// spreads each benchmark's points over the pass.
fn pass_plan(s: &Setup, seed: u64, pass: usize) -> Vec<(usize, usize)> {
    let plan: Vec<(usize, usize)> = s
        .benches
        .iter()
        .enumerate()
        .flat_map(|(i, b)| {
            let n = per_pass(b.bench.name());
            (pass * n..(pass + 1) * n).map(move |k| (i, k % b.points.len()))
        })
        .collect();
    Rng::new(seed, 0x9A55 + pass as u64)
        .distinct(plan.len(), plan.len())
        .into_iter()
        .map(|i| plan[i])
        .collect()
}

/// Run `passes` passes. With `setups`, the set-up is repeated between
/// points, spread over the window (see [`setups_before`]); with `host`,
/// the host-speed probe is sampled between points.
fn window(
    ctx: &Ctx,
    s: &Setup,
    report: &mut Report,
    passes: usize,
    tracer: Option<&Tracer>,
    mut setups: Option<&mut SetupTimes>,
    mut host: Option<&mut HostSpeed>,
) -> Window {
    let platform = s.estimator.platform();
    let mut w = Window::default();
    let plans: Vec<_> = (0..passes).map(|p| pass_plan(s, ctx.seed, p)).collect();
    let steps: usize = plans.iter().map(Vec::len).sum();
    for (step, (bi, pi)) in plans.into_iter().flatten().enumerate() {
        if let Some(times) = setups.as_deref_mut() {
            for _ in 0..setups_before(step, steps) {
                drop(times.run(ctx.seed));
            }
        }
        if let Some(host) = host.as_deref_mut() {
            host.tick();
        }
        let b = &s.benches[bi];
        let params = &b.points[pi];
        let name = b.bench.name();
        let t0 = Instant::now();
        let design = match span(tracer, Layer::Build, || b.bench.build(params)) {
            Ok(d) => d,
            Err(e) => {
                report.attempt(Some(format!("{name} {params}: build failed: {e}")));
                continue;
            }
        };
        let net = span(tracer, Layer::Elaborate, || s.estimator.elaborate(&design));
        let est = span(tracer, Layer::EstimateNet, || {
            s.estimator.estimate_net(&design, &net)
        });
        // The synthesis model's report is the area ground truth; the
        // drawn points' areas are scored after the window.
        let truth = span(tracer, Layer::PlaceRoute, || {
            place_and_route(design_hash(&design), &net, &platform.fpga)
        });
        std::hint::black_box(truth);
        let sim = span(tracer, Layer::Simulate, || {
            simulate_with(Backend::default(), &design, platform, &b.bindings)
        });
        let secs = t0.elapsed().as_secs_f64();
        span(tracer, Layer::Harness, || match sim {
            Ok(sim) => {
                let problem = output_mismatch(b, &sim)
                    .map(|why| format!("{name} {params}: output mismatch: {why}"));
                if problem.is_none() {
                    w.latency_us.push(secs * 1e6);
                    w.cycles += sim.cycles;
                    w.runtime.push((est.cycles, sim.cycles));
                }
                report.attempt(problem);
            }
            Err(e) => report.attempt(Some(format!("{name} {params}: simulation failed: {e}"))),
        });
    }
    w
}

/// Passes for a window of `seconds`; at least one (a pass has enough
/// points for the latency tail).
fn passes_for(seconds: f64) -> usize {
    ((seconds / PASS_S).round() as usize).max(1)
}

/// Score every drawn point's area estimate against the synthesis model.
fn score_area(s: &Setup, report: &mut Report) {
    let fpga = &s.estimator.platform().fpga;
    let mut errors = AreaErrors::default();
    for b in &s.benches {
        for params in &b.points {
            match b.bench.build(params) {
                Ok(design) => errors.push(
                    &s.estimator.estimate(&design).area,
                    &area_truth(&design, fpga),
                ),
                Err(e) => report.attempt(Some(format!(
                    "{} {params}: build failed: {e}",
                    b.bench.name()
                ))),
            }
        }
    }
    errors.report(report);
}

/// Run the workload into `report`.
pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let mut times = SetupTimes::default();
    let s = times.run(ctx.seed);
    report.config("sim_backend", Backend::default());

    let untraced_s = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let passes = passes_for(untraced_s);
    report.config("passes", passes);
    report.config(
        "points_per_bench",
        s.benches
            .iter()
            .map(|b| format!("{}:{}", b.bench.name(), passes * per_pass(b.bench.name())))
            .collect::<Vec<_>>()
            .join(","),
    );
    report.config("scored_per_bench", SCORED_PER_BENCH);
    let mut host = HostSpeed::default();
    let w = window(
        ctx,
        &s,
        report,
        passes,
        None,
        Some(&mut times),
        Some(&mut host),
    );
    host.report(report);
    host.time(
        report,
        "setup_s",
        median(&times.total_s).unwrap_or(0.0),
        "s",
        times.total_s.len(),
    );
    for (name, values, unit) in [
        ("estimate.calibrate_s", &times.calibrate_s, "s"),
        ("apps.inputs_ms", &times.inputs_ms, "ms"),
    ] {
        report.metric(name, median(values).unwrap_or(0.0), unit, values.len());
    }
    let rate = w.pts_per_s();
    let n = w.latency_us.len();
    host.rate(report, "pts_per_s", rate, "1/s", n);
    host.time(
        report,
        "p50_us",
        median(&w.latency_us).unwrap_or(0.0),
        "us",
        n,
    );
    if let Some(t) = tail(&w.latency_us) {
        host.time(report, "tail_us", t.value, "us", t.samples);
        report.config("tail_percentile", format!("p{:.2}", t.pct));
    }
    report.metric(
        "validate.mcycles_per_s",
        w.cycles / 1e6 / (w.latency_us.iter().sum::<f64>() / 1e6),
        "Mcycles/s",
        w.latency_us.len(),
    );
    report.metric(
        "validate.err_runtime_pct",
        mean_abs_err_pct(&w.runtime).unwrap_or(f64::NAN),
        "%",
        w.runtime.len(),
    );
    score_area(&s, report);

    if ctx.trace {
        let tracer = Tracer::new();
        let tw = window(
            ctx,
            &s,
            report,
            passes_for(ctx.seconds / 2.0),
            Some(&tracer),
            None,
            None,
        );
        let acc = tracer.accounting();
        let get = |l: Layer| tracer.layer(l);
        for (name, layer, unit, scale) in [
            ("core.build_us", Layer::Build, "us", 1.0),
            ("synth.elaborate_us", Layer::Elaborate, "us", 1.0),
            ("estimate.net_us", Layer::EstimateNet, "us", 1.0),
            ("synth.place_route_us", Layer::PlaceRoute, "us", 1.0),
            ("sim.host_ms", Layer::Simulate, "ms", 1e3),
        ] {
            let t = get(layer);
            report.metric(name, t.mean_us() / scale, unit, t.calls as usize);
        }
        report.metric("sim.cycles", tw.cycles, "count", tw.latency_us.len());
        let share = |layers: &[Layer]| {
            let ns: u64 = layers.iter().map(|&l| get(l).self_ns).sum();
            100.0 * ns as f64 / acc.total_ns.max(1) as f64
        };
        report.metric("share.sim_pct", share(&[Layer::Simulate]), "%", 1);
        report.metric(
            "share.estimate_path_pct",
            share(&[Layer::Build, Layer::Elaborate, Layer::EstimateNet]),
            "%",
            1,
        );
        report.metric(
            "trace.overhead_pct",
            100.0 * (rate / tw.pts_per_s() - 1.0),
            "%",
            tw.latency_us.len(),
        );
        report.metric("trace.residual_pct", acc.residual_pct(), "%", 1);
        report.breakdown = Some((tracer.totals(), acc));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_check_catches_nan_and_holds_saxpy_to_its_tolerance() {
        let expected = [1.0, -4.0, 2.0];
        assert_eq!(
            array_mismatch("y", &expected, &expected, tolerance("saxpy")),
            None
        );
        // A NaN compares false with everything; it must still miss.
        let nan = [1.0, f64::NAN, 2.0];
        assert!(array_mismatch("y", &nan, &expected, 1e-4).is_some());
        // saxpy is exact in the functional tests (1e-9): an error of
        // 1e-6 of the largest magnitude passes 1e-4 but not saxpy's.
        let off = [1.0, -4.0, 2.0 + 4e-6];
        assert_eq!(array_mismatch("y", &off, &expected, 1e-4), None);
        assert!(array_mismatch("y", &off, &expected, tolerance("saxpy")).is_some());
        assert!(array_mismatch("y", &expected[..2], &expected, 1e-4).is_some());
    }
}

//! The `explore` workload: the paper's estimation path (§IV-C, Table IV).
//!
//! Each cycle sweeps the whole legal space of all nine benchmarks with
//! two DSE threads into a fresh `EstimateCache` (cold), saves the cache
//! to the run's scratch directory, reopens it with `EstimateCache::load`
//! and sweeps everything again (warm). Build, hash, elaborate, estimate
//! and cache do all of the work; the simulator does none. Whole spaces
//! make the work independent of the seed, which only picks the points
//! that are re-estimated directly and scored against the synthesis model.

use dhdl_apps::Benchmark;
use dhdl_core::{ParamSpace, ParamValues};
use dhdl_dse::{
    explore, model_fingerprint, CacheStats, CachedModel, DseOptions, DseResult, EstimateCache,
    LegalSpace,
};
use dhdl_estimate::{Estimate, Estimator};
use dhdl_target::Platform;

use crate::common::{
    area_truth, bench_salt, same_bits, setups_before, suite, timed, AreaErrors, Ctx, Rng,
    CALIBRATION_SEED, SCORED_PER_BENCH,
};
use crate::models::{TimedEstimator, TimedModel};
use crate::probe::HostSpeed;
use crate::report::Report;
use crate::stats::{median, tail};
use crate::trace::{span, Layer, LayerTotals, Tracer};

/// DSE worker threads per sweep.
pub const DSE_THREADS: u32 = 2;

/// Nominal length of one cold + warm cycle on the reference host; the
/// run makes `seconds / CYCLE_S` cycles, so the amount of work, and with
/// it every sample count, depends only on `--seconds`.
const CYCLE_S: f64 = 1.25;

struct Bench {
    bench: Box<dyn Benchmark>,
    space: ParamSpace,
    size: usize,
    salt: u64,
}

struct Setup {
    estimator: Estimator,
    fingerprint: u64,
    benches: Vec<Bench>,
}

fn set_up() -> (Setup, f64) {
    let (estimator, calibrate_s) =
        timed(|| Estimator::calibrate(&Platform::maia(), CALIBRATION_SEED));
    let benches = suite()
        .into_iter()
        .map(|bench| {
            let space = bench.param_space();
            let size = usize::try_from(LegalSpace::new(&space).size())
                .expect("legal spaces fit in memory");
            let salt = bench_salt(bench.as_ref());
            Bench {
                bench,
                space,
                size,
                salt,
            }
        })
        .collect();
    let fingerprint = model_fingerprint(&estimator);
    (
        Setup {
            estimator,
            fingerprint,
            benches,
        },
        calibrate_s,
    )
}

/// One cold + warm cycle's measurements.
struct Cycle {
    /// Per benchmark: cold sweep seconds.
    cold_sweep_s: Vec<f64>,
    save_s: f64,
    load_s: f64,
    warm_sweep_s: Vec<f64>,
    points: usize,
    /// Cache counters over both passes.
    cache: CacheStats,
    /// The sweep results, kept only when asked for.
    results: Option<(Vec<DseResult>, Vec<DseResult>)>,
    /// Per benchmark: `(evaluated, discarded + skipped)`, cold then warm.
    outcomes: Vec<(usize, usize)>,
    /// Traced only: self time of the estimate path (build, cache key,
    /// elaborate, estimate) during the cold sweeps.
    cold_path_ns: u64,
}

impl Cycle {
    fn cold_rate(&self) -> f64 {
        self.points as f64 / (self.cold_sweep_s.iter().sum::<f64>() + self.save_s)
    }

    fn warm_rate(&self) -> f64 {
        self.points as f64 / (self.warm_sweep_s.iter().sum::<f64>() + self.load_s)
    }
}

fn sweep(
    s: &Setup,
    b: &Bench,
    cache: &EstimateCache,
    tracer: Option<&Tracer>,
    seed: u64,
) -> DseResult {
    let opts = DseOptions {
        max_points: b.size,
        seed,
        threads: DSE_THREADS as usize,
        cache_salt: Some(b.salt),
        ..DseOptions::default()
    };
    match tracer {
        None => {
            let model = CachedModel::new(&s.estimator, cache);
            explore(|p: &ParamValues| b.bench.build(p), &b.space, &model, &opts)
        }
        Some(t) => {
            let inner = TimedEstimator {
                estimator: &s.estimator,
                tracer: t,
            };
            let model = TimedModel {
                inner: CachedModel::new(&inner, cache),
                tracer: t,
            };
            let build = |p: &ParamValues| t.span(Layer::Build, || b.bench.build(p));
            t.parallel(Layer::Runner, DSE_THREADS, || {
                explore(build, &b.space, &model, &opts)
            })
        }
    }
}

/// One cold, save, load, warm cycle; with `host`, the host-speed probe
/// is sampled between sweeps.
fn cycle(
    ctx: &Ctx,
    s: &Setup,
    tracer: Option<&Tracer>,
    keep: bool,
    mut host: Option<&mut HostSpeed>,
) -> Result<Cycle, String> {
    let mut c = Cycle {
        cold_sweep_s: Vec::new(),
        save_s: 0.0,
        load_s: 0.0,
        warm_sweep_s: Vec::new(),
        points: 0,
        cache: CacheStats::default(),
        results: None,
        outcomes: Vec::new(),
        cold_path_ns: 0,
    };
    let path_ns = || tracer.map_or(0, |t| estimate_path_ns(&t.totals()));
    let path_before = path_ns();
    let cold_cache = span(tracer, Layer::Harness, || EstimateCache::new(s.fingerprint));
    let mut cold = Vec::new();
    for b in &s.benches {
        let (r, secs) = timed(|| sweep(s, b, &cold_cache, tracer, ctx.seed));
        if let Some(host) = host.as_deref_mut() {
            host.tick();
        }
        c.cold_sweep_s.push(secs);
        c.points += r.points.len();
        cold.push(r);
    }
    c.cold_path_ns = path_ns() - path_before;
    let dir = ctx.tmp.join("cache");
    let (saved, save_s) = timed(|| span(tracer, Layer::CacheSave, || cold_cache.save(&dir)));
    saved.map_err(|e| format!("saving the estimate cache: {e}"))?;
    c.save_s = save_s;
    let (warm_cache, load_s) = timed(|| {
        span(tracer, Layer::CacheLoad, || {
            EstimateCache::load(&dir, s.fingerprint)
        })
    });
    c.load_s = load_s;
    let mut warm = Vec::new();
    for b in &s.benches {
        let (r, secs) = timed(|| sweep(s, b, &warm_cache, tracer, ctx.seed));
        if let Some(host) = host.as_deref_mut() {
            host.tick();
        }
        c.warm_sweep_s.push(secs);
        warm.push(r);
    }
    span(tracer, Layer::Harness, || {
        let cold_stats = cold_cache.stats();
        let warm_stats = warm_cache.stats();
        c.cache = CacheStats {
            hits: cold_stats.hits + warm_stats.hits,
            misses: cold_stats.misses + warm_stats.misses,
            inserts: cold_stats.inserts + warm_stats.inserts,
            entries: warm_stats.entries,
        };
        c.outcomes = cold
            .iter()
            .chain(&warm)
            .map(|r| (r.points.len(), r.discarded + r.counts.skipped))
            .collect();
        if keep {
            c.results = Some((cold, warm));
        }
        drop(cold_cache);
        drop(warm_cache);
    });
    Ok(c)
}

/// Cycles for a window of `seconds`; at least two, so the sweep-time
/// tail has samples enough.
fn cycles_for(seconds: f64) -> usize {
    ((seconds / CYCLE_S).round() as usize).max(2)
}

/// Count every sweep's points as operations and its discarded or
/// skipped points as failures.
fn count_outcomes(report: &mut Report, s: &Setup, c: &Cycle) {
    for (i, &(evaluated, lost)) in c.outcomes.iter().enumerate() {
        let b = &s.benches[i % s.benches.len()];
        let pass = if i < s.benches.len() { "cold" } else { "warm" };
        report.attempted += (evaluated + lost) as u64;
        if lost > 0 {
            let why = format!("{} {pass} sweep lost {lost} points", b.bench.name());
            report.fail(lost as u64, why);
        }
    }
}

/// The deep checks on one cycle's results: full spaces, warm = cold bit
/// for bit, and a seeded sample of cold points equal to a direct
/// `Estimator::estimate`. The sample is also scored against the
/// synthesis model.
fn check_and_score(
    ctx: &Ctx,
    report: &mut Report,
    s: &Setup,
    cold: &[DseResult],
    warm: &[DseResult],
) {
    let mut rng = Rng::new(ctx.seed, 0xE);
    let mut errors = AreaErrors::default();
    let fpga = &s.estimator.platform().fpga;
    for ((b, c), w) in s.benches.iter().zip(cold).zip(warm) {
        let name = b.bench.name();
        report.check(c.points.len() == b.size && w.points.len() == b.size, || {
            format!(
                "{name}: swept {} cold / {} warm points of a {}-point legal space",
                c.points.len(),
                w.points.len(),
                b.size
            )
        });
        let identical = c.points.len() == w.points.len()
            && c.points.iter().zip(&w.points).all(|(a, b)| {
                a.params == b.params
                    && same_bits(
                        &Estimate {
                            cycles: a.cycles,
                            area: a.area,
                        },
                        &Estimate {
                            cycles: b.cycles,
                            area: b.area,
                        },
                    )
            });
        report.check(identical, || {
            format!("{name}: warm sweep differs from the cold sweep")
        });
        for i in rng.distinct(c.points.len(), SCORED_PER_BENCH) {
            let p = &c.points[i];
            let design = match b.bench.build(&p.params) {
                Ok(d) => d,
                Err(e) => {
                    report.attempt(Some(format!("{name} {}: rebuild failed: {e}", p.params)));
                    continue;
                }
            };
            let direct = s.estimator.estimate(&design);
            let swept = Estimate {
                cycles: p.cycles,
                area: p.area,
            };
            report.check(same_bits(&direct, &swept), || {
                format!(
                    "{name} {}: swept estimate differs from a direct one",
                    p.params
                )
            });
            errors.push(&swept.area, &area_truth(&design, fpga));
        }
    }
    errors.report(report);
}

/// Run the workload into `report`.
pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let ((s, cal), secs) = timed(set_up);
    let mut setup_s = vec![secs];
    let mut calibrate_s = vec![cal];
    report.config("dse_threads", DSE_THREADS);
    report.config(
        "points_per_bench",
        s.benches
            .iter()
            .map(|b| format!("{}:{}", b.bench.name(), b.size))
            .collect::<Vec<_>>()
            .join(","),
    );
    let total: usize = s.benches.iter().map(|b| b.size).sum();
    report.config("points_per_sweep", total);

    let untraced_s = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let n = cycles_for(untraced_s);
    report.config("cycles", n);
    let mut cycles = Vec::new();
    let mut host = HostSpeed::default();
    for i in 0..n {
        for _ in 0..setups_before(i, n) {
            let ((_, cal), secs) = timed(set_up);
            setup_s.push(secs);
            calibrate_s.push(cal);
        }
        let c = cycle(ctx, &s, None, i == 0, Some(&mut host))?;
        count_outcomes(report, &s, &c);
        cycles.push(c);
    }
    host.report(report);
    host.time(
        report,
        "setup_s",
        median(&setup_s).unwrap_or(0.0),
        "s",
        setup_s.len(),
    );
    report.metric(
        "estimate.calibrate_s",
        median(&calibrate_s).unwrap_or(0.0),
        "s",
        calibrate_s.len(),
    );
    let cold: Vec<f64> = cycles.iter().map(Cycle::cold_rate).collect();
    let warm: Vec<f64> = cycles.iter().map(Cycle::warm_rate).collect();
    let sweep_us: Vec<f64> = cycles
        .iter()
        .flat_map(|c| c.cold_sweep_s.iter().map(|s| s * 1e6))
        .collect();
    let cold_rate = median(&cold).unwrap_or(0.0);
    host.rate(report, "pts_per_s", cold_rate, "1/s", cold.len());
    report.metric(
        "explore.warm_pts_per_s",
        median(&warm).unwrap_or(0.0),
        "1/s",
        warm.len(),
    );
    host.time(
        report,
        "p50_us",
        median(&sweep_us).unwrap_or(0.0),
        "us",
        sweep_us.len(),
    );
    if let Some(t) = tail(&sweep_us) {
        host.time(report, "tail_us", t.value, "us", t.samples);
        report.config("tail_percentile", format!("p{:.2}", t.pct));
    }

    let (cold_results, warm_results) = cycles[0].results.take().expect("first cycle is kept");
    drop(cycles);
    check_and_score(ctx, report, &s, &cold_results, &warm_results);
    drop((cold_results, warm_results));

    if ctx.trace {
        traced(ctx, report, &s, cycles_for(ctx.seconds / 2.0), cold_rate)?;
    }
    Ok(())
}

/// The layers every cold point goes through: build, cache keying,
/// elaboration and estimation.
const ESTIMATE_PATH: [Layer; 4] = [
    Layer::Build,
    Layer::CacheKey,
    Layer::Elaborate,
    Layer::EstimateNet,
];

fn estimate_path_ns(totals: &[LayerTotals]) -> u64 {
    totals
        .iter()
        .filter(|t| ESTIMATE_PATH.contains(&t.layer))
        .map(|t| t.self_ns)
        .sum()
}

/// Record a layer's mean self time per call, in `unit` (`us` or `ms`).
fn mean_metric(report: &mut Report, name: &str, t: LayerTotals, unit: &'static str) {
    let scale = if unit == "ms" { 1e3 } else { 1.0 };
    report.metric(name, t.mean_us() / scale, unit, t.calls as usize);
}

/// The traced window: the same cycles through the timing adapters.
fn traced(
    ctx: &Ctx,
    report: &mut Report,
    s: &Setup,
    n: usize,
    untraced_cold_rate: f64,
) -> Result<(), String> {
    let tracer = Tracer::new();
    let mut cold_rates = Vec::new();
    let mut points = 0usize;
    let mut cache = CacheStats::default();
    let mut cold_path_ns = 0u64;
    let mut cold_worker_s = 0.0;
    for _ in 0..n {
        let c = cycle(ctx, s, Some(&tracer), false, None)?;
        cold_rates.push(c.cold_rate());
        points += 2 * c.points;
        cache.hits += c.cache.hits;
        cache.misses += c.cache.misses;
        cold_path_ns += c.cold_path_ns;
        cold_worker_s += c.cold_sweep_s.iter().sum::<f64>() * f64::from(DSE_THREADS);
        count_outcomes(report, s, &c);
    }
    let acc = tracer.accounting();
    let totals = tracer.totals();
    let get = |l: Layer| tracer.layer(l);
    mean_metric(report, "core.build_us", get(Layer::Build), "us");
    mean_metric(report, "dse.cache.key_us", get(Layer::CacheKey), "us");
    mean_metric(report, "synth.elaborate_us", get(Layer::Elaborate), "us");
    mean_metric(report, "estimate.net_us", get(Layer::EstimateNet), "us");
    mean_metric(report, "dse.cache.lookup_us", get(Layer::CacheLookup), "us");
    mean_metric(report, "dse.cache.load_ms", get(Layer::CacheLoad), "ms");
    mean_metric(report, "dse.cache.save_ms", get(Layer::CacheSave), "ms");
    report.metric(
        "dse.runner_us",
        get(Layer::Runner).self_ns as f64 / points.max(1) as f64 / 1e3,
        "us",
        points,
    );
    report.metric(
        "dse.cache.hit_rate",
        cache.hit_rate(),
        "ratio",
        (cache.hits + cache.misses) as usize,
    );
    report.metric(
        "share.estimate_path_pct",
        100.0 * estimate_path_ns(&totals) as f64 / acc.total_ns.max(1) as f64,
        "%",
        1,
    );
    report.metric(
        "explore.cold_estimate_path_pct",
        100.0 * cold_path_ns as f64 / 1e9 / cold_worker_s,
        "%",
        n,
    );
    let traced_rate = median(&cold_rates).unwrap_or(0.0);
    report.metric(
        "trace.overhead_pct",
        100.0 * (untraced_cold_rate / traced_rate - 1.0),
        "%",
        cold_rates.len(),
    );
    report.metric("trace.residual_pct", acc.residual_pct(), "%", 1);
    report.breakdown = Some((totals, acc));
    Ok(())
}

//! The `serve` workload: `dhdl-serve` in-process on loopback, driven by
//! one client connection in an open loop at a fixed offered rate.
//!
//! Requests are point estimates. Each picks a benchmark uniformly and a
//! point Zipf(s=1) over that benchmark's *whole* legal space (popularity
//! ranks are a seeded permutation of the space), so a steady share of
//! requests misses the server's cache. Each request is timed from when
//! it was sent and from when it was due, and the generator's own
//! lateness is reported. This is the only path through framing, JSON,
//! the protocol and admission.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dhdl_apps::Benchmark;
use dhdl_core::ParamValues;
use dhdl_dse::LegalSpace;
use dhdl_estimate::{Estimate, Estimator};
use dhdl_serve::json::Json;
use dhdl_serve::{
    parse_bits, read_frame, write_frame, ChaosConfig, Op, Request, Server, ServerConfig,
    DEFAULT_MAX_FRAME, DEFAULT_MAX_RESPONSE,
};
use dhdl_target::{AreaReport, Platform};

use crate::common::{
    area_truth, estimate_bits, suite, timed, AreaErrors, Ctx, Rng, SCORED_PER_BENCH, SETUP_REPS,
};
use crate::probe::HostSpeed;
use crate::report::Report;
use crate::stats::{median, percentile, tail, time_from_due, Schedule};
use crate::trace::{span, Layer, Tracer};

/// Offered load, in requests per second. One connection sustains about
/// 16,000 requests/s closed-loop at seed 1 on the reference host (2
/// vCPUs); at half of that the traced window, or a slower moment of a
/// shared host, runs out of headroom and the backlog swamps every
/// latency, so the rate is a quarter.
pub const RATE: f64 = 4000.0;

/// Sweep threads the server may use (no sweeps are sent).
const SWEEP_THREADS: usize = 2;

/// Zipf(s=1) popularity over one benchmark's legal space.
struct Popularity {
    bench: Box<dyn Benchmark>,
    legal: LegalSpace,
    /// Cumulative weights: `cdf[r] = Σ_{k≤r} 1/(k+1)`.
    cdf: Vec<f64>,
    /// Rank `r` is point `(r · stride + offset) mod size`.
    stride: u64,
    offset: u64,
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

impl Popularity {
    fn new(bench: Box<dyn Benchmark>, legal: LegalSpace, rng: &mut Rng) -> Self {
        let size = u64::try_from(legal.size()).expect("legal spaces fit in memory");
        let mut acc = 0.0;
        let cdf = (0..size)
            .map(|r| {
                acc += 1.0 / (r + 1) as f64;
                acc
            })
            .collect();
        let mut stride = 1 + rng.below(size);
        while gcd(stride, size) != 1 {
            stride = stride % size + 1;
        }
        Popularity {
            bench,
            legal,
            cdf,
            stride,
            offset: rng.below(size),
        }
    }

    fn size(&self) -> u64 {
        self.cdf.len() as u64
    }

    /// Draw a point index: a Zipf rank mapped through the permutation.
    fn draw(&self, rng: &mut Rng) -> u64 {
        let total = *self.cdf.last().expect("legal spaces are not empty");
        let u = rng.unit() * total;
        let rank = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1) as u64;
        (rank * self.stride + self.offset) % self.size()
    }
}

struct Setup {
    addr: SocketAddr,
    handle: JoinHandle<std::io::Result<()>>,
    stream: TcpStream,
}

fn server_config(ctx: &Ctx) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        chaos: ChaosConfig::disabled(),
        faults: None,
        sweep_threads: SWEEP_THREADS,
        checkpoint_dir: ctx.tmp.join("serve-checkpoints"),
        cache_dir: None,
        ..ServerConfig::default()
    }
}

/// One request's frame out and its response frame back.
fn round_trip(stream: &mut TcpStream, payload: &[u8]) -> Result<Vec<u8>, String> {
    write_frame(stream, payload, DEFAULT_MAX_FRAME).map_err(|e| e.to_string())?;
    read_frame(stream, DEFAULT_MAX_RESPONSE).map_err(|e| e.to_string())
}

fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connecting: {e}"))?;
    stream
        .set_nodelay(true)
        .and_then(|()| stream.set_read_timeout(Some(Duration::from_secs(10))))
        .map_err(|e| format!("configuring the connection: {e}"))?;
    Ok(stream)
}

/// Time one more set-up (server spawn and popularity tables), then shut
/// that server down.
fn time_set_up(ctx: &Ctx) -> Result<f64, String> {
    let (setup, secs) = timed(|| spawn(ctx).map(|s| (s, popularity(ctx.seed))));
    shut_down(setup?.0)?;
    Ok(secs)
}

/// Spawn a server and connect one client to it.
fn spawn(ctx: &Ctx) -> Result<Setup, String> {
    let (addr, handle) =
        Server::spawn(server_config(ctx)).map_err(|e| format!("starting the server: {e}"))?;
    Ok(Setup {
        addr,
        handle,
        stream: connect(addr)?,
    })
}

/// Send `shutdown`, close the connection and wait for the server.
fn shut_down(mut s: Setup) -> Result<(), String> {
    round_trip(&mut s.stream, &Request::new(Op::Shutdown).render())
        .map_err(|e| format!("shutting the server down: {e}"))?;
    drop(s.stream);
    match s.handle.join() {
        Ok(Ok(())) => Ok(()),
        Ok(Err(e)) => Err(format!("server at {} failed: {e}", s.addr)),
        Err(_) => Err("the server thread panicked".to_string()),
    }
}

/// One answered request.
struct Answer {
    bench: usize,
    point: u64,
    bits: [u64; 5],
}

/// Parse an estimate response; `Err` says why it is malformed.
fn parse_answer(resp: &Json) -> Result<([u64; 5], bool), String> {
    if resp.get("status").and_then(Json::as_str) != Some("ok") {
        return Err(format!("not ok: {}", resp.render()));
    }
    let mut bits = [0u64; 5];
    for (slot, field) in bits
        .iter_mut()
        .zip(["cycles", "alms", "regs", "dsps", "brams"])
    {
        let v = resp
            .get(field)
            .and_then(Json::as_str)
            .and_then(parse_bits)
            .ok_or_else(|| format!("field `{field}` is missing or malformed"))?;
        *slot = v.to_bits();
    }
    let cached = resp
        .get("cached")
        .and_then(Json::as_bool)
        .ok_or("field `cached` is missing")?;
    resp.get("valid")
        .and_then(Json::as_bool)
        .ok_or("field `valid` is missing")?;
    Ok((bits, cached))
}

/// What one open-loop window measured.
struct Window {
    /// Per answered request, from its due time.
    latency_us: Vec<f64>,
    /// Per answered request, from when it was sent.
    round_trip_us: Vec<f64>,
    /// Round trips of cache hits and of misses.
    hit_us: Vec<f64>,
    miss_us: Vec<f64>,
    late_us: Vec<f64>,
    answers: Vec<Answer>,
    requests: u64,
    elapsed_s: f64,
}

/// Spin until `due`. A sleeping generator is woken late by whole
/// milliseconds on a busy shared host, which would make every latency
/// measured from the due time a measure of the host; spinning keeps one
/// CPU busy instead.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// What an untraced window does once a second, its schedule paused:
/// sample the host-speed probe and time one more set-up, so that both
/// are spread over the window like the other workloads' set-ups.
struct Pauses<'a> {
    host: &'a mut HostSpeed,
    setup_s: &'a mut Vec<f64>,
}

fn window(
    ctx: &Ctx,
    report: &mut Report,
    s: &mut Setup,
    pops: &[Popularity],
    seconds: f64,
    tracer: Option<&Tracer>,
    mut pauses: Option<Pauses>,
) -> Window {
    let mut rng = Rng::new(ctx.seed, 0x5E);
    let n = (RATE * seconds).round() as u64;
    // Sized up front: growing these mid-window would stall the generator.
    let cap = usize::try_from(n).expect("request count fits in memory");
    let mut w = Window {
        latency_us: Vec::with_capacity(cap),
        round_trip_us: Vec::with_capacity(cap),
        hit_us: Vec::with_capacity(cap),
        miss_us: Vec::with_capacity(cap),
        late_us: Vec::with_capacity(cap),
        answers: Vec::with_capacity(cap),
        requests: n,
        elapsed_s: 0.0,
    };
    let sched = Schedule::new(Instant::now() + Duration::from_millis(1), RATE);
    // With `pauses`, the schedule pauses once a second; every later due
    // time moves by the pause.
    let mut paused = Duration::ZERO;
    // A fresh connection, opened a second ahead, serves each second of
    // requests: the server thread behind each connection lands on a CPU
    // of the scheduler's choosing, and that choice alone moves a cache
    // hit's latency by half, so every run mixes many choices.
    let per_second = RATE.round().max(1.0) as u64;
    let mut next = connect(s.addr).ok();
    for i in 0..n {
        if i > 0 && i % per_second == 0 {
            span(tracer, Layer::Harness, || {
                if let Some(stream) = next.take() {
                    s.stream = stream;
                }
                next = connect(s.addr).ok();
            });
            if let Some(p) = pauses.as_mut() {
                let t0 = Instant::now();
                p.host.sample();
                match time_set_up(ctx) {
                    Ok(secs) => p.setup_s.push(secs),
                    Err(e) => report.attempt(Some(format!("set-up: {e}"))),
                }
                paused += t0.elapsed();
            }
        }
        let (b, point, req) = span(tracer, Layer::Generate, || {
            let b = rng.below(pops.len() as u64) as usize;
            let point = pops[b].draw(&mut rng);
            let params: ParamValues = pops[b].legal.point(u128::from(point));
            let req = Request::new(Op::Estimate {
                bench: pops[b].bench.name().to_string(),
                params,
            });
            (b, point, req)
        });
        let due = sched.due(i) + paused;
        span(tracer, Layer::Wait, || wait_until(due));
        let sent = Instant::now();
        let payload = span(tracer, Layer::Codec, || req.render());
        let reply = span(tracer, Layer::Request, || {
            round_trip(&mut s.stream, &payload)
        });
        let parsed = reply.map(|bytes| span(tracer, Layer::Codec, || Json::parse(&bytes)));
        let done = Instant::now();
        span(tracer, Layer::Harness, || {
            let answer = match parsed {
                Err(e) => Err(format!("transport: {e}")),
                Ok(Err(e)) => Err(format!("response is not JSON: {e}")),
                Ok(Ok(resp)) => parse_answer(&resp),
            };
            match answer {
                Ok((bits, cached)) => {
                    let t = time_from_due(due, sent, done);
                    w.latency_us.push(t.latency_us);
                    w.round_trip_us.push(t.round_trip_us);
                    w.late_us.push(t.late_us);
                    if cached {
                        w.hit_us.push(t.round_trip_us);
                    } else {
                        w.miss_us.push(t.round_trip_us);
                    }
                    w.answers.push(Answer {
                        bench: b,
                        point,
                        bits,
                    });
                    report.attempt(None);
                }
                Err(why) => {
                    report.attempt(Some(format!(
                        "request {i} ({}): {why}",
                        pops[b].bench.name()
                    )));
                    if why.starts_with("transport") {
                        // The connection is gone; later requests get a
                        // fresh one.
                        if let Ok(stream) = connect(s.addr) {
                            s.stream = stream;
                        }
                    }
                }
            }
        });
    }
    w.elapsed_s = sched.start.elapsed().saturating_sub(paused).as_secs_f64();
    w
}

/// Check every answer bit for bit against an in-process estimator
/// calibrated like the server's, and score a seeded sample of the
/// distinct answered points against the synthesis model.
fn check_and_score(
    ctx: &Ctx,
    report: &mut Report,
    pops: &[Popularity],
    estimator: &Estimator,
    answers: &[Answer],
) {
    let mut distinct: BTreeMap<(usize, u64), Vec<&Answer>> = BTreeMap::new();
    for a in answers {
        distinct.entry((a.bench, a.point)).or_default().push(a);
    }
    let mut expected: BTreeMap<(usize, u64), (Estimate, dhdl_core::Design)> = BTreeMap::new();
    for (&(b, point), group) in &distinct {
        let bench = pops[b].bench.as_ref();
        let params = pops[b].legal.point(u128::from(point));
        match bench.build(&params) {
            Ok(design) => {
                let est = estimator.estimate(&design);
                let bits = estimate_bits(&est);
                for a in group {
                    report.check(a.bits == bits, || {
                        format!(
                            "{} {params}: served estimate differs from in-process",
                            bench.name()
                        )
                    });
                }
                expected.insert((b, point), (est, design));
            }
            Err(e) => report.attempt(Some(format!(
                "{} {params}: build failed: {e}",
                bench.name()
            ))),
        }
    }
    let fpga = &estimator.platform().fpga;
    let mut errors = AreaErrors::default();
    for b in 0..pops.len() {
        let keys: Vec<u64> = distinct.keys().filter(|k| k.0 == b).map(|k| k.1).collect();
        let mut rng = Rng::new(ctx.seed, 0x5C0 + b as u64);
        for i in rng.distinct(keys.len(), SCORED_PER_BENCH) {
            if let Some((est, design)) = expected.get(&(b, keys[i])) {
                let served: AreaReport = est.area;
                errors.push(&served, &area_truth(design, fpga));
            }
        }
    }
    errors.report(report);
}

fn popularity(seed: u64) -> Vec<Popularity> {
    let mut rng = Rng::new(seed, 0x2F);
    suite()
        .into_iter()
        .map(|b| {
            let legal = LegalSpace::new(&b.param_space());
            Popularity::new(b, legal, &mut rng)
        })
        .collect()
}

/// Run the workload into `report`.
pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let cfg = server_config(ctx);
    report.config("offered_rate_per_s", RATE);
    report.config("clients", "1 connection, open loop");
    report.config("server_sweep_threads", SWEEP_THREADS);
    report.config(
        "server_calibration",
        format!("{} samples, seed {}", cfg.calib_samples, cfg.calib_seed),
    );

    // Set-up: server spawn (its calibration included), popularity
    // tables and the client connection. This one serves the window; the
    // window times one more a second (see `Pauses`).
    let mut host =
        HostSpeed::with_loopback().map_err(|e| format!("starting the loopback probe: {e}"))?;
    let (setup, secs) = timed(|| spawn(ctx).map(|s| (s, popularity(ctx.seed))));
    let (mut server, pops) = setup?;
    let mut setup_s = vec![secs];
    host.sample();
    let mut calibrate_s = Vec::new();
    let mut estimator = None;
    for _ in 0..SETUP_REPS {
        let (est, secs) = timed(|| {
            Estimator::calibrate_with(&Platform::maia(), cfg.calib_samples, cfg.calib_seed).0
        });
        calibrate_s.push(secs);
        estimator = Some(est);
    }
    let estimator = estimator.expect("at least one calibration");
    report.metric(
        "estimate.calibrate_s",
        median(&calibrate_s).unwrap_or(0.0),
        "s",
        calibrate_s.len(),
    );

    let untraced_s = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let w = window(
        ctx,
        report,
        &mut server,
        &pops,
        untraced_s,
        None,
        Some(Pauses {
            host: &mut host,
            setup_s: &mut setup_s,
        }),
    );
    shut_down(server)?;
    let answered = w.latency_us.len();
    report.config("requests", w.requests);
    let per_bench: Vec<String> = pops
        .iter()
        .enumerate()
        .map(|(b, p)| {
            let n = w.answers.iter().filter(|a| a.bench == b).count();
            format!("{}:{n}", p.bench.name())
        })
        .collect();
    report.config("requests_per_bench", per_bench.join(","));
    host.report(report);
    host.time(
        report,
        "setup_s",
        median(&setup_s).unwrap_or(0.0),
        "s",
        setup_s.len(),
    );
    // The offered rate, unless the server falls behind it: set by the
    // schedule, not by the host's speed, so it is not scaled.
    report.metric("pts_per_s", answered as f64 / w.elapsed_s, "1/s", answered);
    // The gated latencies are round trips: timed from the due time, a
    // stall of the shared host holds up every request behind it. The
    // gated tail is the slow path's median, the round trip of a cache
    // miss (misses are the slowest 10–20% of requests); a high percentile
    // of all round trips counted how many requests the host stalled,
    // which swings from minute to minute. Both are printed ungated.
    let p50 = median(&w.round_trip_us).unwrap_or(0.0);
    host.time(report, "p50_us", p50, "us", answered);
    host.time(
        report,
        "tail_us",
        median(&w.miss_us).unwrap_or(0.0),
        "us",
        w.miss_us.len(),
    );
    report.config("tail_percentile", "median of cache misses");
    for (name, values) in [
        ("serve.p95_us", &w.round_trip_us),
        ("serve.due_p95_us", &w.latency_us),
    ] {
        if let Some(t) = tail(values) {
            report.metric(name, t.value, "us", t.samples);
        }
    }
    report_split(report, &w);
    check_and_score(ctx, report, &pops, &estimator, &w.answers);

    if ctx.trace {
        let mut server = spawn(ctx)?;
        let tracer = Tracer::new();
        let tw = window(
            ctx,
            report,
            &mut server,
            &pops,
            ctx.seconds / 2.0,
            Some(&tracer),
            None,
        );
        let acc = tracer.accounting();
        shut_down(server)?;
        report_split(report, &tw);
        let codec = tracer.layer(Layer::Codec);
        report.metric(
            "serve.codec_us",
            codec.self_ns as f64 / 1e3 / tw.requests.max(1) as f64,
            "us",
            tw.requests as usize,
        );
        let traced_p50 = median(&tw.round_trip_us).unwrap_or(0.0);
        report.metric(
            "trace.overhead_pct",
            100.0 * (traced_p50 / p50 - 1.0),
            "%",
            tw.round_trip_us.len(),
        );
        report.metric("trace.residual_pct", acc.residual_pct(), "%", 1);
        report.breakdown = Some((tracer.totals(), acc));
    }
    Ok(())
}

/// Hit and miss round trips, the miss share and the generator's
/// lateness.
fn report_split(report: &mut Report, w: &Window) {
    report.metric(
        "serve.hit_p50_us",
        median(&w.hit_us).unwrap_or(0.0),
        "us",
        w.hit_us.len(),
    );
    report.metric(
        "serve.miss_p50_us",
        median(&w.miss_us).unwrap_or(0.0),
        "us",
        w.miss_us.len(),
    );
    let answered = w.hit_us.len() + w.miss_us.len();
    report.metric(
        "serve.miss_share",
        w.miss_us.len() as f64 / answered.max(1) as f64,
        "ratio",
        answered,
    );
    report.metric(
        "loadgen.late_p99_us",
        percentile(&w.late_us, 99.0).map_or(0.0, |p| p.value),
        "us",
        w.late_us.len(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_draws_favour_low_ranks_and_cover_the_space() {
        let mut space = dhdl_core::ParamSpace::new();
        space.par("p", 64, 64);
        let legal = LegalSpace::new(&space);
        let size = u64::try_from(legal.size()).unwrap();
        let mut rng = Rng::new(1, 2);
        let pop = Popularity::new(Box::new(dhdl_apps::DotProduct::default()), legal, &mut rng);
        assert_eq!(gcd(pop.stride, size), 1);
        let mut counts = vec![0u32; size as usize];
        for _ in 0..20_000 {
            counts[pop.draw(&mut rng) as usize] += 1;
        }
        // Rank 0 and rank 1 map to these points; s = 1 makes rank 0
        // about twice as popular as rank 1.
        let top = counts[pop.offset as usize];
        let second = counts[((pop.stride + pop.offset) % size) as usize];
        let ratio = f64::from(top) / f64::from(second);
        assert!((1.7..2.3).contains(&ratio), "{top} vs {second}");
        assert!(counts.iter().all(|&c| c > 0), "every point is reachable");
    }
}

//! Layer timers for the traced run.
//!
//! Every span is opened from the benchmark's side of a call into one of
//! the program's layers; nothing inside the program is instrumented.
//! Spans nest per thread, and a span's *self* time is its duration minus
//! the time its child spans covered, so the layers' self times add up to
//! the wall time with nothing counted twice. A parallel section (the
//! 2-thread DSE sweep) is accounted per worker: the section's duration
//! counts once per thread, and whatever the workers spent outside their
//! own spans is the section's self time (the sweep runner's residual).

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::ThreadId;
use std::time::Instant;

use crate::stats::Accounting;

/// The layers the traced run times, named after the crates they live in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Benchmark::build`, including design validation.
    Build,
    /// The estimate cache's front door: `CachedModel::estimate_devices`
    /// minus the estimator it wraps (structural hash, L2 get/insert and
    /// the parameter memo insert).
    CacheKey,
    /// The warm fast path: `CostModel::lookup_params` (L1 memo).
    CacheLookup,
    /// `Estimator::elaborate`.
    Elaborate,
    /// `Estimator::estimate_net`.
    EstimateNet,
    /// The DSE sweep runner: worker time outside every span above.
    Runner,
    /// `EstimateCache::load`.
    CacheLoad,
    /// `EstimateCache::save`.
    CacheSave,
    /// `dhdl_synth::place_and_route`.
    PlaceRoute,
    /// The simulator entry point, `simulate_with`.
    Simulate,
    /// One served request: frame write, server work and frame read.
    Request,
    /// Request encoding and response parsing (`Request::render`,
    /// `Json::parse`).
    Codec,
    /// The open-loop generator drawing its next request.
    Generate,
    /// The open-loop generator waiting for the next due time.
    Wait,
    /// The benchmark's own work inside the window: output checks and
    /// bookkeeping.
    Harness,
}

/// Every layer, in report order.
pub const LAYERS: [Layer; 15] = [
    Layer::Build,
    Layer::CacheKey,
    Layer::CacheLookup,
    Layer::Elaborate,
    Layer::EstimateNet,
    Layer::Runner,
    Layer::CacheLoad,
    Layer::CacheSave,
    Layer::PlaceRoute,
    Layer::Simulate,
    Layer::Request,
    Layer::Codec,
    Layer::Generate,
    Layer::Wait,
    Layer::Harness,
];

impl Layer {
    /// The layer's name in the report.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Build => "core.build",
            Layer::CacheKey => "dse.cache.key",
            Layer::CacheLookup => "dse.cache.lookup",
            Layer::Elaborate => "synth.elaborate",
            Layer::EstimateNet => "estimate.net",
            Layer::Runner => "dse.runner",
            Layer::CacheLoad => "dse.cache.load",
            Layer::CacheSave => "dse.cache.save",
            Layer::PlaceRoute => "synth.place_route",
            Layer::Simulate => "sim.simulate",
            Layer::Request => "serve.request",
            Layer::Codec => "serve.codec",
            Layer::Generate => "loadgen.generate",
            Layer::Wait => "loadgen.wait",
            Layer::Harness => "bench.harness",
        }
    }

    fn index(self) -> usize {
        LAYERS
            .iter()
            .position(|&l| l == self)
            .expect("every layer is listed in LAYERS")
    }
}

thread_local! {
    /// Open spans on this thread: the nanoseconds their children covered.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` as a span of `layer` when tracing, or just run it.
pub fn span<T>(tracer: Option<&Tracer>, layer: Layer, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.span(layer, f),
        None => f(),
    }
}

/// One layer's totals over a traced window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerTotals {
    /// The layer.
    pub layer: Layer,
    /// Spans closed.
    pub calls: u64,
    /// Self time, in nanoseconds.
    pub self_ns: u64,
}

impl LayerTotals {
    /// Mean self time per call, in microseconds (0 when never called).
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 / 1e3
        }
    }
}

/// Collects span self times for one traced window.
#[derive(Debug)]
pub struct Tracer {
    main: ThreadId,
    started: Instant,
    self_ns: [AtomicU64; LAYERS.len()],
    calls: [AtomicU64; LAYERS.len()],
    /// Durations of outermost spans closed on threads other than `main`.
    worker_top_ns: AtomicU64,
    /// Extra worker time of parallel sections: `(threads − 1) × duration`.
    extra_ns: AtomicU64,
}

impl Tracer {
    /// Start a traced window; the calling thread is the window's main
    /// thread.
    pub fn new() -> Self {
        Tracer {
            main: std::thread::current().id(),
            started: Instant::now(),
            self_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            calls: std::array::from_fn(|_| AtomicU64::new(0)),
            worker_top_ns: AtomicU64::new(0),
            extra_ns: AtomicU64::new(0),
        }
    }

    fn record(&self, layer: Layer, self_ns: u64) {
        let i = layer.index();
        self.self_ns[i].fetch_add(self_ns, Ordering::Relaxed);
        self.calls[i].fetch_add(1, Ordering::Relaxed);
    }

    /// Close a span of `dur_ns` on this thread: hand its duration to the
    /// enclosing span, or, for an outermost span on a worker thread, to
    /// the parallel section it ran in.
    fn close(&self, dur_ns: u64) {
        let nested = OPEN.with(|open| match open.borrow_mut().last_mut() {
            Some(parent) => {
                *parent += dur_ns;
                true
            }
            None => false,
        });
        if !nested && std::thread::current().id() != self.main {
            self.worker_top_ns.fetch_add(dur_ns, Ordering::Relaxed);
        }
    }

    /// Run `f` as a span of `layer`.
    pub fn span<T>(&self, layer: Layer, f: impl FnOnce() -> T) -> T {
        OPEN.with(|open| open.borrow_mut().push(0));
        let t0 = Instant::now();
        let out = f();
        let dur = t0.elapsed().as_nanos() as u64;
        let children = OPEN.with(|open| open.borrow_mut().pop().expect("span was opened"));
        self.record(layer, dur.saturating_sub(children));
        self.close(dur);
        out
    }

    /// Run `f`, which spreads its work over `threads` worker threads, as
    /// a parallel section of `layer`. Its duration counts once per
    /// worker; the layer's self time is that total minus the workers'
    /// outermost spans. Call it from the main thread, outside any span.
    pub fn parallel<T>(&self, layer: Layer, threads: u32, f: impl FnOnce() -> T) -> T {
        let before = self.worker_top_ns.load(Ordering::Relaxed);
        let t0 = Instant::now();
        let out = f();
        let dur = t0.elapsed().as_nanos() as u64;
        let in_spans = self.worker_top_ns.load(Ordering::Relaxed) - before;
        let worker_ns = dur * u64::from(threads);
        self.record(layer, worker_ns.saturating_sub(in_spans));
        self.extra_ns.fetch_add(worker_ns - dur, Ordering::Relaxed);
        out
    }

    /// Totals of every layer so far.
    pub fn totals(&self) -> Vec<LayerTotals> {
        LAYERS
            .iter()
            .map(|&layer| LayerTotals {
                layer,
                calls: self.calls[layer.index()].load(Ordering::Relaxed),
                self_ns: self.self_ns[layer.index()].load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Totals of one layer.
    pub fn layer(&self, layer: Layer) -> LayerTotals {
        self.totals()[layer.index()]
    }

    /// Close the window: the wall time since [`Tracer::new`], summed per
    /// worker, against the layers' self times.
    pub fn accounting(&self) -> Accounting {
        let wall = self.started.elapsed().as_nanos() as u64;
        Accounting {
            total_ns: wall + self.extra_ns.load(Ordering::Relaxed),
            layers_ns: self.totals().iter().map(|t| t.self_ns).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn busy(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn nested_spans_report_self_time() {
        let tracer = Tracer::new();
        tracer.span(Layer::CacheKey, || {
            busy(Duration::from_millis(2));
            tracer.span(Layer::Elaborate, || busy(Duration::from_millis(5)));
            tracer.span(Layer::EstimateNet, || busy(Duration::from_millis(3)));
        });
        // Busy-waits last at least their length; a preempted one longer,
        // hence the loose upper ends.
        let ms = |l| tracer.layer(l).self_ns as f64 / 1e6;
        // The parent's self time excludes the children's 8 ms.
        assert!(
            (2.0..10.0).contains(&ms(Layer::CacheKey)),
            "{}",
            ms(Layer::CacheKey)
        );
        assert!((5.0..20.0).contains(&ms(Layer::Elaborate)));
        assert!((3.0..20.0).contains(&ms(Layer::EstimateNet)));
        assert_eq!(tracer.layer(Layer::Elaborate).calls, 1);
        assert_eq!(tracer.layer(Layer::Build).calls, 0);
    }

    #[test]
    fn layers_and_residual_add_up_to_the_wall_time_per_worker() {
        let tracer = Tracer::new();
        tracer.span(Layer::CacheLoad, || busy(Duration::from_millis(3)));
        // Untraced gap on the main thread: the residual.
        busy(Duration::from_millis(4));
        // Two workers, each spending 6 ms in a span and 2 ms outside.
        let t0 = Instant::now();
        tracer.parallel(Layer::Runner, 2, || {
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        tracer.span(Layer::Build, || busy(Duration::from_millis(6)));
                        busy(Duration::from_millis(2));
                    });
                }
            });
        });
        let section_ns = t0.elapsed().as_nanos() as u64;
        let acc = tracer.accounting();
        let ns = |l| tracer.layer(l).self_ns;
        assert_eq!(
            acc.layers_ns,
            tracer.totals().iter().map(|t| t.self_ns).sum::<u64>()
        );
        assert_eq!(tracer.layer(Layer::Build).calls, 2);
        // Per worker, the section counts twice: the runner's self time is
        // that, less the workers' spans.
        let per_worker = 2 * section_ns;
        let runner_plus_build = ns(Layer::Runner) + ns(Layer::Build);
        assert!(runner_plus_build <= per_worker);
        assert!(
            per_worker - runner_plus_build < 500_000,
            "{per_worker} vs {runner_plus_build}"
        );
        // The residual is the untraced 4 ms gap, plus scheduling noise.
        let residual_ms = acc.residual_ns() as f64 / 1e6;
        assert!((4.0..20.0).contains(&residual_ms), "{residual_ms}");
    }
}

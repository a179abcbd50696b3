//! Helpers shared by the workloads: the benchmark suite, seeded input
//! generation, area scoring against the synthesis model, and facts about
//! the host.

use std::path::PathBuf;
use std::time::Instant;

use dhdl_apps::Benchmark;
use dhdl_core::{structural_hash, Design, Fnv64};
use dhdl_estimate::Estimate;
use dhdl_synth::{design_hash, elaborate, place_and_route};
use dhdl_target::{AreaReport, FpgaTarget};

use crate::report::Report;
use crate::stats::mean_abs_err_pct;

/// Seed of the one-time estimator calibration. Fixed, so every run
/// trains the same model; the workload seed only shapes the inputs.
pub const CALIBRATION_SEED: u64 = 42;

/// Times each workload sets itself up; `setup_s` is the median.
pub const SETUP_REPS: usize = 7;

/// How many repeated set-ups run just before step `step` of a window of
/// `steps` steps. The first of [`SETUP_REPS`] set-ups runs before the
/// window and serves it; the others are spread evenly over the window.
/// A shared host's speed swings for seconds at a time, so set-ups made
/// back to back all land in one swing and their median is that swing's.
pub fn setups_before(step: usize, steps: usize) -> usize {
    (1..SETUP_REPS)
        .filter(|k| k * steps / SETUP_REPS == step)
        .count()
}

/// Design points per benchmark scored against the synthesis model.
pub const SCORED_PER_BENCH: usize = 200;

/// What one run needs to know.
#[derive(Debug)]
pub struct Ctx {
    /// Workload seed: all generated inputs derive from it.
    pub seed: u64,
    /// Length of the measured window, in seconds.
    pub seconds: f64,
    /// Run the traced window (per-layer metrics) instead of the untraced
    /// one (end-to-end metrics).
    pub trace: bool,
    /// Per-run scratch directory inside the checkout.
    pub tmp: PathBuf,
}

/// The nine benchmarks: Table II's seven plus the DNN frontier.
pub fn suite() -> Vec<Box<dyn Benchmark>> {
    dhdl_apps::all()
        .into_iter()
        .chain(dhdl_apps::dnn())
        .collect()
}

/// The parameter-memo salt for a benchmark, built the way the experiment
/// harness builds it: name, dataset and the default design's structure.
pub fn bench_salt(bench: &dyn Benchmark) -> u64 {
    let mut h = Fnv64::new();
    h.write(bench.name().as_bytes());
    h.write(bench.dataset_desc().as_bytes());
    match bench.build(&bench.default_params()) {
        Ok(design) => h.write_u64(structural_hash(&design)),
        Err(_) => h.write_u64(0),
    }
    h.finish()
}

/// A small deterministic generator (SplitMix64) for workload inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `k` distinct indices below `n` in random order (all of them,
    /// shuffled, when `k >= n`).
    pub fn distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        let k = k.min(n);
        for i in 0..k {
            let j = i + self.below((n - i) as u64) as usize;
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }
}

/// Run `f`, returning its result and how long it took in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Ground-truth area of a design: the synthesis model's place-and-route
/// report.
pub fn area_truth(design: &Design, fpga: &FpgaTarget) -> AreaReport {
    let net = elaborate(design, fpga);
    place_and_route(design_hash(design), &net, fpga).area_report()
}

/// `(estimate, truth)` pairs of the three area resources Table III
/// scores.
#[derive(Debug, Default)]
pub struct AreaErrors {
    alm: Vec<(f64, f64)>,
    dsp: Vec<(f64, f64)>,
    bram: Vec<(f64, f64)>,
}

impl AreaErrors {
    /// Score one estimate against its ground truth.
    pub fn push(&mut self, est: &AreaReport, truth: &AreaReport) {
        self.alm.push((est.alms, truth.alms));
        self.dsp.push((est.dsps, truth.dsps));
        self.bram.push((est.brams, truth.brams));
    }

    /// Record `err_{alm,dsp,bram}_pct`: mean absolute error in percent.
    pub fn report(&self, report: &mut Report) {
        for (name, pairs) in [
            ("err_alm_pct", &self.alm),
            ("err_dsp_pct", &self.dsp),
            ("err_bram_pct", &self.bram),
        ] {
            let value = mean_abs_err_pct(pairs).unwrap_or(f64::NAN);
            report.metric(name, value, "%", pairs.len());
        }
    }
}

/// Whether two estimates are bit-for-bit the same.
pub fn same_bits(a: &Estimate, b: &Estimate) -> bool {
    estimate_bits(a) == estimate_bits(b)
}

/// The IEEE-754 bit patterns of an estimate's fields, in wire order.
pub fn estimate_bits(e: &Estimate) -> [u64; 5] {
    [
        e.cycles.to_bits(),
        e.area.alms.to_bits(),
        e.area.regs.to_bits(),
        e.area.dsps.to_bits(),
        e.area.brams.to_bits(),
    ]
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Ticks this virtual machine's CPUs were runnable but not run by the
/// host (`steal` in `/proc/stat`), and all ticks, so far.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// The host's CPU model, from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The first line a command prints, or `unknown` when it fails.
pub fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_set_ups_spread_over_the_window() {
        let at = |steps: usize| -> Vec<usize> {
            (0..steps)
                .flat_map(|i| std::iter::repeat_n(i, setups_before(i, steps)))
                .collect()
        };
        assert_eq!(at(16), [2, 4, 6, 9, 11, 13]);
        // Fewer steps than set-ups: several run before one step.
        assert_eq!(at(2), [0, 0, 0, 1, 1, 1]);
        assert_eq!(at(254).len(), SETUP_REPS - 1);
    }

    #[test]
    fn rng_is_deterministic_and_distinct_draws_are_distinct() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        let mut r = Rng::new(3, 0);
        let d = r.distinct(50, 20);
        assert_eq!(d.len(), 20);
        let mut s = d.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 20);
        assert!(d.iter().all(|&i| i < 50));
        assert_eq!(Rng::new(3, 0).distinct(5, 9).len(), 5);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            assert!(r.below(3) < 3);
        }
    }
}

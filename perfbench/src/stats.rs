//! Summary statistics shared by the workloads: medians, the tail
//! percentile rule, open-loop request timing, estimate error and the
//! traced run's time accounting.

use std::time::{Duration, Instant};

/// Median of `values` (mean of the middle pair for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// A percentile of a sample, with the sample count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile, in percent (e.g. 99.0).
    pub pct: f64,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// The nearest-rank `pct` percentile of `values`; `None` when empty.
pub fn percentile(values: &[f64], pct: f64) -> Option<Percentile> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    // The epsilon keeps a rank that is whole in exact arithmetic from
    // rounding up to the next sample.
    let rank = ((pct / 100.0) * n as f64 - 1e-9).ceil() as usize;
    Some(Percentile {
        pct,
        value: v[rank.clamp(1, n) - 1],
        samples: n,
    })
}

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile a tail is reported at. On a small shared host,
/// stalls of milliseconds touch up to a few percent of requests in a busy
/// minute; above p95 a tail measures them rather than the program.
pub const TAIL_CAP: f64 = 95.0;

/// The highest percentile, up to [`TAIL_CAP`], that still has at least
/// [`TAIL_BEYOND`] samples beyond it: p95 from 200 samples on, lower on
/// smaller samples. `None` with fewer than 11 samples, where no
/// percentile qualifies.
pub fn tail(values: &[f64]) -> Option<Percentile> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let pct = (100.0 * (n - TAIL_BEYOND) as f64 / n as f64).min(TAIL_CAP);
    percentile(values, pct)
}

/// Relative error of a prediction against ground truth (0 when both are
/// 0, 1 when only the truth is 0) — the Table III convention.
pub fn rel_err(pred: f64, truth: f64) -> f64 {
    if truth.abs() < 1e-9 {
        if pred.abs() < 1e-9 {
            0.0
        } else {
            1.0
        }
    } else {
        ((pred - truth) / truth).abs()
    }
}

/// Mean absolute relative error, in percent, of `(prediction, truth)`
/// pairs; `None` when there are none.
pub fn mean_abs_err_pct(pairs: &[(f64, f64)]) -> Option<f64> {
    if pairs.is_empty() {
        return None;
    }
    let sum: f64 = pairs.iter().map(|&(p, t)| rel_err(p, t)).sum();
    Some(100.0 * sum / pairs.len() as f64)
}

/// The schedule of an open-loop generator: request `i` is due at
/// `start + i · interval`, whether or not earlier requests finished.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// When request 0 is due.
    pub start: Instant,
    /// Time between consecutive due times (1 / offered rate).
    pub interval: Duration,
}

impl Schedule {
    /// A schedule offering `rate` requests per second from `start`.
    pub fn new(start: Instant, rate: f64) -> Self {
        Schedule {
            start,
            interval: Duration::from_secs_f64(1.0 / rate),
        }
    }

    /// When request `i` is due.
    pub fn due(&self, i: u64) -> Instant {
        self.start + self.interval.mul_f64(i as f64)
    }
}

/// Timing of one open-loop request, all in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// From when the request was due to when its response arrived: a
    /// stall delays every later request, and that wait is counted.
    pub latency_us: f64,
    /// How late the generator sent it.
    pub late_us: f64,
    /// From when it was sent to when its response arrived: the request's
    /// own round trip, without the wait behind earlier stalls.
    pub round_trip_us: f64,
}

/// Time one request from its due time and from when it was sent.
pub fn time_from_due(due: Instant, sent: Instant, done: Instant) -> Timing {
    let us = |from: Instant| done.saturating_duration_since(from).as_secs_f64() * 1e6;
    Timing {
        latency_us: us(due),
        late_us: sent.saturating_duration_since(due).as_secs_f64() * 1e6,
        round_trip_us: us(sent),
    }
}

/// Where a traced run's time went: the layers' self times against the
/// wall time, summed per worker where several threads worked at once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accounting {
    /// Wall time to account for, in nanoseconds: the traced window plus,
    /// for each parallel section, `(threads − 1) ×` its duration.
    pub total_ns: u64,
    /// Sum of every layer's self time.
    pub layers_ns: u64,
}

impl Accounting {
    /// Time no layer explains (negative when layers overlap the wall
    /// time, which would be a tracing bug).
    pub fn residual_ns(&self) -> i64 {
        self.total_ns as i64 - self.layers_ns as i64
    }

    /// The residual as a percentage of the accounted time.
    pub fn residual_pct(&self) -> f64 {
        if self.total_ns == 0 {
            return 0.0;
        }
        100.0 * self.residual_ns() as f64 / self.total_ns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        // Too few samples: no percentile has ten beyond it.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);

        // 40 samples: the rule allows p75 = the 30th value, with the
        // ten values 31..=40 beyond it.
        let forty: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        let t = tail(&forty).unwrap();
        assert_eq!(t.pct, 75.0);
        assert_eq!(t.value, 30.0);
        assert_eq!(t.samples, 40);
        assert_eq!(forty.iter().filter(|&&v| v > t.value).count(), 10);

        // 54 samples: p81.48, the 44th value.
        let n54: Vec<f64> = (1..=54).map(f64::from).collect();
        let t = tail(&n54).unwrap();
        assert!((t.pct - 100.0 * 44.0 / 54.0).abs() < 1e-9);
        assert_eq!(t.value, 44.0);

        // 200 samples: exactly p95 with ten beyond.
        let n200: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&n200).unwrap().value, 190.0);

        // 5000 samples: capped at p95 (250 samples beyond).
        let big: Vec<f64> = (1..=5000).map(f64::from).collect();
        let t = tail(&big).unwrap();
        assert_eq!((t.pct, t.value, t.samples), (95.0, 4750.0, 5000));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0).unwrap().value, 50.0);
        assert_eq!(percentile(&v, 99.0).unwrap().value, 99.0);
        assert_eq!(percentile(&v, 100.0).unwrap().value, 100.0);
        assert_eq!(percentile(&v, 0.0).unwrap().value, 1.0);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn mean_error_follows_the_table_iii_convention() {
        assert_eq!(mean_abs_err_pct(&[]), None);
        // |110−100|/100 = 10 %, |90−100|/100 = 10 %, exact = 0 %.
        let e = mean_abs_err_pct(&[(110.0, 100.0), (90.0, 100.0), (5.0, 5.0)]).unwrap();
        assert!((e - 20.0 / 3.0).abs() < 1e-12, "{e}");
        // Zero truth: exact zero is free, anything else is 100 %.
        assert_eq!(rel_err(0.0, 0.0), 0.0);
        assert_eq!(rel_err(3.0, 0.0), 1.0);
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let t0 = Instant::now();
        let sched = Schedule::new(t0, 1000.0); // one request per ms
        assert_eq!(sched.due(0), t0);
        assert_eq!(sched.due(3), t0 + Duration::from_millis(3));
        // Request 0 stalls for 3.5 ms; request 1, due at 1 ms, can only
        // be sent at 3.5 ms and answers 0.2 ms later. Its latency is the
        // 2.7 ms from its due time, of which 2.5 ms was the generator
        // running late and 0.2 ms its own round trip.
        let ms = |x: f64| t0 + Duration::from_secs_f64(x / 1e3);
        let r0 = time_from_due(sched.due(0), ms(0.0), ms(3.5));
        let r1 = time_from_due(sched.due(1), ms(3.5), ms(3.7));
        assert!((r0.latency_us - 3500.0).abs() < 1e-6);
        assert_eq!(r0.late_us, 0.0);
        assert!((r1.latency_us - 2700.0).abs() < 1e-6, "{r1:?}");
        assert!((r1.late_us - 2500.0).abs() < 1e-6, "{r1:?}");
        assert!((r1.round_trip_us - 200.0).abs() < 1e-6, "{r1:?}");
        assert!((r0.round_trip_us - 3500.0).abs() < 1e-6, "{r0:?}");
    }

    #[test]
    fn residual_is_what_the_layers_leave_unexplained() {
        let a = Accounting {
            total_ns: 1_000,
            layers_ns: 960,
        };
        assert_eq!(a.residual_ns(), 40);
        assert!((a.residual_pct() - 4.0).abs() < 1e-12);
        let over = Accounting {
            total_ns: 100,
            layers_ns: 110,
        };
        assert_eq!(over.residual_ns(), -10);
    }
}

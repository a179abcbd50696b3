//! The host-speed probe.
//!
//! The reference host is a few CPUs of a shared machine, and its speed
//! follows its neighbours: from one second to the next by up to a third,
//! and from one minute to the next by 10–50%. No median within a run
//! removes swings that long, so every run also times a fixed probe,
//! interleaved with its work, and the gated timings are scaled by how
//! much slower or faster than its nominal time the probe ran in that run.
//! The probe is the benchmark's own code and never changes between the
//! commits it compares, so a change to the program moves the scaled
//! timings exactly as it moves the raw ones; a busy neighbour moves the
//! probe as well and cancels out, in part. The raw timings are printed
//! ungated.
//!
//! The probe is a branchy walk over a table that stays in the core's own
//! cache: no allocation, no system call, nothing the workload's heap or
//! the kernel can slow. Probes that allocated, or that read a table past
//! the core's cache, followed the workloads less closely. A served
//! request is half a loopback round trip, which the walk does not
//! follow, so the serving workload also times round trips to an echo
//! thread and takes the geometric mean of the two slowdowns.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::report::Report;
use crate::stats::median;

/// The probe's time on the reference host (2 vCPUs of an Intel Xeon) in
/// a calm minute, in seconds. Timings are scaled to a host this fast.
pub const NOMINAL_S: f64 = 0.6e-3;

/// The median loopback round trip on the reference host in a calm
/// minute, in seconds.
pub const NOMINAL_ROUND_TRIP_S: f64 = 10e-6;

/// Loopback round trips per sample; the sample is their median.
const ROUND_TRIPS: usize = 21;

/// Bytes per echoed message.
const MESSAGE: usize = 64;

/// Least time between two samples taken by [`HostSpeed::tick`].
const INTERVAL: Duration = Duration::from_millis(100);

/// Words in the table (64 KiB).
const TABLE_WORDS: usize = 1 << 13;

/// Reads per probe.
const STEPS: u64 = 300_000;

/// A table walk: `steps` seeded reads of `table` (its length a power of
/// two), branching on what each read finds.
fn walk(table: &mut [u64], steps: u64) -> f64 {
    let mask = table.len() - 1;
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0.0f64;
    for i in 0..steps {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let j = (x >> 32) as usize & mask;
        match table[j] & 3 {
            0 => table[j] = table[j].wrapping_add(x),
            1 => acc += (table[j] >> 40) as f64 * 0.5,
            2 => table[j] ^= i,
            _ => acc *= 0.999,
        }
    }
    acc
}

/// A connection to a thread that sends every message straight back.
struct Echo {
    stream: TcpStream,
    thread: Option<JoinHandle<()>>,
}

impl Echo {
    fn start() -> std::io::Result<Echo> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let thread = std::thread::Builder::new()
            .name("echo".into())
            .spawn(move || {
                let Ok((mut s, _)) = listener.accept() else {
                    return;
                };
                let _ = s.set_nodelay(true);
                let mut buf = [0u8; MESSAGE];
                while s.read_exact(&mut buf).is_ok() && s.write_all(&buf).is_ok() {}
            })?;
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Echo {
            stream,
            thread: Some(thread),
        })
    }

    /// The median of [`ROUND_TRIPS`] round trips, in seconds; `None`
    /// when the connection fails.
    fn round_trip(&mut self) -> Option<f64> {
        let mut buf = [7u8; MESSAGE];
        let mut times = Vec::with_capacity(ROUND_TRIPS);
        for _ in 0..ROUND_TRIPS {
            let t0 = Instant::now();
            self.stream.write_all(&buf).ok()?;
            self.stream.read_exact(&mut buf).ok()?;
            times.push(t0.elapsed().as_secs_f64());
        }
        median(&times)
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        // The echo thread's read fails and the thread ends.
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// One run's probe samples.
pub struct HostSpeed {
    table: Vec<u64>,
    samples_s: Vec<f64>,
    echo: Option<Echo>,
    round_trips_s: Vec<f64>,
    last: Option<Instant>,
}

impl Default for HostSpeed {
    fn default() -> Self {
        HostSpeed {
            table: vec![1; TABLE_WORDS],
            samples_s: Vec::new(),
            echo: None,
            round_trips_s: Vec::new(),
            last: None,
        }
    }
}

impl HostSpeed {
    /// A probe that also times loopback round trips to an echo thread.
    pub fn with_loopback() -> std::io::Result<HostSpeed> {
        Ok(HostSpeed {
            echo: Some(Echo::start()?),
            ..HostSpeed::default()
        })
    }

    /// Time the probe once.
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        std::hint::black_box(walk(&mut self.table, STEPS));
        self.samples_s.push(t0.elapsed().as_secs_f64());
        if let Some(rt) = self.echo.as_mut().and_then(Echo::round_trip) {
            self.round_trips_s.push(rt);
        }
        self.last = Some(Instant::now());
    }

    /// Time the probe if [`INTERVAL`] has passed since the last sample;
    /// called between steps of a window.
    pub fn tick(&mut self) {
        if self.last.is_none_or(|t| t.elapsed() >= INTERVAL) {
            self.sample();
        }
    }

    /// How much slower than the reference host this run's host ran: the
    /// walk's median time over [`NOMINAL_S`], and with loopback the
    /// geometric mean of that and the round trip's median over
    /// [`NOMINAL_ROUND_TRIP_S`]. 1 without samples.
    pub fn slowdown(&self) -> f64 {
        let walk = median(&self.samples_s).map_or(1.0, |m| m / NOMINAL_S);
        match median(&self.round_trips_s) {
            Some(rt) => (walk * rt / NOMINAL_ROUND_TRIP_S).sqrt(),
            None => walk,
        }
    }

    /// Record a timing, in `unit`, as measured (`raw.<name>`, ungated)
    /// and scaled to the reference host's speed (`name`).
    pub fn time(&self, report: &mut Report, name: &str, raw: f64, unit: &'static str, n: usize) {
        report.metric(&format!("raw.{name}"), raw, unit, n);
        report.metric(name, raw / self.slowdown(), unit, n);
    }

    /// Record a rate, per second, as measured and scaled (see
    /// [`HostSpeed::time`]).
    pub fn rate(&self, report: &mut Report, name: &str, raw: f64, unit: &'static str, n: usize) {
        report.metric(&format!("raw.{name}"), raw, unit, n);
        report.metric(name, raw * self.slowdown(), unit, n);
    }

    /// Record the probe itself.
    pub fn report(&self, report: &mut Report) {
        let n = self.samples_s.len();
        report.metric(
            "host.probe_ms",
            median(&self.samples_s).unwrap_or(0.0) * 1e3,
            "ms",
            n,
        );
        if self.echo.is_some() {
            report.metric(
                "host.round_trip_us",
                median(&self.round_trips_s).unwrap_or(0.0) * 1e6,
                "us",
                self.round_trips_s.len(),
            );
        }
        report.metric("host.slowdown", self.slowdown(), "ratio", n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_undoes_a_uniformly_slower_host() {
        let mut r = Report::default();
        // A host that runs the probe in twice its nominal time.
        let h = HostSpeed {
            samples_s: vec![2.0 * NOMINAL_S; 3],
            ..HostSpeed::default()
        };
        h.time(&mut r, "p50_us", 100.0, "us", 7);
        h.rate(&mut r, "pts_per_s", 10.0, "1/s", 7);
        assert_eq!(r.metrics["raw.p50_us"].value, 100.0);
        assert!((r.metrics["p50_us"].value - 50.0).abs() < 1e-9);
        assert!((r.metrics["pts_per_s"].value - 20.0).abs() < 1e-9);
        assert_eq!(r.metrics["p50_us"].samples, 7);
    }

    #[test]
    fn ticks_sample_at_most_once_per_interval() {
        let mut h = HostSpeed::default();
        assert_eq!(h.slowdown(), 1.0);
        h.tick();
        h.tick();
        assert_eq!(h.samples_s.len(), 1);
        assert!(h.samples_s[0] > 0.0);
    }

    #[test]
    fn loopback_joins_the_walk_by_geometric_mean() {
        let mut h = HostSpeed::with_loopback().unwrap();
        h.sample();
        assert_eq!(h.round_trips_s.len(), 1);
        assert!(h.round_trips_s[0] > 0.0);
        // Walk 4× slower, round trip 1× nominal: √4 = 2.
        h.samples_s = vec![4.0 * NOMINAL_S];
        h.round_trips_s = vec![NOMINAL_ROUND_TRIP_S];
        assert!((h.slowdown() - 2.0).abs() < 1e-9);
        // Dropping it ends the echo thread.
        drop(h);
    }
}

//! A minimal wall-clock benchmark harness.
//!
//! The `[[bench]]` targets in this crate are plain `harness = false`
//! binaries (the workspace builds offline with no external crates, so
//! criterion is not available). Each target prints its scientific output
//! (simulated latencies/counters) once, then times the simulator itself
//! with this harness as a wall-clock regression guard.
//!
//! Sample count defaults to 10; override with `TC_BENCH_SAMPLES=n` (a
//! positive integer; anything else is rejected with an error).

use std::hint::black_box;
use std::time::{Duration, Instant};

/// One benchmark group: times closures and prints a min/median/max table.
pub struct Harness {
    group: String,
    samples: u32,
    header_printed: bool,
}

impl Harness {
    /// Create a group named `group` (conventionally the bench target name).
    /// Exits with status 2 if `TC_BENCH_SAMPLES` is set but not a positive
    /// integer.
    pub fn new(group: &str) -> Self {
        let var = std::env::var_os("TC_BENCH_SAMPLES").map(|v| v.to_string_lossy().into_owned());
        let samples = samples_from(var.as_deref()).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        });
        Harness {
            group: group.to_string(),
            samples,
            header_printed: false,
        }
    }

    /// The sample count this group times each closure with.
    pub fn samples(&self) -> u32 {
        self.samples
    }

    /// Time `f` over the group's sample count (after one warm-up call) and
    /// print a `group/name  min median max` row.
    pub fn bench<T, F: FnMut() -> T>(&mut self, name: &str, f: F) {
        self.bench_median_ns(name, f);
    }

    /// Like [`Harness::bench`], but also return the median wall-clock
    /// nanoseconds per run so callers can derive throughput figures.
    pub fn bench_median_ns<T, F: FnMut() -> T>(&mut self, name: &str, mut f: F) -> u64 {
        if !self.header_printed {
            println!(
                "{:44} {:>12} {:>12} {:>12}  ({} samples)",
                "benchmark", "min", "median", "max", self.samples
            );
            self.header_printed = true;
        }
        black_box(f());
        let mut times: Vec<Duration> = (0..self.samples)
            .map(|_| {
                let t0 = Instant::now();
                black_box(f());
                t0.elapsed()
            })
            .collect();
        times.sort();
        println!(
            "{:44} {:>12} {:>12} {:>12}",
            format!("{}/{}", self.group, name),
            fmt_duration(times[0]),
            fmt_duration(times[times.len() / 2]),
            fmt_duration(times[times.len() - 1]),
        );
        (times[times.len() / 2].as_nanos() as u64).max(1)
    }

    /// Time two closures with *interleaved* samples — `a, b, a, b, …` —
    /// so load drift during the run biases both the same way. Prints one
    /// row per closure and returns both median nanoseconds. Use this when
    /// the ratio between the two timings is the result (e.g. the desim
    /// wheel-vs-heap suite).
    pub fn bench_pair_median_ns<A, B, FA, FB>(
        &mut self,
        name_a: &str,
        mut fa: FA,
        name_b: &str,
        mut fb: FB,
    ) -> (u64, u64)
    where
        FA: FnMut() -> A,
        FB: FnMut() -> B,
    {
        if !self.header_printed {
            println!(
                "{:44} {:>12} {:>12} {:>12}  ({} samples)",
                "benchmark", "min", "median", "max", self.samples
            );
            self.header_printed = true;
        }
        black_box(fa());
        black_box(fb());
        let mut times_a: Vec<Duration> = Vec::with_capacity(self.samples as usize);
        let mut times_b: Vec<Duration> = Vec::with_capacity(self.samples as usize);
        for _ in 0..self.samples {
            let t0 = Instant::now();
            black_box(fa());
            times_a.push(t0.elapsed());
            let t0 = Instant::now();
            black_box(fb());
            times_b.push(t0.elapsed());
        }
        let median = |name: &str, times: &mut Vec<Duration>| {
            times.sort();
            println!(
                "{:44} {:>12} {:>12} {:>12}",
                format!("{}/{}", self.group, name),
                fmt_duration(times[0]),
                fmt_duration(times[times.len() / 2]),
                fmt_duration(times[times.len() - 1]),
            );
            (times[times.len() / 2].as_nanos() as u64).max(1)
        };
        (median(name_a, &mut times_a), median(name_b, &mut times_b))
    }
}

/// The sample count a `TC_BENCH_SAMPLES` value asks for: 10 when unset,
/// otherwise the value, which must be a positive integer.
pub fn samples_from(var: Option<&str>) -> Result<u32, String> {
    let Some(s) = var else { return Ok(10) };
    match s.parse() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!(
            "TC_BENCH_SAMPLES must be a positive integer, got {s:?}"
        )),
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.3} s", d.as_secs_f64())
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_closure_and_prints() {
        let mut h = Harness::new("selftest");
        let mut calls = 0u32;
        h.bench("noop", || calls += 1);
        // One warm-up plus `samples` timed runs.
        assert_eq!(calls, h.samples + 1);
    }

    #[test]
    fn sample_counts_must_be_positive_integers() {
        assert_eq!(samples_from(None), Ok(10));
        assert_eq!(samples_from(Some("3")), Ok(3));
        for bad in ["0", "", "ten", "-1", "2.5", " 4"] {
            let err = samples_from(Some(bad)).unwrap_err();
            assert!(err.contains("TC_BENCH_SAMPLES") && err.contains(&format!("{bad:?}")));
        }
    }

    #[test]
    fn durations_format_in_adaptive_units() {
        assert_eq!(fmt_duration(Duration::from_nanos(12)), "12 ns");
        assert_eq!(fmt_duration(Duration::from_micros(12)), "12.000 us");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.000 ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.000 s");
    }
}

//! Minimal wall-clock benchmark harness with a criterion-shaped API.
//!
//! The workspace builds with no third-party crates, so the `benches/`
//! targets use this shim instead of criterion. It keeps the same surface
//! (`benchmark_group`, `bench_function`, `bench_with_input`, `Throughput`,
//! `BenchmarkId`, the `criterion_group!`/`criterion_main!` macros) so the
//! bench sources read identically; the statistics are deliberately simple:
//! one warm-up iteration, `sample_size` timed iterations, median and
//! min/max reported, throughput derived from the group's element count.

use std::time::Instant;

/// Throughput annotation for a benchmark group.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Items processed per iteration (elements, events, nonzeros...).
    Elements(u64),
}

/// A benchmark identifier (criterion-compatible constructor).
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// Id rendered from a parameter value.
    pub fn from_parameter(p: impl std::fmt::Display) -> Self {
        Self {
            name: p.to_string(),
        }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name)
    }
}

/// Times one benchmark body.
pub struct Bencher {
    samples: Vec<f64>,
    sample_size: usize,
}

impl Bencher {
    /// Runs `body` once to warm up, then `sample_size` timed times.
    // alya:cold: measurement harness — shares the name `iter` with slice
    // iteration in hot code but never runs inside an assembly loop.
    pub fn iter<T>(&mut self, mut body: impl FnMut() -> T) {
        let _ = body(); // warm-up, untimed
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            let out = body();
            self.samples.push(t0.elapsed().as_secs_f64());
            drop(out);
        }
    }
}

/// A named group of benchmarks sharing throughput/sample settings.
pub struct BenchmarkGroup {
    name: String,
    throughput: Option<Throughput>,
    sample_size: usize,
}

impl BenchmarkGroup {
    /// Sets the per-iteration element count used for throughput lines.
    pub fn throughput(&mut self, t: Throughput) {
        self.throughput = Some(t);
    }

    /// Sets the number of timed iterations per benchmark.
    pub fn sample_size(&mut self, n: usize) {
        self.sample_size = n.max(1);
    }

    /// Runs one benchmark.
    pub fn bench_function(&mut self, id: impl std::fmt::Display, f: impl FnOnce(&mut Bencher)) {
        let mut b = Bencher {
            samples: Vec::new(),
            sample_size: self.sample_size,
        };
        f(&mut b);
        self.report(&id.to_string(), &b.samples);
    }

    /// Runs one benchmark parameterized by `input`.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        f: impl FnOnce(&mut Bencher, &I),
    ) {
        let mut b = Bencher {
            samples: Vec::new(),
            sample_size: self.sample_size,
        };
        f(&mut b, input);
        self.report(&id.to_string(), &b.samples);
    }

    /// Ends the group (prints a separator; kept for criterion parity).
    pub fn finish(&mut self) {
        println!();
    }

    fn report(&self, id: &str, samples: &[f64]) {
        if samples.is_empty() {
            println!("{}/{id}: no samples", self.name);
            return;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let median = median(&sorted);
        let lo = sorted[0];
        let hi = sorted[sorted.len() - 1];
        let rate = match self.throughput {
            Some(Throughput::Elements(n)) if median > 0.0 => {
                format!("  {:>10.2} Melem/s", n as f64 / median / 1e6)
            }
            _ => String::new(),
        };
        println!(
            "{}/{id}: median {}  [{} .. {}]{rate}",
            self.name,
            fmt_secs(median),
            fmt_secs(lo),
            fmt_secs(hi)
        );
    }
}

/// Median of an ascending-sorted, non-empty sample: the middle sample at
/// odd counts, the midpoint of the two middle samples at even counts.
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.1} µs", s * 1e6)
    }
}

/// Top-level harness handle (criterion-compatible).
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup {
        let name = name.into();
        println!("== {name}");
        BenchmarkGroup {
            name,
            throughput: None,
            sample_size: 10,
        }
    }
}

/// Declares the list of benchmark entry points (criterion-compatible).
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::harness::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Declares `main` running the given groups (criterion-compatible).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_collects_samples_and_reports() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("unit");
        g.throughput(Throughput::Elements(100));
        g.sample_size(3);
        let mut runs = 0;
        g.bench_function("noop", |b| {
            b.iter(|| {
                runs += 1;
            });
        });
        g.finish();
        // warm-up + 3 samples
        assert_eq!(runs, 4);
    }

    #[test]
    fn bench_with_input_passes_input_through() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("unit");
        g.sample_size(1);
        let data = vec![1u64, 2, 3];
        let mut seen = 0;
        g.bench_with_input(BenchmarkId::from_parameter(7), &data, |b, d| {
            b.iter(|| {
                seen = d.len();
            });
        });
        assert_eq!(seen, 3);
    }

    #[test]
    fn median_takes_the_midpoint_at_even_sample_counts() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[1.0, 4.0]), 2.5);
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), 3.0);
    }

    #[test]
    fn seconds_formatting_picks_sane_units() {
        assert_eq!(fmt_secs(2.5), "2.500 s");
        assert_eq!(fmt_secs(0.0042), "4.200 ms");
        assert_eq!(fmt_secs(0.0000042), "4.2 µs");
    }
}

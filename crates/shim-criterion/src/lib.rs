//! Offline drop-in subset of the `criterion` API.
//!
//! The build environment has no registry access, so the workspace vendors
//! the slice of criterion its benches use: `Criterion`,
//! `benchmark_group` / `bench_function` / `bench_with_input`,
//! `BenchmarkId`, `Bencher::iter`, `black_box`, and the
//! `criterion_group!` / `criterion_main!` macros.
//!
//! Measurement is a plain wall-clock loop (warm-up, then timed batches
//! until ~200 ms or 10k iterations) reporting mean ns/iter to stdout —
//! no statistics, plots, or baselines. Good enough to eyeball relative
//! cost; the repo's *regression* story is the deterministic counter
//! tests, not these timings.

use std::fmt;
use std::hint;
use std::time::{Duration, Instant};

/// Prevents the optimizer from deleting a benchmarked computation.
pub fn black_box<T>(x: T) -> T {
    hint::black_box(x)
}

/// Entry point handed to benchmark functions.
#[derive(Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            _criterion: self,
        }
    }

    /// A one-off benchmark outside any group.
    pub fn bench_function<F>(&mut self, id: impl fmt::Display, mut f: F) -> &mut Criterion
    where
        F: FnMut(&mut Bencher),
    {
        run_one(&id.to_string(), &mut f);
        self
    }
}

/// A named set of benchmarks (prefixes the reported ids).
pub struct BenchmarkGroup<'a> {
    name: String,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; the shim's loop is adaptive.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Accepted for API compatibility; throughput is not reported.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    pub fn bench_function<F>(&mut self, id: impl fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(&format!("{}/{}", self.name, id), &mut f);
        self
    }

    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut bencher = Bencher::default();
        f(&mut bencher, input);
        bencher.report(&format!("{}/{}", self.name, id));
        self
    }

    pub fn finish(self) {}
}

/// A benchmark id with an optional parameter (`name/param`).
pub struct BenchmarkId {
    repr: String,
}

impl BenchmarkId {
    pub fn new(name: impl fmt::Display, parameter: impl fmt::Display) -> BenchmarkId {
        BenchmarkId {
            repr: format!("{name}/{parameter}"),
        }
    }

    pub fn from_parameter(parameter: impl fmt::Display) -> BenchmarkId {
        BenchmarkId {
            repr: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.repr)
    }
}

/// Runs and times one routine (`b.iter(|| ...)`).
#[derive(Default)]
pub struct Bencher {
    mean_ns: Option<f64>,
    iters: u64,
}

impl Bencher {
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up.
        for _ in 0..3 {
            black_box(routine());
        }
        let budget = Duration::from_millis(200);
        let start = Instant::now();
        let mut iters = 0u64;
        while start.elapsed() < budget && iters < 10_000 {
            black_box(routine());
            iters += 1;
        }
        let total = start.elapsed();
        self.iters = iters.max(1);
        self.mean_ns = Some(total.as_nanos() as f64 / self.iters as f64);
    }

    fn report(&self, id: &str) {
        match self.mean_ns {
            Some(ns) => println!(
                "{id:<50} time: {:>12} /iter  ({} iterations)",
                format_ns(ns),
                self.iters
            ),
            None => println!("{id:<50} (no measurement)"),
        }
    }
}

fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

fn run_one<F: FnMut(&mut Bencher)>(id: &str, f: &mut F) {
    let mut bencher = Bencher::default();
    f(&mut bencher);
    bencher.report(id);
}

/// Declares a group of benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
    (name = $group:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $group() {
            let _ = $config;
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the benchmark binary's `main`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `cargo bench` passes harness flags (e.g. `--bench`); the
            // shim runs everything unconditionally.
            $($group();)+
        }
    };
}

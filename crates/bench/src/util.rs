//! Shared harness utilities: experiment context, CSV output, metrics.

use geomap_core::{Metrics, Trace};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Shared knobs of an experiment run.
#[derive(Debug, Clone)]
pub struct ExpContext {
    /// Shrink sample counts and sweeps for smoke tests.
    pub quick: bool,
    /// Master seed; every derived RNG hangs off this.
    pub seed: u64,
    /// Output directory for CSV artifacts (`None` = don't write).
    pub out_dir: Option<PathBuf>,
    /// Observability handle; experiments scope it per figure/app/mapper
    /// and thread it into the mappers and the simulated runtime.
    /// Disabled by default (`repro --metrics <path>` turns it on).
    pub metrics: Metrics,
    /// Event-level trace handle; experiments thread it into the mappers
    /// and the simulated runtime so one run yields a Perfetto-loadable
    /// timeline. Disabled by default (`repro --trace <path>` turns it
    /// on).
    pub trace: Trace,
}

impl Default for ExpContext {
    fn default() -> Self {
        Self {
            quick: false,
            seed: 0x5C17,
            out_dir: Some(default_results_dir()),
            metrics: Metrics::off(),
            trace: Trace::off(),
        }
    }
}

impl ExpContext {
    /// Quick-mode context writing nowhere (for tests).
    pub fn smoke() -> Self {
        Self {
            quick: true,
            seed: 0x5C17,
            out_dir: None,
            metrics: Metrics::off(),
            trace: Trace::off(),
        }
    }

    /// Pick `full` normally, `quick` under `--quick`.
    pub fn scaled(&self, full: usize, quick: usize) -> usize {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// Write a CSV artifact (no-op when `out_dir` is `None`).
    pub fn write_csv(&self, name: &str, contents: &str) {
        let Some(dir) = &self.out_dir else { return };
        std::fs::create_dir_all(dir).expect("create results dir");
        let path = dir.join(name);
        std::fs::write(&path, contents).unwrap_or_else(|e| panic!("write {path:?}: {e}"));
        println!("  -> wrote {}", path.display());
    }
}

/// `results/` next to the workspace root, overridable via
/// `GEOMAP_RESULTS`.
pub fn default_results_dir() -> PathBuf {
    std::env::var_os("GEOMAP_RESULTS").map_or_else(|| PathBuf::from("results"), PathBuf::from)
}

/// Percentage improvement of `value` over `baseline` (the paper's
/// figures-of-merit): `(baseline − value)/baseline · 100`.
pub fn improvement_pct(baseline: f64, value: f64) -> f64 {
    assert!(baseline > 0.0, "baseline must be positive, got {baseline}");
    (baseline - value) / baseline * 100.0
}

/// Wall-clock a closure, returning `(result, elapsed)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Simple CSV assembly: header plus rows of stringified cells.
pub struct Csv {
    buf: String,
    cols: usize,
}

impl Csv {
    /// Start a CSV with the given header columns.
    pub fn new(header: &[&str]) -> Self {
        let mut buf = String::new();
        writeln!(buf, "{}", header.join(",")).unwrap();
        Self {
            buf,
            cols: header.len(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics if the column count doesn't match the header.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.cols, "row width mismatch");
        writeln!(self.buf, "{}", cells.join(",")).unwrap();
        self
    }

    /// Finish and return the contents.
    pub fn finish(self) -> String {
        self.buf
    }
}

/// Format seconds compactly for table output.
pub fn fmt_secs(s: f64) -> String {
    if s < 1e-3 {
        format!("{:.1}us", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{s:.2}s")
    }
}

/// Mean of a slice.
pub fn mean(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "mean of empty slice");
    v.iter().sum::<f64>() / v.len() as f64
}

/// Sample standard error of the mean (0 for fewer than two samples).
pub fn std_error(v: &[f64]) -> f64 {
    if v.len() < 2 {
        return 0.0;
    }
    let m = mean(v);
    let var = v.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (v.len() - 1) as f64;
    (var / v.len() as f64).sqrt()
}

/// The band every off-path overhead guard asserts: the variant that
/// carries a disabled observability layer may take at most this
/// multiple of the plain variant's time.
pub const OFF_PATH_BAND: f64 = 1.15;

/// Best-of-`trials` wall-clock guard for an off-path contract. Each
/// trial times `reps` calls of `plain` and `reps` calls of `variant`
/// back to back, alternating which runs first, so a slow stretch of a
/// shared host lands on both alike instead of on whichever was being
/// timed during it. Panics when the variant's best time exceeds
/// [`OFF_PATH_BAND`] times the plain best; otherwise prints both and
/// returns them as `(plain, variant)` seconds.
pub fn off_path_guard<A, B>(
    what: &str,
    trials: usize,
    reps: usize,
    plain: impl Fn() -> A,
    variant: impl Fn() -> B,
) -> (f64, f64) {
    fn time<T>(reps: usize, f: &impl Fn() -> T) -> f64 {
        let t0 = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(f());
        }
        t0.elapsed().as_secs_f64()
    }
    // Warm caches (and any lazily built state) before timing either.
    std::hint::black_box(plain());
    std::hint::black_box(variant());
    let (mut t_plain, mut t_variant) = (f64::INFINITY, f64::INFINITY);
    for trial in 0..trials {
        if trial % 2 == 0 {
            t_plain = t_plain.min(time(reps, &plain));
            t_variant = t_variant.min(time(reps, &variant));
        } else {
            t_variant = t_variant.min(time(reps, &variant));
            t_plain = t_plain.min(time(reps, &plain));
        }
    }
    assert!(
        t_variant <= t_plain * OFF_PATH_BAND,
        "{what}: {t_variant:.6}s vs {t_plain:.6}s plain, past the {OFF_PATH_BAND}x band"
    );
    println!(
        "{what} overhead: {:+.2}% (plain {t_plain:.6}s, variant {t_variant:.6}s; best of {trials} x {reps})",
        (t_variant / t_plain - 1.0) * 100.0
    );
    (t_plain, t_variant)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "band")]
    fn off_path_guard_fails_a_variant_past_the_band() {
        let plain = || ();
        let slow = || std::thread::sleep(Duration::from_millis(2));
        off_path_guard("slow variant", 2, 3, plain, slow);
    }

    #[test]
    fn improvement_math() {
        assert_eq!(improvement_pct(100.0, 50.0), 50.0);
        assert_eq!(improvement_pct(100.0, 100.0), 0.0);
        assert!(improvement_pct(100.0, 110.0) < 0.0);
    }

    #[test]
    fn csv_assembly() {
        let mut c = Csv::new(&["a", "b"]);
        c.row(&["1".into(), "2".into()]);
        let s = c.finish();
        assert_eq!(s, "a,b\n1,2\n");
    }

    #[test]
    #[should_panic(expected = "width")]
    fn csv_checks_width() {
        Csv::new(&["a"]).row(&["1".into(), "2".into()]);
    }

    #[test]
    fn stats_helpers() {
        let v = [1.0, 2.0, 3.0];
        assert_eq!(mean(&v), 2.0);
        assert!(std_error(&v) > 0.0);
        assert_eq!(std_error(&[5.0]), 0.0);
    }

    #[test]
    fn scaled_picks_by_mode() {
        let mut ctx = ExpContext::smoke();
        assert_eq!(ctx.scaled(100, 5), 5);
        ctx.quick = false;
        assert_eq!(ctx.scaled(100, 5), 100);
    }

    #[test]
    fn fmt_secs_ranges() {
        assert!(fmt_secs(5e-5).ends_with("us"));
        assert!(fmt_secs(5e-2).ends_with("ms"));
        assert!(fmt_secs(2.0).ends_with('s'));
    }
}

//! Closed-loop job timing, output checks, and the statistics every
//! workload reports.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Jobs every timed loop runs at least, however long each one takes, so a
/// median always has a few samples behind it.
pub const MIN_JOBS: usize = 5;

/// Set-ups each phase performs at least. A timed run has two phases, one
/// before the timed loop and one after it, and `setup_s` is the median of
/// both, so it covers the host's state at both ends of the run.
const MIN_SETUPS: usize = 3;
/// A phase repeats set-ups until this much time went into them (and
/// `MIN_SETUPS` ran), so set-ups that take microseconds get a median of
/// thousands.
const SETUP_BUDGET_S: f64 = 0.5;

/// The outcome of a closed loop: one host wall time per job, and how many
/// jobs failed their check.
#[derive(Debug, Default)]
pub struct LoopResult {
    /// Host wall time of each job, milliseconds, in run order.
    pub times_ms: Vec<f64>,
    /// Jobs that returned an error, panicked, or failed their check.
    pub failed: usize,
    /// The first failure's message, for the report.
    pub first_error: Option<String>,
}

impl LoopResult {
    /// Jobs attempted.
    pub fn attempted(&self) -> usize {
        self.times_ms.len()
    }

    /// Times one job and checks its output: the clock covers `job` only,
    /// the check and the output's drop run after it stops. An error, a
    /// panic, or a failed check counts as a failed job, never as a crash.
    /// Returns the output when the job passed.
    pub fn run_job<T>(
        &mut self,
        job: impl FnOnce() -> Result<T, String>,
        check: impl FnOnce(&T) -> Result<(), String>,
    ) -> Option<T> {
        let started = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(job));
        self.times_ms.push(started.elapsed().as_secs_f64() * 1e3);
        let verdict = match out {
            Ok(Ok(value)) => check(&value).map(|()| value),
            Ok(Err(e)) => Err(e),
            Err(_) => Err("job panicked".to_string()),
        };
        verdict.map_err(|e| self.fail(e)).ok()
    }

    fn fail(&mut self, error: String) {
        self.failed += 1;
        self.first_error.get_or_insert(error);
    }

    /// Folds another loop's jobs into this one.
    pub fn absorb(&mut self, other: LoopResult) {
        self.times_ms.extend(other.times_ms);
        self.failed += other.failed;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }
}

/// Runs `job` back to back — one client, a closed loop of identical jobs —
/// until `seconds` have passed and at least [`MIN_JOBS`] jobs ran, checking
/// each output with `check`.
pub fn closed_loop<T>(
    seconds: f64,
    mut job: impl FnMut() -> Result<T, String>,
    check: impl Fn(&T) -> Result<(), String>,
) -> LoopResult {
    let started = Instant::now();
    let mut result = LoopResult::default();
    while result.attempted() < MIN_JOBS || started.elapsed().as_secs_f64() < seconds {
        result.run_job(&mut job, &check);
    }
    result
}

/// The traced run's loop: an untraced job and a traced one in alternation,
/// so both meet the same neighbours, until `seconds` have passed and at
/// least [`MIN_JOBS`] traced jobs ran. Returns both loops and the traced
/// jobs' outputs.
pub fn alternate<P>(
    seconds: f64,
    mut untraced: impl FnMut(&mut LoopResult),
    mut traced: impl FnMut() -> Result<P, String>,
) -> (LoopResult, LoopResult, Vec<P>) {
    let started = Instant::now();
    let (mut plain, mut spanned, mut passes) =
        (LoopResult::default(), LoopResult::default(), Vec::new());
    while spanned.attempted() < MIN_JOBS || started.elapsed().as_secs_f64() < seconds {
        untraced(&mut plain);
        passes.extend(spanned.run_job(&mut traced, |_| Ok(())));
    }
    (plain, spanned, passes)
}

/// Traced minus untraced median job time, as a share of untraced, %.
pub fn overhead_pct(untraced_ms: &[f64], traced_ms: &[f64]) -> f64 {
    let base = median(untraced_ms);
    100.0 * (median(traced_ms) - base) / base
}

/// One phase of set-ups: runs `setup` several times and returns each
/// set-up's seconds with the last value built. Each earlier value is
/// dropped before the next set-up starts, so repeats never hold two copies
/// in memory.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut times = Vec::new();
    let mut last: Option<T> = None;
    let started = Instant::now();
    while times.len() < MIN_SETUPS || started.elapsed().as_secs_f64() < SETUP_BUDGET_S {
        drop(last.take());
        let t0 = Instant::now();
        let value = setup();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(value);
    }
    (times, last.expect("at least one set-up ran"))
}

/// The second phase of set-ups, after the timed loop (and after the first
/// phase's value is dropped): `setup_s`, the median over both phases.
pub fn setup_s<T>(mut before: Vec<f64>, setup: impl FnMut() -> T) -> f64 {
    before.extend(repeated_setup(setup).0);
    median(&before)
}

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The highest percentile that still has at least ten samples beyond it,
/// as `(percentile, value)`; `None` with ten samples or fewer.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n <= 10 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some((100.0 * (n - 10) as f64 / n as f64, v[n - 11]))
}

/// The process's high-water resident memory in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// splitmix64: derives independent, reproducible streams from one seed.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over bytes: the digest outputs are checked by.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail_follow_their_definitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // Ten samples (91..=100) lie beyond the 90th-percentile value.
        assert_eq!(tail(&v), Some((90.0, 90.0)));
        assert_eq!(tail(&v[..10]), None);
    }

    #[test]
    fn a_failed_check_or_a_panic_counts_as_a_failed_job() {
        let mut r = LoopResult::default();
        r.run_job(|| Ok(1), |v| if *v == 1 { Ok(()) } else { Err("x".into()) });
        r.run_job(|| Ok(2), |v| if *v == 1 { Ok(()) } else { Err("x".into()) });
        r.run_job(|| -> Result<i32, String> { panic!("boom") }, |_| Ok(()));
        assert_eq!((r.attempted(), r.failed), (3, 2));
    }
}

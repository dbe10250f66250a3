//! Byte goldens for the serving bins: the `serving_sweep` and
//! `adaptive_sweep` scenario CSVs, a small `fleet_sweep` run's CSV, and
//! the Chrome traces of the adaptive and fleet runs.
//!
//! Each bin runs as a subprocess of the build under test. Its stdout must
//! equal a committed CSV under `tests/golden/` byte for byte, and each
//! trace must hash to a committed FNV-1a-64 digest (the adaptive trace is
//! about 21 MB, too large to commit). Debug and release builds print the
//! same bytes, and the three debug runs take about a second.
//!
//! A refactor keeps every one of these bytes. A deliberate change to the
//! serving model regenerates all of them in one commit, whose change note
//! lists every number that moved and why: rerun the commands below and
//! copy their stdout over the golden, and paste the digest the failing
//! assertion reports.
//!
//! ```text
//! serving_sweep
//! adaptive_sweep --trace-out TRACE
//! fleet_sweep --requests 20000 --regions 2 --clusters 2 --replicas 4 --trace-out TRACE
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

/// FNV-1a-64 of the `adaptive_sweep --trace-out` Chrome trace.
const ADAPTIVE_TRACE_FNV: u64 = 0x8ef2_cc25_47f2_31d8;
/// FNV-1a-64 of the small `fleet_sweep --trace-out` Chrome trace.
const FLEET_TRACE_FNV: u64 = 0xa6c8_53ac_239c_e06d;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Runs `bin` with `args` and returns its stdout, failing on a non-zero
/// exit.
fn stdout_of(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("{bin} did not start: {e}"));
    assert!(
        out.status.success(),
        "{bin} {args:?} failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("the bins print UTF-8")
}

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// A trace path private to this test binary's run.
fn trace_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{}-{name}", std::process::id()))
}

/// Reads, digests and removes one trace.
fn trace_digest(path: &Path) -> u64 {
    let bytes = std::fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let _ = std::fs::remove_file(path);
    fnv1a(&bytes)
}

#[test]
fn serving_sweep_csv_matches_the_golden() {
    let csv = stdout_of(env!("CARGO_BIN_EXE_serving_sweep"), &[]);
    assert_eq!(csv, golden("serving_sweep.csv"));
}

#[test]
fn adaptive_sweep_csv_and_trace_match_the_goldens() {
    let trace = trace_path("adaptive_trace.json");
    let csv = stdout_of(
        env!("CARGO_BIN_EXE_adaptive_sweep"),
        &["--trace-out", trace.to_str().expect("UTF-8 path")],
    );
    assert_eq!(csv, golden("adaptive_sweep.csv"));
    let digest = trace_digest(&trace);
    assert_eq!(
        digest, ADAPTIVE_TRACE_FNV,
        "adaptive trace digest {digest:#018x}"
    );
}

#[test]
fn fleet_sweep_csv_and_trace_match_the_goldens() {
    let trace = trace_path("fleet_trace.json");
    let csv = stdout_of(
        env!("CARGO_BIN_EXE_fleet_sweep"),
        &[
            "--requests",
            "20000",
            "--regions",
            "2",
            "--clusters",
            "2",
            "--replicas",
            "4",
            "--trace-out",
            trace.to_str().expect("UTF-8 path"),
        ],
    );
    assert_eq!(csv, golden("fleet_sweep.csv"));
    let digest = trace_digest(&trace);
    assert_eq!(digest, FLEET_TRACE_FNV, "fleet trace digest {digest:#018x}");
}

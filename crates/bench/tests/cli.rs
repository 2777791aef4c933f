//! Bad input to the `campaign` binary is a usage error, never a panic:
//! each case prints a message and exits 2.

use std::path::PathBuf;
use std::process::{Command, Stdio};

use codesign_engine::SharedEvalCache;

/// A scratch path unique to this test process.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("campaign-cli-{}-{name}", std::process::id()))
}

/// Runs `campaign` over a tiny space, asserts a clean exit 2 with no
/// panic, and returns `(stdout, stderr)`.
fn run_rejected(args: &[&str]) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(["--max-vertices", "3", "--steps", "20", "--repeats", "1"])
        .args(args)
        .current_dir(std::env::temp_dir())
        .output()
        .expect("run campaign");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?}\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?} panicked:\n{stderr}");
    (stdout, stderr)
}

#[test]
fn bad_flags_exit_2_before_the_database_is_built() {
    let cache = scratch("unused.bin");
    let cache = cache.to_str().expect("utf-8 temp path");
    for (args, message) in [
        (&["--strategies", "warp"][..], "unknown strategy 'warp'"),
        (&["--backend", "nope"][..], "unknown --backend 'nope'"),
        (&["--no-cache", "--cache-path", cache][..], "contradictory"),
    ] {
        let (stdout, stderr) = run_rejected(args);
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(
            !stdout.contains("building exhaustive"),
            "{args:?} built the database before failing"
        );
    }
}

#[test]
fn out_of_range_max_vertices_exit_2_before_the_database_is_built() {
    for bound in ["8", "1"] {
        let (stdout, stderr) = run_rejected(&["--max-vertices", bound]);
        assert!(
            stderr.contains(&format!("--max-vertices must be in 2..=7, got {bound}")),
            "{bound}: {stderr}"
        );
        assert!(!stdout.contains("building exhaustive"), "{bound}: {stdout}");

        let out = Command::new(env!("CARGO_BIN_EXE_campaign"))
            .args(["serve", "--stdio", "--max-vertices", bound])
            .stdin(Stdio::null())
            .current_dir(std::env::temp_dir())
            .output()
            .expect("run campaign serve");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "serve {bound}: {stderr}");
        assert!(
            stderr.contains("--max-vertices must be in 2..=7"),
            "{stderr}"
        );
        assert!(!stderr.contains("building exhaustive"), "{stderr}");
    }
}

#[test]
fn unusable_cache_files_exit_2_before_the_sweep() {
    // The cache salt is the database fingerprint, so these two cases can
    // only be told apart from a good cache once the database is built.
    let corrupt = scratch("corrupt.bin");
    std::fs::write(&corrupt, b"not an evaluation cache").expect("write corrupt cache");
    let stale = scratch("stale.bin");
    SharedEvalCache::new()
        .save_to_path(&stale, 0xDEAD_BEEF)
        .expect("write a cache salted for another database");
    for path in [&corrupt, &stale] {
        let (stdout, stderr) = run_rejected(&["--cache-path", path.to_str().expect("utf-8")]);
        assert!(stderr.contains("cannot reuse cache"), "{stderr}");
        assert!(!stdout.contains("reports written"), "{stdout}");
        let _ = std::fs::remove_file(path);
    }
}

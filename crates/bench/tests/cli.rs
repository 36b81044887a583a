//! Command-line error handling of the `repro` and `bench_json` binaries:
//! bad arguments exit nonzero with the usage text, never with a panic
//! and never with success.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"))
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn repro_rejects_an_unknown_experiment_before_running_any() {
    for args in [&["--quick", "table1", "fig99"][..], &["all", "fig99"]] {
        let out = run(env!("CARGO_BIN_EXE_repro"), args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains("unknown experiment: fig99"), "{args:?}: {err}");
        assert!(err.contains("usage: repro"), "{args:?}: {err}");
        assert!(
            out.stdout.is_empty(),
            "{args:?}: no experiment may run: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn bench_json_rejects_non_numeric_values_with_exit_2() {
    for flag in ["--iters", "--best-of", "--window", "--k"] {
        let out = run(
            env!("CARGO_BIN_EXE_bench_json"),
            &[flag, "abc", "--dry-run", "--no-ledger"],
        );
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{flag}: {err}");
        assert!(err.contains(flag), "{flag}: {err}");
        assert!(err.contains("usage: bench_json"), "{flag}: {err}");
        assert!(!err.contains("panicked"), "{flag}: {err}");
    }
}

#[test]
fn bench_json_rejects_a_missing_value_with_exit_2() {
    let out = run(env!("CARGO_BIN_EXE_bench_json"), &["--iters"]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("--iters needs a value"), "{err}");
}

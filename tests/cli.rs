//! `acspec` argument handling: every malformed invocation exits 2 with
//! the usage text instead of running, panicking or silently ignoring a
//! flag, and the run flags shared with `repro` fail with the same
//! message in both binaries.

use std::process::{Command, Output};

fn acspec(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_acspec"))
        .args(args)
        .output()
        .expect("acspec runs")
}

fn first_stderr_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr)
        .lines()
        .next()
        .unwrap_or_default()
        .to_string()
}

fn assert_usage_error(args: &[&str], expect_in_stderr: &str) {
    let out = acspec(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "acspec {args:?} must exit 2, got {:?}\nstderr: {stderr}",
        out.status.code()
    );
    assert!(
        stderr.contains(expect_in_stderr),
        "acspec {args:?} stderr must mention `{expect_in_stderr}`:\n{stderr}"
    );
    assert!(
        stderr.contains("usage: acspec <file.c | file.acs>"),
        "acspec {args:?} must print the usage text:\n{stderr}"
    );
}

#[test]
fn unknown_flag_is_a_usage_error() {
    assert_usage_error(&["f.c", "--bogus"], "unknown flag `--bogus`");
}

#[test]
fn flag_without_its_value_is_a_usage_error() {
    assert_usage_error(
        &["f.c", "--config"],
        "--config needs one of Conc, A0, A1, A2",
    );
    assert_usage_error(&["f.c", "--trace-out"], "--trace-out needs a path");
    assert_usage_error(
        &["f.c", "--chaos-seed"],
        "--chaos-seed needs an unsigned integer",
    );
}

#[test]
fn chaos_rate_out_of_range_is_a_usage_error() {
    assert_usage_error(
        &["f.c", "--chaos-rate", "2"],
        "--chaos-rate needs a probability in 0..=1",
    );
}

#[test]
fn unrepresentable_deadline_is_a_usage_error_not_a_panic() {
    for secs in ["inf", "1e300", "-1", "NaN"] {
        assert_usage_error(
            &["f.c", "--deadline", secs],
            "--deadline needs a non-negative, finite number of seconds",
        );
    }
}

#[test]
fn removed_flags_are_unknown() {
    assert_usage_error(
        &["f.c", "--restart-base", "16"],
        "unknown flag `--restart-base`",
    );
    assert_usage_error(&["f.c", "--no-store"], "unknown flag `--no-store`");
}

#[test]
fn bare_check_is_a_usage_error() {
    assert_usage_error(&["check"], "usage: acspec check <report.json | certs.json>");
}

/// The same malformed shared flag yields the same error line from
/// `acspec` and from `repro fig9`: both parse it with
/// `acspec_core::RunFlags`, and `repro`'s parser is the library function
/// its binary prints as `error: <message>`.
#[test]
fn shared_flag_errors_match_repro() {
    for bad in [
        ["--chaos-rate", "2"],
        ["--deadline", "inf"],
        ["--search-threads", "0"],
        ["--cube-split", "-1"],
    ] {
        let repro_args: Vec<String> = ["fig9", bad[0], bad[1]]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let message = acspec_bench::cli::parse_args(&repro_args).expect_err("malformed run flag");

        let out = acspec(&["f.c", bad[0], bad[1]]);
        assert_eq!(out.status.code(), Some(2), "acspec {bad:?}");
        assert_eq!(
            first_stderr_line(&out),
            format!("error: {message}"),
            "acspec {bad:?}"
        );
    }
}

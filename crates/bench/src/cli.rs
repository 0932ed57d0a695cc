//! `repro`'s command line: its commands, its own flags and the flags
//! each command accepts. The run flags it shares with `acspec` are
//! parsed by [`acspec_core::run_flags`], so both binaries report a
//! malformed shared flag with the same message.

use acspec_core::run_flags::{flag_value, parse_flag, parse_probability};
use acspec_core::RunFlags;

/// The usage text printed with every usage error.
pub const USAGE: &str = "usage: repro <fig5|fig6|fig7|fig8|fig9|profile|bench|bench-parallel|\
trace-diff|corpus|store|ablation-incremental|ablation-normalize|ablation-interproc|all> \
[--scale N] [--top K] [--top-terms] [--sort wall|queries|conflicts] [--best-of N] [--out path] \
[--trace-out path] [--trace-format jsonl|perfetto] [--metrics-out path] \
[--certs-out path] [--no-query-cache] [--threads N] [--deadline secs] \
[--chaos-seed u64] [--chaos-rate p] [--portfolio] [--cube-split K] \
[--search-threads N]\n\
       repro corpus <list|run|bless|diff> [--scenario NAME] [--corpus-dir DIR] [--report path] \
[--store-dir DIR] [--store-chaos-seed u64] [--store-chaos-rate p]\n\
       repro store <stat|gc|verify> --store-dir DIR";

const CORPUS_ACTIONS: &[&str] = &["list", "run", "bless", "diff"];

const STORE_ACTIONS: &[&str] = &["stat", "gc", "verify"];

/// The analyzer-knob flags accepted by every figure evaluation.
fn knob_flags() -> impl Iterator<Item = &'static str> {
    RunFlags::KNOBS.iter().copied().chain(["--threads"])
}

/// The telemetry/certificate sink flags accepted by every figure
/// evaluation.
fn sink_flags() -> impl Iterator<Item = &'static str> {
    RunFlags::SINKS.iter().copied().chain(["--trace-format"])
}

/// Which flags each command accepts (`None` for an unknown command). A
/// flag outside its command's row is a usage error — `repro corpus
/// --scale 4` or `repro fig5 --best-of 2` must fail loudly instead of
/// silently ignoring the knob.
fn allowed_flags(cmd: &str) -> Option<Vec<&'static str>> {
    let mut allowed: Vec<&'static str> = Vec::new();
    match cmd {
        "fig5" => allowed.push("--scale"),
        "fig6" | "fig7" | "fig8" | "fig9" | "all" => {
            allowed.push("--scale");
            allowed.extend(sink_flags());
            allowed.extend(knob_flags());
        }
        "profile" => {
            allowed.extend(["--scale", "--top", "--top-terms", "--sort"]);
            allowed.extend(sink_flags());
            allowed.extend(knob_flags());
        }
        "bench" | "bench-parallel" => {
            allowed.extend(["--scale", "--best-of", "--out"]);
            allowed.extend(knob_flags());
        }
        "trace-diff" => allowed.push("--top"),
        "corpus" => allowed.extend([
            "--scenario",
            "--corpus-dir",
            "--report",
            RunFlags::STORE,
            "--store-chaos-seed",
            "--store-chaos-rate",
        ]),
        "store" => allowed.push(RunFlags::STORE),
        "ablation-incremental" => allowed.extend(["--scale", "--no-query-cache"]),
        "ablation-normalize" | "ablation-interproc" => allowed.push("--scale"),
        _ => return None,
    }
    Some(allowed)
}

/// `--trace-format`: how `--trace-out` is rendered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TraceFormat {
    /// One JSON object per line (the default).
    #[default]
    Jsonl,
    /// Chrome trace-event JSON for chrome://tracing and the Perfetto UI.
    Perfetto,
}

/// `--sort`: the ranking key for `repro profile`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ProfileSort {
    /// Wall seconds (the default).
    #[default]
    Wall,
    /// Solver-query count.
    Queries,
    /// Total solver conflicts.
    Conflicts,
}

/// A parsed `repro` command line.
#[derive(Debug, Clone, Default)]
pub struct Cli {
    /// The command (`all` when none was given).
    pub cmd: String,
    /// `--help`: print the usage text and exit 0.
    pub help: bool,
    /// `--scale N`: divide every benchmark's procedure count by `N`.
    pub scale: usize,
    /// `--top K`: rows per `profile`/`trace-diff` table.
    pub top: usize,
    /// `--top-terms`: `profile` also ranks shared WP subterms.
    pub top_terms: bool,
    /// `--sort`: the `profile` ranking key.
    pub sort: ProfileSort,
    /// `--best-of N`: repetitions per `bench` workload.
    pub best_of: usize,
    /// `--out path`: where `bench`/`bench-parallel` write the snapshot.
    pub out: Option<String>,
    /// `--trace-format`: how `--trace-out` is rendered.
    pub trace_format: TraceFormat,
    /// `--threads N`: evaluation worker threads.
    pub threads: Option<usize>,
    /// The run flags shared with `acspec`.
    pub run: RunFlags,
    /// Positional file arguments (only `trace-diff` takes any).
    pub files: Vec<String>,
    /// `corpus` action: list, run, bless, or diff.
    pub corpus_action: Option<String>,
    /// `--scenario`: restrict `corpus` to one scenario by name.
    pub scenario: Option<String>,
    /// `--corpus-dir`: override the corpus root directory.
    pub corpus_dir: Option<String>,
    /// `--report`: write a JSON per-scenario report (`corpus run`).
    pub report: Option<String>,
    /// `store` action: stat, gc, or verify.
    pub store_action: Option<String>,
    /// `--store-chaos-seed`: deterministic store I/O fault seed.
    pub store_chaos_seed: Option<u64>,
    /// `--store-chaos-rate`: store I/O fault probability (0..=1).
    pub store_chaos_rate: Option<f64>,
}

/// Parses `repro`'s arguments (without the program name). The run flags
/// shared with `acspec` go through [`RunFlags::take`]; every flag is
/// then checked against the command's whitelist.
///
/// # Errors
///
/// The usage-error message: an unknown command, action or flag, a
/// malformed value, a missing positional argument, or a flag the
/// command does not accept.
pub fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        scale: 1,
        top: 10,
        best_of: 3,
        ..Cli::default()
    };
    // Every flag consumed, in order; validated against the command's
    // whitelist once the command is known (flags may precede it).
    let mut seen_flags: Vec<&str> = Vec::new();
    let positive = |n: &usize| *n > 0;
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        if arg.starts_with('-') {
            seen_flags.push(arg);
        }
        let taken = cli.run.take(args, i)?;
        if taken > 0 {
            i += taken;
            continue;
        }
        let text = |what: &str| flag_value(args, i, what).map(str::to_string);
        let one_of = |what: &str| Err(format!("{arg} needs one of: {what}"));
        let value = args.get(i + 1).map(String::as_str);
        // Every flag but `--top-terms` and `--help` takes a value.
        let step = if arg.starts_with("--") && arg != "--top-terms" {
            2
        } else {
            1
        };
        match arg {
            "--scale" => cli.scale = parse_flag(args, i, "a positive integer", positive)?,
            "--top" => cli.top = parse_flag(args, i, "a positive integer", positive)?,
            "--top-terms" => cli.top_terms = true,
            "--sort" => {
                cli.sort = match value {
                    Some("wall") => ProfileSort::Wall,
                    Some("queries") => ProfileSort::Queries,
                    Some("conflicts") => ProfileSort::Conflicts,
                    _ => return one_of("wall, queries, conflicts"),
                }
            }
            "--best-of" => cli.best_of = parse_flag(args, i, "a positive integer", positive)?,
            "--out" => cli.out = Some(text("a path")?),
            "--trace-format" => {
                cli.trace_format = match value {
                    Some("jsonl") => TraceFormat::Jsonl,
                    Some("perfetto") => TraceFormat::Perfetto,
                    _ => return one_of("jsonl, perfetto"),
                }
            }
            "--threads" => cli.threads = Some(parse_flag(args, i, "a positive integer", positive)?),
            "--scenario" => cli.scenario = Some(text("a scenario name")?),
            "--corpus-dir" => cli.corpus_dir = Some(text("a directory")?),
            "--report" => cli.report = Some(text("a path")?),
            "--store-chaos-seed" => {
                cli.store_chaos_seed = Some(parse_flag(args, i, "an unsigned integer", |_| true)?)
            }
            "--store-chaos-rate" => cli.store_chaos_rate = Some(parse_probability(args, i)?),
            "--help" | "-h" => {
                cli.help = true;
                return Ok(cli);
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            word if cli.cmd.is_empty() => {
                if allowed_flags(word).is_none() {
                    return Err(format!("unknown command `{word}`"));
                }
                cli.cmd = word.to_string();
            }
            action if cli.cmd == "corpus" && cli.corpus_action.is_none() => {
                if !CORPUS_ACTIONS.contains(&action) {
                    return Err(format!(
                        "unknown corpus action `{action}` (expected one of: list, run, bless, diff)"
                    ));
                }
                cli.corpus_action = Some(action.to_string());
            }
            action if cli.cmd == "store" && cli.store_action.is_none() => {
                if !STORE_ACTIONS.contains(&action) {
                    return Err(format!(
                        "unknown store action `{action}` (expected one of: stat, gc, verify)"
                    ));
                }
                cli.store_action = Some(action.to_string());
            }
            file if cli.cmd == "trace-diff" && cli.files.len() < 2 => {
                cli.files.push(file.to_string())
            }
            extra => return Err(format!("unexpected argument `{extra}`")),
        }
        i += step;
    }
    if cli.cmd.is_empty() {
        cli.cmd = "all".to_string();
    }
    if cli.cmd == "trace-diff" && cli.files.len() != 2 {
        return Err("trace-diff needs exactly two trace files: repro trace-diff <a> <b>".into());
    }
    if cli.cmd == "corpus" && cli.corpus_action.is_none() {
        return Err("corpus needs an action: repro corpus <list|run|bless|diff>".into());
    }
    if cli.cmd == "store" {
        if cli.store_action.is_none() {
            return Err("store needs an action: repro store <stat|gc|verify>".into());
        }
        if cli.run.store_dir.is_none() {
            return Err("store needs --store-dir <DIR>".into());
        }
    }
    let allowed = allowed_flags(&cli.cmd).expect("the command was validated");
    if let Some(flag) = seen_flags.iter().find(|f| !allowed.contains(f)) {
        return Err(format!("`{flag}` is not valid for `repro {}`", cli.cmd));
    }
    Ok(cli)
}

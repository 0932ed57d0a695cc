//! One parser for the run flags `acspec` and `repro` share.
//!
//! Both binaries drive the same analysis, so the flags that set its
//! options, its output sinks and its fault harness are parsed and
//! validated here, once: a flag means the same thing in either binary,
//! and a malformed value gets the same message. Each binary keeps only
//! its own flags and its positional arguments, and turns an `Err` from
//! this module into its usage text and exit code 2.
//!
//! ```text
//!   --trace-out <path>       write a span trace of the run
//!   --metrics-out <path>     write a JSON metrics snapshot
//!   --certs-out <path>       write the per-verdict certificate sidecar
//!   --no-query-cache         disable the monotone query cache
//!   --deadline <secs>        wall-clock deadline per procedure+config
//!   --chaos-seed <u64>       deterministic fault-injection seed
//!   --chaos-rate <p>         fault probability per solver query (0..=1)
//!   --store-dir <dir>        persistent result store
//!   --search-threads <n>     worker budget shared by procedure fan-out
//!                            and in-query parallelism
//!   --portfolio              race diversified solver forks
//!   --cube-split <k>         cube-and-conquer ALL-SAT over 2^k cubes
//! ```

use std::str::FromStr;
use std::sync::Once;
use std::time::Duration;

use acspec_telemetry::opt;
use acspec_vcgen::chaos::ChaosConfig;
use acspec_vcgen::AnalyzerConfig;

/// The shared run flags as given on the command line (`None`/`false`
/// = not given).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunFlags {
    /// `--trace-out <path>`.
    pub trace_out: Option<String>,
    /// `--metrics-out <path>`.
    pub metrics_out: Option<String>,
    /// `--certs-out <path>`.
    pub certs_out: Option<String>,
    /// `--no-query-cache`.
    pub no_query_cache: bool,
    /// `--deadline <secs>`, already checked to fit a [`Duration`].
    pub deadline: Option<Duration>,
    /// `--chaos-seed <u64>`.
    pub chaos_seed: Option<u64>,
    /// `--chaos-rate <p>`, in `0..=1`.
    pub chaos_rate: Option<f64>,
    /// `--store-dir <dir>`.
    pub store_dir: Option<String>,
    /// `--search-threads <n>`, positive.
    pub search_threads: Option<usize>,
    /// `--portfolio`.
    pub portfolio: bool,
    /// `--cube-split <k>`.
    pub cube_split: Option<u32>,
}

impl RunFlags {
    /// The output-sink flags.
    pub const SINKS: &'static [&'static str] = &["--trace-out", "--metrics-out", "--certs-out"];

    /// The analyzer-knob flags.
    pub const KNOBS: &'static [&'static str] = &[
        "--no-query-cache",
        "--deadline",
        "--chaos-seed",
        "--chaos-rate",
        "--search-threads",
        "--portfolio",
        "--cube-split",
    ];

    /// The persistent-store flag.
    pub const STORE: &'static str = "--store-dir";

    /// Consumes `args[i]` when it is a run flag, together with its value
    /// if it takes one, and returns how many arguments it consumed: 0
    /// when `args[i]` is not a run flag.
    ///
    /// # Errors
    ///
    /// `"<flag> needs <what>"` when the value is missing or malformed.
    pub fn take(&mut self, args: &[String], i: usize) -> Result<usize, String> {
        let path = || flag_value(args, i, "a path").map(str::to_string);
        match args[i].as_str() {
            "--no-query-cache" => {
                self.no_query_cache = true;
                return Ok(1);
            }
            "--portfolio" => {
                self.portfolio = true;
                return Ok(1);
            }
            "--trace-out" => self.trace_out = Some(path()?),
            "--metrics-out" => self.metrics_out = Some(path()?),
            "--certs-out" => self.certs_out = Some(path()?),
            "--store-dir" => {
                self.store_dir = Some(flag_value(args, i, "a directory")?.to_string());
            }
            "--deadline" => {
                let what = "a non-negative, finite number of seconds";
                let secs: f64 = parse_flag(args, i, what, |_| true)?;
                let deadline =
                    Duration::try_from_secs_f64(secs).map_err(|_| needs(args, i, what))?;
                self.deadline = Some(deadline);
            }
            "--chaos-seed" => {
                self.chaos_seed = Some(parse_flag(args, i, "an unsigned integer", |_| true)?);
            }
            "--chaos-rate" => self.chaos_rate = Some(parse_probability(args, i)?),
            "--search-threads" => {
                self.search_threads = Some(parse_flag(args, i, "a positive integer", |&n| n > 0)?);
            }
            "--cube-split" => {
                self.cube_split = Some(parse_flag(args, i, "a non-negative integer", |_| true)?);
            }
            _ => return Ok(0),
        }
        Ok(2)
    }

    /// True when a trace or metrics sink was requested.
    pub fn telemetry_on(&self) -> bool {
        self.trace_out.is_some() || self.metrics_out.is_some()
    }

    /// The solver fault harness, when a chaos flag was given.
    pub fn chaos(&self) -> Option<ChaosConfig> {
        chaos_config(self.chaos_seed, self.chaos_rate)
    }

    /// Applies the analyzer knobs to `analyzer`, leaving every knob that
    /// was not given at its value there. With chaos on, injected panics
    /// are also kept off stderr ([`silence_injected_panics`]).
    pub fn apply(&self, analyzer: &mut AnalyzerConfig) {
        if self.no_query_cache {
            analyzer.query_cache = false;
        }
        if self.deadline.is_some() {
            analyzer.deadline = self.deadline;
        }
        if let Some(chaos) = self.chaos() {
            analyzer.chaos = Some(chaos);
            silence_injected_panics();
        }
        if self.portfolio {
            analyzer.portfolio = true;
        }
        if let Some(k) = self.cube_split {
            analyzer.cube_split = k;
        }
    }

    /// The run's entries of a telemetry manifest: the query cache as
    /// `analyzer` has it, then every other run flag that was given.
    pub fn manifest_options(&self, analyzer: &AnalyzerConfig) -> Vec<(String, String)> {
        let mut options = vec![opt("query_cache", analyzer.query_cache)];
        if let Some(deadline) = self.deadline {
            options.push(opt("deadline_secs", deadline.as_secs_f64()));
        }
        if let Some(chaos) = self.chaos() {
            options.push(opt("chaos_seed", chaos.seed));
            options.push(opt("chaos_rate", chaos.rate));
        }
        if self.portfolio {
            options.push(opt("portfolio", true));
        }
        if let Some(k) = self.cube_split {
            options.push(opt("cube_split", k));
        }
        if let Some(n) = self.search_threads {
            options.push(opt("search_threads", n));
        }
        if let Some(dir) = &self.store_dir {
            options.push(opt("store_dir", dir));
        }
        options
    }
}

/// A fault harness from an optional seed and rate: `None` unless at
/// least one was given, so runs without chaos flags stay byte-identical
/// to runs without the harness.
pub fn chaos_config(seed: Option<u64>, rate: Option<f64>) -> Option<ChaosConfig> {
    (seed.is_some() || rate.is_some())
        .then(|| ChaosConfig::new(seed.unwrap_or(0), rate.unwrap_or(0.0)))
}

fn needs(args: &[String], i: usize, what: &str) -> String {
    format!("{} needs {what}", args[i])
}

/// The value after the flag `args[i]`.
///
/// # Errors
///
/// `"<flag> needs <what>"` when there is none.
pub fn flag_value<'a>(args: &'a [String], i: usize, what: &str) -> Result<&'a str, String> {
    args.get(i + 1)
        .map(String::as_str)
        .ok_or_else(|| needs(args, i, what))
}

/// The value after the flag `args[i]`, parsed as `T` and accepted by
/// `ok`.
///
/// # Errors
///
/// `"<flag> needs <what>"` when the value is missing, does not parse, or
/// is rejected by `ok`.
pub fn parse_flag<T: FromStr>(
    args: &[String],
    i: usize,
    what: &str,
    ok: impl Fn(&T) -> bool,
) -> Result<T, String> {
    flag_value(args, i, what)?
        .parse()
        .ok()
        .filter(|v| ok(v))
        .ok_or_else(|| needs(args, i, what))
}

/// The value after the flag `args[i]` as a probability in `0..=1`.
///
/// # Errors
///
/// `"<flag> needs a probability in 0..=1"` otherwise.
pub fn parse_probability(args: &[String], i: usize) -> Result<f64, String> {
    parse_flag(args, i, "a probability in 0..=1", |p: &f64| {
        (0.0..=1.0).contains(p)
    })
}

/// Keeps the default panic-hook backtrace off stderr for the panics the
/// chaos harness injects on purpose: the worker loop catches them and
/// reports them as incidents. Real panics still reach the previous hook.
/// Installing it more than once is a no-op.
pub fn silence_injected_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.starts_with("chaos:"));
            if !injected {
                prev(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses a space-separated command line made only of run flags.
    fn parse(line: &str) -> Result<RunFlags, String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        let mut flags = RunFlags::default();
        let mut i = 0;
        while i < args.len() {
            match flags.take(&args, i)? {
                0 => return Err(format!("not a run flag: {}", args[i])),
                n => i += n,
            }
        }
        Ok(flags)
    }

    #[test]
    fn every_run_flag_parses_and_applies() {
        let flags = parse(
            "--trace-out t --metrics-out m --certs-out c --no-query-cache --deadline 1.5 \
             --chaos-seed 7 --chaos-rate 0 --store-dir s --search-threads 3 --portfolio \
             --cube-split 2",
        )
        .expect("parses");
        assert!(flags.telemetry_on());
        assert_eq!(flags.certs_out.as_deref(), Some("c"));
        assert_eq!(flags.search_threads, Some(3));
        let mut analyzer = AnalyzerConfig::default();
        flags.apply(&mut analyzer);
        assert!(!analyzer.query_cache);
        assert_eq!(analyzer.deadline, Some(Duration::from_millis(1500)));
        assert_eq!(analyzer.chaos.map(|c| c.seed), Some(7));
        assert!(analyzer.portfolio);
        assert_eq!(analyzer.cube_split, 2);
        let keys: Vec<String> = flags
            .manifest_options(&analyzer)
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(
            keys.join(" "),
            "query_cache deadline_secs chaos_seed chaos_rate portfolio cube_split \
             search_threads store_dir"
        );
    }

    #[test]
    fn no_flags_leave_the_analyzer_untouched() {
        let flags = parse("").expect("parses");
        let mut analyzer = AnalyzerConfig::default();
        let before = format!("{analyzer:?}");
        flags.apply(&mut analyzer);
        assert_eq!(format!("{analyzer:?}"), before);
        assert_eq!(flags.manifest_options(&analyzer).len(), 1);
    }

    #[test]
    fn malformed_values_name_the_flag_and_what_it_needs() {
        for secs in ["", "inf", "1e300", "-1", "NaN"] {
            assert_eq!(
                parse(&format!("--deadline {secs}")).unwrap_err(),
                "--deadline needs a non-negative, finite number of seconds",
                "{secs:?}"
            );
        }
        for (line, msg) in [
            (
                "--chaos-rate 2",
                "--chaos-rate needs a probability in 0..=1",
            ),
            ("--chaos-seed -1", "--chaos-seed needs an unsigned integer"),
            (
                "--search-threads 0",
                "--search-threads needs a positive integer",
            ),
            (
                "--cube-split x",
                "--cube-split needs a non-negative integer",
            ),
            ("--trace-out", "--trace-out needs a path"),
            ("--store-dir", "--store-dir needs a directory"),
        ] {
            assert_eq!(parse(line).unwrap_err(), msg, "{line}");
        }
    }

    #[test]
    fn other_flags_are_left_to_the_binary() {
        assert_eq!(
            parse("--threads 2"),
            Err("not a run flag: --threads".into())
        );
    }
}

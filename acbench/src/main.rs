//! `acbench`: the ACSpec benchmark. Runs one named workload from a seed
//! and prints its metrics, then, as the last line of standard output, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! acbench --workload drivers|tail|rerun --seed N --seconds S --trace 0|1
//!         [--size full|tiny] [--corrupt-report]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` makes the
//! separate traced run that prints the per-layer table. See `README.md`.

mod check;
mod gen;
mod layers;
mod sys;
mod workload;

use std::process::ExitCode;

use workload::{Mode, Plan, Run, Settings, Workload};

/// The seed whose warning digests are pinned in `digests.txt`.
const DEFAULT_SEED: u64 = 0;

/// Pinned digests: `<workload> <digest>` per line.
const DIGESTS: &str = include_str!("../digests.txt");

const USAGE: &str = "usage: acbench --workload drivers|tail|rerun [--seed N] [--seconds S] \
                     [--trace 0|1] [--size full|tiny] [--corrupt-report]";

struct Args {
    plan: Plan,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20;
    let mut trace = false;
    let mut tiny = false;
    let mut corrupt = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--corrupt-report" {
            corrupt = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--size" => {
                tiny = match value.as_str() {
                    "full" => false,
                    "tiny" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        plan: Plan {
            workload,
            seed,
            seconds,
            tiny,
            corrupt,
        },
        trace,
    })
}

fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolation quantile (`q` in `[0, 1]`).
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The eight end-to-end metrics of an untraced run.
fn end_to_end(run: &Run) -> Vec<(String, f64, &'static str)> {
    let t = &run.tally;
    vec![
        ("setup_s".into(), median(&run.setup), "s"),
        (
            "procs_per_s".into(),
            t.attempted as f64 / run.phase.wall,
            "1/s",
        ),
        ("cpu_s".into(), run.phase.cpu, "s"),
        (
            "req_p50_ms".into(),
            quantile(&run.latencies, 0.5) * 1e3,
            "ms",
        ),
        (
            "req_p90_ms".into(),
            quantile(&run.latencies, 0.9) * 1e3,
            "ms",
        ),
        ("maxrss_mb".into(), sys::peak_rss_mib(), "MiB"),
        (
            "decided_share".into(),
            layers::share(t.decided as f64, t.attempted as f64),
            "share",
        ),
        (
            "passed_share".into(),
            layers::share((t.attempted - t.failed) as f64, t.attempted as f64),
            "share",
        ),
    ]
}

fn json_line(correct: bool, run: &Run, metrics: &[(String, f64, &'static str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.tally.attempted,
        run.tally.failed + run.tally.setup_failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("acbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let plan = args.plan;
    let settings = Settings::new();
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "acbench workload={} seed={} seconds={} trace={} size={} nproc={nproc}",
        plan.workload.name(),
        plan.seed,
        plan.seconds,
        u8::from(args.trace),
        if plan.tiny { "tiny" } else { "full" },
    );
    println!("options {}", settings.describe());

    let (run, metrics) = if args.trace {
        let reference = workload::run(&plan, &settings, Mode::Reference);
        let traced = workload::run(&plan, &settings, Mode::Traced);
        let layers = traced.layers.as_ref().expect("traced run keeps layers");
        let traced_wall = traced.setup.iter().sum::<f64>() + traced.phase.wall;
        let overhead = traced.phase.wall / reference.phase.wall - 1.0;
        print!("{}", layers::table(layers, traced_wall));
        println!(
            "traced wall {traced_wall:.4} s, reference phase {:.4} s",
            reference.phase.wall
        );
        let metrics = layers::metrics(layers, traced_wall, overhead);
        (traced, metrics)
    } else {
        let run = workload::run(&plan, &settings, Mode::Measure);
        let metrics = end_to_end(&run);
        (run, metrics)
    };

    for (name, value, unit) in &metrics {
        println!("{name:<26} {value:>16.6} {unit}");
    }
    let mut correct = run.tally.failed == 0 && run.tally.setup_failed == 0;
    println!("digest {} {}", plan.workload.name(), run.digest);
    if plan.seed == DEFAULT_SEED && !plan.tiny {
        let pinned = DIGESTS.lines().find_map(|l| {
            let (w, d) = l.split_once(' ')?;
            (w == plan.workload.name()).then(|| d.trim())
        });
        if let Some(pinned) = pinned {
            if pinned != run.digest {
                println!("digest mismatch: pinned {pinned}");
                correct = false;
            }
        }
    }
    for m in &run.tally.messages {
        println!("check failed: {m}");
    }
    println!("{}", json_line(correct, &run, &metrics));
    ExitCode::SUCCESS
}

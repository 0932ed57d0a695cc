//! `acspec` — command-line front end for the ACSpec analysis.
//!
//! ```text
//! acspec <file.c | file.acs> [options]
//! acspec check <report.json | certs.json>
//!
//!   --config <Conc|A0|A1|A2>   abstract configuration (default Conc)
//!   --prune <k>                k-clause pruning (default: off)
//!   --cons                     also show the conservative verifier's output
//!   --interproc                infer callee preconditions first (§7)
//!   --all-configs              analyze under all four configurations
//!   --specs                    print the almost-correct specifications
//!   --format <text|json>       output format (default text)
//!   --triage                   rank all warnings by confidence
//! ```
//!
//! plus the run flags shared with `repro` ([`acspec_core::run_flags`]):
//! `--trace-out`, `--metrics-out`, `--certs-out` (the report gains a
//! `certs_ref` pointing at the sidecar), `--no-query-cache`,
//! `--deadline`, `--chaos-seed`, `--chaos-rate`, `--store-dir`
//! (unchanged procedures are re-emitted byte-identically with zero
//! solver queries; corrupt entries are quarantined and recomputed),
//! `--search-threads`, `--portfolio` and `--cube-split`.
//!
//! `.c` inputs go through the HAVOC-style front end (null-dereference
//! assertions are inserted automatically); anything else is parsed as
//! the Boogie-like surface language.
//!
//! `acspec check` takes a `--format json` report (following its
//! `certs_ref` to the sidecar) or a sidecar itself and re-validates every
//! certificate with the independent `acspec-check` crate: models are
//! re-evaluated, refutations replayed, claims and weakening chains
//! re-tied to their evidence. Exit code 0 means every certificate
//! checked; 1 means at least one failure (each is printed).

use std::process::ExitCode;

use acspec_core::run_flags::{flag_value, parse_flag};
use acspec_core::{
    certs_json_from_fragments, infer_preconditions, program_report_json_with, triage_program,
    AcspecOptions, AnalysisOutcome, ConfigName, NullObserver, ProcOutcome, ProcReport,
    ProgramAnalysis, RunFlags, SessionObserver, SibStatus, StoreSession, TelemetryObserver,
};
use acspec_ir::Program;
use acspec_telemetry::{opt, Manifest};

#[derive(Default)]
struct Cli {
    path: String,
    config: ConfigName,
    prune: Option<usize>,
    cons: bool,
    interproc: bool,
    all_configs: bool,
    show_specs: bool,
    json: bool,
    triage: bool,
    run: RunFlags,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut i = 0;
    while i < args.len() {
        let taken = cli.run.take(args, i)?;
        if taken > 0 {
            i += taken;
            continue;
        }
        let arg = args[i].as_str();
        let step = if matches!(arg, "--config" | "--prune" | "--format") {
            2
        } else {
            1
        };
        match arg {
            "--config" => {
                cli.config = match flag_value(args, i, "one of Conc, A0, A1, A2")? {
                    "Conc" | "conc" => ConfigName::Conc,
                    "A0" | "a0" => ConfigName::A0,
                    "A1" | "a1" => ConfigName::A1,
                    "A2" | "a2" => ConfigName::A2,
                    other => return Err(format!("unknown config `{other}`")),
                }
            }
            "--prune" => cli.prune = Some(parse_flag(args, i, "a non-negative integer", |_| true)?),
            "--format" => {
                cli.json = match flag_value(args, i, "one of text, json")? {
                    "json" => true,
                    "text" => false,
                    other => return Err(format!("unknown format `{other}`")),
                }
            }
            "--cons" => cli.cons = true,
            "--interproc" => cli.interproc = true,
            "--all-configs" => cli.all_configs = true,
            "--specs" => cli.show_specs = true,
            "--triage" => cli.triage = true,
            "--help" | "-h" => return Err(String::new()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            path if cli.path.is_empty() => cli.path = path.to_string(),
            other => return Err(format!("unexpected argument `{other}`")),
        }
        i += step;
    }
    if cli.path.is_empty() {
        return Err("no input file".into());
    }
    Ok(cli)
}

/// Loads and checks an input file. Every failure is a `file:line:
/// message` (or `file: message` when no line applies) diagnostic, never
/// a panic — the CLI turns them into exit code 2.
fn load_program(path: &str) -> Result<Program, String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read: {e}"))?;
    let program = if path.ends_with(".c") {
        acspec_cfront::compile_c(&source).map_err(|e| match e {
            acspec_cfront::CompileError::Parse(p) => format!("{path}:{}: {}", p.line, p.msg),
            acspec_cfront::CompileError::Lower(l) => format!("{path}:{}: {}", l.line, l.msg),
        })?
    } else {
        acspec_ir::parse::parse_program(&source)
            .map_err(|e| format!("{path}:{}:{}: {}", e.line, e.col, e.msg))?
    };
    acspec_ir::typecheck::check_program(&program).map_err(|e| format!("{path}: {e}"))?;
    Ok(program)
}

fn print_report(r: &ProcReport, show_specs: bool) {
    let verdict = match r.outcome {
        AnalysisOutcome::Ok => r.status.to_string(),
        AnalysisOutcome::TimedOut => "TIMEOUT".to_string(),
        AnalysisOutcome::Degraded { fallback, .. } => format!("DEGRADED({fallback})"),
    };
    println!(
        "  [{}] {:<8} |Q|={:<3} warnings={}",
        r.config,
        verdict,
        r.stats.n_predicates,
        r.warnings.len()
    );
    if show_specs {
        for spec in &r.specs {
            println!("      spec: {spec}");
        }
    }
    for w in &r.warnings {
        println!("      warning {}: {}", w.assert, w.tag);
        if let Some(witness) = &w.witness {
            println!("        witness: {witness}");
        }
    }
}

/// `acspec check <path>`: re-validates a certificate sidecar, or a
/// `--format json` report by following its `certs_ref` (resolved
/// relative to the report's directory). Returns `Ok(true)` — exit
/// code 1 — when any certificate fails.
fn run_check(args: &[String]) -> Result<bool, String> {
    let path = match args {
        [p] if !p.starts_with('-') => p.as_str(),
        _ => return Err("usage: acspec check <report.json | certs.json>".into()),
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read: {e}"))?;
    let certs_ref = acspec_check::certs_ref(&text).map_err(|e| format!("{path}: {e}"))?;
    let (certs_path, certs_text) = match certs_ref {
        None => (path.to_string(), text),
        Some(r) => {
            let resolved = std::path::Path::new(path)
                .parent()
                .map_or_else(|| std::path::PathBuf::from(&r), |d| d.join(&r));
            let resolved = resolved.to_string_lossy().into_owned();
            let t = std::fs::read_to_string(&resolved)
                .map_err(|e| format!("{resolved}: cannot read certs_ref target: {e}"))?;
            (resolved, t)
        }
    };
    let summary = acspec_check::check_document(&certs_text);
    println!(
        "{certs_path}: {} procedure(s), {} certificate(s) ({} sat, {} unsat), \
         {} claim(s), {} chain(s)",
        summary.procs,
        summary.certs,
        summary.sat_certs,
        summary.unsat_certs,
        summary.claims,
        summary.chains
    );
    if summary.ok() {
        println!("all certificates check");
        Ok(false)
    } else {
        for e in &summary.errors {
            eprintln!("FAIL: {e}");
        }
        eprintln!("{} failure(s)", summary.errors.len());
        Ok(true)
    }
}

fn run() -> Result<bool, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("check") {
        return run_check(&raw[1..]);
    }
    let cli = parse_args(&raw)?;
    let mut program = load_program(&cli.path)?;

    let mut opts = AcspecOptions::for_config(cli.config);
    if let Some(k) = cli.prune {
        opts = opts.with_k_pruning(k);
    }
    cli.run.apply(&mut opts.analyzer);

    if cli.interproc {
        let inferred = infer_preconditions(&program, &opts).map_err(|e| e.to_string())?;
        for (name, spec) in &inferred.inferred {
            println!("inferred precondition for `{name}`: requires {spec};");
        }
        program = inferred.program;
        if !inferred.inferred.is_empty() {
            println!();
        }
    }

    if cli.triage {
        let ranked = triage_program(&program, &opts).map_err(|e| e.to_string())?;
        if ranked.is_empty() {
            println!("no warnings: every unproven obligation was suppressed");
            return Ok(false);
        }
        println!("{} warning(s), highest confidence first:\n", ranked.len());
        for r in &ranked {
            println!(
                "[{}] {} :: {} ({})",
                r.confidence, r.proc_name, r.warning.assert, r.warning.tag
            );
            if let Some(w) = &r.warning.witness {
                println!("    witness: {w}");
            }
            if let Some(spec) = &r.spec {
                println!("    almost-correct spec: {spec}");
            }
        }
        return Ok(true);
    }

    let configs: Vec<ConfigName> = if cli.all_configs {
        ConfigName::all().to_vec()
    } else {
        vec![cli.config]
    };

    // One session per procedure: the encode and the demonic screen are
    // shared between the Cons baseline and every requested configuration.
    // Telemetry recording costs a per-query hook, so the observer is a
    // no-op unless a sink was requested.
    let telemetry_on = cli.run.telemetry_on();
    let mut null = NullObserver;
    let mut telemetry = TelemetryObserver::new();
    let observer: &mut dyn SessionObserver = if telemetry_on {
        &mut telemetry
    } else {
        &mut null
    };
    // The persistent store is opt-in (`--store-dir`) and disabled under a
    // deadline (wall-clock timeouts make cached reports nondeterministic,
    // so ProgramAnalysis refuses the key anyway). When solver chaos is on,
    // the same seed and rate drive store-level I/O faults.
    let store = cli
        .run
        .store_dir
        .as_deref()
        .map(|dir| {
            StoreSession::open_with_chaos(std::path::Path::new(dir), opts.analyzer.chaos)
                .map_err(|e| format!("cannot open store {dir}: {e}"))
        })
        .transpose()?;
    let mut results = ProgramAnalysis::new(&program)
        .options(opts)
        .configs(&configs)
        .search_threads(cli.run.search_threads.unwrap_or(0))
        .certify(cli.run.certs_out.is_some())
        .store(store.as_ref())
        .run(observer);

    // Drain the pre-rendered certificate fragments before the report loop
    // takes shared references into `results`. Fragments (rather than live
    // `ProcCerts`) keep warm store hits byte-identical to cold runs.
    let mut cert_fragments: Vec<String> = Vec::new();
    for outcome in &mut results {
        if let ProcOutcome::Analyzed(pa) = outcome {
            pa.certs.take();
            if let Some(fragment) = pa.certs_fragment.take() {
                cert_fragments.push(fragment);
            }
        }
    }
    if let Some(path) = &cli.run.certs_out {
        std::fs::write(path, certs_json_from_fragments(&cert_fragments))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }

    if telemetry_on {
        let mut options = vec![
            opt("prune", cli.prune.map_or("off".into(), |k| k.to_string())),
            opt("interproc", cli.interproc),
        ];
        options.extend(cli.run.manifest_options(&opts.analyzer));
        if let Some(store) = &store {
            telemetry.record_store(&store.stats());
        }
        let manifest = Manifest {
            tool: "acspec".into(),
            command: cli.path.clone(),
            scale: None,
            threads: None,
            configs: configs.iter().map(|c| c.to_string()).collect(),
            options,
        };
        let out = telemetry.finish();
        if let Some(path) = &cli.run.trace_out {
            out.write_trace(path, Some(&manifest))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
        if let Some(path) = &cli.run.metrics_out {
            out.write_metrics(path, Some(&manifest))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
    }

    let mut any_warning = false;
    let mut json_reports: Vec<&ProcReport> = Vec::new();
    let mut incidents = Vec::new();
    for outcome in &results {
        let pa = match outcome {
            ProcOutcome::Analyzed(pa) => pa,
            ProcOutcome::Faulted(incident) => {
                if cli.json {
                    incidents.push(incident.clone());
                } else {
                    println!("procedure {}:", incident.proc_name);
                    println!("  incident: {incident}");
                    println!();
                }
                continue;
            }
        };
        // Store-corruption incidents ride on an otherwise healthy analysis:
        // surface them even when the procedure itself is clean.
        for incident in &pa.incidents {
            if cli.json {
                incidents.push(incident.clone());
            } else {
                println!("procedure {}:", incident.proc_name);
                println!("  incident: {incident}");
                println!();
            }
        }
        if pa.cons.status == SibStatus::Correct {
            continue;
        }
        if !cli.json {
            println!("procedure {}:", pa.proc_name);
        }
        for r in pa.reports.iter().flatten() {
            any_warning |= !r.warnings.is_empty();
            if cli.json {
                json_reports.push(r);
            } else {
                print_report(r, cli.show_specs);
            }
        }
        if cli.cons {
            if cli.json {
                json_reports.push(&pa.cons);
            } else {
                println!("  [Cons] {} warnings", pa.cons.warnings.len());
                for w in &pa.cons.warnings {
                    println!("      warning {}: {}", w.assert, w.tag);
                }
            }
        }
        if !cli.json {
            println!();
        }
    }
    if cli.json {
        println!(
            "{}",
            program_report_json_with(&json_reports, &incidents, cli.run.certs_out.as_deref())
        );
    }
    Ok(any_warning)
}

fn main() -> ExitCode {
    match run() {
        Ok(any_warning) => {
            if any_warning {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            eprintln!(
                "usage: acspec <file.c | file.acs> [--config Conc|A0|A1|A2] [--prune k] \
                 [--cons] [--interproc] [--all-configs] [--specs] [--triage] \
                 [--format text|json] [--trace-out path] [--metrics-out path] \
                 [--certs-out path] [--no-query-cache] [--deadline secs] \
                 [--chaos-seed n] [--chaos-rate p] [--store-dir dir] \
                 [--search-threads n] [--portfolio] [--cube-split k]\n\
                 usage: acspec check <report.json | certs.json>"
            );
            ExitCode::from(2)
        }
    }
}

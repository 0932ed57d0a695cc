#![warn(missing_docs)]

//! Scenario corpus: expected-verdict fixtures with budgets, gated in CI.
//!
//! Each scenario is one directory `corpus/<name>/` holding
//!
//! * `input.c` **or** `input.acs` — the program, compiled through the
//!   HAVOC-style C front end or parsed as surface IR;
//! * `expected.json` — the blessed warning-fingerprint oracle
//!   ([`Oracle`]);
//! * `budget.json` — per-scenario ceilings on solver queries and wall
//!   clock ([`Budget`]).
//!
//! [`verify_scenario`] runs the full differential matrix
//! ([`runner::run_matrix`]) and folds oracle and budget violations into
//! per-scenario diagnostics; [`bless_scenario`] regenerates the oracle
//! (and a generous first budget) from the base leg — the
//! `UPDATE_GOLDEN` workflow. The `repro corpus` subcommand and the CI
//! `corpus` job are thin wrappers over these two calls.

pub mod fingerprint;
pub mod fixtures;
pub mod runner;

use std::path::{Path, PathBuf};

pub use fingerprint::{Oracle, WarningFingerprint};
pub use runner::{
    run_leg, run_leg_with_store, run_matrix, run_matrix_with_store, LegRun, MatrixReport, RunLeg,
    BASE_LEG, DIFF_LEGS,
};

use acspec_ir::Program;

/// Per-scenario resource ceilings (`budget.json`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Maximum solver queries the base leg may issue. Queries are
    /// deterministic, so this gate is exact.
    pub max_solver_queries: u64,
    /// Maximum base-leg wall milliseconds. Blessed with a wide margin
    /// (wall clocks vary across machines); it catches order-of-magnitude
    /// regressions, not percent-level noise.
    pub max_wall_ms: u64,
}

impl Budget {
    /// Parses a `budget.json` document.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed field.
    pub fn parse(text: &str) -> Result<Budget, String> {
        let v = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let field = |name: &str| -> Result<u64, String> {
            v.get(name)
                .and_then(serde_json::Value::as_u64)
                .ok_or(format!("missing unsigned integer field `{name}`"))
        };
        Ok(Budget {
            max_solver_queries: field("max_solver_queries")?,
            max_wall_ms: field("max_wall_ms")?,
        })
    }

    /// The canonical `budget.json` rendering.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"max_solver_queries\": {},\n  \"max_wall_ms\": {}\n}}\n",
            self.max_solver_queries, self.max_wall_ms
        )
    }
}

/// How a scenario's input is turned into a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputKind {
    /// `input.c`, compiled via [`acspec_cfront::compile_c`].
    C,
    /// `input.acs`, parsed as surface IR and sort-checked.
    Surface,
}

impl InputKind {
    /// Display name (`C` / `IR`).
    pub fn name(self) -> &'static str {
        match self {
            InputKind::C => "C",
            InputKind::Surface => "IR",
        }
    }
}

/// One registered scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Directory name under the corpus root.
    pub name: String,
    /// The scenario directory.
    pub dir: PathBuf,
    /// Path to `input.c` or `input.acs`.
    pub input: PathBuf,
    /// Which front end loads the input.
    pub kind: InputKind,
}

impl Scenario {
    /// Loads the scenario registered at `dir`.
    ///
    /// # Errors
    ///
    /// Returns a message when the directory holds no input file (or,
    /// ambiguously, both kinds).
    pub fn load(dir: &Path) -> Result<Scenario, String> {
        let name = dir
            .file_name()
            .and_then(|n| n.to_str())
            .ok_or_else(|| format!("unnameable scenario directory {}", dir.display()))?
            .to_string();
        let c = dir.join("input.c");
        let acs = dir.join("input.acs");
        let (input, kind) = match (c.is_file(), acs.is_file()) {
            (true, false) => (c, InputKind::C),
            (false, true) => (acs, InputKind::Surface),
            (true, true) => {
                return Err(format!("scenario `{name}` has both input.c and input.acs"))
            }
            (false, false) => {
                return Err(format!(
                    "scenario `{name}` has neither input.c nor input.acs"
                ))
            }
        };
        Ok(Scenario {
            name,
            dir: dir.to_path_buf(),
            input,
            kind,
        })
    }

    /// `expected.json` path.
    pub fn expected_path(&self) -> PathBuf {
        self.dir.join("expected.json")
    }

    /// `budget.json` path.
    pub fn budget_path(&self) -> PathBuf {
        self.dir.join("budget.json")
    }

    /// Loads and front-ends the input program.
    ///
    /// # Errors
    ///
    /// Returns the front end's rendered error.
    pub fn program(&self) -> Result<Program, String> {
        let src = std::fs::read_to_string(&self.input)
            .map_err(|e| format!("cannot read {}: {e}", self.input.display()))?;
        match self.kind {
            InputKind::C => acspec_cfront::compile_c(&src).map_err(|e| e.to_string()),
            InputKind::Surface => {
                let prog = acspec_ir::parse::parse_program(&src).map_err(|e| e.to_string())?;
                acspec_ir::typecheck::check_program(&prog).map_err(|e| e.to_string())?;
                Ok(prog)
            }
        }
    }

    /// Loads the blessed oracle.
    ///
    /// # Errors
    ///
    /// Returns a message for a missing or malformed `expected.json`.
    pub fn load_expected(&self) -> Result<Oracle, String> {
        let path = self.expected_path();
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Oracle::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Loads the budget.
    ///
    /// # Errors
    ///
    /// Returns a message for a missing or malformed `budget.json`.
    pub fn load_budget(&self) -> Result<Budget, String> {
        let path = self.budget_path();
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Budget::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// The repository's `corpus/` directory, overridable with the
/// `ACSPEC_CORPUS_DIR` environment variable (used by the mutation
/// suite to point the harness at a perturbed copy).
pub fn default_corpus_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("ACSPEC_CORPUS_DIR") {
        return PathBuf::from(dir);
    }
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus")
}

/// Loads every scenario under `dir`, sorted by name (deterministic run
/// and report order).
///
/// # Errors
///
/// Returns a message when the directory cannot be read or a
/// subdirectory is not a well-formed scenario.
pub fn load_corpus(dir: &Path) -> Result<Vec<Scenario>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut dirs: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    dirs.iter().map(|d| Scenario::load(d)).collect()
}

/// The outcome of verifying one scenario.
#[derive(Debug)]
pub struct ScenarioVerdict {
    /// Scenario name.
    pub name: String,
    /// The base leg's fingerprints (empty when the program failed to
    /// load).
    pub produced: Oracle,
    /// The base leg's solver-query total.
    pub queries: u64,
    /// The base leg's wall milliseconds.
    pub wall_ms: u64,
    /// Every failure diagnostic; empty = the scenario passed.
    pub failures: Vec<String>,
    /// Store-corruption incidents — recovered (quarantine + recompute),
    /// so surfaced without failing the scenario.
    pub store_incidents: Vec<String>,
}

impl ScenarioVerdict {
    /// True when the scenario passed the full matrix, oracle, and
    /// budget.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs the scenario through the differential matrix and checks the
/// result against its blessed oracle and budget.
pub fn verify_scenario(sc: &Scenario) -> ScenarioVerdict {
    verify_scenario_with_store(sc, None)
}

/// [`verify_scenario`] with a persistent result store attached to the
/// base leg (see [`runner::run_matrix_with_store`]): on a warm store
/// the base leg replays stored reports with zero solver queries, and
/// the (always cold) differential legs pin warm/cold equivalence.
pub fn verify_scenario_with_store(
    sc: &Scenario,
    store: Option<&acspec_core::StoreSession>,
) -> ScenarioVerdict {
    let program = match sc.program() {
        Ok(p) => p,
        Err(e) => {
            return ScenarioVerdict {
                name: sc.name.clone(),
                produced: Oracle::default(),
                queries: 0,
                wall_ms: 0,
                failures: vec![format!("cannot load program: {e}")],
                store_incidents: Vec::new(),
            }
        }
    };
    let matrix = runner::run_matrix_with_store(&program, store);
    let mut failures = matrix.failures;
    match sc.load_expected() {
        Ok(expected) => failures.extend(expected.diff(&matrix.produced)),
        Err(e) => failures.push(e),
    }
    match sc.load_budget() {
        Ok(budget) => {
            if matrix.queries > budget.max_solver_queries {
                failures.push(format!(
                    "budget blown: {} solver queries > {} allowed",
                    matrix.queries, budget.max_solver_queries
                ));
            }
            if matrix.wall_ms > budget.max_wall_ms {
                failures.push(format!(
                    "budget blown: {} wall ms > {} allowed",
                    matrix.wall_ms, budget.max_wall_ms
                ));
            }
        }
        Err(e) => failures.push(e),
    }
    ScenarioVerdict {
        name: sc.name.clone(),
        produced: matrix.produced,
        queries: matrix.queries,
        wall_ms: matrix.wall_ms,
        failures,
        store_incidents: matrix.store_incidents,
    }
}

/// What [`bless_scenario`] did.
#[derive(Debug)]
pub struct BlessOutcome {
    /// Warnings in the blessed oracle.
    pub warnings: usize,
    /// Solver queries of the blessing run.
    pub queries: u64,
    /// True when a first `budget.json` was written (2× the measured
    /// queries, 20× the measured wall with a 10 s floor). An existing
    /// budget is never overwritten — tightening is a deliberate edit.
    pub wrote_budget: bool,
}

/// Reruns the base leg and writes the scenario's `expected.json` (and,
/// if missing, a first `budget.json`).
///
/// # Errors
///
/// Returns a message when the program fails to load, a procedure
/// faults, or a file cannot be written.
pub fn bless_scenario(sc: &Scenario) -> Result<BlessOutcome, String> {
    let program = sc.program()?;
    let run = runner::run_leg(&program, &runner::BASE_LEG);
    if let Some(incident) = run.incidents.first() {
        return Err(format!("refusing to bless a faulting run: {incident}"));
    }
    let expected = sc.expected_path();
    std::fs::write(&expected, run.oracle.to_canonical_json())
        .map_err(|e| format!("cannot write {}: {e}", expected.display()))?;
    let budget_path = sc.budget_path();
    let wrote_budget = if budget_path.is_file() {
        false
    } else {
        let budget = Budget {
            max_solver_queries: run.queries * 2,
            max_wall_ms: (run.wall_ms * 20).max(10_000),
        };
        std::fs::write(&budget_path, budget.to_json())
            .map_err(|e| format!("cannot write {}: {e}", budget_path.display()))?;
        true
    };
    Ok(BlessOutcome {
        warnings: run.oracle.warnings.len(),
        queries: run.queries,
        wrote_budget,
    })
}

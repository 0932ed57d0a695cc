#![warn(missing_docs)]

//! ACSpec — *Almost-Correct Specifications* (the paper's core
//! contribution).
//!
//! Given a procedure and a predicate vocabulary abstraction, the pipeline
//!
//! 1. desugars and encodes the procedure ([`acspec_vcgen`]),
//! 2. mines the predicate set `Q` (§4.4) under one of the four
//!    configurations `Conc`/`A0`/`A1`/`A2` (Figure 4),
//! 3. computes the predicate cover `β_Q(wp(pr, true))` (§4.1),
//! 4. detects (abstract) semantic inconsistency bugs (Definition 3) and
//!    searches for almost-correct specifications (Definition 4,
//!    Algorithm 2),
//! 5. simplifies/prunes the specifications (§4.3) and reports the induced
//!    failures as high-confidence warnings (Algorithm 1).
//!
//! The [`driver::cons_baseline`] function is the conservative modular
//! verifier (`Cons` in the evaluation): all demonic-environment failures.
//!
//! # Example
//!
//! ```
//! use acspec_core::{analyze_procedure, AcspecOptions, ConfigName, SibStatus};
//! use acspec_ir::parse::parse_program;
//!
//! let prog = parse_program(
//!     "global Freed: map;
//!      procedure f(p: int) {
//!        assert Freed[p] == 0; Freed[p] := 1;  // free(p)
//!        assert Freed[p] == 0; Freed[p] := 1;  // free(p) again: always fails
//!      }",
//! ).expect("parses");
//! let proc = prog.procedures[0].clone();
//! let report = analyze_procedure(&prog, &proc, &AcspecOptions::for_config(ConfigName::Conc))
//!     .expect("analyzes");
//! // WP(f) = ∅: the paper's special SIB case (§3.1). Both minimal
//! // weakenings (`Freed[p] == 0` failing the second free, `Freed[p] != 0`
//! // failing the first) induce one failure each.
//! assert_eq!(report.status, SibStatus::Sib);
//! assert_eq!(report.min_fail, 1);
//! assert_eq!(report.warnings.len(), 2);
//! ```

pub mod certs;
pub mod config;
pub mod driver;
pub mod fingerprint;
pub mod interproc;
pub mod persist;
pub mod report;
pub mod run_flags;
pub mod search;
pub mod session;
pub mod telemetry;
pub mod triage;

pub use certs::{
    certs_json, certs_json_from_fragments, proc_certs_json, ChainRecord, ChainStepRecord, Claim,
    ClaimKind, ProcCerts, StepEvidence,
};
pub use config::{AcspecOptions, ConfigName, DeadMetric};
pub use driver::{analyze_procedure, analyze_procedure_multi, cons_baseline, AcspecError};
pub use fingerprint::{fingerprint_text, procedure_fingerprint};
pub use interproc::{infer_preconditions, InferredContracts};
pub use persist::{decode_analysis, options_digest, StoreOutcome, StoreSession};
pub use report::{
    program_report_json, program_report_json_with, AnalysisIncident, AnalysisOutcome, Fallback,
    IncidentKind, ProcReport, ProcStats, ReportLabel, SibStatus, Warning, Witness,
    REPORT_SCHEMA_VERSION,
};
pub use run_flags::RunFlags;
pub use search::{
    find_almost_correct_specs, find_almost_correct_specs_salvaging, find_almost_correct_specs_with,
    DeadCheck, SearchOutcome,
};
pub use session::{
    NullObserver, ProcAnalysis, ProcOutcome, ProcSession, ProgramAnalysis, QueryEvent, Screening,
    SessionObserver, StageEvent, StageTotals, TeeObserver,
};
pub use telemetry::{TelemetryObserver, TelemetryOutput};
pub use triage::{triage_procedure, triage_program, Confidence, RankedWarning};

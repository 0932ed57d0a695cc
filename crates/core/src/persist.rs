//! The persistent result store's session-facing layer: cache keys,
//! the payload codec, and the shared [`StoreSession`] handle
//! (DESIGN.md §4.9).
//!
//! [`acspec_store`] knows nothing about reports — it moves validated
//! byte payloads. This module gives those bytes meaning: a payload is a
//! compact JSON document carrying one procedure's `Cons` baseline, the
//! per-config/per-variant report matrix, the certificate fragment (when
//! the run certified), and the dominance-cache antichains for
//! warm-starting future sessions.
//!
//! ## Byte identity
//!
//! A warm hit must re-emit *byte-identical* reports, so the codec never
//! stores anything lossily:
//!
//! * stage seconds are stored as `f64::to_bits()` (the vendored JSON
//!   parser round-trips `u64` exactly; a decimal rendering would not
//!   round-trip the float);
//! * specifications are stored in surface syntax and re-parsed with
//!   [`parse_formula`]; [`encode_analysis`] refuses to cache any
//!   procedure whose rendered specs do not round-trip (so a warm run
//!   can never drift);
//! * certificates are stored as the pre-rendered per-procedure JSON
//!   fragment ([`crate::certs::proc_certs_json`]) and reassembled with
//!   [`crate::certs::certs_json_from_fragments`], identical by
//!   construction;
//! * before saving, [`encode_analysis`] decodes its own output and
//!   verifies the reconstruction renders byte-identically — a payload
//!   that fails the self-check is simply not cached.
//!
//! ## Keys
//!
//! [`entry_key`] mixes the procedure's content fingerprint
//! ([`crate::fingerprint::procedure_fingerprint`]) with an options
//! digest ([`options_digest`]): any change to the analysis template —
//! configuration ladder, prune variants, budgets, chaos seeding,
//! certification — addresses different entries. Thread count is
//! deliberately excluded (output is thread-count-invariant).

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::Mutex;

use acspec_ir::expr::Formula;
use acspec_ir::parse::parse_formula;
use acspec_ir::stmt::AssertId;
use acspec_predabs::normalize::PruneConfig;
use acspec_smt::{SolverCounters, TermId};
use acspec_store::{sha256_hex, CorruptionKind, LoadResult, ResultStore, StoreStats};
use acspec_vcgen::cache::CacheSnapshot;
use acspec_vcgen::chaos::{ChaosConfig, ChaosStoreStats};
use acspec_vcgen::stage::{Stage, StageTable};
use serde_json::Value;

use crate::certs::quoted;
use crate::config::{AcspecOptions, ConfigName};
use crate::report::{
    AnalysisOutcome, Fallback, ProcReport, ProcStats, ReportLabel, SibStatus, Warning, Witness,
    REPORT_SCHEMA_VERSION,
};
use crate::session::ProcAnalysis;

/// Version of the *payload* layout (inside the store's checksummed
/// envelope, whose own version is
/// [`acspec_store::STORE_SCHEMA_VERSION`]). Mixed into [`entry_key`] and
/// stamped into every payload: a layout change makes old entries
/// unaddressable *and* undecodable, so stale stores degrade to misses,
/// never to misreads.
pub const PERSIST_VERSION: u32 = 1;

/// The content-addressed key of one procedure's entry: SHA-256 over the
/// procedure fingerprint and the options digest.
pub fn entry_key(fingerprint: &str, options: &str) -> String {
    sha256_hex(
        format!("acspec-entry v{PERSIST_VERSION}\nfingerprint {fingerprint}\noptions {options}")
            .as_bytes(),
    )
}

/// Digest of everything about the analysis *request* (as opposed to the
/// program) that a stored result depends on. Thread count is excluded:
/// reports are deterministic across `--threads`. The search-worker
/// budget (`--search-threads`) is excluded for the same reason —
/// portfolio races and cube workers merge deterministically, so a warm
/// store recorded under one budget replays under any other. (The
/// `portfolio`/`cube_split` *analyzer* knobs, by
/// contrast, can change query counts or witness models and are digested
/// via `base.analyzer`'s `Debug` form.)
pub fn options_digest(
    base: &AcspecOptions,
    configs: &[ConfigName],
    prune_variants: &[PruneConfig],
    skip_correct: bool,
    certify: bool,
) -> String {
    let mut text = format!("acspec-options v{PERSIST_VERSION}\n");
    let _ = writeln!(text, "base {base:?}");
    let _ = writeln!(text, "configs {configs:?}");
    let _ = writeln!(text, "prune_variants {prune_variants:?}");
    let _ = writeln!(text, "skip_correct {skip_correct}");
    let _ = writeln!(text, "certify {certify}");
    sha256_hex(text.as_bytes())
}

// ---------------------------------------------------------------------
// Encoding (hand-emitted compact JSON; the vendored serde_json `Value`
// has no serializer, and the repo's certificate sidecars already use
// this idiom — see `certs.rs`).
// ---------------------------------------------------------------------

fn push_witness(out: &mut String, w: &Witness) {
    out.push('{');
    let mut first = true;
    for (name, value) in w.iter() {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{}:{}", quoted(name), value);
    }
    out.push('}');
}

fn push_warning(out: &mut String, w: &Warning) {
    let _ = write!(
        out,
        "{{\"assert\":{},\"tag\":{},\"witness\":",
        w.assert.0,
        quoted(&w.tag)
    );
    match &w.witness {
        Some(witness) => push_witness(out, witness),
        None => out.push_str("null"),
    }
    out.push('}');
}

fn push_stats(out: &mut String, s: &ProcStats) {
    let _ = write!(
        out,
        "{{\"n_predicates\":{},\"n_cover_clauses\":{},\"search_nodes\":{},\"solver_queries\":{},\"smt\":[{},{},{},{}],\"stages\":[",
        s.n_predicates,
        s.n_cover_clauses,
        s.search_nodes,
        s.solver_queries,
        s.smt.conflicts,
        s.smt.decisions,
        s.smt.propagations,
        s.smt.theory_conflicts,
    );
    let mut first = true;
    for stage in Stage::ALL {
        if !first {
            out.push(',');
        }
        first = false;
        let m = s.stages.get(stage);
        let _ = write!(out, "[{},{}]", m.seconds.to_bits(), m.queries);
    }
    out.push_str("]}");
}

/// Renders one report. Returns `None` when a specification's surface
/// rendering does not parse back to the same rendering — such a report
/// cannot be reconstructed byte-identically, so it is never cached.
fn push_report(out: &mut String, r: &ProcReport) -> Option<()> {
    let _ = write!(
        out,
        "{{\"config\":{},\"status\":\"{}\"",
        quoted(&r.config.to_string()),
        match r.status {
            SibStatus::Correct => "Correct",
            SibStatus::Sib => "Sib",
            SibStatus::MayBug => "MayBug",
        }
    );
    out.push_str(",\"warnings\":[");
    for (i, w) in r.warnings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_warning(out, w);
    }
    out.push_str("],\"specs\":[");
    for (i, spec) in r.specs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let rendered = spec.to_string();
        let reparsed = parse_formula(&rendered).ok()?;
        if reparsed.to_string() != rendered {
            return None;
        }
        out.push_str(&quoted(&rendered));
    }
    let _ = write!(out, "],\"min_fail\":{},\"stats\":", r.min_fail);
    push_stats(out, &r.stats);
    out.push_str(",\"outcome\":");
    match r.outcome {
        AnalysisOutcome::Ok => out.push_str("[\"ok\"]"),
        AnalysisOutcome::TimedOut => out.push_str("[\"timed_out\"]"),
        AnalysisOutcome::Degraded {
            from_stage,
            fallback,
        } => {
            let _ = write!(
                out,
                "[\"degraded\",\"{}\",\"{}\"]",
                from_stage.name(),
                fallback.name()
            );
        }
    }
    out.push_str(",\"timeout_stage\":");
    match r.timeout_stage {
        Some(stage) => {
            let _ = write!(out, "\"{}\"", stage.name());
        }
        None => out.push_str("null"),
    }
    out.push('}');
    Some(())
}

fn push_snapshot(out: &mut String, snap: &CacheSnapshot) {
    let push_side = |out: &mut String, side: &[Vec<TermId>]| {
        out.push('[');
        for (i, entry) in side.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            for (j, t) in entry.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}", t.0);
            }
            out.push(']');
        }
        out.push(']');
    };
    out.push_str("{\"sat\":");
    push_side(out, &snap.sat);
    out.push_str(",\"unsat\":");
    push_side(out, &snap.unsat);
    out.push('}');
}

/// Serializes everything a warm run needs to re-emit `pa`'s reports
/// byte-identically.
///
/// Returns `None` when the analysis cannot be round-tripped (a spec
/// rendering that does not re-parse, or the decode self-check fails) —
/// the caller simply skips caching. Never returns bytes that would
/// decode to anything but `pa`'s exact reports.
pub fn encode_analysis(pa: &ProcAnalysis) -> Option<Vec<u8>> {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"persist\":{PERSIST_VERSION},\"report_schema\":{REPORT_SCHEMA_VERSION},\"proc_name\":{}",
        quoted(&pa.proc_name)
    );
    out.push_str(",\"cons\":");
    push_report(&mut out, &pa.cons)?;
    out.push_str(",\"reports\":[");
    for (i, per_config) in pa.reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, r) in per_config.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            push_report(&mut out, r)?;
        }
        out.push(']');
    }
    out.push_str("],\"certs\":");
    match &pa.certs_fragment {
        Some(fragment) => out.push_str(&quoted(fragment)),
        None => out.push_str("null"),
    }
    out.push_str(",\"antichains\":");
    match &pa.antichains {
        Some(snap) => push_snapshot(&mut out, snap),
        None => out.push_str("null"),
    }
    out.push('}');

    // Self-check: decode our own bytes and insist the reconstruction
    // renders byte-identically. Anything else is not cached.
    let decoded = decode_analysis(out.as_bytes())?;
    if !round_trips(pa, &decoded) {
        return None;
    }
    Some(out.into_bytes())
}

fn round_trips(cold: &ProcAnalysis, warm: &ProcAnalysis) -> bool {
    cold.proc_name == warm.proc_name
        && cold.cons.to_json() == warm.cons.to_json()
        && cold.reports.len() == warm.reports.len()
        && cold
            .reports
            .iter()
            .flatten()
            .map(ProcReport::to_json)
            .eq(warm.reports.iter().flatten().map(ProcReport::to_json))
        && cold
            .reports
            .iter()
            .map(Vec::len)
            .eq(warm.reports.iter().map(Vec::len))
        && cold.certs_fragment == warm.certs_fragment
        && cold.antichains == warm.antichains
}

// ---------------------------------------------------------------------
// Decoding (via the vendored serde_json parser).
// ---------------------------------------------------------------------

fn get_u64(v: &Value, field: &str) -> Option<u64> {
    v.get(field)?.as_u64()
}

fn stage_from_name(name: &str) -> Option<Stage> {
    Stage::ALL.iter().copied().find(|s| s.name() == name)
}

fn fallback_from_name(name: &str) -> Option<Fallback> {
    [
        Fallback::PartialEvaluation,
        Fallback::BestCandidate,
        Fallback::CappedCover,
        Fallback::ConsScreen,
    ]
    .into_iter()
    .find(|f| f.name() == name)
}

fn label_from_name(name: &str) -> Option<ReportLabel> {
    match name {
        "Cons" => Some(ReportLabel::Cons),
        "Conc" => Some(ReportLabel::Config(ConfigName::Conc)),
        "A0" => Some(ReportLabel::Config(ConfigName::A0)),
        "A1" => Some(ReportLabel::Config(ConfigName::A1)),
        "A2" => Some(ReportLabel::Config(ConfigName::A2)),
        _ => None,
    }
}

fn witness_from(v: &Value) -> Option<Witness> {
    let obj = v.as_object()?;
    let mut values = std::collections::BTreeMap::new();
    for (name, value) in obj {
        values.insert(name.clone(), value.as_i64()?);
    }
    Some(Witness::new(values))
}

fn warning_from(v: &Value) -> Option<Warning> {
    let assert = u32::try_from(get_u64(v, "assert")?).ok()?;
    let tag = v.get("tag")?.as_str()?.to_string();
    let witness = match v.get("witness")? {
        Value::Null => None,
        w => Some(witness_from(w)?),
    };
    Some(Warning {
        assert: AssertId(assert),
        tag,
        witness,
    })
}

fn stats_from(v: &Value) -> Option<ProcStats> {
    let mut smt = SolverCounters::default();
    let smt_v = v.get("smt")?.as_array()?;
    if smt_v.len() != 4 {
        return None;
    }
    smt.conflicts = smt_v[0].as_u64()?;
    smt.decisions = smt_v[1].as_u64()?;
    smt.propagations = smt_v[2].as_u64()?;
    smt.theory_conflicts = smt_v[3].as_u64()?;
    let stages_v = v.get("stages")?.as_array()?;
    if stages_v.len() != Stage::ALL.len() {
        return None;
    }
    let mut stages = StageTable::default();
    for (stage, entry) in Stage::ALL.iter().zip(stages_v) {
        let pair = entry.as_array()?;
        if pair.len() != 2 {
            return None;
        }
        let seconds = f64::from_bits(pair[0].as_u64()?);
        let queries = pair[1].as_u64()?;
        stages.record(*stage, seconds, queries);
    }
    Some(ProcStats {
        n_predicates: usize::try_from(get_u64(v, "n_predicates")?).ok()?,
        n_cover_clauses: usize::try_from(get_u64(v, "n_cover_clauses")?).ok()?,
        search_nodes: usize::try_from(get_u64(v, "search_nodes")?).ok()?,
        solver_queries: get_u64(v, "solver_queries")?,
        stages,
        smt,
    })
}

fn report_from(v: &Value, proc_name: &str) -> Option<ProcReport> {
    let config = label_from_name(v.get("config")?.as_str()?)?;
    let status = match v.get("status")?.as_str()? {
        "Correct" => SibStatus::Correct,
        "Sib" => SibStatus::Sib,
        "MayBug" => SibStatus::MayBug,
        _ => return None,
    };
    let warnings = v
        .get("warnings")?
        .as_array()?
        .iter()
        .map(warning_from)
        .collect::<Option<Vec<_>>>()?;
    let specs = v
        .get("specs")?
        .as_array()?
        .iter()
        .map(|s| parse_formula(s.as_str()?).ok())
        .collect::<Option<Vec<Formula>>>()?;
    let outcome_v = v.get("outcome")?.as_array()?;
    let outcome = match outcome_v.first()?.as_str()? {
        "ok" => AnalysisOutcome::Ok,
        "timed_out" => AnalysisOutcome::TimedOut,
        "degraded" => AnalysisOutcome::Degraded {
            from_stage: stage_from_name(outcome_v.get(1)?.as_str()?)?,
            fallback: fallback_from_name(outcome_v.get(2)?.as_str()?)?,
        },
        _ => return None,
    };
    let timeout_stage = match v.get("timeout_stage")? {
        Value::Null => None,
        s => Some(stage_from_name(s.as_str()?)?),
    };
    Some(ProcReport {
        proc_name: proc_name.to_string(),
        config,
        status,
        warnings,
        specs,
        min_fail: usize::try_from(get_u64(v, "min_fail")?).ok()?,
        stats: stats_from(v.get("stats")?)?,
        outcome,
        timeout_stage,
    })
}

fn snapshot_from(v: &Value) -> Option<CacheSnapshot> {
    let side = |v: &Value| -> Option<Vec<Vec<TermId>>> {
        v.as_array()?
            .iter()
            .map(|entry| {
                entry
                    .as_array()?
                    .iter()
                    .map(|t| Some(TermId(u32::try_from(t.as_u64()?).ok()?)))
                    .collect()
            })
            .collect()
    };
    Some(CacheSnapshot {
        sat: side(v.get("sat")?)?,
        unsat: side(v.get("unsat")?)?,
    })
}

/// Reconstructs a [`ProcAnalysis`] from a validated payload. Returns
/// `None` on any structural surprise (wrong payload version, unknown
/// names, missing fields) — callers treat that as a cache miss and
/// recompute; a `None` can never alter a verdict.
///
/// The reconstruction is marked [`ProcAnalysis::from_store`] and
/// carries empty stage/query event logs: a warm procedure genuinely
/// issued zero solver queries, and stage accounting reflects that.
pub fn decode_analysis(bytes: &[u8]) -> Option<ProcAnalysis> {
    let text = std::str::from_utf8(bytes).ok()?;
    let v: Value = serde_json::from_str(text).ok()?;
    if get_u64(&v, "persist")? != u64::from(PERSIST_VERSION)
        || get_u64(&v, "report_schema")? != u64::from(REPORT_SCHEMA_VERSION)
    {
        return None;
    }
    let proc_name = v.get("proc_name")?.as_str()?.to_string();
    let cons = report_from(v.get("cons")?, &proc_name)?;
    let reports = v
        .get("reports")?
        .as_array()?
        .iter()
        .map(|per_config| {
            per_config
                .as_array()?
                .iter()
                .map(|r| report_from(r, &proc_name))
                .collect()
        })
        .collect::<Option<Vec<Vec<ProcReport>>>>()?;
    let certs_fragment = match v.get("certs")? {
        Value::Null => None,
        s => Some(s.as_str()?.to_string()),
    };
    let antichains = match v.get("antichains")? {
        Value::Null => None,
        s => Some(snapshot_from(s)?),
    };
    Some(ProcAnalysis {
        proc_name,
        cons,
        reports,
        events: Vec::new(),
        queries: Vec::new(),
        certs: None,
        from_store: true,
        incidents: Vec::new(),
        certs_fragment,
        antichains,
    })
}

// ---------------------------------------------------------------------
// The shared session handle.
// ---------------------------------------------------------------------

/// What the store contributed for one procedure's dispatch.
#[derive(Debug)]
pub enum StoreOutcome {
    /// Warm hit: the reconstructed analysis (zero solver queries).
    Hit(Box<ProcAnalysis>),
    /// No usable entry; run cold (an undecodable-but-checksummed payload
    /// also lands here — it will be overwritten by the fresh save).
    Miss,
    /// The entry failed validation and was quarantined; run cold and
    /// surface a `StoreCorruption` incident.
    Corrupt(CorruptionKind),
}

/// A thread-safe [`ResultStore`] handle shared across an analysis
/// fan-out. Store I/O is brief (one read or one write per procedure)
/// relative to analysis, so a single mutex is not a contention point.
#[derive(Debug)]
pub struct StoreSession {
    inner: Mutex<ResultStore>,
}

impl StoreSession {
    /// Opens (creating if needed) the store at `dir`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<StoreSession> {
        Ok(StoreSession {
            inner: Mutex::new(ResultStore::open(dir.as_ref())?),
        })
    }

    /// Opens the store with an I/O chaos harness installed (`None`
    /// behaves exactly like [`StoreSession::open`]).
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open_with_chaos(
        dir: impl AsRef<Path>,
        chaos: Option<ChaosConfig>,
    ) -> io::Result<StoreSession> {
        let mut store = ResultStore::open(dir.as_ref())?;
        if let Some(config) = chaos {
            store = store.with_chaos(config);
        }
        Ok(StoreSession {
            inner: Mutex::new(store),
        })
    }

    /// Loads and decodes the entry for `key`, validating it names
    /// `proc_name` (a different name under the same key would mean a
    /// fingerprint collision; the entry is ignored).
    pub fn fetch(&self, key: &str, proc_name: &str) -> StoreOutcome {
        let result = self.inner.lock().expect("store lock").load(key);
        match result {
            LoadResult::Hit(bytes) => match decode_analysis(&bytes) {
                Some(pa) if pa.proc_name == proc_name => StoreOutcome::Hit(Box::new(pa)),
                _ => StoreOutcome::Miss,
            },
            LoadResult::Miss => StoreOutcome::Miss,
            LoadResult::Corrupt { kind, .. } => StoreOutcome::Corrupt(kind),
        }
    }

    /// Encodes and saves `pa` under `key`. Quietly does nothing when the
    /// analysis is not round-trippable; save I/O errors (including
    /// injected `ENOSPC`) are absorbed into
    /// [`StoreStats::save_errors`] — persistence is an optimization,
    /// never a correctness dependency.
    pub fn put(&self, key: &str, pa: &ProcAnalysis) {
        if let Some(bytes) = encode_analysis(pa) {
            let _ = self.inner.lock().expect("store lock").save(key, &bytes);
        }
    }

    /// Counter/histogram snapshot.
    pub fn stats(&self) -> StoreStats {
        self.inner.lock().expect("store lock").stats().clone()
    }

    /// Chaos-injection counters (zero when no harness is installed).
    pub fn chaos_stats(&self) -> ChaosStoreStats {
        self.inner.lock().expect("store lock").chaos_stats()
    }

    /// Number of quarantined entries on disk.
    pub fn quarantine_count(&self) -> usize {
        self.inner.lock().expect("store lock").quarantine_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{NullObserver, ProgramAnalysis};
    use acspec_ir::parse::parse_program;

    fn analyzed(src: &str) -> Vec<ProcAnalysis> {
        let prog = parse_program(src).expect("parses");
        ProgramAnalysis::new(&prog)
            .threads(1)
            .run(&mut NullObserver)
            .into_iter()
            .map(|o| o.into_analysis().expect("no incidents"))
            .collect()
    }

    #[test]
    fn encode_decode_is_byte_stable() {
        let analyses = analyzed(
            "procedure f(x: int) { if (x == 0) { assert x != 0; } }
             procedure ok(x: int) { assume x > 0; assert x > 0; }",
        );
        for pa in &analyses {
            let bytes = encode_analysis(pa).expect("encodable");
            let warm = decode_analysis(&bytes).expect("decodable");
            assert!(warm.from_store);
            assert!(warm.events.is_empty() && warm.queries.is_empty());
            assert_eq!(pa.cons.to_json(), warm.cons.to_json());
            let cold: Vec<String> = pa
                .reports
                .iter()
                .flatten()
                .map(ProcReport::to_json)
                .collect();
            let reheated: Vec<String> = warm
                .reports
                .iter()
                .flatten()
                .map(ProcReport::to_json)
                .collect();
            assert_eq!(cold, reheated);
            // Encoding the reconstruction reproduces the exact bytes.
            assert_eq!(encode_analysis(&warm).expect("encodable"), bytes);
        }
    }

    #[test]
    fn version_skew_and_junk_decode_to_none() {
        let pa = &analyzed("procedure f(x: int) { assert x != 0; }")[0];
        let bytes = encode_analysis(pa).expect("encodable");
        let text = String::from_utf8(bytes).expect("utf8");
        let skewed = text.replace("\"persist\":1", "\"persist\":999");
        assert!(decode_analysis(skewed.as_bytes()).is_none());
        assert!(decode_analysis(b"not json").is_none());
        assert!(decode_analysis(b"{\"persist\":1}").is_none());
    }

    #[test]
    fn options_digest_separates_requests_and_ignores_nothing_relevant() {
        let base = AcspecOptions::default();
        let d1 = options_digest(&base, &[ConfigName::Conc], &[], true, false);
        let d2 = options_digest(&base, &[ConfigName::Conc, ConfigName::A1], &[], true, false);
        let d3 = options_digest(&base, &[ConfigName::Conc], &[], true, true);
        let mut tighter = base;
        tighter.analyzer.conflict_budget = Some(7);
        let d4 = options_digest(&tighter, &[ConfigName::Conc], &[], true, false);
        assert_ne!(d1, d2);
        assert_ne!(d1, d3);
        assert_ne!(d1, d4);
        assert_eq!(
            d1,
            options_digest(&base, &[ConfigName::Conc], &[], true, false)
        );
    }

    #[test]
    fn entry_keys_mix_fingerprint_and_options() {
        let a = entry_key("aa", "oo");
        assert_ne!(a, entry_key("ab", "oo"));
        assert_ne!(a, entry_key("aa", "op"));
        assert_eq!(a.len(), 64);
    }
}

//! The traced run's per-layer accounting. Every layer is measured from
//! outside the program: spans the benchmark times around its own public
//! calls (parse, fingerprint, store, report), and the pipeline stages
//! `ProgramAnalysis::run` already reports through its `SessionObserver`
//! stream (`StageEvent`s for stage wall time, `QueryEvent`s for the
//! solver time inside each stage run).

use std::collections::BTreeMap;

use acspec_core::{AnalysisOutcome, ProcAnalysis, QueryEvent, SessionObserver, StageEvent};
use acspec_vcgen::Stage;

/// Wall time, solver time and work counts of one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layer {
    pub wall: f64,
    pub solver: f64,
    pub queries: u64,
    pub calls: u64,
}

/// Layers whose time is covered by an observed stage or a benchmark span,
/// in table order; `trace.coverage_share` sums their wall time.
pub const TIMED: &[&str] = &[
    "cfront.parse",
    "ir.parse",
    "core.fingerprint",
    "store.fetch",
    "store.put",
    "vcgen.encode",
    "core.screen",
    "predabs.mine",
    "predabs.cover",
    "core.search",
    "predabs.normalize",
    "core.evaluate",
    "core.report",
];

/// The per-layer accumulator; also the traced run's `SessionObserver`.
#[derive(Debug, Default)]
pub struct Layers {
    layers: BTreeMap<&'static str, Layer>,
    counts: BTreeMap<&'static str, f64>,
    /// Solver seconds of the current procedure's queries, by the
    /// `stage_seq` of the stage run that issued them (queries are
    /// replayed just before their stage's event).
    pending: BTreeMap<u32, f64>,
    /// Whether the current procedure's last stage was a `Search`: the
    /// `Evaluate` run right after it is the normal-form pass.
    after_search: bool,
}

impl Layers {
    /// Adds one benchmark-timed span to `layer`.
    pub fn span(&mut self, layer: &'static str, seconds: f64) {
        let l = self.layers.entry(layer).or_default();
        l.wall += seconds;
        l.calls += 1;
    }

    /// Adds `n` to counter `name`.
    pub fn count(&mut self, name: &'static str, n: f64) {
        *self.counts.entry(name).or_default() += n;
    }

    pub fn layer(&self, name: &str) -> Layer {
        self.layers.get(name).copied().unwrap_or_default()
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or_default()
    }

    /// Counts the work a freshly computed analysis reports about itself:
    /// predicates mined, cover clauses, search nodes, warnings, and the
    /// reports that hit a cap.
    pub fn absorb_reports(&mut self, pa: &ProcAnalysis) {
        for variants in &pa.reports {
            if let Some(r) = variants.first() {
                self.count("predabs.mine.predicates", r.stats.n_predicates as f64);
                self.count("predabs.cover.clauses", r.stats.n_cover_clauses as f64);
                self.count("core.search.nodes", r.stats.search_nodes as f64);
            }
            for r in variants {
                self.count("core.evaluate.warnings", r.warnings.len() as f64);
            }
        }
        for r in std::iter::once(&pa.cons).chain(pa.reports.iter().flatten()) {
            match r.outcome {
                AnalysisOutcome::Ok => {}
                AnalysisOutcome::TimedOut => self.count("core.timed_out", 1.0),
                AnalysisOutcome::Degraded { from_stage, .. } => self.count(
                    match from_stage {
                        Stage::Mine => "core.degraded.mine",
                        Stage::Cover => "core.degraded.cover",
                        Stage::Search => "core.degraded.search",
                        _ => "core.degraded.evaluate",
                    },
                    1.0,
                ),
            }
        }
    }

    /// Sum of the wall time of every timed layer.
    pub fn covered(&self) -> f64 {
        TIMED.iter().map(|n| self.layer(n).wall).sum()
    }
}

impl SessionObserver for Layers {
    fn wants_queries(&self) -> bool {
        true
    }

    fn wants_search(&self) -> bool {
        true
    }

    fn query_completed(&mut self, e: &QueryEvent) {
        *self.pending.entry(e.stage_seq).or_default() += e.seconds;
        self.count("smt.queries", 1.0);
        self.count("smt.solver_s", e.seconds);
        self.count("smt.conflicts", e.counters.conflicts as f64);
        self.count("smt.decisions", e.counters.decisions as f64);
        self.count("smt.propagations", e.counters.propagations as f64);
        if let Some(s) = &e.search {
            self.count("smt.restarts", s.restarts as f64);
        }
    }

    fn stage_completed(&mut self, e: &StageEvent) {
        let name = match e.stage {
            Stage::Encode => "vcgen.encode",
            Stage::Screen => "core.screen",
            Stage::Mine => "predabs.mine",
            Stage::Cover => "predabs.cover",
            Stage::Search => "core.search",
            Stage::Evaluate if self.after_search => "predabs.normalize",
            Stage::Evaluate => "core.evaluate",
        };
        self.after_search = e.stage == Stage::Search;
        let l = self.layers.entry(name).or_default();
        l.wall += e.metrics.seconds;
        l.solver += self.pending.remove(&e.seq).unwrap_or_default();
        l.queries += e.metrics.queries;
        l.calls += 1;
        let c = &e.cache;
        self.count(
            "vcgen.cache.lookups",
            (c.hits_sat + c.hits_unsat + c.misses) as f64,
        );
        self.count("vcgen.cache.hits", (c.hits_sat + c.hits_unsat) as f64);
    }

    fn proc_completed(&mut self, _proc_name: &str) {
        // Queries not matched to a stage run stay in `smt.*` only.
        self.pending.clear();
        self.after_search = false;
    }
}

/// Renders the per-layer table, sorted by self (non-solver) time.
pub fn table(layers: &Layers, traced_wall: f64) -> String {
    let mut rows: Vec<(&str, Layer)> = TIMED.iter().map(|n| (*n, layers.layer(n))).collect();
    rows.sort_by(|a, b| (b.1.wall - b.1.solver).total_cmp(&(a.1.wall - a.1.solver)));
    let mut out = format!(
        "{:<18} {:>10} {:>10} {:>10} {:>7} {:>9} {:>9}\n",
        "layer", "wall_s", "solver_s", "self_s", "share", "queries", "calls"
    );
    for (name, l) in rows {
        out.push_str(&format!(
            "{:<18} {:>10.4} {:>10.4} {:>10.4} {:>7.3} {:>9} {:>9}\n",
            name,
            l.wall,
            l.solver,
            l.wall - l.solver,
            if traced_wall > 0.0 {
                l.wall / traced_wall
            } else {
                0.0
            },
            l.queries,
            l.calls
        ));
    }
    out
}

/// `num / den`, or 0 when nothing was counted.
pub fn share(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of `BENCHMARK.json`, in order: name, value, unit.
pub fn metrics(
    layers: &Layers,
    traced_wall: f64,
    overhead: f64,
) -> Vec<(String, f64, &'static str)> {
    let mut out: Vec<(String, f64, &'static str)> = Vec::new();
    let l = |n: &str| layers.layer(n);
    let c = |n: &str| layers.counter(n);
    out.push(("cfront.parse.wall_s".into(), l("cfront.parse").wall, "s"));
    out.push(("ir.parse.wall_s".into(), l("ir.parse").wall, "s"));
    out.push(("parse.bytes".into(), c("parse.bytes"), "bytes"));
    out.push((
        "core.fingerprint.wall_s".into(),
        l("core.fingerprint").wall,
        "s",
    ));
    out.push((
        "core.fingerprint.calls".into(),
        l("core.fingerprint").calls as f64,
        "count",
    ));
    out.push(("store.fetch.wall_s".into(), l("store.fetch").wall, "s"));
    out.push(("store.put.wall_s".into(), l("store.put").wall, "s"));
    out.push(("store.hits".into(), c("store.hits"), "count"));
    out.push(("store.misses".into(), c("store.misses"), "count"));
    out.push((
        "store.hit_share".into(),
        share(c("store.hits"), c("store.hits") + c("store.misses")),
        "share",
    ));
    out.push(("store.bytes_read".into(), c("store.bytes_read"), "bytes"));
    out.push(("vcgen.encode.wall_s".into(), l("vcgen.encode").wall, "s"));
    out.push((
        "vcgen.encode.calls".into(),
        l("vcgen.encode").calls as f64,
        "count",
    ));
    let staged = |out: &mut Vec<(String, f64, &'static str)>, name: &str| {
        let x = l(name);
        out.push((format!("{name}.wall_s"), x.wall, "s"));
        out.push((format!("{name}.solver_s"), x.solver, "s"));
        out.push((format!("{name}.self_s"), x.wall - x.solver, "s"));
        out.push((format!("{name}.queries"), x.queries as f64, "count"));
    };
    staged(&mut out, "core.screen");
    out.push(("predabs.mine.wall_s".into(), l("predabs.mine").wall, "s"));
    out.push((
        "predabs.mine.predicates".into(),
        c("predabs.mine.predicates"),
        "count",
    ));
    staged(&mut out, "predabs.cover");
    out.push((
        "predabs.cover.clauses".into(),
        c("predabs.cover.clauses"),
        "count",
    ));
    staged(&mut out, "core.search");
    out.push(("core.search.nodes".into(), c("core.search.nodes"), "count"));
    staged(&mut out, "predabs.normalize");
    staged(&mut out, "core.evaluate");
    out.push((
        "core.evaluate.warnings".into(),
        c("core.evaluate.warnings"),
        "count",
    ));
    for name in [
        "smt.queries",
        "smt.conflicts",
        "smt.decisions",
        "smt.propagations",
        "smt.restarts",
    ] {
        out.push((name.into(), c(name), "count"));
    }
    out.push(("smt.solver_s".into(), c("smt.solver_s"), "s"));
    out.push((
        "vcgen.cache.lookups".into(),
        c("vcgen.cache.lookups"),
        "count",
    ));
    out.push((
        "vcgen.cache.hit_share".into(),
        share(c("vcgen.cache.hits"), c("vcgen.cache.lookups")),
        "share",
    ));
    out.push(("core.report.wall_s".into(), l("core.report").wall, "s"));
    out.push(("core.report.bytes".into(), c("core.report.bytes"), "bytes"));
    for name in [
        "core.degraded.search",
        "core.degraded.cover",
        "core.degraded.mine",
        "core.degraded.evaluate",
        "core.timed_out",
    ] {
        out.push((name.into(), c(name), "count"));
    }
    out.push(("trace.overhead_share".into(), overhead, "share"));
    out.push((
        "trace.coverage_share".into(),
        share(layers.covered(), traced_wall),
        "share",
    ));
    out
}

//! Trace alignment and diffing — the engine behind `repro trace-diff`.
//!
//! Two JSONL traces (written by `--trace-out`) are aligned by *span
//! path*: the chain of `kind name` components from the root, e.g.
//! `program / procedure f / config Conc / stage screen`. Paths are
//! structural — no ids, no wall-times — so two runs of the same
//! workload align perfectly regardless of thread count, and a run that
//! took a different path (a chaos fault, a changed query plan) shows up
//! as the first path present in only one trace or whose solver-query
//! outcome sequence differs.
//!
//! Parsing uses the workspace's one JSON reader outside the checker,
//! [`serde_json::from_str`].

use std::collections::HashMap;

use serde_json::Value;

use crate::format_table;

/// One span of a parsed JSONL trace, with its query events folded in.
#[derive(Debug, Clone)]
pub struct DiffSpan {
    /// Structural path from the root (see the module docs). Unique
    /// within a trace: repeated paths get a ` #n` occurrence suffix.
    pub path: String,
    /// The span kind (`program`, `procedure`, `config`, `stage`, …).
    pub kind: String,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// The stage's `queries` attribute (0 when absent).
    pub queries: u64,
    /// The stage's `cache_hits` attribute (0 when absent).
    pub cache_hits: u64,
    /// Outcomes of the attached `solver_query` events, in order.
    pub outcomes: Vec<String>,
    /// Total solver conflicts over the attached events.
    pub conflicts: u64,
}

/// A parsed `--trace-out` JSONL file.
#[derive(Debug, Clone, Default)]
pub struct ParsedTrace {
    /// The `command` recorded in the header manifest, if any.
    pub command: Option<String>,
    /// Spans in id order (the root first; parents precede children).
    pub spans: Vec<DiffSpan>,
}

/// The display-name attribute per span kind (mirrors the exporters).
fn name_attr(kind: &str) -> Option<&'static str> {
    match kind {
        "procedure" => Some("proc"),
        "config" => Some("label"),
        "stage" => Some("stage"),
        _ => None,
    }
}

fn attr_u64(attrs: Option<&Value>, key: &str) -> u64 {
    attrs
        .and_then(|a| a.get(key))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

/// Parses a JSONL trace into its aligned-diff model.
///
/// Unknown line types are skipped (forward compatibility); malformed
/// JSON or a span line missing its id is an error. Redacted traces
/// (ids zeroed) cannot be parsed — diff the unredacted originals.
///
/// # Errors
///
/// Returns a `line N: message` description of the first bad line.
pub fn parse_trace(text: &str) -> Result<ParsedTrace, String> {
    let mut out = ParsedTrace::default();
    // Span id -> index in `out.spans`, and occurrence counts for path
    // uniqueness (a re-run stage repeats its parent-derived path).
    let mut index_of: HashMap<u64, usize> = HashMap::new();
    let mut occurrences: HashMap<String, u32> = HashMap::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = serde_json::from_str(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        match v.get("type").and_then(Value::as_str) {
            Some("trace") => {
                out.command = v
                    .get("manifest")
                    .and_then(|m| m.get("command"))
                    .and_then(Value::as_str)
                    .map(str::to_string);
            }
            Some("span") => {
                let id = v
                    .get("id")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| format!("line {}: span without an id", n + 1))?;
                let kind = v
                    .get("kind")
                    .and_then(Value::as_str)
                    .unwrap_or("?")
                    .to_string();
                let attrs = v.get("attrs");
                let component = name_attr(&kind)
                    .and_then(|a| attrs.and_then(|at| at.get(a)).and_then(Value::as_str))
                    .map_or_else(|| kind.clone(), |name| format!("{kind} {name}"));
                let parent_path = v
                    .get("parent")
                    .and_then(Value::as_u64)
                    .and_then(|p| index_of.get(&p))
                    .map(|&i| out.spans[i].path.clone());
                let base = match parent_path {
                    Some(p) => format!("{p} / {component}"),
                    None => component,
                };
                let seen = occurrences.entry(base.clone()).or_insert(0);
                *seen += 1;
                let path = if *seen > 1 {
                    format!("{base} #{seen}")
                } else {
                    base
                };
                index_of.insert(id, out.spans.len());
                out.spans.push(DiffSpan {
                    path,
                    kind,
                    seconds: v.get("seconds").and_then(Value::as_f64).unwrap_or(0.0),
                    queries: attr_u64(attrs, "queries"),
                    cache_hits: attr_u64(attrs, "cache_hits"),
                    outcomes: Vec::new(),
                    conflicts: 0,
                });
            }
            Some("event") => {
                let Some(&i) = v
                    .get("span")
                    .and_then(Value::as_u64)
                    .and_then(|s| index_of.get(&s))
                else {
                    continue; // event for a span we never saw
                };
                let attrs = v.get("attrs");
                let outcome = attrs
                    .and_then(|a| a.get("outcome"))
                    .and_then(Value::as_str)
                    .unwrap_or("?");
                out.spans[i].outcomes.push(outcome.to_string());
                out.spans[i].conflicts += attr_u64(attrs, "conflicts");
            }
            _ => {}
        }
    }
    if out.spans.is_empty() {
        return Err("no spans found (is this a --trace-out JSONL file?)".to_string());
    }
    Ok(out)
}

/// A per-path comparison of two aligned spans.
#[derive(Debug, Clone)]
pub struct DiffRow {
    /// The shared span path.
    pub path: String,
    /// Span kind (same on both sides by construction of the path).
    pub kind: String,
    /// Wall seconds in (a, b).
    pub seconds: (f64, f64),
    /// Query counts in (a, b).
    pub queries: (u64, u64),
    /// Cache hits in (a, b).
    pub cache_hits: (u64, u64),
    /// Total solver conflicts in (a, b).
    pub conflicts: (u64, u64),
    /// True when the solver-query outcome sequences differ — the two
    /// runs took different query plans through this span.
    pub diverged: bool,
}

/// Where two traces first stop telling the same story.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The first diverging span path (preorder of trace A, then B).
    pub path: String,
    /// What differs there.
    pub reason: String,
}

/// The result of aligning two parsed traces.
#[derive(Debug, Clone, Default)]
pub struct TraceDiff {
    /// Paths present in both traces, in trace A's preorder.
    pub rows: Vec<DiffRow>,
    /// Paths only in trace A.
    pub only_a: Vec<String>,
    /// Paths only in trace B.
    pub only_b: Vec<String>,
    /// The first query-plan divergence, if any (`None` means the runs
    /// are structurally identical: same spans, same outcome sequences).
    pub divergence: Option<Divergence>,
}

/// Aligns two traces by span path (see the module docs).
pub fn diff_traces(a: &ParsedTrace, b: &ParsedTrace) -> TraceDiff {
    let b_index: HashMap<&str, usize> = b
        .spans
        .iter()
        .enumerate()
        .map(|(i, s)| (s.path.as_str(), i))
        .collect();
    let mut diff = TraceDiff::default();
    let mut matched = vec![false; b.spans.len()];
    for sa in &a.spans {
        match b_index.get(sa.path.as_str()) {
            Some(&i) => {
                matched[i] = true;
                let sb = &b.spans[i];
                let diverged = sa.outcomes != sb.outcomes;
                if diverged && diff.divergence.is_none() {
                    diff.divergence = Some(Divergence {
                        path: sa.path.clone(),
                        reason: format!(
                            "query outcomes differ: {} vs {} queries ({} vs {})",
                            sa.outcomes.len(),
                            sb.outcomes.len(),
                            summarize_outcomes(&sa.outcomes),
                            summarize_outcomes(&sb.outcomes),
                        ),
                    });
                }
                diff.rows.push(DiffRow {
                    path: sa.path.clone(),
                    kind: sa.kind.clone(),
                    seconds: (sa.seconds, sb.seconds),
                    queries: (sa.queries, sb.queries),
                    cache_hits: (sa.cache_hits, sb.cache_hits),
                    conflicts: (sa.conflicts, sb.conflicts),
                    diverged,
                });
            }
            None => {
                if diff.divergence.is_none() {
                    diff.divergence = Some(Divergence {
                        path: sa.path.clone(),
                        reason: "span only in trace A".to_string(),
                    });
                }
                diff.only_a.push(sa.path.clone());
            }
        }
    }
    for (i, sb) in b.spans.iter().enumerate() {
        if !matched[i] {
            if diff.divergence.is_none() {
                diff.divergence = Some(Divergence {
                    path: sb.path.clone(),
                    reason: "span only in trace B".to_string(),
                });
            }
            diff.only_b.push(sb.path.clone());
        }
    }
    diff
}

/// `sat×3 unsat×2`-style compression of an outcome sequence.
fn summarize_outcomes(outcomes: &[String]) -> String {
    if outcomes.is_empty() {
        return "none".to_string();
    }
    let mut parts = Vec::new();
    let mut i = 0;
    while i < outcomes.len() {
        let mut j = i;
        while j < outcomes.len() && outcomes[j] == outcomes[i] {
            j += 1;
        }
        parts.push(if j - i > 1 {
            format!("{}×{}", outcomes[i], j - i)
        } else {
            outcomes[i].clone()
        });
        i = j;
    }
    parts.join(" ")
}

impl TraceDiff {
    /// Renders the human-readable report `repro trace-diff` prints:
    /// totals, the top-`top` stage rows by absolute wall delta, and the
    /// divergence verdict.
    pub fn format(&self, label_a: &str, label_b: &str, top: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!("== Trace diff: A={label_a}  B={label_b} ==\n\n"));

        let total = |side: fn(&DiffRow) -> f64| -> f64 {
            // The root span (depth 0) carries the whole run's seconds.
            self.rows.first().map_or(0.0, side)
        };
        let queries: (u64, u64) = self
            .rows
            .iter()
            .fold((0, 0), |acc, r| (acc.0 + r.queries.0, acc.1 + r.queries.1));
        out.push_str(&format!(
            "total wall: {:.3}s vs {:.3}s ({:+.3}s)   stage queries: {} vs {}\n",
            total(|r| r.seconds.0),
            total(|r| r.seconds.1),
            total(|r| r.seconds.1) - total(|r| r.seconds.0),
            queries.0,
            queries.1,
        ));
        out.push_str(&format!(
            "aligned spans: {}   only in A: {}   only in B: {}\n\n",
            self.rows.len(),
            self.only_a.len(),
            self.only_b.len()
        ));

        let mut stages: Vec<&DiffRow> = self.rows.iter().filter(|r| r.kind == "stage").collect();
        stages.sort_by(|x, y| {
            let dx = (x.seconds.1 - x.seconds.0).abs();
            let dy = (y.seconds.1 - y.seconds.0).abs();
            dy.total_cmp(&dx).then_with(|| x.path.cmp(&y.path))
        });
        let rows: Vec<Vec<String>> = stages
            .iter()
            .take(top)
            .map(|r| {
                vec![
                    r.path.clone(),
                    format!("{:+.3}", r.seconds.1 - r.seconds.0),
                    format!("{}/{}", r.queries.0, r.queries.1),
                    format!("{}/{}", r.cache_hits.0, r.cache_hits.1),
                    format!("{}/{}", r.conflicts.0, r.conflicts.1),
                    if r.diverged { "DIVERGED" } else { "" }.to_string(),
                ]
            })
            .collect();
        out.push_str(&format_table(
            &[
                "Stage (top wall deltas)",
                "ΔT(s)",
                "Q a/b",
                "Hits a/b",
                "Confl a/b",
                "",
            ],
            &rows,
        ));
        out.push('\n');

        match &self.divergence {
            Some(d) => {
                out.push_str(&format!(
                    "FIRST DIVERGENCE at: {}\n  {}\n",
                    d.path, d.reason
                ));
            }
            None => {
                out.push_str("no divergence: same spans, same query outcomes on every path\n");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acspec_telemetry::{Trace, TraceBuf};

    /// A small two-procedure trace; `tweak` lets a test vary one run.
    fn jsonl(second_outcome: &str, extra_stage: bool) -> String {
        let mut b1 = TraceBuf::new();
        let p = b1.push_span(None, "procedure", vec![("proc", "f".into())], 0.5);
        let c = b1.push_span(Some(p), "config", vec![("label", "Conc".into())], 0.5);
        let s = b1.push_span(
            Some(c),
            "stage",
            vec![("stage", "screen".into()), ("queries", 2u64.into())],
            0.5,
        );
        b1.push_event(
            s,
            "solver_query",
            vec![
                ("seq", 0u64.into()),
                ("outcome", "unsat".into()),
                ("conflicts", 3u64.into()),
            ],
            0.1,
        );
        b1.push_event(
            s,
            "solver_query",
            vec![
                ("seq", 1u64.into()),
                ("outcome", second_outcome.to_string().into()),
                ("conflicts", 4u64.into()),
            ],
            0.1,
        );
        if extra_stage {
            b1.push_span(Some(c), "stage", vec![("stage", "cover".into())], 0.25);
        }
        let mut b2 = TraceBuf::new();
        b2.push_span(None, "procedure", vec![("proc", "g".into())], 0.25);
        Trace::assemble("program", vec![("procs", 2u64.into())], vec![b1, b2]).to_jsonl(None)
    }

    #[test]
    fn identical_runs_have_zero_divergence() {
        let a = parse_trace(&jsonl("sat", false)).expect("parses");
        let b = parse_trace(&jsonl("sat", false)).expect("parses");
        let d = diff_traces(&a, &b);
        assert!(d.divergence.is_none(), "{:?}", d.divergence);
        assert!(d.only_a.is_empty() && d.only_b.is_empty());
        assert_eq!(d.rows.len(), a.spans.len());
        let report = d.format("a.jsonl", "b.jsonl", 5);
        assert!(report.contains("no divergence"), "{report}");
    }

    #[test]
    fn outcome_flip_is_the_first_divergence() {
        let a = parse_trace(&jsonl("sat", false)).expect("parses");
        let b = parse_trace(&jsonl("unknown", false)).expect("parses");
        let d = diff_traces(&a, &b);
        let div = d.divergence.clone().expect("diverges");
        assert_eq!(
            div.path,
            "program / procedure f / config Conc / stage screen"
        );
        assert!(div.reason.contains("unsat sat"), "{}", div.reason);
        assert!(div.reason.contains("unsat unknown"), "{}", div.reason);
        let report = d.format("clean", "chaotic", 5);
        assert!(report.contains("FIRST DIVERGENCE"), "{report}");
        assert!(report.contains("stage screen"), "{report}");
    }

    #[test]
    fn missing_span_reports_only_in_one_side() {
        let a = parse_trace(&jsonl("sat", true)).expect("parses");
        let b = parse_trace(&jsonl("sat", false)).expect("parses");
        let d = diff_traces(&a, &b);
        assert_eq!(
            d.only_a,
            vec!["program / procedure f / config Conc / stage cover".to_string()]
        );
        assert_eq!(
            d.divergence.expect("diverges").reason,
            "span only in trace A"
        );
        // And symmetrically when the extra span is on the B side.
        let d = diff_traces(&b, &a);
        assert_eq!(d.only_b.len(), 1);
        assert_eq!(
            d.divergence.expect("diverges").reason,
            "span only in trace B"
        );
    }

    #[test]
    fn repeated_paths_get_occurrence_suffixes() {
        let mut b1 = TraceBuf::new();
        let p = b1.push_span(None, "procedure", vec![("proc", "f".into())], 0.2);
        b1.push_span(Some(p), "stage", vec![("stage", "screen".into())], 0.1);
        b1.push_span(Some(p), "stage", vec![("stage", "screen".into())], 0.1);
        let t = Trace::assemble("program", vec![], vec![b1]).to_jsonl(None);
        let parsed = parse_trace(&t).expect("parses");
        let paths: Vec<&str> = parsed.spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(
            paths,
            vec![
                "program",
                "program / procedure f",
                "program / procedure f / stage screen",
                "program / procedure f / stage screen #2",
            ]
        );
    }

    #[test]
    fn parse_rejects_garbage_and_empty_inputs() {
        assert!(parse_trace("not json\n").unwrap_err().contains("line 1"));
        assert!(parse_trace("").unwrap_err().contains("no spans"));
        // Unknown line types are tolerated.
        let t = jsonl("sat", false) + "{\"type\":\"future-thing\"}\n";
        assert!(parse_trace(&t).is_ok());
    }
}

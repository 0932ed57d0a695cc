#![warn(missing_docs)]

//! `acspec-telemetry` — a lightweight, dependency-free tracing and
//! metrics layer for the ACSpec pipeline.
//!
//! The paper's evaluation (§6, Figures 5–9) is entirely about *where
//! analysis effort goes*: queries per stage, time per configuration,
//! warnings per benchmark. This crate gives the pipeline first-class
//! instrumentation for those questions, in the style of the
//! statistics/reporting subsystems of mature verifier frameworks:
//!
//! * **Spans** ([`TraceBuf`], [`Trace`]) — begin/end records with
//!   wall-time, parent id, and `key=value` attributes, forming the
//!   hierarchy `program → procedure → config → stage`, with one
//!   `solver_query` event per SMT `check()` hanging off its stage span.
//!   Buffers are recorded per worker and assembled by *stable order*
//!   ([`Trace::assemble`]), never arrival order, so traces are
//!   byte-identical across thread counts modulo wall-times.
//! * **Metrics** ([`MetricsRegistry`]) — named counters, float gauges,
//!   and fixed-bucket latency histograms, snapshotted as
//!   schema-versioned JSON with a run [`Manifest`].
//! * **Sinks** — [`Trace::to_jsonl`] (one JSON object per line) and
//!   [`MetricsRegistry::snapshot_json`]. Both are plain strings; the
//!   caller decides where they go.
//!
//! The crate deliberately has no dependencies and no global state:
//! recording is explicit, owned by the caller, and free when simply not
//! constructed.

pub mod json;
pub mod metrics;
pub mod perfetto;
pub mod trace;

pub use json::Value;
pub use metrics::{
    max_rss_kb, opt, BoundsMismatch, Histogram, Manifest, MetricsRegistry, LATENCY_BUCKETS,
    SCHEMA_VERSION,
};
pub use trace::{Span, SpanHandle, Trace, TraceBuf, TraceEvent, TraceRender};

#[cfg(test)]
mod tests {
    use super::*;

    /// Every sink line must be valid JSON (checked with serde_json,
    /// which the rest of the workspace already trusts for reports).
    #[test]
    fn sinks_emit_valid_json() {
        let mut buf = TraceBuf::new();
        let p = buf.push_span(
            None,
            "procedure",
            vec![("proc", "Foo \"quoted\"\n".into())],
            0.25,
        );
        let s = buf.push_span(
            Some(p),
            "stage",
            vec![("stage", "cover".into()), ("queries", 3u64.into())],
            0.125,
        );
        buf.push_event(
            s,
            "solver_query",
            vec![("seq", 0u64.into()), ("outcome", "sat".into())],
            0.001,
        );
        let trace = Trace::assemble("program", vec![("procs", 1u64.into())], vec![buf]);
        let manifest = Manifest {
            tool: "acspec".into(),
            command: "foo.c".into(),
            scale: None,
            threads: Some(4),
            configs: vec!["Conc".into()],
            options: vec![opt("prune", "off")],
        };
        for line in trace.to_jsonl(Some(&manifest)).lines() {
            let v: serde_json::Value = serde_json::from_str(line).expect(line);
            assert!(v["type"].as_str().is_some(), "{line}");
        }

        let mut reg = MetricsRegistry::new();
        reg.inc("solver.queries", 1);
        reg.observe("solver.query_seconds", 0.001);
        reg.gauge_add("stage.total_seconds", 0.125);
        let snap = reg.snapshot_json(Some(&manifest));
        let v: serde_json::Value = serde_json::from_str(&snap).expect("valid snapshot");
        assert_eq!(v["schema"], u64::from(SCHEMA_VERSION));
        assert_eq!(v["manifest"]["tool"], "acspec");
        assert_eq!(v["counters"]["solver.queries"], 1);
        assert_eq!(v["histograms"]["solver.query_seconds"]["count"], 1);
    }
}

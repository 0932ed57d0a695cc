#![warn(missing_docs)]

//! `acspec-check` — the independent certificate checker.
//!
//! The analysis engine (`acspec-smt` → `acspec-vcgen` → `acspec-core`)
//! emits a schema-versioned certificate sidecar (`--certs-out`) in which
//! every reported verdict is a [`doc::Claim`] backed by a
//! [`doc::Cert`]: a `Sat` certificate carries a full first-order model,
//! an `Unsat` certificate carries a replayable propositional proof. This
//! crate re-validates that document **without sharing any code with the
//! engine** — its own private JSON parser, its own term evaluator
//! ([`eval`]), its own unit propagator ([`proof`]).
//!
//! # What is re-derived vs. trusted
//!
//! Re-derived from first principles:
//!
//! * **`Sat` verdicts** — every asserted root, assumption, and blocking
//!   clause must evaluate to *true* under the certificate's model.
//! * **`Unsat` verdicts** — every input clause in the proof log must
//!   match its provenance tag (asserted unit, Tseitin definitional
//!   clause reconstructed from the term structure, theory clause
//!   matching its term-level reading, blocking clause matching the
//!   query), every learnt clause must be a RUP consequence of the
//!   clauses before it, and the final core must propagate to a conflict.
//! * **Claim/certificate agreement** — each claim's expected verdict
//!   against its certificate's outcome, cube literals against the
//!   certificate's assumptions, cover-exhaustion blocking clauses
//!   against the enumerated cubes, and weakening-chain step structure
//!   (shrinking subsets grounded by unsat evidence down to the spec).
//!
//! Remaining in the trust base (documented in `DESIGN.md` §4.6): the
//! *validity* of theory-tagged clauses (the checker verifies they match
//! their claimed term-level reading, not linear-arithmetic validity),
//! the semantics of purification equations, and the mapping from report
//! claims to logical terms.

pub mod doc;
pub mod eval;
mod json;
pub mod proof;

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use doc::{Cert, ClaimKind, Event, Node, Outcome, Proc, Proof, StepEvidence, Tag};
use eval::Evaluator;
use proof::Propagator;

/// The result of checking a certificate document: counts of what was
/// examined plus every validation failure found (empty = fully valid).
#[derive(Debug, Default)]
pub struct CheckSummary {
    /// Procedures examined.
    pub procs: usize,
    /// Certificates examined.
    pub certs: usize,
    /// `Sat` certificates (model-checked).
    pub sat_certs: usize,
    /// `Unsat` certificates (proof-replayed).
    pub unsat_certs: usize,
    /// Claims examined.
    pub claims: usize,
    /// Weakening chains examined.
    pub chains: usize,
    /// Every validation failure, in document order.
    pub errors: Vec<String>,
}

impl CheckSummary {
    /// True when the document validated completely.
    pub fn ok(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Where the certificates of a document handed to `acspec check` are:
/// in the document itself when it is a `--certs-out` sidecar
/// (`Ok(None)`), or in the sidecar a `--format json` report names in its
/// `certs_ref` (`Ok(Some(certs_ref))`).
///
/// # Errors
///
/// Malformed JSON, a report without `certs_ref`, or a document that is
/// neither a sidecar nor a report.
pub fn certs_ref(text: &str) -> Result<Option<String>, String> {
    let top = json::parse(text)?;
    if top.get("procs").is_some() {
        Ok(None)
    } else if top.get("reports").is_some() {
        top.get("certs_ref")
            .and_then(json::Value::str)
            .map(|r| Some(r.to_string()))
            .ok_or_else(|| {
                "report has no `certs_ref`; re-run the analysis with --certs-out".to_string()
            })
    } else {
        Err("neither a certificate document (`procs`) nor a report (`reports`)".to_string())
    }
}

/// Checks a certificate sidecar document (the `--certs-out` JSON text).
pub fn check_document(text: &str) -> CheckSummary {
    let mut sum = CheckSummary::default();
    let parsed = match doc::parse_certs_doc(text) {
        Ok(d) => d,
        Err(e) => {
            sum.errors.push(e);
            return sum;
        }
    };
    sum.procs = parsed.procs.len();
    for p in &parsed.procs {
        check_proc(p, &mut sum);
    }
    sum
}

fn outcome_name(o: &Outcome) -> &'static str {
    match o {
        Outcome::Sat(_) => "sat",
        Outcome::Unsat(_) => "unsat",
        Outcome::Unknown => "unknown",
    }
}

fn node_children(node: &Node) -> Vec<u32> {
    match node {
        Node::True
        | Node::False
        | Node::BoolVar(_)
        | Node::IntVar(_)
        | Node::IntConst(_)
        | Node::MapVar(_) => Vec::new(),
        Node::Not(a) | Node::MulC(_, a) => vec![*a],
        Node::And(ps) | Node::Or(ps) | Node::Add(ps) | Node::App(_, ps) => ps.clone(),
        Node::Implies(a, b)
        | Node::Iff(a, b)
        | Node::Eq(a, b)
        | Node::Le(a, b)
        | Node::Lt(a, b)
        | Node::Read(a, b) => vec![*a, *b],
        Node::Write(a, b, c) | Node::Ite(a, b, c) => vec![*a, *b, *c],
    }
}

fn check_proc(p: &Proc, sum: &mut CheckSummary) {
    let name = &p.proc_name;
    // Term table well-formedness: every referenced child exists.
    for (&id, node) in &p.terms {
        for c in node_children(node) {
            if !p.terms.contains_key(&c) {
                sum.errors.push(format!(
                    "proc {name}: term {id} references missing term {c}"
                ));
            }
        }
    }
    for &a in &p.asserts {
        if !p.terms.contains_key(&a) {
            sum.errors.push(format!(
                "proc {name}: assert stream references missing term {a}"
            ));
        }
    }

    // Certificates.
    for (ci, cert) in p.certs.iter().enumerate() {
        sum.certs += 1;
        let mut fail = |msg: String| sum.errors.push(format!("proc {name}: cert {ci}: {msg}"));
        if cert.asserts_upto > p.asserts.len() {
            fail(format!(
                "asserts_upto {} exceeds assert stream length {}",
                cert.asserts_upto,
                p.asserts.len()
            ));
            continue;
        }
        let mut shape_ok = true;
        for &t in cert
            .assumptions
            .iter()
            .chain(cert.blocking.iter().flatten())
        {
            if !p.terms.contains_key(&t) {
                fail(format!("references missing term {t}"));
                shape_ok = false;
            }
        }
        if !shape_ok {
            continue;
        }
        match &cert.outcome {
            Outcome::Sat(_) => {
                sum.sat_certs += 1;
                for e in check_sat_cert(p, cert) {
                    sum.errors.push(format!("proc {name}: cert {ci}: {e}"));
                }
            }
            Outcome::Unsat(proof) => {
                sum.unsat_certs += 1;
                for e in check_unsat_cert(p, cert, proof) {
                    sum.errors.push(format!("proc {name}: cert {ci}: {e}"));
                }
            }
            Outcome::Unknown => {
                sum.errors.push(format!(
                    "proc {name}: cert {ci}: outcome `unknown` is not checkable"
                ));
            }
        }
    }

    // Claims (plus cube bookkeeping for the per-label passes below).
    let mut cubes_by_label: BTreeMap<&str, Vec<(usize, &[i64])>> = BTreeMap::new();
    let mut exhaust_by_label: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (qi, claim) in p.claims.iter().enumerate() {
        sum.claims += 1;
        let mut fail = |msg: String| {
            sum.errors.push(format!(
                "proc {name}: claim {qi} ({} {}): {msg}",
                claim.kind_name(),
                claim.label
            ))
        };
        let implied = match claim.kind {
            ClaimKind::CanFail | ClaimKind::CubeFeasible { .. } | ClaimKind::SpecFails => "sat",
            _ => "unsat",
        };
        if claim.expect != implied {
            fail(format!(
                "kind implies expected verdict `{implied}`, document says `{}`",
                claim.expect
            ));
        }
        let Some(cert) = p.certs.get(claim.cert) else {
            fail(format!("certificate index {} out of range", claim.cert));
            continue;
        };
        if outcome_name(&cert.outcome) != implied {
            fail(format!(
                "claim requires a `{implied}` certificate, cert {} is `{}`",
                claim.cert,
                outcome_name(&cert.outcome)
            ));
            continue;
        }
        match &claim.kind {
            ClaimKind::CubeFeasible { cube, lits } => {
                for e in check_cube_claim(p, cert, lits) {
                    fail(e);
                }
                cubes_by_label
                    .entry(claim.label.as_str())
                    .or_default()
                    .push((*cube, lits.as_slice()));
            }
            ClaimKind::CoverExhausted => {
                exhaust_by_label
                    .entry(claim.label.as_str())
                    .or_default()
                    .push(claim.cert);
            }
            _ => {}
        }
    }

    // Per-label cube disjointness: no two feasible cubes may be the
    // same assignment.
    for (label, cubes) in &cubes_by_label {
        let mut seen: HashSet<BTreeSet<i64>> = HashSet::new();
        for (cube, lits) in cubes {
            let set: BTreeSet<i64> = lits.iter().copied().collect();
            if !seen.insert(set) {
                sum.errors.push(format!(
                    "proc {name}: label {label}: cube {cube} duplicates another cube"
                ));
            }
        }
    }

    // Cover exhaustion: the unsat query's blocking clauses must be
    // exactly the negations of the enumerated cubes — nothing blocked
    // that was not reported feasible, nothing reported but unblocked.
    for (label, cert_idxs) in &exhaust_by_label {
        let cube_sets: Vec<BTreeSet<i64>> = cubes_by_label
            .get(label)
            .map(|cubes| {
                cubes
                    .iter()
                    .map(|(_, lits)| lits.iter().copied().collect())
                    .collect()
            })
            .unwrap_or_default();
        for &ci in cert_idxs {
            for e in check_exhaustion_blocking(p, &p.certs[ci], &cube_sets) {
                sum.errors.push(format!("proc {name}: label {label}: {e}"));
            }
        }
    }

    // Weakening chains.
    for (hi, chain) in p.chains.iter().enumerate() {
        sum.chains += 1;
        if chain.steps.is_empty() {
            // Ungrounded chain (a fail = 0 fidelity push carries no dead
            // verdict): nothing to certify.
            continue;
        }
        let mut fail = |msg: String| {
            sum.errors
                .push(format!("proc {name}: chain {hi} ({}): {msg}", chain.label))
        };
        if let Some(cubes) = cubes_by_label.get(chain.label.as_str()) {
            let full: Vec<u32> = (0..cubes.len() as u32).collect();
            if chain.steps[0].subset != full {
                fail(format!(
                    "root subset {:?} is not the full cover 0..{}",
                    chain.steps[0].subset,
                    cubes.len()
                ));
            }
        }
        let mut cur: BTreeSet<u32> = chain.steps[0].subset.iter().copied().collect();
        for (si, step) in chain.steps.iter().enumerate() {
            let sset: BTreeSet<u32> = step.subset.iter().copied().collect();
            if si > 0 && sset != cur {
                fail(format!(
                    "step {si} subset does not match previous subset minus its removed clause"
                ));
            }
            if !sset.contains(&step.removed) {
                fail(format!(
                    "step {si} removes clause {} not present in its subset",
                    step.removed
                ));
            }
            for e in check_step_evidence(p, &sset, &step.evidence) {
                fail(format!("step {si}: {e}"));
            }
            cur = sset;
            cur.remove(&step.removed);
        }
        let spec: BTreeSet<u32> = chain.spec.iter().copied().collect();
        if spec != cur {
            fail("spec does not match the final weakened subset".to_string());
        }
    }
}

impl doc::Claim {
    fn kind_name(&self) -> &'static str {
        match self.kind {
            ClaimKind::CanFail => "can_fail",
            ClaimKind::CannotFail => "cannot_fail",
            ClaimKind::BaselineDead => "baseline_dead",
            ClaimKind::CubeFeasible { .. } => "cube_feasible",
            ClaimKind::CoverExhausted => "cover_exhausted",
            ClaimKind::SpecFails => "spec_fails",
            ClaimKind::SpecHolds => "spec_holds",
        }
    }
}

/// A feasible-cube claim's literals must be entailed by the
/// certificate's assumptions: `+t` requires the indicator term itself
/// among the assumptions, `-t` requires its negation.
fn check_cube_claim(p: &Proc, cert: &Cert, lits: &[i64]) -> Vec<String> {
    // Zero literals is the universal cube (a width-0 cover clause):
    // feasibility then rests on the guard assumptions alone.
    let mut errors = Vec::new();
    let assumed: BTreeSet<u32> = cert.assumptions.iter().copied().collect();
    let negated: BTreeSet<u32> = cert
        .assumptions
        .iter()
        .filter_map(|&u| match p.terms.get(&u) {
            Some(Node::Not(a)) => Some(*a),
            _ => None,
        })
        .collect();
    for &l in lits {
        if l == 0 || u32::try_from(l.unsigned_abs()).is_err() {
            errors.push(format!("cube literal {l} out of range"));
            continue;
        }
        let t = l.unsigned_abs() as u32;
        if !p.terms.contains_key(&t) {
            errors.push(format!("cube literal references missing term {t}"));
        } else if l > 0 && !assumed.contains(&t) {
            errors.push(format!(
                "cube literal +{t} has no matching certificate assumption"
            ));
        } else if l < 0 && !negated.contains(&t) {
            errors.push(format!(
                "cube literal -{t} has no matching negated certificate assumption"
            ));
        }
    }
    errors
}

/// An exhaustion certificate's blocking clauses, read back as signed
/// cubes (a plain term blocks the cube where it was *false*; a negated
/// term blocks the cube where it was *true*), must be exactly the
/// feasible cubes enumerated for the label.
fn check_exhaustion_blocking(p: &Proc, cert: &Cert, cube_sets: &[BTreeSet<i64>]) -> Vec<String> {
    let mut errors = Vec::new();
    let mut derived: Vec<BTreeSet<i64>> = Vec::new();
    for cl in &cert.blocking {
        let mut cube = BTreeSet::new();
        for &e in cl {
            match p.terms.get(&e) {
                Some(Node::Not(a)) => {
                    cube.insert(i64::from(*a));
                }
                Some(_) => {
                    cube.insert(-i64::from(e));
                }
                None => errors.push(format!("blocking clause references missing term {e}")),
            }
        }
        derived.push(cube);
    }
    let mut want: Vec<BTreeSet<i64>> = cube_sets.to_vec();
    derived.sort();
    want.sort();
    if derived != want {
        errors.push(format!(
            "exhaustion blocking clauses do not match the {} enumerated cubes",
            cube_sets.len()
        ));
    }
    errors
}

fn check_step_evidence(p: &Proc, subset: &BTreeSet<u32>, ev: &StepEvidence) -> Vec<String> {
    let mut errors = Vec::new();
    match ev {
        StepEvidence::Inconsistent { cert } | StepEvidence::DeadLoc { cert } => {
            match p.certs.get(*cert) {
                None => errors.push(format!("evidence certificate {cert} out of range")),
                Some(c) => {
                    if !matches!(c.outcome, Outcome::Unsat(_)) {
                        errors.push(format!(
                            "evidence certificate {cert} is `{}`, dead verdicts require `unsat`",
                            outcome_name(&c.outcome)
                        ));
                    }
                }
            }
        }
        StepEvidence::Path => {}
        StepEvidence::Dominated { base, evidence } => {
            let base_set: BTreeSet<u32> = base.iter().copied().collect();
            if !base_set.is_subset(subset) {
                errors.push("dominating base is not a subset of the step's subset".to_string());
            }
            errors.extend(check_step_evidence(p, &base_set, evidence));
        }
    }
    errors
}

// ---------------------------------------------------------------------
// Sat: model checking
// ---------------------------------------------------------------------

fn check_sat_cert(p: &Proc, cert: &Cert) -> Vec<String> {
    let Outcome::Sat(model) = &cert.outcome else {
        unreachable!("caller matched Sat")
    };
    let mut errors = Vec::new();
    if !cert.self_checked {
        errors.push("sat certificate without producer self-check".to_string());
    }
    let mut ev = Evaluator::new(&p.terms, model);
    for &t in p.asserts[..cert.asserts_upto]
        .iter()
        .chain(cert.assumptions.iter())
    {
        match ev.eval_bool(t) {
            Ok(true) => {}
            Ok(false) => errors.push(format!("term {t} is false under the model")),
            Err(e) => errors.push(e),
        }
    }
    for (bi, cl) in cert.blocking.iter().enumerate() {
        let mut sat = false;
        for &t in cl {
            match ev.eval_bool(t) {
                Ok(true) => {
                    sat = true;
                    break;
                }
                Ok(false) => {}
                Err(e) => {
                    errors.push(e);
                    break;
                }
            }
        }
        if !sat {
            errors.push(format!("blocking clause {bi} is false under the model"));
        }
    }
    errors
}

// ---------------------------------------------------------------------
// Unsat: proof replay
// ---------------------------------------------------------------------

fn check_unsat_cert(p: &Proc, cert: &Cert, proof: &Proof) -> Vec<String> {
    let mut errors = Vec::new();

    // Literal-table consistency: a negation's literal is the negated
    // literal of its child (the engine never allocates a fresh variable
    // for `Not`).
    for (&t, &l) in &proof.lits {
        if !p.terms.contains_key(&t) {
            errors.push(format!("literal table references missing term {t}"));
            continue;
        }
        if let Some(Node::Not(a)) = p.terms.get(&t) {
            if proof.lits.get(a) != Some(&-l) {
                errors.push(format!(
                    "literal of negation term {t} is not the negated literal of term {a}"
                ));
            }
        }
    }

    let asserted: HashSet<u32> = p.asserts[..cert.asserts_upto].iter().copied().collect();
    let blocking_sets: Vec<BTreeSet<u32>> = cert
        .blocking
        .iter()
        .map(|cl| cl.iter().copied().collect())
        .collect();
    let mut tseitin_memo: HashMap<u32, HashSet<Vec<i64>>> = HashMap::new();
    let mut prop = Propagator::new();

    for (ei, event) in proof.events.iter().enumerate() {
        let lits = match event {
            Event::Input { lits, .. } | Event::Learnt { lits } => lits,
        };
        if lits.contains(&0) {
            errors.push(format!("event {ei}: zero literal"));
            continue;
        }
        match event {
            Event::Input { lits, tag } => {
                if let Err(e) = check_input_clause(
                    p,
                    proof,
                    &asserted,
                    &blocking_sets,
                    &mut tseitin_memo,
                    lits,
                    tag,
                ) {
                    errors.push(format!("event {ei}: {e}"));
                }
                prop.add_clause(lits);
            }
            Event::Learnt { lits } => {
                if !prop.has_rup(lits) {
                    errors.push(format!(
                        "event {ei}: learnt clause is not a RUP consequence of the clauses before it"
                    ));
                }
                prop.add_clause(lits);
            }
        }
    }

    // Final conflict: the blamed core (a subset of the assumptions) must
    // propagate to a conflict; an empty core requires the clause
    // database alone to be contradictory.
    let assumed: HashSet<u32> = cert.assumptions.iter().copied().collect();
    let mut units = Vec::with_capacity(proof.core.len());
    let mut core_ok = true;
    for &t in &proof.core {
        if !assumed.contains(&t) {
            errors.push(format!("core term {t} is not among the assumptions"));
            core_ok = false;
        }
        match proof.lits.get(&t) {
            Some(&l) => units.push(l),
            None => {
                errors.push(format!("core term {t} has no literal"));
                core_ok = false;
            }
        }
    }
    if core_ok && !prop.units_conflict(&units) {
        errors.push("final core does not propagate to a conflict".to_string());
    }
    errors
}

fn lit_of(proof: &Proof, t: u32) -> Result<i64, String> {
    proof
        .lits
        .get(&t)
        .copied()
        .ok_or_else(|| format!("term {t} has no literal"))
}

fn sorted(lits: &[i64]) -> Vec<i64> {
    let mut v = lits.to_vec();
    v.sort_unstable();
    v
}

/// Validates one tagged input clause against its provenance: the clause
/// must be byte-for-byte reconstructible from the term structure and the
/// literal table, so a single flipped or dropped literal is rejected.
fn check_input_clause(
    p: &Proc,
    proof: &Proof,
    asserted: &HashSet<u32>,
    blocking_sets: &[BTreeSet<u32>],
    tseitin_memo: &mut HashMap<u32, HashSet<Vec<i64>>>,
    lits: &[i64],
    tag: &Tag,
) -> Result<(), String> {
    let got = sorted(lits);
    match tag {
        Tag::Assert { term } => {
            if !asserted.contains(term) {
                return Err(format!(
                    "assert tag names term {term} outside the installed prefix"
                ));
            }
            let want = vec![lit_of(proof, *term)?];
            if got != want {
                return Err(format!(
                    "assert clause does not match literal of term {term}"
                ));
            }
            Ok(())
        }
        Tag::Purify { term } => {
            let want = vec![lit_of(proof, *term)?];
            if got != want {
                return Err(format!(
                    "purify clause does not match literal of guard term {term}"
                ));
            }
            Ok(())
        }
        Tag::Tseitin { term } => {
            if !tseitin_memo.contains_key(term) {
                let set = tseitin_clauses(p, proof, *term)?;
                tseitin_memo.insert(*term, set);
            }
            if tseitin_memo[term].contains(&got) {
                Ok(())
            } else {
                Err(format!(
                    "clause is not a definitional clause of term {term}"
                ))
            }
        }
        Tag::Theory { parts } => {
            if parts.is_empty() {
                return Err("theory clause with no parts".to_string());
            }
            let mut want = Vec::with_capacity(parts.len());
            for &(t, pol) in parts {
                let l = lit_of(proof, t)?;
                want.push(if pol { l } else { -l });
            }
            want.sort_unstable();
            if got != want {
                return Err("theory clause does not match its term-level reading".to_string());
            }
            Ok(())
        }
        Tag::External { parts } => {
            // A width-0 cover clause blocks the universal cube with the
            // empty clause, so zero parts are legal — but only when the
            // certificate declares a matching (empty) blocking clause;
            // a genuinely untagged clause fails the membership check.
            let set: BTreeSet<u32> = parts.iter().copied().collect();
            if !blocking_sets.contains(&set) {
                return Err("external clause does not match any blocking clause".to_string());
            }
            let mut want = Vec::with_capacity(parts.len());
            for &t in parts {
                want.push(lit_of(proof, t)?);
            }
            want.sort_unstable();
            if got != want {
                return Err("external clause does not match its term literals".to_string());
            }
            Ok(())
        }
    }
}

/// The exact definitional (Tseitin) clauses a term may contribute,
/// reconstructed from the term structure and the literal table.
fn tseitin_clauses(p: &Proc, proof: &Proof, t: u32) -> Result<HashSet<Vec<i64>>, String> {
    let l = lit_of(proof, t)?;
    let node = p
        .terms
        .get(&t)
        .ok_or_else(|| format!("term {t} missing from table"))?;
    let mut set = HashSet::new();
    match node {
        // `true` is a fresh variable asserted positively; `false` is the
        // same with the term literal on the *negated* side.
        Node::True => {
            set.insert(vec![l]);
        }
        Node::False => {
            set.insert(vec![-l]);
        }
        Node::And(ps) => {
            let mut big = Vec::with_capacity(ps.len() + 1);
            for &q in ps {
                let lq = lit_of(proof, q)?;
                set.insert(sorted(&[-l, lq]));
                big.push(-lq);
            }
            big.push(l);
            set.insert(sorted(&big));
        }
        Node::Or(ps) => {
            let mut big = Vec::with_capacity(ps.len() + 1);
            for &q in ps {
                let lq = lit_of(proof, q)?;
                set.insert(sorted(&[l, -lq]));
                big.push(lq);
            }
            big.push(-l);
            set.insert(sorted(&big));
        }
        Node::Iff(a, b) => {
            let la = lit_of(proof, *a)?;
            let lb = lit_of(proof, *b)?;
            set.insert(sorted(&[-l, -la, lb]));
            set.insert(sorted(&[-l, la, -lb]));
            set.insert(sorted(&[l, la, lb]));
            set.insert(sorted(&[l, -la, -lb]));
        }
        _ => {
            return Err(format!(
                "term {t} has no definitional clauses (negations share their child's \
                 literal; implications are rewritten; atoms are plain variables)"
            ));
        }
    }
    Ok(set)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(doc: &str) -> CheckSummary {
        check_document(doc)
    }

    #[test]
    fn rejects_wrong_schema_version() {
        let s = check(r#"{"schema_version":2,"procs":[]}"#);
        assert!(!s.ok());
        assert!(s.errors[0].contains("schema_version"));
    }

    #[test]
    fn accepts_valid_sat_cert_and_rejects_mutated_model() {
        let doc = |val: bool| {
            format!(
                r#"{{"schema_version":3,"procs":[{{"proc_name":"f",
                   "terms":{{"1":["bool_var","b"]}},
                   "asserts":[1],
                   "certs":[{{"assumptions":[],"asserts_upto":1,"blocking":[],
                              "outcome":"sat",
                              "model":{{"ints":{{}},"bools":{{"b":{val}}},"maps":{{}},"funcs":{{}}}},
                              "self_checked":true}}],
                   "claims":[{{"label":"Cons","kind":"can_fail","expect":"sat","cert":0}}],
                   "chains":[]}}]}}"#
            )
        };
        let good = check(&doc(true));
        assert!(good.ok(), "unexpected errors: {:?}", good.errors);
        assert_eq!((good.certs, good.sat_certs, good.claims), (1, 1, 1));
        let bad = check(&doc(false));
        assert!(!bad.ok());
        assert!(bad.errors[0].contains("false under the model"));
    }

    // Two asserted roots `b` and `¬b`: the clause database alone is
    // contradictory, so the core is empty.
    fn unsat_doc(first_clause: &str, core: &str) -> String {
        format!(
            r#"{{"schema_version":3,"procs":[{{"proc_name":"f",
               "terms":{{"1":["bool_var","b"],"2":["not",1]}},
               "asserts":[1,2],
               "certs":[{{"assumptions":[],"asserts_upto":2,"blocking":[],
                          "outcome":"unsat",
                          "proof":{{"lits":[[1,1],[2,-1]],
                                    "events":[["input",[{first_clause}],["assert",1]],
                                              ["input",[-1],["assert",2]]],
                                    "core":[{core}]}},
                          "self_checked":true}}],
               "claims":[{{"label":"Cons","kind":"cannot_fail","expect":"unsat","cert":0}}],
               "chains":[]}}]}}"#
        )
    }

    #[test]
    fn replays_unsat_proof_and_rejects_flipped_literal() {
        let good = check(&unsat_doc("1", ""));
        assert!(good.ok(), "unexpected errors: {:?}", good.errors);
        assert_eq!(good.unsat_certs, 1);
        // Flip the first input clause's literal: tag reconstruction fails
        // AND the database no longer conflicts.
        let bad = check(&unsat_doc("-1", ""));
        assert!(!bad.ok());
        assert!(bad
            .errors
            .iter()
            .any(|e| e.contains("does not match literal")));
        assert!(bad.errors.iter().any(|e| e.contains("final core")));
    }

    #[test]
    fn rejects_core_term_outside_assumptions() {
        let bad = check(&unsat_doc("1", "1"));
        assert!(bad
            .errors
            .iter()
            .any(|e| e.contains("not among the assumptions")));
    }

    #[test]
    fn learnt_clauses_must_be_rup() {
        // Theory clauses (b ∨ c) and (¬b ∨ c) entail c but not b.
        let doc = |learnt: &str| {
            format!(
                r#"{{"schema_version":3,"procs":[{{"proc_name":"f",
                   "terms":{{"1":["bool_var","b"],"2":["bool_var","c"],"3":["not",2]}},
                   "asserts":[],
                   "certs":[{{"assumptions":[3],"asserts_upto":0,"blocking":[],
                              "outcome":"unsat",
                              "proof":{{"lits":[[1,1],[2,2],[3,-2]],
                                        "events":[["input",[1,2],["theory",[[1,true],[2,true]]]],
                                                  ["input",[-1,2],["theory",[[1,false],[2,true]]]],
                                                  ["learnt",[{learnt}]]],
                                        "core":[3]}},
                              "self_checked":true}}],
                   "claims":[],"chains":[]}}]}}"#
            )
        };
        let good = check(&doc("2"));
        assert!(good.ok(), "unexpected errors: {:?}", good.errors);
        let bad = check(&doc("1"));
        assert!(bad.errors.iter().any(|e| e.contains("RUP")));
    }

    #[test]
    fn rejects_unknown_outcomes_and_untagged_clauses() {
        let unknown = check(
            r#"{"schema_version":3,"procs":[{"proc_name":"f","terms":{},"asserts":[],
               "certs":[{"assumptions":[],"asserts_upto":0,"blocking":[],
                         "outcome":"unknown","self_checked":true}],
               "claims":[],"chains":[]}]}"#,
        );
        assert!(unknown.errors.iter().any(|e| e.contains("unknown")));
        // A clause with no provenance parts is only legal when the
        // certificate declares a matching empty blocking clause.
        let untagged = check(
            r#"{"schema_version":3,"procs":[{"proc_name":"f",
               "terms":{"1":["bool_var","b"]},"asserts":[],
               "certs":[{"assumptions":[],"asserts_upto":0,"blocking":[],
                         "outcome":"unsat",
                         "proof":{"lits":[[1,1]],
                                  "events":[["input",[1],["external",[]]],
                                            ["input",[-1],["external",[]]]],
                                  "core":[]},
                         "self_checked":true}],
               "claims":[],"chains":[]}]}"#,
        );
        assert!(untagged
            .errors
            .iter()
            .any(|e| e.contains("does not match any blocking clause")));
        // The width-0 cover case: a declared empty blocking clause is
        // the empty input clause, contradictory on its own.
        let empty_blocking = check(
            r#"{"schema_version":3,"procs":[{"proc_name":"f",
               "terms":{},"asserts":[],
               "certs":[{"assumptions":[],"asserts_upto":0,"blocking":[[]],
                         "outcome":"unsat",
                         "proof":{"lits":[],
                                  "events":[["input",[],["external",[]]]],
                                  "core":[]},
                         "self_checked":true}],
               "claims":[],"chains":[]}]}"#,
        );
        assert!(
            empty_blocking.ok(),
            "unexpected errors: {:?}",
            empty_blocking.errors
        );
    }

    #[test]
    fn validates_chain_structure() {
        // A 2-cube cover weakened once: root {0,1} minus 1 → spec {0}.
        let doc = |spec: &str| {
            format!(
                r#"{{"schema_version":3,"procs":[{{"proc_name":"f",
                   "terms":{{"1":["bool_var","p"],"2":["not",1]}},
                   "asserts":[],
                   "certs":[{{"assumptions":[1],"asserts_upto":0,"blocking":[],
                              "outcome":"sat",
                              "model":{{"ints":{{}},"bools":{{"p":true}},"maps":{{}},"funcs":{{}}}},
                              "self_checked":true}},
                             {{"assumptions":[2],"asserts_upto":0,"blocking":[],
                              "outcome":"sat",
                              "model":{{"ints":{{}},"bools":{{}},"maps":{{}},"funcs":{{}}}},
                              "self_checked":true}},
                             {{"assumptions":[],"asserts_upto":0,"blocking":[],
                              "outcome":"unsat",
                              "proof":{{"lits":[[1,1]],
                                        "events":[["input",[1],["theory",[[1,true]]]],
                                                  ["input",[-1],["theory",[[1,false]]]]],
                                        "core":[]}},
                              "self_checked":true}}],
                   "claims":[{{"label":"A1","kind":"cube_feasible","expect":"sat","cube":0,"lits":[1],"cert":0}},
                             {{"label":"A1","kind":"cube_feasible","expect":"sat","cube":1,"lits":[-1],"cert":1}}],
                   "chains":[{{"label":"A1","spec":[{spec}],
                              "steps":[{{"subset":[0,1],"removed":1,
                                        "evidence":{{"kind":"inconsistent","cert":2}}}}]}}]}}]}}"#
            )
        };
        let good = check(&doc("0"));
        assert!(good.ok(), "unexpected errors: {:?}", good.errors);
        assert_eq!(good.chains, 1);
        // Wrong spec: final subset is {0}, not {1}.
        let bad = check(&doc("1"));
        assert!(bad.errors.iter().any(|e| e.contains("spec does not match")));
    }
}

//! Output checks behind `passed_share`, and the warning digest. Every
//! check is seed-independent: it holds for any correct output of any
//! generated program.

use std::collections::{BTreeMap, BTreeSet};

use acspec_core::{ConfigName, ProcAnalysis, ProcReport, SibStatus};
use acspec_ir::{desugar_procedure, DesugarOptions, Formula, Program};
use acspec_vcgen::analyzer::ProcAnalyzer;
use acspec_vcgen::{wp, AnalyzerConfig};

/// FNV-1a, 64 bits: a stable digest of report fingerprints.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn update(&mut self, text: &str) {
        for b in text.bytes().chain(std::iter::once(b'\n')) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

fn push_report(out: &mut String, k: usize, r: &ProcReport) {
    let tags: Vec<&str> = r.warnings.iter().map(|w| w.tag.as_str()).collect();
    out.push_str(&format!(
        "{} k{k} {} {} [{}]\n",
        r.config,
        r.status,
        r.min_fail,
        tags.join(";")
    ));
}

/// The timing-free fingerprint of one procedure's reports: for the
/// `Cons` baseline and every (configuration, prune level) report, its
/// label, prune index, SIB status, `MinFail` and warning tags.
pub fn fingerprint(pa: &ProcAnalysis) -> String {
    let mut out = format!("{}\n", pa.proc_name);
    push_report(&mut out, 0, &pa.cons);
    for variants in &pa.reports {
        for (k, r) in variants.iter().enumerate() {
            push_report(&mut out, k, r);
        }
    }
    out
}

fn warned(r: &ProcReport) -> BTreeSet<acspec_ir::AssertId> {
    r.warnings.iter().map(|w| w.assert).collect()
}

/// The unpruned report of every configuration that ran to completion.
fn decided_unpruned(pa: &ProcAnalysis) -> impl Iterator<Item = &ProcReport> {
    pa.reports
        .iter()
        .filter_map(|v| v.first())
        .filter(|r| !r.timed_out())
}

/// The seed-independent invariants of one procedure's reports:
///
/// * every configuration's warnings are `Cons` warnings
///   (`Fail(Φ) ⊆ Fail(true)`);
/// * Proposition 2: unpruned, an abstract SIB under a finer vocabulary
///   is one under every coarser vocabulary (`Conc ⇒ A1 ⇒ A2`);
/// * within a configuration, warnings do not decrease as `k` shrinks
///   (`k = ∞, 3, 2, 1`): pruning only weakens a specification.
///
/// Comparisons involving a report that did not run to completion are
/// skipped: a partial result carries no such guarantee.
pub fn invariants(pa: &ProcAnalysis) -> Result<(), String> {
    if pa.cons.timed_out() {
        return Ok(());
    }
    let cons = warned(&pa.cons);
    for r in pa.reports.iter().flatten() {
        if let Some(w) = r.warnings.iter().find(|w| !cons.contains(&w.assert)) {
            return Err(format!(
                "{}: {} warns {} outside Cons",
                pa.proc_name, r.config, w.tag
            ));
        }
    }
    for fine in decided_unpruned(pa) {
        for coarse in decided_unpruned(pa) {
            let (Some(f), Some(c)) = (fine.config.config(), coarse.config.config()) else {
                continue;
            };
            if f.at_least_as_precise_as(c)
                && fine.status == SibStatus::Sib
                && coarse.status != SibStatus::Sib
            {
                return Err(format!(
                    "{}: SIB under {f} but {} under coarser {c}",
                    pa.proc_name, coarse.status
                ));
            }
        }
    }
    for variants in &pa.reports {
        for pair in variants.windows(2) {
            if !pair[0].timed_out()
                && !pair[1].timed_out()
                && pair[1].warnings.len() < pair[0].warnings.len()
            {
                return Err(format!(
                    "{}: {} warnings drop from {} to {} as k shrinks",
                    pa.proc_name,
                    pair[0].config,
                    pair[0].warnings.len(),
                    pair[1].warnings.len()
                ));
            }
        }
    }
    Ok(())
}

/// The warning lattice of a whole program, as `acspec-bench`'s
/// `evaluate_small_driver_benchmark` asserts it: summed over procedures
/// that ran to completion, unpruned warning counts do not decrease from a
/// finer configuration to a coarser one (`Conc ≤ A1 ≤ A2`). This holds
/// for programs of many procedures, not per procedure: a finer
/// vocabulary can admit more almost-correct specifications, and so more
/// warnings, for a single small procedure.
pub fn program_lattice<'a>(analyses: impl Iterator<Item = &'a ProcAnalysis>) -> Result<(), String> {
    let mut totals: BTreeMap<ConfigName, usize> = BTreeMap::new();
    for pa in analyses.filter(|pa| !pa.timed_out()) {
        for r in pa.reports.iter().filter_map(|v| v.first()) {
            if let Some(c) = r.config.config() {
                *totals.entry(c).or_default() += r.warnings.len();
            }
        }
    }
    for (&f, &nf) in &totals {
        for (&c, &nc) in &totals {
            if f != c && f.at_least_as_precise_as(c) && nf > nc {
                return Err(format!("program warnings: unpruned {f} {nf} > {c} {nc}"));
            }
        }
    }
    Ok(())
}

/// What Proposition 1 says a one-procedure deterministic program's
/// verdict must be, decided independently of the pipeline: install
/// `wp(body, true)` itself as the environment specification and ask
/// whether it makes an assertion dead (or is inconsistent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Truth {
    /// No assertion: Proposition 1 says nothing.
    NoAsserts,
    /// No assertion can fail at all: the verdict must be `CORRECT`.
    Correct,
    /// `Dead(wp) ≠ ∅` (or `wp` is inconsistent): SIB iff `true`.
    Sib(bool),
}

/// Computes the Proposition 1 ground truth for the first procedure of
/// `program`.
pub fn proposition1_truth(program: &Program) -> Result<Truth, String> {
    let proc = &program.procedures[0];
    let d =
        desugar_procedure(program, proc, DesugarOptions::default()).map_err(|e| e.to_string())?;
    if d.asserts.is_empty() {
        return Ok(Truth::NoAsserts);
    }
    let wp_result = wp::wp(&d.body, &Formula::True);
    if !wp_result.universals.is_empty() {
        return Err("deterministic program with an open wp".into());
    }
    let config = AnalyzerConfig {
        query_cache: false,
        ..AnalyzerConfig::default()
    };
    let mut az = ProcAnalyzer::new(&d, config).map_err(|e| e.to_string())?;
    let err = |e: acspec_vcgen::Timeout| format!("ground truth query failed: {e}");
    if az.fail_set(&[]).map_err(err)?.is_empty() {
        return Ok(Truth::Correct);
    }
    let baseline = az.dead_set(&[]).map_err(err)?;
    let sel = az
        .add_selector(&wp_result.formula)
        .map_err(|e| e.to_string())?;
    let consistent = az.is_consistent(&[sel], &[]).map_err(err)?;
    let dead_wp = az.dead_set(&[sel]).map_err(err)?;
    if !az.fail_set(&[sel]).map_err(err)?.is_empty() {
        return Err("Fail(wp) is not empty".into());
    }
    Ok(Truth::Sib(
        !consistent || dead_wp.difference(&baseline).next().is_some(),
    ))
}

/// Checks the pipeline's verdict on a tail program against its
/// Proposition 1 ground truth (the unpruned `Conc` report; skipped when
/// that report did not run to completion).
pub fn proposition1(pa: &ProcAnalysis, truth: Truth) -> Result<(), String> {
    let conc = pa
        .reports
        .iter()
        .filter_map(|v| v.first())
        .find(|r| r.config.config() == Some(ConfigName::Conc));
    let ok = match truth {
        Truth::NoAsserts => true,
        Truth::Correct => pa.cons.status == SibStatus::Correct,
        Truth::Sib(sib) => match conc {
            Some(r) if !r.timed_out() => (r.status == SibStatus::Sib) == sib,
            Some(_) => true,
            None => false,
        },
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{}: Proposition 1 ground truth {truth:?}, pipeline says {}",
            pa.proc_name,
            conc.map_or(pa.cons.status, |r| r.status)
        ))
    }
}

//! The four abstract configurations of Figure 4 and analysis options.

use acspec_predabs::mine::Abstraction;
use acspec_predabs::normalize::PruneConfig;
use acspec_vcgen::analyzer::AnalyzerConfig;

/// The named abstract configurations (Figure 4): the product of the
/// *ignore conditionals* and *havoc returns* abstractions. Arrows flow
/// from higher precision to lower: `Conc → A0/A1 → A2`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ConfigName {
    /// Neither abstraction: concrete SIBs (§4.4.1). The default.
    #[default]
    Conc,
    /// Havoc returns only (§4.4.3).
    A0,
    /// Ignore conditionals only (§4.4.2).
    A1,
    /// Both abstractions (coarsest).
    A2,
}

impl ConfigName {
    /// The corresponding vocabulary abstraction.
    pub fn abstraction(self) -> Abstraction {
        match self {
            ConfigName::Conc => Abstraction {
                ignore_conditionals: false,
                havoc_returns: false,
            },
            ConfigName::A0 => Abstraction {
                ignore_conditionals: false,
                havoc_returns: true,
            },
            ConfigName::A1 => Abstraction {
                ignore_conditionals: true,
                havoc_returns: false,
            },
            ConfigName::A2 => Abstraction {
                ignore_conditionals: true,
                havoc_returns: true,
            },
        }
    }

    /// True if `self` is at least as precise as `other` in the Figure 4
    /// lattice (fewer abstractions enabled).
    pub fn at_least_as_precise_as(self, other: ConfigName) -> bool {
        let a = self.abstraction();
        let b = other.abstraction();
        (!a.ignore_conditionals || b.ignore_conditionals) && (!a.havoc_returns || b.havoc_returns)
    }

    /// All four configurations, most precise first.
    pub fn all() -> [ConfigName; 4] {
        [
            ConfigName::Conc,
            ConfigName::A0,
            ConfigName::A1,
            ConfigName::A2,
        ]
    }
}

impl std::fmt::Display for ConfigName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigName::Conc => write!(f, "Conc"),
            ConfigName::A0 => write!(f, "A0"),
            ConfigName::A1 => write!(f, "A1"),
            ConfigName::A2 => write!(f, "A2"),
        }
    }
}

/// The metric deciding when a specification is "too strong" (§2.3: the
/// definition of `Dead` is a parameter of the analysis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeadMetric {
    /// Branch coverage (the paper's default): a specification is too
    /// strong if some tracked location becomes unreachable.
    #[default]
    BranchCoverage,
    /// Path coverage (the paper's named alternative): a specification is
    /// too strong if some *path profile* feasible under `true` becomes
    /// infeasible. Strictly more sensitive than branch coverage. The cap
    /// bounds profile enumeration (exceeding it counts as a timeout).
    PathCoverage {
        /// Maximum number of path profiles to enumerate per query.
        max_profiles: usize,
    },
}

/// Options for a full ACSpec analysis of one procedure.
#[derive(Debug, Clone, Copy)]
pub struct AcspecOptions {
    /// The abstract configuration.
    pub config: ConfigName,
    /// The dead-code metric (§2.3).
    pub dead_metric: DeadMetric,
    /// Clause pruning (§4.3); `PruneConfig::default()` keeps everything.
    pub prune: PruneConfig,
    /// Whether to run `Normalize` before pruning (ablation knob; the
    /// paper always normalizes).
    pub apply_normalize: bool,
    /// Analyzer budget (the 10-second-timeout stand-in).
    pub analyzer: AnalyzerConfig,
    /// Cap on `|Q|`; larger vocabularies time out (ALL-SAT is 2^|Q|).
    pub max_predicates: usize,
    /// Cap on the number of cover clauses enumerated by ALL-SAT.
    pub max_cover_clauses: usize,
    /// Cap on clause subsets visited by Algorithm 2.
    pub max_search_nodes: usize,
    /// Cap on the clause-set size during `Normalize`.
    pub normalize_max_clauses: usize,
}

impl Default for AcspecOptions {
    fn default() -> Self {
        AcspecOptions {
            config: ConfigName::Conc,
            dead_metric: DeadMetric::BranchCoverage,
            prune: PruneConfig::default(),
            apply_normalize: true,
            analyzer: AnalyzerConfig::default(),
            max_predicates: 12,
            max_cover_clauses: 512,
            max_search_nodes: 3_000,
            normalize_max_clauses: 1_024,
        }
    }
}

impl AcspecOptions {
    /// Options for a named configuration with defaults elsewhere.
    pub fn for_config(config: ConfigName) -> AcspecOptions {
        AcspecOptions {
            config,
            ..AcspecOptions::default()
        }
    }

    /// Sets `k`-clause pruning (§4.3, Figure 6's `k = 3, 2, 1` columns).
    #[must_use]
    pub fn with_k_pruning(mut self, k: usize) -> AcspecOptions {
        self.prune.max_literals = Some(k);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_order_matches_figure4() {
        use ConfigName::*;
        assert!(Conc.at_least_as_precise_as(A0));
        assert!(Conc.at_least_as_precise_as(A1));
        assert!(Conc.at_least_as_precise_as(A2));
        assert!(A0.at_least_as_precise_as(A2));
        assert!(A1.at_least_as_precise_as(A2));
        assert!(!A0.at_least_as_precise_as(A1));
        assert!(!A1.at_least_as_precise_as(A0));
        assert!(!A2.at_least_as_precise_as(Conc));
        for c in ConfigName::all() {
            assert!(c.at_least_as_precise_as(c));
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(ConfigName::Conc.to_string(), "Conc");
        assert_eq!(ConfigName::A2.to_string(), "A2");
    }
}

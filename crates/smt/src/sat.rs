//! A CDCL SAT solver in the MiniSat lineage: two-watched-literal
//! propagation, first-UIP clause learning, VSIDS decision heuristic with an
//! indexed max-heap, phase saving, Luby restarts, learnt-clause database
//! reduction, and incremental solving under assumptions.
//!
//! The theory layers sit *outside* this solver (lazy SMT): they inspect the
//! full model produced here and respond with conflict or lemma clauses.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One splitmix64 step: advances the state and returns a well-mixed
/// 64-bit output. Used to derive fork diversification (activity jitter,
/// phase flips, restart-base perturbation) deterministically from a
/// seed, so a fork's search depends only on `(parent state, seed)`.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A boolean variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub u32);

/// A literal: a variable with a polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of `v`.
    pub fn pos(v: Var) -> Lit {
        Lit(v.0 << 1)
    }

    /// The negative literal of `v`.
    pub fn neg(v: Var) -> Lit {
        Lit((v.0 << 1) | 1)
    }

    /// Creates a literal with the given polarity (`true` = positive).
    pub fn new(v: Var, positive: bool) -> Lit {
        if positive {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        }
    }

    /// The underlying variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// True if the literal is positive.
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// The complementary literal.
    #[must_use]
    pub fn negated(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "v{}", self.var().0)
        } else {
            write!(f, "!v{}", self.var().0)
        }
    }
}

/// Tri-state assignment value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LBool {
    /// Assigned true.
    True,
    /// Assigned false.
    False,
    /// Unassigned.
    Undef,
}

impl LBool {
    fn from_bool(b: bool) -> LBool {
        if b {
            LBool::True
        } else {
            LBool::False
        }
    }
}

/// Result of a `solve` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveResult {
    /// A satisfying (total) assignment was found.
    Sat,
    /// The clauses (under the assumptions) are unsatisfiable.
    Unsat,
    /// The conflict budget was exhausted.
    Unknown,
}

/// One entry of the proof event log (see [`Sat::enable_proof`]).
///
/// The log interleaves *input* clauses (everything the caller added,
/// recorded pre-simplification together with a caller-supplied
/// provenance tag) and *learnt* clauses (each first-UIP resolvent, in
/// derivation order). Every learnt clause is a reverse-unit-propagation
/// (RUP) consequence of the events before it, so an independent checker
/// can replay the log: validate each input clause against its
/// provenance, confirm each learnt clause by propagation, and finally
/// derive a conflict from the unsatisfiable core alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProofEvent {
    /// A caller-added clause, with the tag index the caller supplied
    /// (see [`Sat::add_clause_tagged`]).
    Input {
        /// The clause literals exactly as given (pre-simplification).
        lits: Vec<Lit>,
        /// Caller-side provenance index.
        tag: u32,
    },
    /// A learnt (first-UIP, minimized) clause.
    Learnt {
        /// The learnt clause literals.
        lits: Vec<Lit>,
    },
}

/// Upper bucket bounds for learnt-clause LBD histograms (one extra
/// overflow slot follows the last bound). LBD — "literal block
/// distance", the number of distinct decision levels in a learnt
/// clause — is the standard glue metric: low-LBD clauses are the ones
/// worth keeping, so the shape of this histogram says whether search is
/// learning useful clauses or churning.
pub const LBD_BUCKET_BOUNDS: [u64; 8] = [1, 2, 3, 4, 6, 8, 12, 16];

/// Upper bucket bounds for conflicts-per-restart-interval histograms
/// (one extra overflow slot follows the last bound). Intervals follow
/// the Luby schedule scaled by the solver's restart base (default
/// [`Sat::DEFAULT_RESTART_BASE`]), so mass in the high buckets means
/// long unproductive dives between restarts.
pub const RESTART_BUCKET_BOUNDS: [u64; 8] = [16, 32, 64, 128, 256, 512, 1024, 2048];

/// Per-query summary of CDCL search effort (see [`Sat::enable_search`]).
///
/// Plain counters plus two fixed-size histograms, so the summary is
/// `Copy` and can ride along query records without allocation. All
/// fields cover the window since the summary was last taken — under the
/// lazy-SMT loop that window spans every `solve` call of one theory
/// query, which is the attribution the telemetry layer wants.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchSummary {
    /// Conflicts analyzed (excludes the terminal root-level conflict of
    /// an `Unsat` answer, which is never analyzed).
    pub conflicts: u64,
    /// Branching decisions taken.
    pub decisions: u64,
    /// Luby restarts performed.
    pub restarts: u64,
    /// Deepest decision level reached (at a decision or a conflict).
    pub max_decision_level: u32,
    /// Learnt clauses recorded (= analyzed conflicts).
    pub learnt_clauses: u64,
    /// Total literals across learnt clauses (mean length = this /
    /// `learnt_clauses`).
    pub learnt_literals: u64,
    /// Sum of learnt-clause LBDs (mean LBD = this / `learnt_clauses`).
    pub lbd_sum: u64,
    /// Largest learnt-clause LBD seen.
    pub max_lbd: u32,
    /// Learnt-clause database size when the summary was taken.
    pub learnt_db_size: u64,
    /// Learnt-clause LBD histogram, bucketed by [`LBD_BUCKET_BOUNDS`]
    /// (`counts[i]` = LBDs ≤ `bounds[i]`, last slot = overflow).
    pub lbd_hist: [u64; LBD_BUCKET_BOUNDS.len() + 1],
    /// Conflicts-per-restart-interval histogram, bucketed by
    /// [`RESTART_BUCKET_BOUNDS`] (trailing partial interval included
    /// when the summary is taken).
    pub restart_hist: [u64; RESTART_BUCKET_BOUNDS.len() + 1],
}

impl SearchSummary {
    fn bucket(bounds: &[u64], v: u64) -> usize {
        bounds.iter().position(|&b| v <= b).unwrap_or(bounds.len())
    }

    /// Folds `other` into `self` (histograms add slot-wise, maxima
    /// take the max, `learnt_db_size` keeps the later snapshot).
    pub fn merge(&mut self, other: &SearchSummary) {
        self.conflicts += other.conflicts;
        self.decisions += other.decisions;
        self.restarts += other.restarts;
        self.max_decision_level = self.max_decision_level.max(other.max_decision_level);
        self.learnt_clauses += other.learnt_clauses;
        self.learnt_literals += other.learnt_literals;
        self.lbd_sum += other.lbd_sum;
        self.max_lbd = self.max_lbd.max(other.max_lbd);
        self.learnt_db_size = other.learnt_db_size;
        for (a, b) in self.lbd_hist.iter_mut().zip(other.lbd_hist.iter()) {
            *a += b;
        }
        for (a, b) in self.restart_hist.iter_mut().zip(other.restart_hist.iter()) {
            *a += b;
        }
    }
}

/// Opt-in CDCL search instrumentation (see [`Sat::enable_search`]).
///
/// When installed, the solve loop reports restart, conflict (with
/// learnt-clause length and LBD), and decision events here; the
/// observer folds them into a running [`SearchSummary`]. Per-event data
/// is aggregated, never stored, so memory stays constant on
/// benchmark-scale runs. When not installed the solve loop pays one
/// `Option` discriminant check per conflict/decision/restart.
#[derive(Debug, Clone, Default)]
pub struct SearchObserver {
    summary: SearchSummary,
    /// Conflicts since the last restart (the open interval).
    conflicts_this_interval: u64,
}

impl SearchObserver {
    fn on_conflict(&mut self, learnt_len: usize, lbd: u32, decision_level: u32) {
        self.conflicts_this_interval += 1;
        let s = &mut self.summary;
        s.conflicts += 1;
        s.max_decision_level = s.max_decision_level.max(decision_level);
        s.learnt_clauses += 1;
        s.learnt_literals += learnt_len as u64;
        s.lbd_sum += u64::from(lbd);
        s.max_lbd = s.max_lbd.max(lbd);
        s.lbd_hist[SearchSummary::bucket(&LBD_BUCKET_BOUNDS, u64::from(lbd))] += 1;
    }

    fn on_restart(&mut self) {
        let n = std::mem::take(&mut self.conflicts_this_interval);
        let s = &mut self.summary;
        s.restarts += 1;
        s.restart_hist[SearchSummary::bucket(&RESTART_BUCKET_BOUNDS, n)] += 1;
    }

    fn on_decision(&mut self, level: u32) {
        let s = &mut self.summary;
        s.decisions += 1;
        s.max_decision_level = s.max_decision_level.max(level);
    }

    /// The summary accumulated since the last take.
    pub fn summary(&self) -> &SearchSummary {
        &self.summary
    }

    fn take(&mut self, learnt_db_size: u64) -> SearchSummary {
        if self.conflicts_this_interval > 0 {
            // Close the trailing interval (no restart happened) so every
            // conflict is accounted in the restart histogram.
            let n = std::mem::take(&mut self.conflicts_this_interval);
            self.summary.restart_hist[SearchSummary::bucket(&RESTART_BUCKET_BOUNDS, n)] += 1;
        }
        let mut s = std::mem::take(&mut self.summary);
        s.learnt_db_size = learnt_db_size;
        s
    }
}

/// Cooperative cancellation for portfolio racing (see [`Sat::fork`]).
///
/// A group of `k` tokens shares one atomic cell holding the lowest fork
/// index that has reached a decisive answer (`usize::MAX` until then).
/// A fork aborts — at propagation boundaries only — when a *lower*
/// index has decided; lower-index forks never abort on account of
/// higher ones. Consequently forks `0..=winner` always run to their
/// conflict quantum or their decisive answer regardless of scheduling,
/// which is what makes merged counters deterministic.
#[derive(Debug, Clone)]
pub struct CancelToken {
    cell: Arc<AtomicUsize>,
    index: usize,
}

impl CancelToken {
    /// A fresh group of `k` tokens (indices `0..k`) sharing one cell.
    pub fn group(k: usize) -> Vec<CancelToken> {
        let cell = Arc::new(AtomicUsize::new(usize::MAX));
        (0..k)
            .map(|index| CancelToken {
                cell: Arc::clone(&cell),
                index,
            })
            .collect()
    }

    /// Records that this fork reached a decisive answer. The cell keeps
    /// the minimum index, so the winner is schedule-independent.
    pub fn decided(&self) {
        self.cell.fetch_min(self.index, Ordering::SeqCst);
    }

    /// True when a strictly lower-indexed fork has already decided.
    pub fn cancelled(&self) -> bool {
        self.cell.load(Ordering::Relaxed) < self.index
    }

    /// The winning fork index, if any fork has decided yet.
    pub fn winner(&self) -> Option<usize> {
        let w = self.cell.load(Ordering::SeqCst);
        (w != usize::MAX).then_some(w)
    }
}

#[derive(Debug, Clone)]
struct Clause {
    lits: Vec<Lit>,
    learnt: bool,
    deleted: bool,
    activity: f64,
    /// Literal block distance at learn time (0 for input clauses).
    lbd: u32,
}

#[derive(Debug, Clone, Copy)]
struct Watcher {
    cref: usize,
    blocker: Lit,
}

/// Indexed max-heap over variable activities.
#[derive(Debug, Default, Clone)]
struct VarOrder {
    heap: Vec<Var>,
    pos: Vec<i32>, // -1 if absent
}

impl VarOrder {
    fn contains(&self, v: Var) -> bool {
        (v.0 as usize) < self.pos.len() && self.pos[v.0 as usize] >= 0
    }

    fn grow(&mut self, n: usize) {
        while self.pos.len() < n {
            self.pos.push(-1);
        }
    }

    fn insert(&mut self, v: Var, act: &[f64]) {
        if self.contains(v) {
            return;
        }
        self.pos[v.0 as usize] = self.heap.len() as i32;
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, act);
    }

    fn pop_max(&mut self, act: &[f64]) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        let last = self.heap.pop().expect("non-empty");
        self.pos[top.0 as usize] = -1;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last.0 as usize] = 0;
            self.sift_down(0, act);
        }
        Some(top)
    }

    fn bumped(&mut self, v: Var, act: &[f64]) {
        if self.contains(v) {
            let i = self.pos[v.0 as usize] as usize;
            self.sift_up(i, act);
        }
    }

    fn sift_up(&mut self, mut i: usize, act: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if act[self.heap[i].0 as usize] > act[self.heap[parent].0 as usize] {
                self.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize, act: &[f64]) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len() && act[self.heap[l].0 as usize] > act[self.heap[best].0 as usize]
            {
                best = l;
            }
            if r < self.heap.len() && act[self.heap[r].0 as usize] > act[self.heap[best].0 as usize]
            {
                best = r;
            }
            if best == i {
                return;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.pos[self.heap[i].0 as usize] = i as i32;
        self.pos[self.heap[j].0 as usize] = j as i32;
    }
}

/// The CDCL solver.
#[derive(Debug, Clone)]
pub struct Sat {
    clauses: Vec<Clause>,
    watches: Vec<Vec<Watcher>>,
    assigns: Vec<LBool>,
    level: Vec<u32>,
    reason: Vec<Option<usize>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    order: VarOrder,
    phase: Vec<bool>,
    ok: bool,
    n_learnts: usize,
    max_learnts: usize,
    /// Scratch for conflict analysis.
    seen: Vec<bool>,
    /// Proof event log (`None` = logging disabled, the default).
    proof: Option<Vec<ProofEvent>>,
    /// Search instrumentation (`None` = disabled, the default).
    search: Option<SearchObserver>,
    /// Portfolio cancellation token (`None` = never cancelled).
    cancel: Option<CancelToken>,
    /// Luby restart scale: restart interval `i` spans
    /// `luby(i) * restart_base` conflicts.
    restart_base: u64,
    /// Assumption subset responsible for the last `Unsat` answer
    /// (empty when the clauses alone are unsatisfiable).
    final_core: Vec<Lit>,
    /// Total conflicts over the solver's lifetime (statistics).
    pub conflicts: u64,
    /// Total decisions over the solver's lifetime (statistics).
    pub decisions: u64,
    /// Total propagations over the solver's lifetime (statistics).
    pub propagations: u64,
}

impl Default for Sat {
    fn default() -> Self {
        Sat::new()
    }
}

impl Sat {
    /// Default Luby restart base interval (conflicts per unit interval).
    ///
    /// Chosen against the bench corpus: the old hardcoded base of 128
    /// never fired at the per-query conflict counts the analyzer
    /// produces (p100 ≈ 32 conflicts on the large suite), so
    /// `solver.restarts` sat at 0 on every workload. A base of 16
    /// restarts on the heavy tail while leaving short queries (the vast
    /// majority) untouched.
    pub const DEFAULT_RESTART_BASE: u64 = 16;

    /// Creates an empty solver.
    pub fn new() -> Sat {
        Sat {
            clauses: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            order: VarOrder::default(),
            phase: Vec::new(),
            ok: true,
            n_learnts: 0,
            max_learnts: 4000,
            seen: Vec::new(),
            proof: None,
            search: None,
            cancel: None,
            restart_base: Sat::DEFAULT_RESTART_BASE,
            final_core: Vec::new(),
            conflicts: 0,
            decisions: 0,
            propagations: 0,
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assigns.len() as u32);
        self.assigns.push(LBool::Undef);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.grow(self.assigns.len());
        self.order.insert(v, &self.activity);
        v
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Current assignment of a variable.
    pub fn value(&self, v: Var) -> LBool {
        self.assigns[v.0 as usize]
    }

    /// Current truth value of a literal.
    pub fn lit_value(&self, l: Lit) -> LBool {
        match self.assigns[l.var().0 as usize] {
            LBool::Undef => LBool::Undef,
            LBool::True => LBool::from_bool(l.is_positive()),
            LBool::False => LBool::from_bool(!l.is_positive()),
        }
    }

    /// The literals assigned at the current state, in trail order.
    pub fn trail(&self) -> &[Lit] {
        &self.trail
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Turns on proof logging: every subsequently added clause and every
    /// learnt clause is appended to the event log. Must be called before
    /// the first clause for the log to be replayable from scratch.
    pub fn enable_proof(&mut self) {
        if self.proof.is_none() {
            self.proof = Some(Vec::new());
        }
    }

    /// The proof event log so far (empty when logging is disabled).
    pub fn proof_events(&self) -> &[ProofEvent] {
        self.proof.as_deref().unwrap_or(&[])
    }

    /// Turns on CDCL search instrumentation: restart, conflict
    /// (learnt-clause length/LBD), and decision events are folded into a
    /// running [`SearchSummary`]. Off by default; when off, the solve
    /// loop pays only an `Option` discriminant check at each
    /// conflict/decision/restart, so the search itself (and hence the
    /// query plan) is unchanged either way.
    pub fn enable_search(&mut self) {
        if self.search.is_none() {
            self.search = Some(SearchObserver::default());
        }
    }

    /// The live search observer (`None` = instrumentation disabled).
    pub fn search_observer(&self) -> Option<&SearchObserver> {
        self.search.as_ref()
    }

    /// Takes (and resets) the search summary accumulated since the
    /// previous take, stamping the current learnt-database size.
    /// `None` when instrumentation is disabled.
    pub fn take_search_summary(&mut self) -> Option<SearchSummary> {
        let db = self.n_learnts as u64;
        self.search.as_mut().map(|o| o.take(db))
    }

    /// Literal block distance: the number of distinct decision levels
    /// among the clause's literals.
    fn lbd_of(&self, lits: &[Lit]) -> u32 {
        let mut levels: Vec<u32> = lits
            .iter()
            .map(|l| self.level[l.var().0 as usize])
            .collect();
        levels.sort_unstable();
        levels.dedup();
        levels.len() as u32
    }

    /// The assumption literals responsible for the most recent `Unsat`
    /// answer (a subset of the `solve` assumptions; empty when the
    /// clauses alone are unsatisfiable).
    pub fn unsat_core(&self) -> &[Lit] {
        &self.final_core
    }

    /// The current Luby restart base interval.
    pub fn restart_base(&self) -> u64 {
        self.restart_base
    }

    /// Installs (or clears) the portfolio cancellation token. While a
    /// token is installed, `solve` returns `Unknown` at the next
    /// propagation boundary after a lower-indexed fork decides.
    pub fn set_cancel(&mut self, token: Option<CancelToken>) {
        self.cancel = token;
    }

    /// Current VSIDS activity of a variable (cube-split branching uses
    /// this to pick the top-k indicator variables).
    pub fn var_activity(&self, v: Var) -> f64 {
        self.activity[v.0 as usize]
    }

    /// Forks the solver for portfolio search: clones the clause
    /// database, drops learnt clauses with LBD above `lbd_keep`
    /// (locked and binary clauses are kept), and diversifies the
    /// search state — VSIDS activities get multiplicative jitter plus a
    /// small additive tie-breaker, saved phases flip with probability
    /// 1/8, and the restart base is re-drawn — all deterministically
    /// from `seed`. Statistics counters restart at zero so the caller
    /// reads per-fork deltas; proof logging and any cancellation token
    /// are cleared.
    #[must_use]
    pub fn fork(&self, seed: u64, lbd_keep: u32) -> Sat {
        let mut f = self.clone();
        f.proof = None;
        f.cancel = None;
        f.search = self.search.as_ref().map(|_| SearchObserver::default());
        f.final_core.clear();
        f.cancel_until(0);
        // Trim the learnt database: keep glue (low-LBD) clauses, drop
        // the rest. Reason clauses of root-level assignments stay.
        let locked: std::collections::HashSet<usize> = f.reason.iter().flatten().copied().collect();
        let mut removed = 0;
        for (i, c) in f.clauses.iter_mut().enumerate() {
            if c.learnt
                && !c.deleted
                && c.lbd > lbd_keep
                && !locked.contains(&i)
                && c.lits.len() > 2
            {
                c.deleted = true;
                removed += 1;
            }
        }
        f.n_learnts -= removed;
        // Diversify deterministically from the seed.
        let mut state = seed;
        for a in &mut f.activity {
            let r = splitmix64(&mut state);
            let jitter = 0.5 + ((r >> 40) as f64 / (1u64 << 24) as f64);
            *a = *a * jitter + (r & 0xffff) as f64 * 1e-9;
        }
        for p in &mut f.phase {
            if splitmix64(&mut state).is_multiple_of(8) {
                *p = !*p;
            }
        }
        const BASES: [u64; 5] = [8, 16, 32, 64, 128];
        f.restart_base = BASES[(splitmix64(&mut state) % BASES.len() as u64) as usize];
        f.rebuild_order();
        f.conflicts = 0;
        f.decisions = 0;
        f.propagations = 0;
        f
    }

    /// Folds a fork's search summary into this solver's observer (no-op
    /// when instrumentation is off). Portfolio merging calls this in
    /// fork-index order so the aggregate is schedule-independent.
    pub fn merge_search(&mut self, other: &SearchSummary) {
        if let Some(obs) = &mut self.search {
            obs.summary.merge(other);
        }
    }

    /// Adopts a portfolio winner's assumption core as this solver's
    /// `unsat_core` (fork literals share the parent's numbering).
    pub fn adopt_final_core(&mut self, core: Vec<Lit>) {
        self.final_core = core;
    }

    /// Rebuilds the VSIDS heap from scratch (after bulk activity edits).
    fn rebuild_order(&mut self) {
        self.order = VarOrder::default();
        self.order.grow(self.assigns.len());
        for i in 0..self.assigns.len() {
            if self.assigns[i] == LBool::Undef {
                self.order.insert(Var(i as u32), &self.activity);
            }
        }
    }

    /// Adds a clause carrying a caller-side provenance tag for the proof
    /// log. Identical to [`Sat::add_clause`] otherwise.
    pub fn add_clause_tagged(&mut self, lits: &[Lit], tag: u32) -> bool {
        if let Some(log) = &mut self.proof {
            log.push(ProofEvent::Input {
                lits: lits.to_vec(),
                tag,
            });
        }
        self.add_clause_untagged(lits)
    }

    /// Adds a clause. Returns `false` if the solver became trivially
    /// unsatisfiable (empty clause or conflicting units at level 0).
    ///
    /// May be called between `solve` invocations (the trail is rewound to
    /// the root level first).
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        if let Some(log) = &mut self.proof {
            log.push(ProofEvent::Input {
                lits: lits.to_vec(),
                tag: u32::MAX,
            });
        }
        self.add_clause_untagged(lits)
    }

    fn add_clause_untagged(&mut self, lits: &[Lit]) -> bool {
        if !self.ok {
            return false;
        }
        self.cancel_until(0);
        // Simplify: drop false lits (level 0), detect satisfied/tautology.
        let mut c: Vec<Lit> = Vec::with_capacity(lits.len());
        for &l in lits {
            debug_assert!((l.var().0 as usize) < self.assigns.len(), "unknown var");
            match self.lit_value(l) {
                LBool::True => return true,
                LBool::False => continue,
                LBool::Undef => {
                    if c.contains(&l.negated()) {
                        return true; // tautology
                    }
                    if !c.contains(&l) {
                        c.push(l);
                    }
                }
            }
        }
        match c.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(c[0], None);
                if self.propagate().is_some() {
                    self.ok = false;
                    false
                } else {
                    true
                }
            }
            _ => {
                self.attach_clause(c, false);
                true
            }
        }
    }

    fn attach_clause(&mut self, lits: Vec<Lit>, learnt: bool) -> usize {
        let cref = self.clauses.len();
        self.watches[lits[0].negated().index()].push(Watcher {
            cref,
            blocker: lits[1],
        });
        self.watches[lits[1].negated().index()].push(Watcher {
            cref,
            blocker: lits[0],
        });
        if learnt {
            self.n_learnts += 1;
        }
        self.clauses.push(Clause {
            lits,
            learnt,
            deleted: false,
            activity: 0.0,
            lbd: 0,
        });
        cref
    }

    fn unchecked_enqueue(&mut self, l: Lit, reason: Option<usize>) {
        debug_assert_eq!(self.lit_value(l), LBool::Undef);
        let v = l.var().0 as usize;
        self.assigns[v] = LBool::from_bool(l.is_positive());
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.phase[v] = l.is_positive();
        self.trail.push(l);
    }

    /// Unit propagation; returns a conflicting clause reference if any.
    fn propagate(&mut self) -> Option<usize> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.propagations += 1;
            let false_lit = p.negated();
            let mut ws = std::mem::take(&mut self.watches[p.index()]);
            let mut i = 0;
            let mut conflict = None;
            'watchers: while i < ws.len() {
                let w = ws[i];
                if self.lit_value(w.blocker) == LBool::True {
                    i += 1;
                    continue;
                }
                let cref = w.cref;
                if self.clauses[cref].deleted {
                    ws.swap_remove(i);
                    continue;
                }
                // Ensure false_lit is at position 1.
                {
                    let lits = &mut self.clauses[cref].lits;
                    if lits[0] == false_lit {
                        lits.swap(0, 1);
                    }
                }
                let first = self.clauses[cref].lits[0];
                if first != w.blocker && self.lit_value(first) == LBool::True {
                    ws[i].blocker = first;
                    i += 1;
                    continue;
                }
                // Look for a new watch.
                let len = self.clauses[cref].lits.len();
                for k in 2..len {
                    let lk = self.clauses[cref].lits[k];
                    if self.lit_value(lk) != LBool::False {
                        self.clauses[cref].lits.swap(1, k);
                        self.watches[lk.negated().index()].push(Watcher {
                            cref,
                            blocker: first,
                        });
                        ws.swap_remove(i);
                        continue 'watchers;
                    }
                }
                // Clause is unit or conflicting.
                ws[i].blocker = first;
                if self.lit_value(first) == LBool::False {
                    conflict = Some(cref);
                    self.qhead = self.trail.len();
                    // Keep remaining watchers in the list.
                    break;
                }
                self.unchecked_enqueue(first, Some(cref));
                i += 1;
            }
            self.watches[p.index()].append(&mut ws);
            // Restore remaining watchers if we broke early.
            if let Some(c) = conflict {
                return Some(c);
            }
        }
        None
    }

    fn cancel_until(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let lim = self.trail_lim[level as usize];
        for i in (lim..self.trail.len()).rev() {
            let v = self.trail[i].var();
            self.assigns[v.0 as usize] = LBool::Undef;
            self.reason[v.0 as usize] = None;
            self.order.insert(v, &self.activity);
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    fn var_bump(&mut self, v: Var) {
        self.activity[v.0 as usize] += self.var_inc;
        if self.activity[v.0 as usize] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.bumped(v, &self.activity);
    }

    fn cla_bump(&mut self, cref: usize) {
        self.clauses[cref].activity += self.cla_inc;
        if self.clauses[cref].activity > 1e20 {
            for c in &mut self.clauses {
                c.activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// First-UIP conflict analysis; returns (learnt clause, backtrack level).
    fn analyze(&mut self, mut conflict: usize) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // placeholder for UIP
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();

        loop {
            self.cla_bump(conflict);
            let start = usize::from(p.is_some());
            // Clone lits to appease the borrow checker (clauses are small).
            let lits = self.clauses[conflict].lits.clone();
            for &q in &lits[start..] {
                let v = q.var().0 as usize;
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.var_bump(q.var());
                    if self.level[v] >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Find next literal to resolve on.
            loop {
                index -= 1;
                let l = self.trail[index];
                if self.seen[l.var().0 as usize] {
                    p = Some(l);
                    break;
                }
            }
            let pv = p.expect("found").var().0 as usize;
            self.seen[pv] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = p.expect("found").negated();
                break;
            }
            conflict = self.reason[pv].expect("non-decision has a reason");
        }

        // Cheap self-subsumption minimization: drop a literal if its reason
        // clause's other literals are all already in the learnt clause.
        let mut minimized: Vec<Lit> = vec![learnt[0]];
        'lits: for &l in learnt.iter().skip(1) {
            if let Some(r) = self.reason[l.var().0 as usize] {
                let lits = &self.clauses[r].lits;
                if lits.len() > 1
                    && lits[1..].iter().all(|&q| {
                        self.seen[q.var().0 as usize] || self.level[q.var().0 as usize] == 0
                    })
                {
                    continue 'lits; // redundant
                }
            }
            minimized.push(l);
        }
        let learnt = minimized;

        for &l in &learnt {
            self.seen[l.var().0 as usize] = false;
        }
        // Also clear seen flags left from dropped literals.
        for v in 0..self.seen.len() {
            self.seen[v] = false;
        }

        // Backtrack level: second-highest level in the clause.
        let bt = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().0 as usize]
                    > self.level[learnt[max_i].var().0 as usize]
                {
                    max_i = i;
                }
            }
            let mut learnt = learnt;
            learnt.swap(1, max_i);
            let bt = self.level[learnt[1].var().0 as usize];
            return (learnt, bt);
        };
        (learnt, bt)
    }

    /// Computes the subset of `assumptions` responsible for forcing
    /// `p` false (MiniSat's `analyzeFinal`): walks the implication graph
    /// from `p` back to assumption-level decisions. Root-level (level-0)
    /// antecedents are dropped — they hold under no assumptions at all.
    fn analyze_final(&self, p: Lit, assumptions: &[Lit]) -> Vec<Lit> {
        if self.decision_level() == 0 {
            return Vec::new();
        }
        let mut seen = vec![false; self.assigns.len()];
        seen[p.var().0 as usize] = true;
        let mut core = Vec::new();
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var().0 as usize;
            if !seen[v] {
                continue;
            }
            match self.reason[v] {
                None => {
                    // A decision: during assumption placement every
                    // decision is an assumption literal.
                    if assumptions.contains(&l) {
                        core.push(l);
                    }
                }
                Some(cref) => {
                    for &q in &self.clauses[cref].lits {
                        if self.level[q.var().0 as usize] > 0 {
                            seen[q.var().0 as usize] = true;
                        }
                    }
                }
            }
        }
        core
    }

    fn reduce_db(&mut self) {
        // Delete the lower-activity half of the learnt clauses, keeping
        // reason clauses.
        let mut acts: Vec<f64> = self
            .clauses
            .iter()
            .filter(|c| c.learnt && !c.deleted)
            .map(|c| c.activity)
            .collect();
        if acts.len() < 100 {
            return;
        }
        acts.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let median = acts[acts.len() / 2];
        let locked: std::collections::HashSet<usize> =
            self.reason.iter().flatten().copied().collect();
        let mut removed = 0;
        for (i, c) in self.clauses.iter_mut().enumerate() {
            if c.learnt
                && !c.deleted
                && c.activity < median
                && !locked.contains(&i)
                && c.lits.len() > 2
            {
                c.deleted = true;
                removed += 1;
            }
        }
        self.n_learnts -= removed;
        // Deleted clauses are skipped lazily during propagation.
    }

    fn luby(i: u64) -> u64 {
        // Luby sequence: 1 1 2 1 1 2 4 ...
        let mut k = 1u32;
        loop {
            if i == (1u64 << k) - 1 {
                return 1u64 << (k - 1);
            }
            if i < (1u64 << k) - 1 {
                return Sat::luby(i - (1u64 << (k - 1)) + 1);
            }
            k += 1;
        }
    }

    /// Solves under the given assumption literals with an optional conflict
    /// budget. The solver may be reused afterwards (clauses persist).
    pub fn solve(&mut self, assumptions: &[Lit], budget: Option<u64>) -> SolveResult {
        self.final_core.clear();
        if !self.ok {
            return SolveResult::Unsat;
        }
        self.cancel_until(0);
        if self.propagate().is_some() {
            self.ok = false;
            return SolveResult::Unsat;
        }
        let start_conflicts = self.conflicts;
        let mut restart_num = 1u64;
        let mut conflicts_until_restart = Sat::luby(restart_num) * self.restart_base;

        loop {
            if let Some(b) = budget {
                if self.conflicts - start_conflicts > b {
                    self.cancel_until(0);
                    return SolveResult::Unknown;
                }
            }
            if let Some(tok) = &self.cancel {
                // Propagation boundary: the only point a portfolio fork
                // may abort, and only to a lower-indexed winner.
                if tok.cancelled() {
                    self.cancel_until(0);
                    return SolveResult::Unknown;
                }
            }
            if let Some(confl) = self.propagate() {
                self.conflicts += 1;
                conflicts_until_restart = conflicts_until_restart.saturating_sub(1);
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SolveResult::Unsat;
                }
                // A conflict at or below the assumption levels means the
                // assumptions are inconsistent with the clauses only when
                // analysis would backtrack above them; handle by checking
                // the backtrack target below.
                let (learnt, bt) = self.analyze(confl);
                let assumption_levels = self.trail_lim.len().min(assumptions.len()) as u32;
                if bt < assumption_levels {
                    // Re-deciding an assumption would flip it: the learnt
                    // clause will become unit on an assumption-level
                    // literal. Keep the clause, backtrack, and let
                    // propagation + re-decision detect unsatisfiability.
                }
                if let Some(log) = &mut self.proof {
                    log.push(ProofEvent::Learnt {
                        lits: learnt.clone(),
                    });
                }
                // LBD needs `level`, so compute before backtracking. It
                // is stored on the learnt clause (forks trim by it), and
                // reported to the observer when instrumentation is on.
                let lbd = self.lbd_of(&learnt);
                if self.search.is_some() {
                    let dl = self.decision_level();
                    if let Some(obs) = &mut self.search {
                        obs.on_conflict(learnt.len(), lbd, dl);
                    }
                }
                self.cancel_until(bt);
                if learnt.len() == 1 {
                    if self.lit_value(learnt[0]) == LBool::False {
                        // False at the root level: the clauses alone are
                        // unsatisfiable, so the core is empty.
                        self.ok = false;
                        return SolveResult::Unsat;
                    }
                    if self.lit_value(learnt[0]) == LBool::Undef {
                        self.unchecked_enqueue(learnt[0], None);
                    }
                } else {
                    let cref = self.attach_clause(learnt.clone(), true);
                    self.clauses[cref].lbd = lbd;
                    self.cla_bump(cref);
                    self.unchecked_enqueue(learnt[0], Some(cref));
                }
                self.var_inc /= 0.95;
                self.cla_inc /= 0.999;
                if self.n_learnts > self.max_learnts {
                    self.reduce_db();
                    self.max_learnts += self.max_learnts / 10;
                }
            } else {
                // No conflict.
                if conflicts_until_restart == 0 && self.decision_level() > assumptions.len() as u32
                {
                    restart_num += 1;
                    conflicts_until_restart = Sat::luby(restart_num) * self.restart_base;
                    if let Some(obs) = &mut self.search {
                        obs.on_restart();
                    }
                    self.cancel_until(assumptions.len() as u32);
                    continue;
                }
                // Place assumptions as the first decisions.
                if (self.decision_level() as usize) < assumptions.len() {
                    let a = assumptions[self.decision_level() as usize];
                    match self.lit_value(a) {
                        LBool::True => {
                            // Already satisfied: open an empty level.
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => {
                            let mut core = self.analyze_final(a, assumptions);
                            if !core.contains(&a) {
                                core.push(a);
                            }
                            self.final_core = core;
                            self.cancel_until(0);
                            return SolveResult::Unsat;
                        }
                        LBool::Undef => {
                            self.trail_lim.push(self.trail.len());
                            self.unchecked_enqueue(a, None);
                        }
                    }
                    continue;
                }
                // Pick a branching variable.
                let next = loop {
                    match self.order.pop_max(&self.activity) {
                        None => break None,
                        Some(v) => {
                            if self.assigns[v.0 as usize] == LBool::Undef {
                                break Some(v);
                            }
                        }
                    }
                };
                match next {
                    None => return SolveResult::Sat,
                    Some(v) => {
                        self.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let dl = self.decision_level();
                        if let Some(obs) = &mut self.search {
                            obs.on_decision(dl);
                        }
                        let l = Lit::new(v, self.phase[v.0 as usize]);
                        self.unchecked_enqueue(l, None);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(sat: &mut Sat, n: usize) -> Vec<Var> {
        (0..n).map(|_| sat.new_var()).collect()
    }

    /// The search observer accumulates conflicts/decisions consistent
    /// with the public statistics counters, and taking the summary
    /// resets the window.
    #[test]
    #[allow(clippy::needless_range_loop)] // index pairs (p1, p2, h) read best as ranges
    fn search_observer_tracks_conflicts_and_resets() {
        // A small pigeonhole instance (4 pigeons, 3 holes) forces real
        // conflict-driven search.
        let mut s = Sat::new();
        let pigeons = 4;
        let holes = 3;
        let v: Vec<Vec<Var>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| s.new_var()).collect())
            .collect();
        s.enable_search();
        for row in &v {
            let clause: Vec<Lit> = row.iter().map(|&var| Lit::pos(var)).collect();
            assert!(s.add_clause(&clause));
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    assert!(s.add_clause(&[Lit::neg(v[p1][h]), Lit::neg(v[p2][h])]));
                }
            }
        }
        assert_eq!(s.solve(&[], None), SolveResult::Unsat);
        let sum = s.take_search_summary().expect("instrumentation on");
        assert!(sum.conflicts > 0, "pigeonhole without conflicts");
        assert_eq!(sum.learnt_clauses, sum.conflicts);
        assert!(sum.decisions > 0 && sum.decisions <= s.decisions);
        assert!(sum.max_decision_level > 0);
        assert!(sum.lbd_hist.iter().sum::<u64>() == sum.learnt_clauses);
        assert!(
            sum.restart_hist.iter().sum::<u64>() >= 1,
            "trailing interval folded in"
        );
        // The window reset: a second take reports nothing new.
        let again = s.take_search_summary().expect("still on");
        assert_eq!(again.conflicts, 0);
        assert_eq!(again.lbd_hist.iter().sum::<u64>(), 0);
    }

    #[test]
    fn trivial_sat_and_unsat() {
        let mut s = Sat::new();
        let v = lits(&mut s, 1);
        assert!(s.add_clause(&[Lit::pos(v[0])]));
        assert_eq!(s.solve(&[], None), SolveResult::Sat);
        assert_eq!(s.value(v[0]), LBool::True);
        assert!(!s.add_clause(&[Lit::neg(v[0])]));
        assert_eq!(s.solve(&[], None), SolveResult::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Sat::new();
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(&[], None), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // 3 pigeons, 2 holes: p[i][j] = pigeon i in hole j.
        let mut s = Sat::new();
        let mut p = [[Var(0); 2]; 3];
        for row in &mut p {
            for cell in row.iter_mut() {
                *cell = s.new_var();
            }
        }
        for row in &p {
            s.add_clause(&[Lit::pos(row[0]), Lit::pos(row[1])]);
        }
        #[allow(clippy::needless_range_loop)] // index pairs are the point
        for j in 0..2 {
            for i in 0..3 {
                for k in (i + 1)..3 {
                    s.add_clause(&[Lit::neg(p[i][j]), Lit::neg(p[k][j])]);
                }
            }
        }
        assert_eq!(s.solve(&[], None), SolveResult::Unsat);
    }

    #[test]
    fn assumptions_restrict_models() {
        let mut s = Sat::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[1])]);
        assert_eq!(s.solve(&[Lit::neg(v[0])], None), SolveResult::Sat);
        assert_eq!(s.value(v[1]), LBool::True);
        // Incompatible assumptions.
        s.add_clause(&[Lit::neg(v[0]), Lit::neg(v[1])]);
        assert_eq!(
            s.solve(&[Lit::pos(v[0]), Lit::pos(v[1])], None),
            SolveResult::Unsat
        );
        // Solver still usable afterwards.
        assert_eq!(s.solve(&[], None), SolveResult::Sat);
    }

    #[test]
    fn model_is_total() {
        let mut s = Sat::new();
        let v = lits(&mut s, 5);
        s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[1])]);
        assert_eq!(s.solve(&[], None), SolveResult::Sat);
        for var in v {
            assert_ne!(s.value(var), LBool::Undef);
        }
    }

    #[test]
    fn all_sat_enumeration_via_blocking() {
        // x ∨ y has 3 models.
        let mut s = Sat::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[1])]);
        let mut count = 0;
        while s.solve(&[], None) == SolveResult::Sat {
            count += 1;
            assert!(count <= 3, "too many models");
            let blocking: Vec<Lit> = v
                .iter()
                .map(|&var| match s.value(var) {
                    LBool::True => Lit::neg(var),
                    _ => Lit::pos(var),
                })
                .collect();
            if !s.add_clause(&blocking) {
                break;
            }
        }
        assert_eq!(count, 3);
    }

    #[test]
    fn budget_returns_unknown_or_finishes() {
        let mut s = Sat::new();
        // A moderately hard random-ish instance; budget 0 conflicts.
        let v = lits(&mut s, 30);
        for i in 0..28 {
            s.add_clause(&[Lit::pos(v[i]), Lit::neg(v[i + 1]), Lit::pos(v[i + 2])]);
            s.add_clause(&[Lit::neg(v[i]), Lit::pos(v[i + 1]), Lit::neg(v[i + 2])]);
        }
        let r = s.solve(&[], Some(0));
        assert!(matches!(r, SolveResult::Sat | SolveResult::Unknown));
    }

    /// Builds the pigeonhole instance (`pigeons` into `holes`).
    fn pigeonhole(pigeons: usize, holes: usize) -> Sat {
        let mut s = Sat::new();
        let v: Vec<Vec<Var>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| s.new_var()).collect())
            .collect();
        for row in &v {
            let clause: Vec<Lit> = row.iter().map(|&var| Lit::pos(var)).collect();
            assert!(s.add_clause(&clause));
        }
        #[allow(clippy::needless_range_loop)]
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    assert!(s.add_clause(&[Lit::neg(v[p1][h]), Lit::neg(v[p2][h])]));
                }
            }
        }
        s
    }

    /// The default restart base actually fires on conflict-heavy
    /// queries (the old hardcoded base of 128 never did at analyzer
    /// conflict counts — satellite of ISSUE 10).
    #[test]
    fn default_restart_base_restarts_on_hard_instances() {
        let mut s = pigeonhole(6, 5);
        s.enable_search();
        assert_eq!(s.restart_base(), Sat::DEFAULT_RESTART_BASE);
        assert_eq!(s.solve(&[], None), SolveResult::Unsat);
        let sum = s.take_search_summary().expect("instrumentation on");
        assert!(
            sum.restarts > 0,
            "expected restarts with base {} at {} conflicts",
            Sat::DEFAULT_RESTART_BASE,
            sum.conflicts
        );
    }

    /// Forks reach the same verdict as the parent regardless of seed,
    /// and fork statistics start at zero.
    #[test]
    fn forks_agree_with_parent_verdict() {
        let parent = pigeonhole(5, 4);
        for seed in [1u64, 42, 0xdead_beef] {
            let mut f = parent.fork(seed, 3);
            assert_eq!(f.conflicts, 0);
            assert_eq!(f.decisions, 0);
            assert_eq!(f.solve(&[], None), SolveResult::Unsat);
        }
        // A satisfiable instance stays satisfiable in every fork.
        let mut s = Sat::new();
        let v = lits(&mut s, 6);
        for i in 0..4 {
            s.add_clause(&[Lit::pos(v[i]), Lit::neg(v[i + 1]), Lit::pos(v[i + 2])]);
        }
        for seed in [7u64, 99] {
            let mut f = s.fork(seed, 3);
            assert_eq!(f.solve(&[], None), SolveResult::Sat);
        }
    }

    /// Fork trims high-LBD learnt clauses but keeps the parent intact:
    /// after learning on the parent, a fork with `lbd_keep = 0` drops
    /// non-binary learnts while the parent still has them.
    #[test]
    fn fork_trims_learnt_database() {
        let mut parent = pigeonhole(5, 4);
        // Learn under a budget so the instance stays open (ok = true).
        let _ = parent.solve(&[], Some(20));
        let parent_learnts = parent.n_learnts;
        let f = parent.fork(3, 0);
        assert!(f.n_learnts <= parent_learnts);
        assert_eq!(parent.n_learnts, parent_learnts, "parent untouched");
    }

    /// A cancelled token makes `solve` return `Unknown` at the next
    /// propagation boundary; lower-indexed tokens are unaffected.
    #[test]
    fn cancellation_is_asymmetric() {
        let tokens = CancelToken::group(3);
        tokens[1].decided();
        assert_eq!(tokens[0].winner(), Some(1));
        assert!(!tokens[0].cancelled(), "lower index never aborts");
        assert!(!tokens[1].cancelled(), "the winner itself never aborts");
        assert!(tokens[2].cancelled(), "higher index aborts");

        let mut s = pigeonhole(5, 4);
        s.set_cancel(Some(tokens[2].clone()));
        assert_eq!(s.solve(&[], None), SolveResult::Unknown);
        s.set_cancel(None);
        assert_eq!(s.solve(&[], None), SolveResult::Unsat);

        // `decided` keeps the minimum index.
        tokens[0].decided();
        assert_eq!(tokens[2].winner(), Some(0));
    }
}

//! The three workloads. Each is a set-up (turn generated source into
//! analysable programs; on `rerun` also fill a fresh store) followed by a
//! timed phase of closed-loop requests: one request is issued only after
//! the previous one finished. The amount of work in a run is fixed by the
//! seed and `--seconds`, never by a clock, so every verdict and count is
//! a pure function of the command line.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use acspec_bench::{EvalOptions, PRUNE_LEVELS};
use acspec_benchgen::suite::SuiteKind;
use acspec_core::persist::entry_key;
use acspec_core::{
    options_digest, procedure_fingerprint, program_report_json, AcspecOptions, NullObserver,
    ProcAnalysis, ProcOutcome, ProcReport, ProgramAnalysis, StoreOutcome, StoreSession, Warning,
};
use acspec_ir::{AssertId, Program};
use acspec_predabs::normalize::PruneConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::check::{self, Digest, Truth};
use crate::gen::{self, EditSite};
use crate::layers::Layers;
use crate::sys;

/// Suite scale divisor of `drivers` (the fig8 Large suite at a quarter
/// of its full procedure counts: about 180 procedures per pass).
const DRIVERS_SCALE: usize = 4;
/// One `drivers` pass per this many seconds of `--seconds` (a pass took
/// 0.9–1.3 s with 2 workers on the reference machine).
const DRIVERS_PASS_S: f64 = 1.1;
/// Size of the `tail` population: generator seeds `0..150`.
const TAIL_POPULATION: usize = 150;
/// `rerun` rounds per second of `--seconds` (a round took 18 ms on
/// average with 2 workers on the reference machine).
const RERUN_ROUNDS_PER_S: u64 = 55;
/// Set-up repetitions per run, as (samples, repetitions per sample): a
/// sample is the mean of its repetitions, and the reported `setup_s` is
/// the median of the samples. A short repetition catches the host in
/// one state, fast or up to 1.8× slower; the mean of several averages
/// the states out.
const DRIVERS_SETUP: (usize, usize) = (5, 6);
const TAIL_SETUP: (usize, usize) = (6, 10);
const RERUN_SETUP: (usize, usize) = (3, 1);
/// Pause before each set-up repetition. On the reference machine,
/// repetitions run back to back spread about twice as much from run to
/// run as repetitions that each start after a short pause: a vCPU that
/// stays busy is slowed by its neighbours' load.
const SETUP_REST: Duration = Duration::from_millis(100);
/// A `tail` set-up repetition parses the population this many times
/// (one parse takes about 1 ms, too short to time on its own); its
/// time is divided by this.
const TAIL_SETUP_PARSES: usize = 20;
/// Sub-seed stream of the `rerun` edit script.
const EDIT_STREAM: u64 = 0xed17;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Drivers,
    Tail,
    Rerun,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "drivers" => Some(Workload::Drivers),
            "tail" => Some(Workload::Tail),
            "rerun" => Some(Workload::Rerun),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Drivers => "drivers",
            Workload::Tail => "tail",
            Workload::Rerun => "rerun",
        }
    }
}

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    /// Smoke-test sizes: a few programs per workload.
    pub tiny: bool,
    /// Plant one bogus warning in the first analysed report, to show the
    /// checks catch a wrong output.
    pub corrupt: bool,
}

/// How a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// End-to-end: default worker count, no tracing.
    Measure,
    /// The traced run's reference: half the work, 1 worker, no tracing.
    Reference,
    /// The traced run: half the work, 1 worker (so stage walls add up),
    /// query recording on.
    Traced,
}

/// The analysis settings every workload uses: the fig8 evaluation
/// options (`Conc`/`A1`/`A2` × `k = ∞, 3, 2, 1`, conflict budget 400k)
/// with every knob the environment could change pinned, and deadline,
/// chaos, portfolio, cube-split and certification off.
#[derive(Debug, Clone)]
pub struct Settings {
    eval: EvalOptions,
    base: AcspecOptions,
    prune: Vec<PruneConfig>,
    /// The store's options digest for this request.
    store_options: String,
}

impl Settings {
    pub fn new() -> Settings {
        let mut eval = EvalOptions::default();
        // `AnalyzerConfig::default()` reads `ACSPEC_NO_QUERY_CACHE`.
        eval.analyzer.query_cache = true;
        eval.analyzer.deadline = None;
        eval.analyzer.chaos = None;
        eval.analyzer.portfolio = false;
        eval.analyzer.cube_split = 0;
        eval.certify = false;
        let base = AcspecOptions {
            analyzer: eval.analyzer,
            ..AcspecOptions::default()
        };
        let prune: Vec<PruneConfig> = PRUNE_LEVELS
            .iter()
            .map(|k| PruneConfig {
                max_literals: *k,
                no_cross_call_correlations: false,
            })
            .collect();
        let store_options = options_digest(&base, eval.configs, &prune, true, false);
        Settings {
            eval,
            base,
            prune,
            store_options,
        }
    }

    /// The settings as recorded with every result.
    pub fn describe(&self) -> String {
        format!(
            "configs={:?} prune={:?} threads={} search_threads={} certify={} analyzer={:?}",
            self.eval.configs,
            PRUNE_LEVELS,
            self.eval.threads,
            self.eval.search_threads,
            self.eval.certify,
            self.eval.analyzer
        )
    }

    fn analysis<'p>(&self, program: &'p Program, threads: usize) -> ProgramAnalysis<'p> {
        ProgramAnalysis::new(program)
            .options(self.base)
            .configs(self.eval.configs)
            .prune_variants(&self.prune)
            .threads(threads)
            .search_threads(self.eval.search_threads)
            .skip_correct(true)
            .certify(self.eval.certify)
    }
}

/// Procedure-level tally of one run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Procedures brought to a final report in the timed phase.
    pub attempted: u64,
    /// Of those, procedures whose every report ran to completion.
    pub decided: u64,
    /// Of those, procedures that faulted or failed a check.
    pub failed: u64,
    /// Set-up procedures (the `rerun` cold pass) that failed a check.
    pub setup_failed: u64,
    /// The first few failure messages.
    pub messages: Vec<String>,
}

impl Tally {
    fn fail(&mut self, message: String) {
        if self.messages.len() < 8 {
            self.messages.push(message);
        }
    }
}

/// Wall and CPU seconds of a timed phase: the time its requests took,
/// without the output checks made between them.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phase {
    pub wall: f64,
    pub cpu: f64,
}

/// The CPU clock of a timed phase. Process CPU time is counted in 10 ms
/// ticks, too coarse to time one request, so the phase's CPU time is the
/// process's from the first request's start to the last one's end, less
/// what the main thread spent between requests (checking outputs), which
/// is counted in nanoseconds. The workers are idle between requests.
#[derive(Debug, Default)]
struct CpuClock {
    /// Process CPU seconds at the first request's start and the last
    /// one's end.
    span: Option<(f64, f64)>,
    /// Main-thread CPU seconds at the last request's end.
    idle_since: Option<f64>,
    /// Main-thread CPU seconds spent between requests.
    idle: f64,
}

impl CpuClock {
    fn start(&mut self) {
        if let Some(since) = self.idle_since.take() {
            self.idle += sys::thread_cpu_seconds() - since;
        }
        if self.span.is_none() {
            let now = sys::cpu_seconds();
            self.span = Some((now, now));
        }
    }

    fn stop(&mut self) {
        if let Some((_, end)) = &mut self.span {
            *end = sys::cpu_seconds();
        }
        self.idle_since = Some(sys::thread_cpu_seconds());
    }

    fn seconds(&self) -> f64 {
        self.span
            .map_or(0.0, |(start, end)| end - start - self.idle)
    }
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Run {
    /// Wall seconds of each set-up repetition.
    pub setup: Vec<f64>,
    pub phase: Phase,
    /// Wall seconds of each request of the timed phase.
    pub latencies: Vec<f64>,
    pub tally: Tally,
    /// Digest of the warning fingerprints of the run's seed-determined
    /// prefix (independent of `--seconds`).
    pub digest: String,
    /// Per-layer accounting (traced runs only).
    pub layers: Option<Layers>,
}

/// Request-level harness shared by the workloads: runs the program's
/// public calls, times them, and checks their outputs.
struct Runner<'s> {
    settings: &'s Settings,
    threads: usize,
    /// Whether store requests take the program's own store path
    /// ([`ProgramAnalysis::store`]) rather than the benchmark's
    /// outside copy of it, which times each fetch and put.
    own_store: bool,
    layers: Option<Layers>,
    tally: Tally,
    phase: Phase,
    cpu: CpuClock,
    latencies: Vec<f64>,
    corrupt: bool,
    /// Pause before each set-up repetition (none at smoke-test sizes).
    setup_rest: Duration,
}

impl<'s> Runner<'s> {
    fn new(settings: &'s Settings, mode: Mode, plan: &Plan) -> Runner<'s> {
        Runner {
            settings,
            threads: if mode == Mode::Measure {
                settings.eval.threads
            } else {
                1
            },
            own_store: mode == Mode::Measure,
            layers: (mode == Mode::Traced).then(Layers::default),
            tally: Tally::default(),
            phase: Phase::default(),
            cpu: CpuClock::default(),
            latencies: Vec::new(),
            corrupt: plan.corrupt,
            setup_rest: if plan.tiny {
                Duration::ZERO
            } else {
                SETUP_REST
            },
        }
    }

    /// Runs `f`, charging its wall time to `layer` in a traced run.
    fn span<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        if let Some(l) = &mut self.layers {
            l.span(layer, t.elapsed().as_secs_f64());
        }
        out
    }

    fn count(&mut self, name: &'static str, n: f64) {
        if let Some(l) = &mut self.layers {
            l.count(name, n);
        }
    }

    /// Runs `f` `samples × group` times, each after a pause, returning
    /// the last result and, per sample, the mean wall seconds of its
    /// `group` repetitions.
    fn setup<T>(
        &mut self,
        (samples, group): (usize, usize),
        mut f: impl FnMut(&mut Self) -> T,
    ) -> (T, Vec<f64>) {
        let mut means = Vec::with_capacity(samples);
        let mut last = None;
        for _ in 0..samples {
            let mut wall = 0.0;
            for _ in 0..group {
                drop(last.take());
                std::thread::sleep(self.setup_rest);
                let t = Instant::now();
                last = Some(f(self));
                wall += t.elapsed().as_secs_f64();
            }
            means.push(wall / group as f64);
        }
        (last.expect("at least one set-up repetition"), means)
    }

    /// Runs one request of the timed phase: its wall time is one latency
    /// sample, and its wall and CPU time add to the phase. Outputs are
    /// checked between requests, with the clock stopped.
    fn request<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        self.cpu.start();
        let t = Instant::now();
        let out = f(self);
        let wall = t.elapsed().as_secs_f64();
        self.cpu.stop();
        self.phase.wall += wall;
        self.latencies.push(wall);
        out
    }

    /// `acspec_cfront::compile_c` plus the sort check.
    fn compile_c(&mut self, text: &str) -> Program {
        self.count("parse.bytes", text.len() as f64);
        self.span("cfront.parse", || {
            let p = acspec_cfront::compile_c(text).expect("generated C compiles");
            acspec_ir::typecheck::check_program(&p).expect("generated C is well-sorted");
            p
        })
    }

    /// `acspec_ir::parse::parse_program` plus the sort check.
    fn parse_ir(&mut self, text: &str) -> Program {
        self.count("parse.bytes", text.len() as f64);
        self.span("ir.parse", || {
            let p = acspec_ir::parse::parse_program(text).expect("generated program parses");
            acspec_ir::typecheck::check_program(&p).expect("generated program is well-sorted");
            p
        })
    }

    /// `ProgramAnalysis::run` over every procedure with a body; stage time
    /// is read from the observer stream.
    fn analyse(&mut self, program: &Program) -> Vec<ProcOutcome> {
        let analysis = self.settings.analysis(program, self.threads);
        match &mut self.layers {
            Some(layers) => {
                let outcomes = analysis.run(layers);
                for pa in outcomes.iter().filter_map(ProcOutcome::analysis) {
                    layers.absorb_reports(pa);
                }
                outcomes
            }
            None => analysis.run(&mut NullObserver),
        }
    }

    /// Renders the program report a user would read.
    fn render<'o>(&mut self, outcomes: impl Iterator<Item = &'o ProcOutcome>) {
        let mut reports: Vec<&ProcReport> = Vec::new();
        let mut incidents = Vec::new();
        for o in outcomes {
            match o {
                ProcOutcome::Analyzed(pa) => {
                    reports.push(&pa.cons);
                    reports.extend(pa.reports.iter().flatten());
                }
                ProcOutcome::Faulted(i) => incidents.push(i.clone()),
            }
        }
        let json = self.span("core.report", || program_report_json(&reports, &incidents));
        self.count("core.report.bytes", std::hint::black_box(json).len() as f64);
    }

    /// Tallies one procedure outcome of the timed phase: faulted, or
    /// checked by the invariants plus `extra`.
    fn judge(
        &mut self,
        outcome: &mut ProcOutcome,
        input: &str,
        extra: impl FnOnce(&ProcAnalysis) -> Result<(), String>,
    ) {
        self.tally.attempted += 1;
        let pa = match outcome {
            ProcOutcome::Analyzed(pa) => pa,
            ProcOutcome::Faulted(incident) => {
                self.tally.failed += 1;
                self.tally.fail(format!("{input}: faulted: {incident}"));
                return;
            }
        };
        if self.corrupt {
            if let Some(r) = pa.reports.iter_mut().flatten().next() {
                r.warnings.push(Warning {
                    assert: AssertId(u32::MAX),
                    tag: "corrupted@0".into(),
                    witness: None,
                });
                self.corrupt = false;
            }
        }
        if !pa.timed_out() {
            self.tally.decided += 1;
        }
        if let Err(e) = check::invariants(pa).and_then(|()| extra(pa)) {
            self.tally.failed += 1;
            self.tally.fail(format!("{input}: {e}"));
        }
    }

    fn finish(self, setup: Vec<f64>, digest: Digest) -> Run {
        Run {
            setup,
            phase: Phase {
                cpu: self.cpu.seconds(),
                ..self.phase
            },
            latencies: self.latencies,
            tally: self.tally,
            digest: digest.hex(),
            layers: self.layers,
        }
    }
}

fn fingerprint(o: &ProcOutcome) -> String {
    match o {
        ProcOutcome::Analyzed(pa) => check::fingerprint(pa),
        ProcOutcome::Faulted(i) => format!("{} faulted\n", i.proc_name),
    }
}

/// Runs one workload in one mode.
pub fn run(plan: &Plan, settings: &Settings, mode: Mode) -> Run {
    match plan.workload {
        Workload::Drivers => drivers(plan, settings, mode),
        Workload::Tail => tail(plan, settings, mode),
        Workload::Rerun => rerun(plan, settings, mode),
    }
}

/// `drivers`: the fig8 Large suite (Drv1–Drv7, Lib1) regenerated from
/// the seed, one fresh suite per pass; a request analyses and renders
/// one whole program.
fn drivers(plan: &Plan, settings: &Settings, mode: Mode) -> Run {
    let (scale, mut passes) = if plan.tiny {
        (16, 1)
    } else {
        let passes = (plan.seconds as f64 / DRIVERS_PASS_S).round() as usize;
        (DRIVERS_SCALE, passes.max(1))
    };
    if mode != Mode::Measure {
        passes = (passes / 2).max(1);
    }
    let suites: Vec<Vec<gen::Source>> = (0..passes)
        .map(|p| {
            gen::suite(
                &[SuiteKind::Large],
                Some(gen::derive(plan.seed, p as u64)),
                scale,
            )
        })
        .collect();
    let first_pass = suites[0].len();
    let mut r = Runner::new(settings, mode, plan);
    let reps = if mode == Mode::Measure {
        DRIVERS_SETUP
    } else {
        (1, 1)
    };
    let (programs, setup) = r.setup(reps, |r| {
        suites
            .iter()
            .flatten()
            .map(|s| r.compile_c(&s.text))
            .collect::<Vec<Program>>()
    });
    let mut digest = Digest::default();
    for (i, program) in programs.iter().enumerate() {
        let mut outcomes = r.request(|r| {
            let outcomes = r.analyse(program);
            r.render(outcomes.iter());
            outcomes
        });
        let lattice = check::program_lattice(outcomes.iter().filter_map(ProcOutcome::analysis));
        for o in &mut outcomes {
            if i < first_pass {
                digest.update(&fingerprint(o));
            }
            let lattice = lattice.clone();
            r.judge(o, &suites[i / first_pass][i % first_pass].name, |_| lattice);
        }
    }
    r.finish(setup, digest)
}

/// `tail`: the population of one-procedure programs (generator seeds
/// `0..150`) in a seed-shuffled order; a request parses, analyses and
/// renders one program, as a user checking one function would.
fn tail(plan: &Plan, settings: &Settings, mode: Mode) -> Run {
    let n = if plan.tiny { 12 } else { TAIL_POPULATION };
    let texts: Vec<String> = (0..n as u64).map(gen::det_program).collect();
    let mut order: Vec<usize> = (0..n).collect();
    gen::shuffle(&mut order, &mut StdRng::seed_from_u64(plan.seed));
    let mut r = Runner::new(settings, mode, plan);
    let (reps, parses) = if mode == Mode::Measure {
        (TAIL_SETUP, TAIL_SETUP_PARSES)
    } else {
        ((1, 1), 1)
    };
    let (programs, setup) = r.setup(reps, |r| {
        let mut programs = Vec::new();
        for _ in 0..parses {
            programs = texts.iter().map(|t| r.parse_ir(t)).collect();
        }
        programs
    });
    let setup: Vec<f64> = setup.iter().map(|s| s / parses as f64).collect();
    // The oracle runs before the timed phase and outside every timing.
    let truths: Vec<Result<Truth, String>> =
        programs.iter().map(check::proposition1_truth).collect();
    drop(programs);
    let mut prints: Vec<String> = vec![String::new(); n];
    for &i in &order {
        let mut outcomes = r.request(|r| {
            let program = r.parse_ir(&texts[i]);
            let outcomes = r.analyse(&program);
            r.render(outcomes.iter());
            outcomes
        });
        for o in &mut outcomes {
            prints[i].push_str(&fingerprint(o));
            let truth = truths[i].clone();
            r.judge(o, &format!("tail program {i}"), |pa| {
                check::proposition1(pa, truth?)
            });
        }
    }
    let mut digest = Digest::default();
    for p in &prints {
        digest.update(p);
    }
    r.finish(setup, digest)
}

/// A fresh store directory under the working directory, removed again
/// when dropped.
struct FreshStore {
    dir: PathBuf,
    session: StoreSession,
}

impl FreshStore {
    fn new() -> FreshStore {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = PathBuf::from(".acbench-store").join(format!(
            "{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let session = StoreSession::open(&dir).expect("store directory can be created");
        FreshStore { dir, session }
    }
}

impl Drop for FreshStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        // Leave no empty parent behind either (fails harmlessly while
        // another store still lives there).
        let _ = std::fs::remove_dir(".acbench-store");
    }
}

impl Runner<'_> {
    /// One program against the store. Returns every outcome in procedure
    /// order, with whether it came from the store.
    ///
    /// An end-to-end run takes the program's own store path. The traced
    /// run and its reference take the benchmark's copy of that path, so
    /// that each call can be timed from outside: fingerprint and fetch
    /// every procedure, analyse the misses (only their bodies kept), save
    /// each fresh analysis. The copy fingerprints and fetches serially
    /// and computes the options digest once, where the program does both
    /// per procedure in its workers.
    fn store_request(&mut self, program: &Program, store: &FreshStore) -> Vec<(ProcOutcome, bool)> {
        if self.own_store {
            return self
                .settings
                .analysis(program, self.threads)
                .store(Some(&store.session))
                .run(&mut NullObserver)
                .into_iter()
                .map(|o| {
                    let hit = o.analysis().is_some_and(|pa| pa.from_store);
                    (o, hit)
                })
                .collect();
        }
        let defined: Vec<usize> = (0..program.procedures.len())
            .filter(|&i| program.procedures[i].body.is_some())
            .collect();
        let mut slots: Vec<Option<(ProcOutcome, bool)>> = Vec::with_capacity(defined.len());
        let mut misses: Vec<(usize, Option<String>)> = Vec::new();
        for &i in &defined {
            let proc = &program.procedures[i];
            let fp = self.span("core.fingerprint", || procedure_fingerprint(program, proc));
            let Ok(fp) = fp else {
                // Not cacheable; the analysis reports the real error.
                misses.push((slots.len(), None));
                slots.push(None);
                continue;
            };
            let key = entry_key(&fp, &self.settings.store_options);
            match self.span("store.fetch", || store.session.fetch(&key, &proc.name)) {
                StoreOutcome::Hit(pa) => {
                    self.count("store.hits", 1.0);
                    if self.layers.is_some() {
                        // Entries live at `<dir>/<key>.acse`.
                        let entry = store.dir.join(format!("{key}.acse"));
                        let bytes = std::fs::metadata(entry).map_or(0, |m| m.len());
                        self.count("store.bytes_read", bytes as f64);
                    }
                    slots.push(Some((ProcOutcome::Analyzed(pa), true)));
                }
                StoreOutcome::Miss | StoreOutcome::Corrupt(_) => {
                    self.count("store.misses", 1.0);
                    misses.push((slots.len(), Some(key)));
                    slots.push(None);
                }
            }
        }
        if !misses.is_empty() {
            let outcomes = if misses.len() == defined.len() {
                self.analyse(program)
            } else {
                let mut sub = program.clone();
                let keep: Vec<usize> = misses.iter().map(|&(slot, _)| defined[slot]).collect();
                for (i, p) in sub.procedures.iter_mut().enumerate() {
                    if !keep.contains(&i) {
                        p.body = None;
                    }
                }
                self.analyse(&sub)
            };
            for ((slot, key), outcome) in misses.into_iter().zip(outcomes) {
                if let (Some(key), Some(pa)) = (&key, outcome.analysis()) {
                    self.span("store.put", || store.session.put(key, pa));
                }
                slots[slot] = Some((outcome, false));
            }
        }
        slots
            .into_iter()
            .map(|s| s.expect("every procedure answered"))
            .collect()
    }
}

/// `rerun`: incremental re-analysis against a warm store. Set-up fills a
/// fresh store with a cold pass over the fig6 suite (SAMATE CWE476/CWE690
/// and the 7 small open benchmarks, from their committed seeds: the code
/// base stays fixed, so a round's cost depends on the edit alone); each
/// request then makes one seeded, unique, same-line edit to one
/// procedure, re-parses its program, re-runs it against the store and
/// renders its reports.
fn rerun(plan: &Plan, settings: &Settings, mode: Mode) -> Run {
    let scale = if plan.tiny { 16 } else { 1 };
    let sources = gen::suite(&[SuiteKind::Samate, SuiteKind::Small], None, scale);
    let mut rounds = if plan.tiny {
        50
    } else {
        (plan.seconds * RERUN_ROUNDS_PER_S) as usize
    };
    if mode != Mode::Measure && !plan.tiny {
        rounds /= 2;
    }
    // A stratified edit script: the programs take turns, and each edits
    // its procedures in a seeded round-robin, so which procedures are
    // edited (and so the cost of a round) hardly depends on the seed; the
    // seed draws the procedure orders and the edited lines. With
    // independent draws, p90 round latency jumped between about 35 and
    // 90 ms from seed to seed, as a few expensive procedures were drawn
    // more or less often.
    let mut rng = StdRng::seed_from_u64(gen::derive(plan.seed, EDIT_STREAM));
    let mut targets: Vec<Vec<(String, Vec<EditSite>)>> = Vec::new();
    for (i, s) in sources.iter().enumerate() {
        let mut by_proc: BTreeMap<String, Vec<EditSite>> = BTreeMap::new();
        for (site, func) in gen::edit_sites(i, &s.text) {
            by_proc.entry(func).or_default().push(site);
        }
        let mut procs: Vec<(String, Vec<EditSite>)> = by_proc.into_iter().collect();
        if !procs.is_empty() {
            gen::shuffle(&mut procs, &mut rng);
            targets.push(procs);
        }
    }
    let script: Vec<(EditSite, &str)> = (0..rounds)
        .map(|r| {
            let procs = &targets[r % targets.len()];
            let (func, sites) = &procs[(r / targets.len()) % procs.len()];
            (sites[rng.gen_range(0..sites.len())], func.as_str())
        })
        .collect();

    let mut r = Runner::new(settings, mode, plan);
    let reps = if mode == Mode::Measure {
        RERUN_SETUP
    } else {
        (1, 1)
    };
    let ((store, cold), setup) = r.setup(reps, |r| {
        let store = FreshStore::new();
        let programs: Vec<Program> = sources.iter().map(|s| r.compile_c(&s.text)).collect();
        // Fingerprint and decidedness of every procedure, by program.
        let mut cold: BTreeMap<(usize, String), (String, bool)> = BTreeMap::new();
        for (i, program) in programs.iter().enumerate() {
            let outcomes = r.store_request(program, &store);
            let lattice = check::program_lattice(outcomes.iter().filter_map(|(o, _)| o.analysis()));
            for (o, _) in outcomes {
                let print = fingerprint(&o);
                let verdict = match o.analysis() {
                    Some(pa) => check::invariants(pa).and_then(|()| lattice.clone()),
                    None => Err(print.clone()),
                };
                if let Err(e) = verdict {
                    r.tally.setup_failed += 1;
                    r.tally.fail(format!("cold pass: {e}"));
                }
                let decided = o.analysis().is_some_and(|pa| !pa.timed_out());
                cold.insert((i, o.proc_name().to_string()), (print, decided));
            }
        }
        (store, cold)
    });
    let mut digest = Digest::default();
    for (print, _) in cold.values() {
        digest.update(print);
    }

    for (round, (site, edited)) in script.iter().enumerate() {
        let text = gen::apply_edit(&sources[site.program].text, site.line, round as u64);
        let before = store.session.stats();
        let mut outcomes = r.request(|r| {
            let program = r.compile_c(&text);
            let outcomes = r.store_request(&program, &store);
            r.render(outcomes.iter().map(|(o, _)| o));
            outcomes
        });
        let after = store.session.stats();
        let (misses, saves) = (after.misses - before.misses, after.saves - before.saves);
        for (o, hit) in &mut outcomes {
            let name = o.proc_name().to_string();
            let expected = cold.get(&(site.program, name.clone()));
            if name == *edited {
                r.judge(o, &sources[site.program].name, |pa| {
                    if *hit || misses != 1 || saves != 1 {
                        Err(format!(
                            "{name}: round {round} edited it and made {misses} misses and \
                             {saves} saves, not 1 and 1"
                        ))
                    } else if !pa.timed_out()
                        && expected.is_some_and(|(_, decided)| *decided)
                        && Some(&check::fingerprint(pa)) != expected.map(|(p, _)| p)
                    {
                        Err(format!(
                            "{name}: an unused local changed its reports from the cold pass's"
                        ))
                    } else {
                        Ok(())
                    }
                });
            } else {
                r.judge(o, &sources[site.program].name, |pa| {
                    if *hit && Some(&check::fingerprint(pa)) == expected.map(|(p, _)| p) {
                        Ok(())
                    } else {
                        Err(format!(
                            "{name}: unedited, yet not the cold pass's store entry"
                        ))
                    }
                });
            }
        }
    }
    drop(store);
    r.finish(setup, digest)
}

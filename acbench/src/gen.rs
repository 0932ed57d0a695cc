//! Seeded input generators. Every workload input is a pure function of
//! the `--seed` argument; the analysis only ever sees generated source
//! text.

use acspec_benchgen::suite::{generate_entry, SuiteEntry, SuiteKind, SUITE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fisher–Yates shuffle driven by `rng`.
pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

/// Derives an independent sub-seed for stream `tag` of run seed `seed`.
pub fn derive(seed: u64, tag: u64) -> u64 {
    StdRng::seed_from_u64(seed ^ tag.wrapping_mul(0xd6e8_feb8_6659_fd93)).gen()
}

/// One generated program: a name and its source text.
#[derive(Debug, Clone)]
pub struct Source {
    pub name: String,
    pub text: String,
}

/// Program `seed` of the tail population: a random deterministic
/// one-procedure program over three integer inputs with 2–3 statements
/// drawn from `assert`, assignment, guarded `assert` and `if`/`else` (no
/// `havoc`, no `if (*)`, no calls), so its `wp` is a closed formula over
/// the inputs and Proposition 1 can be decided without the pipeline.
/// This is the generator of `acspec-core`'s Proposition 1 property test,
/// drawing from the same `StdRng` stream, with its statement count cut
/// from 2–5 to 2–3.
pub fn det_program(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let vars = ["x", "y", "z"];
    let mut stmts = Vec::new();
    let rel = |rng: &mut StdRng| -> String {
        let ops = ["==", "!=", "<", "<="];
        format!(
            "{} {} {}",
            vars[rng.gen_range(0..3)],
            ops[rng.gen_range(0..4)],
            rng.gen_range(-2..3)
        )
    };
    for _ in 0..rng.gen_range(2..4) {
        match rng.gen_range(0..4) {
            0 => stmts.push(format!("assert {};", rel(&mut rng))),
            1 => stmts.push(format!(
                "{} := {} + {};",
                vars[rng.gen_range(0..3)],
                vars[rng.gen_range(0..3)],
                rng.gen_range(-2..3)
            )),
            2 => {
                let c = rel(&mut rng);
                let inner = format!("assert {};", rel(&mut rng));
                stmts.push(format!("if ({c}) {{ {inner} }}"));
            }
            _ => {
                let c = rel(&mut rng);
                let a = format!("{} := 0;", vars[rng.gen_range(0..3)]);
                let b = format!("assert {};", rel(&mut rng));
                stmts.push(format!("if ({c}) {{ {a} }} else {{ {b} }}"));
            }
        }
    }
    format!(
        "procedure f(x: int, y: int, z: int) {{ {} }}",
        stmts.join("\n")
    )
}

/// The suite entries of the given kinds, generated from their committed
/// seeds (`reseed = None`, the suite `repro` reports on) or each from a
/// sub-seed of `reseed` (same names, sizes and pattern mixes; different
/// code).
pub fn suite(kinds: &[SuiteKind], reseed: Option<u64>, scale: usize) -> Vec<Source> {
    SUITE
        .iter()
        .filter(|e| kinds.contains(&e.kind))
        .map(|e| {
            let entry = SuiteEntry {
                seed: reseed.map_or(e.seed, |seed| derive(seed, e.seed)),
                ..*e
            };
            Source {
                name: e.name.to_string(),
                text: generate_entry(&entry, scale).source,
            }
        })
        .collect()
}

/// A line of generated C that can take one more statement after it
/// without changing any other line: a plain simple statement inside a
/// function body (no control flow, labels, `break` or `return` on the
/// line, which the C front end's `switch` arms are strict about).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EditSite {
    /// Index of the program in its suite.
    pub program: usize,
    /// 0-based line index in the program's source.
    pub line: usize,
}

/// Every edit site of `text` (program index `program`), with the
/// function each lies in.
pub fn edit_sites(program: usize, text: &str) -> Vec<(EditSite, String)> {
    const SKIP: &[&str] = &[
        "return", "break", "case", "default", "for", "while", "do", "if", "else", "switch",
        "continue", "}", "{",
    ];
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut func = String::new();
    for (i, line) in text.lines().enumerate() {
        let t = line.trim();
        if depth == 0 && t.ends_with('{') && t.contains('(') {
            func = t[..t.find('(').expect("checked")]
                .split_whitespace()
                .last()
                .unwrap_or("")
                .trim_start_matches('*')
                .to_string();
        } else if depth > 0
            && t.ends_with(';')
            && !t.contains(['{', '}'])
            && !SKIP.iter().any(|k| {
                t.split(|c: char| !c.is_alphanumeric() && c != '_')
                    .any(|w| w == *k)
            })
        {
            out.push((EditSite { program, line: i }, func.clone()));
        }
        depth += t.matches('{').count() as i32 - t.matches('}').count() as i32;
    }
    out
}

/// Applies edit number `n` at `line`: a fresh local declared at the end
/// of the line. Line numbers (and hence warning tags) elsewhere are
/// unchanged; the edited function's body, and so its fingerprint, is
/// new.
pub fn apply_edit(text: &str, line: usize, n: u64) -> String {
    let mut out = String::with_capacity(text.len() + 32);
    for (i, l) in text.lines().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(l);
        if i == line {
            out.push_str(&format!(" int acb_edit_{n} = {};", n % 1000));
        }
    }
    out
}

//! The programs the workloads serve: seeded variants of the paper's
//! MIXWELL and LAZY interpreters' static inputs, and grammar recognizers.

use std::collections::HashMap;

use two4one::{interpret, reader, Datum, Division, GenExt, Pgg, BT};
use two4one_langs::{self as langs, grammar};
use two4one_testkit::Rng;

use crate::stream::run_sizes;
use crate::trace::span;

/// One of the paper's two interpreters (Sec. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Lang {
    Mixwell,
    Lazy,
}

impl Lang {
    /// Every language, in discriminant order (`ALL[l as usize] == l`).
    pub const ALL: [Lang; 2] = [Lang::Mixwell, Lang::Lazy];

    /// The name the interpreter is registered under.
    pub fn name(self) -> &'static str {
        match self {
            Lang::Mixwell => "mixwell",
            Lang::Lazy => "lazy",
        }
    }

    pub fn interp_src(self) -> &'static str {
        match self {
            Lang::Mixwell => langs::MIXWELL_INTERP,
            Lang::Lazy => langs::LAZY_INTERP,
        }
    }

    pub fn entry(self) -> &'static str {
        match self {
            Lang::Mixwell => "mixwell-run",
            Lang::Lazy => "lazy-run",
        }
    }

    /// The PGG configured with the interpreter's unfold/memoize policies.
    pub fn pgg(self) -> Pgg {
        let policies = match self {
            Lang::Mixwell => langs::mixwell_policies(),
            Lang::Lazy => langs::lazy_policies(),
        };
        policies
            .iter()
            .fold(Pgg::new(), |p, (n, pol)| p.policy(n, *pol))
    }

    /// The generating extension under the compilation division
    /// (interpreted program static, its input dynamic): front end and
    /// binding-time analysis, each in its own span.
    pub fn genext(self) -> GenExt {
        let pgg = self.pgg();
        let program = span("frontend.parse", || pgg.parse(self.interp_src())).expect("parse");
        let division = Division::new([BT::Static, BT::Dynamic]);
        span("bta.cogen", || pgg.cogen(&program, self.entry(), &division)).expect("cogen")
    }

    /// The static input: the interpreted program with `bias` added to
    /// every element of its generated stream (a live constant that changes
    /// the result), plus a function `main` never calls that carries
    /// `salt`. The salt makes every variant a distinct cache key while the
    /// specializer does the same work for it, and the result depends only
    /// on `bias` and the dynamic input.
    pub fn program(self, bias: i64, salt: u64) -> Datum {
        let text = match self {
            Lang::Mixwell => langs::MIXWELL_PROGRAM
                .replace("(cons (* i i)", &format!("(cons (+ (* i i) {bias})")),
            Lang::Lazy => langs::LAZY_PROGRAM.replace(
                "(cons (* (car s) (car s))",
                &format!("(cons (+ (* (car s) (car s)) {bias})"),
            ),
        };
        let body = text
            .trim_end()
            .strip_suffix(')')
            .expect("program text is one list");
        let text = format!("{body}\n (ledger-salt (x) (+ x {salt})))");
        reader::read_one(&text).expect("variant program reads")
    }

    /// The dynamic argument list for a run of size `size`.
    pub fn input(self, size: i64) -> Datum {
        match self {
            Lang::Mixwell => Datum::list([Datum::Int(size)]),
            Lang::Lazy => Datum::list([Datum::Int(3), Datum::Int(size)]),
        }
    }
}

/// The reference result of every `(language, live constant, input size)`
/// a cold or wire request can draw, for live constants `0..biases`. It
/// comes from `interpret` (the interp crate), which is independent of pe,
/// compiler and vm, and runs on a thread of its own whose deep stack is
/// gone when it returns.
pub fn oracle(biases: i64) -> HashMap<(Lang, i64, i64), Datum> {
    two4one::with_stack(move || {
        let mut out = HashMap::new();
        for lang in Lang::ALL {
            let interp = lang
                .pgg()
                .parse(lang.interp_src())
                .expect("parse interpreter");
            for bias in 0..biases {
                let program = lang.program(bias, 0);
                let (lo, hi) = run_sizes(lang);
                for size in lo..hi {
                    let run = interpret(&interp, lang.entry(), &[program.clone(), lang.input(size)])
                        .expect("oracle run");
                    out.insert((lang, bias, size), run.value);
                }
            }
        }
        out
    })
}

/// The structure of a grammar recognizer, which is what word generation
/// needs to know to build accepted and rejected inputs.
#[derive(Debug, Clone)]
pub enum Shape {
    /// `((word (star letter) END) (letter (alt L...)))`: a run of letters
    /// that must end in `end`.
    Prefix { letters: Vec<char>, end: char },
    /// `((word (plus (alt v0 ...))) (v0 x0) ...)`: a decision chain taken
    /// on every character.
    Alt { letters: Vec<char> },
    /// `((word (star inner) C) (inner (star A) B))`: interleaved stars.
    Nest { a: char, b: char, c: char },
}

/// A grammar in the catalog.
#[derive(Debug, Clone)]
pub struct GrammarSpec {
    pub name: String,
    pub text: String,
    pub shape: Shape,
}

impl Shape {
    pub fn text(&self) -> String {
        let list = |cs: &[char]| cs.iter().map(char::to_string).collect::<Vec<_>>().join(" ");
        match self {
            Shape::Prefix { letters, end } => {
                format!(
                    "((word (star letter) {end}) (letter (alt {})))",
                    list(letters)
                )
            }
            Shape::Alt { letters } => {
                let vs: Vec<String> = (0..letters.len()).map(|i| format!("v{i}")).collect();
                let rules: Vec<String> = letters
                    .iter()
                    .enumerate()
                    .map(|(i, c)| format!("(v{i} {c})"))
                    .collect();
                format!("((word (plus (alt {}))) {})", vs.join(" "), rules.join(" "))
            }
            Shape::Nest { a, b, c } => format!("((word (star inner) {c}) (inner (star {a}) {b}))"),
        }
    }

    /// A word of about `len` characters that the grammar accepts
    /// (`accept`) or rejects on its last character.
    pub fn word(&self, rng: &mut Rng, len: usize, accept: bool) -> String {
        let mut w = String::with_capacity(len + 8);
        match self {
            Shape::Prefix { letters, end } => {
                while w.len() < len {
                    w.push(*rng.pick(letters));
                }
                w.push(if accept { *end } else { letters[0] });
            }
            Shape::Alt { letters } => {
                while w.len() < len.max(1) {
                    w.push(*rng.pick(letters));
                }
                if !accept {
                    w.push('9');
                }
            }
            Shape::Nest { a, b, c } => {
                while w.len() < len {
                    for _ in 0..rng.below(4) {
                        w.push(*a);
                    }
                    w.push(*b);
                }
                w.push(if accept { *c } else { *a });
            }
        }
        w
    }
}

/// Seeded grammars per shape in the catalog.
const SEEDED_PER_SHAPE: usize = 5;

/// The adversarial suite of the grammar workload family (its texts, with
/// the shapes that generate words for them), plus seeded grammars of each
/// shape. Seeded grammars keep each family's size and draw the terminals,
/// so their cost per character matches the family on every seed.
pub fn grammars(rng: &mut Rng) -> Vec<GrammarSpec> {
    let letters = |rng: &mut Rng, n: usize| -> Vec<char> {
        let mut pool: Vec<char> = ('a'..='y').collect();
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(pool.remove(rng.index(pool.len())));
        }
        out
    };
    let mut out = Vec::new();
    for (name, text, _, _) in grammar::adversarial_suite() {
        let shape = match name {
            "long-prefix" => Shape::Prefix {
                letters: ('a'..='h').collect(),
                end: '0',
            },
            "deep-alt" => Shape::Alt {
                letters: ('a'..='j').collect(),
            },
            "star-nest" => Shape::Nest {
                a: 'a',
                b: 'b',
                c: 'c',
            },
            other => panic!("adversarial grammar `{other}` has no word shape"),
        };
        out.push(GrammarSpec {
            name: format!("g-{name}"),
            text: text.to_string(),
            shape,
        });
    }
    for i in 0..SEEDED_PER_SHAPE {
        let abc = letters(rng, 3);
        let seeded = [
            Shape::Prefix {
                letters: letters(rng, 8),
                end: char::from(b'0' + rng.below(9) as u8),
            },
            Shape::Alt {
                letters: letters(rng, 10),
            },
            Shape::Nest {
                a: abc[0],
                b: abc[1],
                c: abc[2],
            },
        ];
        for (j, shape) in seeded.into_iter().enumerate() {
            out.push(GrammarSpec {
                name: format!("g-seeded-{i}-{j}"),
                text: shape.text(),
                shape,
            });
        }
    }
    out
}

/// The PGG configured with the grammar matcher's policies.
pub fn grammar_pgg() -> Pgg {
    grammar::grammar_policies()
        .iter()
        .fold(Pgg::new(), |p, (n, pol)| p.policy(n, *pol))
}

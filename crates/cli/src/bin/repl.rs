//! A read-eval-print loop driven by the byte-code pipeline.
//!
//! Sec. 9 of the paper observes that languages "like ML, Scheme, or
//! Smalltalk have a read-eval-print loop that accepts function definitions
//! that are compiled and the code is immediately available for execution.
//! Hence, they are essentially online compilers." This binary is that
//! point on the RTCG spectrum for this system: every definition you type
//! is compiled to VM templates on the spot, and expressions run against
//! the accumulated image.
//!
//! ```text
//! cargo run -p two4one-cli --bin repl
//! ```
//!
//! Commands:
//!
//! * `(define (f x) …)` — add/replace a definition (compiled immediately);
//! * any other form — evaluate it and print the result;
//! * `,defs` — list current definitions;
//! * `,dis f` — disassemble a definition;
//! * `,spec f S D …` — specialize `f` under the given division (then enter
//!   the static arguments on the next line) and install the residual
//!   definitions. `f`'s generating extension is staged to bytecode and
//!   run on the gen-ext machine (`,stats` counts the build and the run);
//! * `,redefine (define (f …) …)` — replace `f` as a new *generation*:
//!   every residual definition previously derived from `f` by `,spec` is
//!   dropped (specialized code is only valid relative to the exact source
//!   it came from), and `f`'s redefinition epoch is bumped. A plain
//!   `(define …)` of the same name keeps the stale residuals and warns;
//! * `,programs` — list definitions with their redefinition epochs and
//!   what was derived from them;
//! * `,stats` — print the process metrics page (Prometheus text): phase
//!   latency histograms and specializer counters for everything this
//!   session has compiled, run, or specialized;
//! * `,quit` — exit.

use std::io::Write as _;
use two4one::{compile, reader, with_stack, Datum, Division, Machine, Pgg, Symbol, BT};

fn main() {
    with_stack(|| {
        let mut repl = Repl::new();
        loop {
            print!("two4one> ");
            std::io::stdout().flush().ok();
            let Some(line) = read_line() else { break };
            if !repl.handle(&line) {
                break;
            }
        }
    });
}

fn read_line() -> Option<String> {
    let mut line = String::new();
    match std::io::stdin().read_line(&mut line) {
        Ok(0) | Err(_) => None,
        Ok(_) => Some(line),
    }
}

struct Repl {
    /// Definition source text, by name (kept as text so redefinition and
    /// re-analysis stay trivial).
    defs: Vec<(Symbol, String)>,
    /// Derivation backedges: residual definitions installed by `,spec`,
    /// each pointing at the source function it was specialized from.
    /// `,redefine` of that source drops exactly these.
    derived: Vec<(Symbol, Symbol)>,
    /// Redefinition epoch per user-defined function (starts at 1).
    epochs: Vec<(Symbol, u64)>,
    counter: u64,
}

impl Repl {
    fn new() -> Self {
        Repl {
            defs: Vec::new(),
            derived: Vec::new(),
            epochs: Vec::new(),
            counter: 0,
        }
    }

    fn epoch_of(&self, name: &Symbol) -> u64 {
        self.epochs
            .iter()
            .find(|(n, _)| n == name)
            .map_or(1, |(_, e)| *e)
    }

    fn bump_epoch(&mut self, name: Symbol) -> u64 {
        match self.epochs.iter_mut().find(|(n, _)| *n == name) {
            Some((_, e)) => {
                *e += 1;
                *e
            }
            None => {
                self.epochs.push((name, 2));
                2
            }
        }
    }

    fn program_text(&self) -> String {
        self.defs
            .iter()
            .map(|(_, src)| src.as_str())
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Returns `false` to quit.
    fn handle(&mut self, line: &str) -> bool {
        let line = line.trim();
        if line.is_empty() {
            return true;
        }
        if line == ",quit" {
            return false;
        }
        if line == ",stats" {
            print!("{}", two4one::obs::global().snapshot().to_prometheus());
            return true;
        }
        if line == ",defs" {
            for (name, _) in &self.defs {
                println!("  {name}");
            }
            return true;
        }
        if line == ",programs" {
            for (name, _) in &self.defs {
                let from: Vec<String> = self
                    .derived
                    .iter()
                    .filter(|(residual, _)| residual == name)
                    .map(|(_, source)| source.to_string())
                    .collect();
                if from.is_empty() {
                    println!("  {name} (epoch {})", self.epoch_of(name));
                } else {
                    println!("  {name} (derived from {})", from.join(" "));
                }
            }
            return true;
        }
        if let Some(rest) = line.strip_prefix(",redefine ") {
            self.redefine(rest.trim());
            return true;
        }
        if let Some(rest) = line.strip_prefix(",dis ") {
            self.disassemble(rest.trim());
            return true;
        }
        if let Some(rest) = line.strip_prefix(",spec ") {
            self.specialize(rest.trim());
            return true;
        }
        match reader::read_one(line) {
            Err(e) => println!("read error: {e}"),
            Ok(d) => {
                if d.as_form("define").is_some() {
                    self.add_define(line, &d);
                } else {
                    self.eval(&d);
                }
            }
        }
        true
    }

    fn define_name(d: &Datum) -> Option<Symbol> {
        let parts = d.as_form("define")?;
        match parts.first()? {
            Datum::Pair(_) => parts[0].car()?.as_sym().cloned(),
            Datum::Sym(s) => Some(*s),
            _ => None,
        }
    }

    fn add_define(&mut self, src: &str, d: &Datum) -> bool {
        let Some(name) = Self::define_name(d) else {
            println!("malformed definition");
            return false;
        };
        let stale: Vec<String> = self
            .derived
            .iter()
            .filter(|(_, source)| *source == name)
            .map(|(residual, _)| residual.to_string())
            .collect();
        self.defs.retain(|(n, _)| n != &name);
        self.defs.push((name, src.to_string()));
        // A hand-typed definition is user-authored, whatever its history.
        self.derived.retain(|(residual, _)| residual != &name);
        // Compile eagerly so errors surface now — the "online compiler".
        match Pgg::new()
            .parse(&self.program_text())
            .and_then(|p| compile(&p, name.as_str()))
        {
            Ok(image) => {
                println!(
                    ";; compiled `{name}` ({} instructions total)",
                    image.code_size()
                );
                if !stale.is_empty() {
                    println!(
                        ";; note: {} residual definition(s) derived from `{name}` \
                         are now stale ({}); use ,redefine to drop them",
                        stale.len(),
                        stale.join(" ")
                    );
                }
                true
            }
            Err(e) => {
                println!("error: {e}");
                self.defs.retain(|(n, _)| n != &name);
                false
            }
        }
    }

    /// `,redefine (define (f …) …)` — a new *generation* of `f`: residual
    /// definitions derived from the old source are invalid by
    /// construction, so they are dropped before the replacement is
    /// installed, and the function's epoch is bumped.
    fn redefine(&mut self, form: &str) {
        let d = match reader::read_one(form) {
            Ok(d) => d,
            Err(e) => {
                println!("read error: {e}");
                return;
            }
        };
        if d.as_form("define").is_none() {
            println!("usage: ,redefine (define (f ...) ...)");
            return;
        }
        let Some(name) = Self::define_name(&d) else {
            println!("malformed definition");
            return;
        };
        if !self.defs.iter().any(|(n, _)| n == &name) {
            println!(";; `{name}` was not yet defined; installing it fresh");
            self.add_define(form, &d);
            return;
        }
        let dropped: Vec<Symbol> = self
            .derived
            .iter()
            .filter(|(_, source)| *source == name)
            .map(|(residual, _)| *residual)
            .collect();
        self.defs.retain(|(n, _)| !dropped.contains(n));
        self.derived
            .retain(|(residual, source)| *source != name && !dropped.contains(residual));
        if self.add_define(form, &d) {
            let epoch = self.bump_epoch(name);
            let names: Vec<String> = dropped.iter().map(Symbol::to_string).collect();
            if names.is_empty() {
                println!(";; redefined `{name}` (epoch {epoch})");
            } else {
                println!(
                    ";; redefined `{name}` (epoch {epoch}, dropped {} derived \
                     residual definition(s): {})",
                    names.len(),
                    names.join(" ")
                );
            }
        }
    }

    fn eval(&mut self, expr: &Datum) {
        self.counter += 1;
        let entry = format!("repl-eval-{}", self.counter);
        let src = format!("{}\n(define ({entry}) {expr})", self.program_text());
        let result = Pgg::new()
            .parse(&src)
            .and_then(|p| compile(&p, &entry))
            .and_then(|image| {
                let mut m = Machine::load(&image);
                m.call_global(&Symbol::new(&entry), vec![])
                    .map(|v| (format!("{v:?}"), m.output))
                    .map_err(two4one::Error::from)
            });
        match result {
            Ok((value, output)) => {
                print!("{output}");
                println!("{value}");
            }
            Err(e) => println!("error: {e}"),
        }
    }

    fn disassemble(&self, name: &str) {
        match Pgg::new()
            .parse(&self.program_text())
            .and_then(|p| compile(&p, name))
        {
            Ok(image) => match image.template(&Symbol::new(name)) {
                Some(t) => println!("{}", t.disassemble()),
                None => println!("no definition `{name}`"),
            },
            Err(e) => println!("error: {e}"),
        }
    }

    /// Parses `<fn> <S|D>…` and prompts for the static arguments — the
    /// front half of `,spec`.
    fn read_spec_request(&self, spec: &str) -> Option<(String, Division, Vec<Datum>)> {
        let mut parts = spec.split_whitespace();
        let Some(name) = parts.next() else {
            println!("usage: ,spec <fn> <S|D> ...");
            return None;
        };
        let mut division = Vec::new();
        for p in parts {
            match p {
                "S" | "s" => division.push(BT::Static),
                "D" | "d" => division.push(BT::Dynamic),
                other => {
                    println!("bad binding time `{other}` (use S or D)");
                    return None;
                }
            }
        }
        let n_static = division.iter().filter(|b| **b == BT::Static).count();
        println!("enter {n_static} static argument(s) on one line:");
        let line = read_line()?;
        match reader::read_all(&line) {
            Ok(statics) => Some((name.to_string(), Division::new(division), statics)),
            Err(e) => {
                println!("read error: {e}");
                None
            }
        }
    }

    /// Installs the residual definitions (the entry keeps its name), each
    /// recorded as derived from the specialized source so `,redefine` of
    /// that source can drop them.
    fn install_residual(&mut self, source: Symbol, residual: &two4one::AnfProgram) {
        println!(";; residual program:");
        println!("{}", residual.to_source());
        for (i, d) in residual.to_cs().to_data().iter().enumerate() {
            let src = d.to_string();
            if let Some(n) = Self::define_name(d) {
                self.defs.retain(|(existing, _)| existing != &n);
                self.defs.push((n, src));
                self.derived.retain(|(residual, _)| residual != &n);
                if n != source {
                    self.derived.push((n, source));
                }
            } else if i == 0 {
                println!(";; (could not install entry definition)");
            }
        }
        println!(";; installed {} definitions", residual.defs.len());
    }

    fn specialize(&mut self, spec: &str) {
        // ,spec f S D …  — division letters for each parameter.
        let Some((name, division, statics)) = self.read_spec_request(spec) else {
            return;
        };
        let result = Pgg::new()
            .parse(&self.program_text())
            .and_then(|p| Pgg::new().cogen(&p, &name, &division))
            .and_then(|g| g.specialize_source_optimized(&statics));
        match result {
            Ok(residual) => self.install_residual(Symbol::new(&name), &residual),
            Err(e) => println!("error: {e}"),
        }
    }
}

//! Pretty printer for s-expressions, tuned for residual Scheme programs.
//!
//! [`Datum`]'s `Display` prints a flat single-line form; [`pretty`] produces
//! indented multi-line output that keeps `define`/`lambda`/`let`/`if` bodies
//! readable, which matters when inspecting residual programs produced by the
//! specializer.

use crate::datum::Datum;
use std::fmt::Write as _;

/// Default line width used by [`pretty`].
pub const DEFAULT_WIDTH: usize = 78;

/// Pretty-prints a datum to at most `width` columns where possible.
///
/// # Example
///
/// ```
/// use two4one_syntax::reader::read_one;
/// use two4one_syntax::printer::pretty;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let d = read_one("(define (f x) (if (< x 1) 0 (f (- x 1))))")?;
/// let s = pretty(&d, 20);
/// assert!(s.contains('\n'));
/// assert_eq!(read_one(&s)?, d);
/// # Ok(())
/// # }
/// ```
pub fn pretty(d: &Datum, width: usize) -> String {
    let mut out = String::new();
    write_datum(&mut out, d, 0, width);
    out
}

/// Pretty-prints a whole program (sequence of top-level data) with blank
/// lines between forms.
pub fn pretty_program(ds: &[Datum], width: usize) -> String {
    let mut out = String::new();
    for (i, d) in ds.iter().enumerate() {
        if i > 0 {
            out.push_str("\n\n");
        }
        write_datum(&mut out, d, 0, width);
    }
    out.push('\n');
    out
}

/// How many operands of a form belong on the head line (the rest are body
/// forms indented by two spaces). `None` means generic list layout.
fn special_head_count(head: &str) -> Option<usize> {
    match head {
        "define" | "lambda" | "let" | "let*" | "letrec" | "when" | "unless" => Some(1),
        "if" => Some(1),
        "cond" | "case" | "begin" | "and" | "or" => Some(0),
        _ => None,
    }
}

/// A sink that refuses to grow past `room` bytes, so rendering a datum
/// into it stops as soon as the datum is known not to fit.
struct Bounded {
    text: String,
    room: usize,
}

impl std::fmt::Write for Bounded {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        if self.text.len() + s.len() > self.room {
            return Err(std::fmt::Error);
        }
        self.text.push_str(s);
        Ok(())
    }
}

/// The flat rendering of `d` if it fits in `room` bytes. Costs at most
/// `room` bytes of rendering however large `d` is, so deciding the fit at
/// every nesting level stays linear in the output.
fn flat_within(d: &Datum, room: usize) -> Option<String> {
    let mut sink = Bounded {
        text: String::new(),
        room,
    };
    write!(sink, "{d}").ok()?;
    Some(sink.text)
}

fn write_datum(out: &mut String, d: &Datum, indent: usize, width: usize) {
    if !d.is_pair() {
        let _ = write!(out, "{d}");
        return;
    }
    if let Some(flat) = width
        .checked_sub(indent)
        .and_then(|room| flat_within(d, room))
    {
        out.push_str(&flat);
        return;
    }
    // A list too wide to fit: break it.
    let items: Vec<&Datum> = d.iter().collect();
    let proper = {
        let mut it = d.iter();
        for _ in it.by_ref() {}
        it.tail().is_nil()
    };
    if !proper || items.is_empty() {
        let _ = write!(out, "{d}");
        return;
    }
    let head_sym = items[0].as_sym().map(|s| s.as_str().to_string());
    let special = head_sym.as_deref().and_then(special_head_count);

    out.push('(');
    let inner = indent + 2;
    match special {
        Some(n_on_head) => {
            // Head plus its first n operands on the first line.
            let mut first_line = items[0].to_string();
            for it in items.iter().take(1 + n_on_head).skip(1) {
                first_line.push(' ');
                first_line.push_str(&it.to_string());
            }
            out.push_str(&first_line);
            for item in items.iter().skip(1 + n_on_head) {
                out.push('\n');
                out.push_str(&" ".repeat(inner));
                write_datum(out, item, inner, width);
            }
        }
        None => {
            // Generic: head on first line, args aligned under it.
            let head = items[0].to_string();
            out.push_str(&head);
            let arg_indent = inner;
            for item in items.iter().skip(1) {
                out.push('\n');
                out.push_str(&" ".repeat(arg_indent));
                write_datum(out, item, arg_indent, width);
            }
        }
    }
    out.push(')');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::read_one;

    #[test]
    fn small_data_stay_flat() {
        let d = read_one("(+ 1 2)").unwrap();
        assert_eq!(pretty(&d, 78), "(+ 1 2)");
    }

    #[test]
    fn wide_forms_break_and_reparse() {
        let src = "(define (loop i acc) (if (= i 0) acc (loop (- i 1) (* acc i))))";
        let d = read_one(src).unwrap();
        let s = pretty(&d, 24);
        assert!(s.lines().count() > 1);
        assert_eq!(read_one(&s).unwrap(), d);
    }

    #[test]
    fn program_layout_reparses() {
        let srcs = ["(define (f x) x)", "(define (g y) (f (f y)))"];
        let ds: Vec<_> = srcs.iter().map(|s| read_one(s).unwrap()).collect();
        let text = pretty_program(&ds, 30);
        let back = crate::reader::read_all(&text).unwrap();
        assert_eq!(back, ds);
    }

    #[test]
    fn improper_tails_survive() {
        let d = read_one("(a b . c)").unwrap();
        assert_eq!(read_one(&pretty(&d, 2)).unwrap(), d);
    }

    #[test]
    fn deep_nests_print_and_read_back() {
        // Thousands of levels: deciding each level's fit renders at most a
        // line's worth of the subtree below it, not the whole subtree.
        crate::stack::with_stack(|| {
            let depth = 4_000;
            let mut src = String::new();
            for i in 0..depth {
                src.push_str(&format!("(let ((t{i} (f x))) "));
            }
            src.push('x');
            src.push_str(&")".repeat(depth));
            let d = read_one(&src).unwrap();
            let text = pretty(&d, DEFAULT_WIDTH);
            assert_eq!(text.lines().count(), depth + 1);
            assert_eq!(read_one(&text).unwrap(), d);
        });
    }
}

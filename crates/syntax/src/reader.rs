//! The s-expression reader: source text → [`Datum`].
//!
//! Supports the syntax the paper's system consumes: proper and dotted lists,
//! exact integers, booleans (`#t`/`#f`), characters (`#\c`, `#\space`,
//! `#\newline`, `#\tab`), strings with escapes, `'`/`` ` ``/`,`/`,@` sugar,
//! line comments (`;`), nested block comments (`#| ... |#`), and datum
//! comments (`#;`).

use crate::datum::Datum;
use crate::limits::{LimitExceeded, LimitKind, Limits};
use crate::symbol::Symbol;
use std::fmt;

/// Position in the source text (1-based line and column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pos {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub col: u32,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Errors produced by the reader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadError {
    /// What went wrong.
    pub kind: ReadErrorKind,
    /// Where it went wrong.
    pub pos: Pos,
}

/// The specific reader failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadErrorKind {
    /// Input ended inside a datum.
    UnexpectedEof,
    /// A `)` with no matching `(`.
    UnbalancedClose,
    /// `.` used outside a dotted-pair position.
    MisplacedDot,
    /// A `#...` sequence the reader does not know.
    BadHash(String),
    /// A string literal ended without a closing quote.
    UnterminatedString,
    /// An unknown string escape like `\q`.
    BadEscape(char),
    /// An integer literal out of `i64` range.
    IntOverflow(String),
    /// Leftover text after the requested single datum.
    TrailingData,
    /// A resource cap was hit ([`Limits::input_node_cap`] /
    /// [`Limits::input_depth_cap`]).
    Limit(LimitExceeded),
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match &self.kind {
            ReadErrorKind::UnexpectedEof => "unexpected end of input".to_string(),
            ReadErrorKind::UnbalancedClose => "unbalanced `)`".to_string(),
            ReadErrorKind::MisplacedDot => "misplaced `.`".to_string(),
            ReadErrorKind::BadHash(s) => format!("unknown `#` syntax `#{s}`"),
            ReadErrorKind::UnterminatedString => "unterminated string literal".to_string(),
            ReadErrorKind::BadEscape(c) => format!("unknown string escape `\\{c}`"),
            ReadErrorKind::IntOverflow(s) => format!("integer literal `{s}` overflows"),
            ReadErrorKind::TrailingData => "trailing data after datum".to_string(),
            ReadErrorKind::Limit(l) => l.to_string(),
        };
        write!(f, "read error at {}: {}", self.pos, msg)
    }
}

impl std::error::Error for ReadError {}

/// Reads every datum in `src`.
///
/// # Errors
///
/// Returns a [`ReadError`] on malformed input.
///
/// # Example
///
/// ```
/// use two4one_syntax::reader::read_all;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ds = read_all("(a b) 42 ; comment\n'x")?;
/// assert_eq!(ds.len(), 3);
/// assert_eq!(ds[2].to_string(), "'x");
/// # Ok(())
/// # }
/// ```
pub fn read_all(src: &str) -> Result<Vec<Datum>, ReadError> {
    read_all_with(src, &Limits::none())
}

/// Like [`read_all`], but enforcing the reader caps of `limits`
/// ([`Limits::input_node_cap`] and [`Limits::input_depth_cap`]) so
/// adversarial input cannot exhaust memory or the Rust stack.
///
/// # Errors
///
/// Returns a [`ReadError`] on malformed or over-limit input.
pub fn read_all_with(src: &str, limits: &Limits) -> Result<Vec<Datum>, ReadError> {
    let mut r = Reader::new(src, limits);
    let mut out = Vec::new();
    loop {
        r.skip_atmosphere()?;
        if r.at_eof() {
            return Ok(out);
        }
        out.push(r.read_datum()?);
    }
}

/// Reads exactly one datum; trailing non-whitespace is an error.
///
/// # Errors
///
/// Returns a [`ReadError`] on malformed input or trailing data.
pub fn read_one(src: &str) -> Result<Datum, ReadError> {
    read_one_with(src, &Limits::none())
}

/// Like [`read_one`], but enforcing the reader caps of `limits`.
///
/// # Errors
///
/// Returns a [`ReadError`] on malformed, trailing, or over-limit input.
pub fn read_one_with(src: &str, limits: &Limits) -> Result<Datum, ReadError> {
    let mut r = Reader::new(src, limits);
    r.skip_atmosphere()?;
    let d = r.read_datum()?;
    r.skip_atmosphere()?;
    if r.at_eof() {
        Ok(d)
    } else {
        Err(r.err(ReadErrorKind::TrailingData))
    }
}

struct Reader<'a> {
    chars: Vec<char>,
    src: &'a str,
    idx: usize,
    line: u32,
    col: u32,
    /// Datum nodes constructed so far.
    nodes: usize,
    /// Current recursion depth of `read_datum`.
    depth: usize,
    node_cap: Option<usize>,
    depth_cap: Option<usize>,
    /// Scratch text of the atom, string or character name being read:
    /// one buffer for the whole read, since none of them nests.
    text: String,
    /// The items of every list being read, innermost last: a list owns
    /// the stack above the height it found on entry and pops back to it.
    items: Vec<Datum>,
}

impl<'a> Reader<'a> {
    fn new(src: &'a str, limits: &Limits) -> Self {
        Reader {
            chars: src.chars().collect(),
            src,
            idx: 0,
            line: 1,
            col: 1,
            nodes: 0,
            depth: 0,
            node_cap: limits.input_node_cap,
            depth_cap: limits.input_depth_cap,
            text: String::new(),
            items: Vec::new(),
        }
    }

    fn pos(&self) -> Pos {
        Pos {
            line: self.line,
            col: self.col,
        }
    }

    fn err(&self, kind: ReadErrorKind) -> ReadError {
        ReadError {
            kind,
            pos: self.pos(),
        }
    }

    fn at_eof(&self) -> bool {
        self.idx >= self.chars.len()
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.idx).copied()
    }

    fn peek2(&self) -> Option<char> {
        self.chars.get(self.idx + 1).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.idx += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    /// Skips whitespace and all comment forms.
    fn skip_atmosphere(&mut self) -> Result<(), ReadError> {
        loop {
            match self.peek() {
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                Some(';') => {
                    while let Some(c) = self.bump() {
                        if c == '\n' {
                            break;
                        }
                    }
                }
                Some('#') if self.peek2() == Some('|') => {
                    self.bump();
                    self.bump();
                    let mut depth = 1usize;
                    loop {
                        match (self.peek(), self.peek2()) {
                            (Some('|'), Some('#')) => {
                                self.bump();
                                self.bump();
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            (Some('#'), Some('|')) => {
                                self.bump();
                                self.bump();
                                depth += 1;
                            }
                            (Some(_), _) => {
                                self.bump();
                            }
                            (None, _) => return Err(self.err(ReadErrorKind::UnexpectedEof)),
                        }
                    }
                }
                Some('#') if self.peek2() == Some(';') => {
                    self.bump();
                    self.bump();
                    self.skip_atmosphere()?;
                    // Read and discard one datum.
                    self.read_datum()?;
                }
                _ => return Ok(()),
            }
        }
    }

    /// Guarded entry: accounts one node and one nesting level, then
    /// dispatches. All recursive descent goes through here, so the caps
    /// bound both total allocation and Rust stack depth.
    fn read_datum(&mut self) -> Result<Datum, ReadError> {
        self.nodes += 1;
        if let Some(cap) = self.node_cap {
            if self.nodes > cap {
                return Err(self.err(ReadErrorKind::Limit(LimitExceeded::new(
                    LimitKind::InputNodes,
                    cap as u64,
                ))));
            }
        }
        self.depth += 1;
        if let Some(cap) = self.depth_cap {
            if self.depth > cap {
                return Err(self.err(ReadErrorKind::Limit(LimitExceeded::new(
                    LimitKind::InputDepth,
                    cap as u64,
                ))));
            }
        }
        let d = self.read_datum_inner();
        self.depth -= 1;
        d
    }

    fn read_datum_inner(&mut self) -> Result<Datum, ReadError> {
        self.skip_atmosphere()?;
        let c = self
            .peek()
            .ok_or_else(|| self.err(ReadErrorKind::UnexpectedEof))?;
        match c {
            '(' | '[' => {
                self.bump();
                self.read_list(if c == '(' { ')' } else { ']' })
            }
            ')' | ']' => Err(self.err(ReadErrorKind::UnbalancedClose)),
            '\'' => {
                self.bump();
                let d = self.read_datum()?;
                Ok(Datum::list([Datum::sym("quote"), d]))
            }
            '`' => {
                self.bump();
                let d = self.read_datum()?;
                Ok(Datum::list([Datum::sym("quasiquote"), d]))
            }
            ',' => {
                self.bump();
                if self.peek() == Some('@') {
                    self.bump();
                    let d = self.read_datum()?;
                    Ok(Datum::list([Datum::sym("unquote-splicing"), d]))
                } else {
                    let d = self.read_datum()?;
                    Ok(Datum::list([Datum::sym("unquote"), d]))
                }
            }
            '"' => self.read_string(),
            '#' => self.read_hash(),
            _ => self.read_atom(),
        }
    }

    fn read_list(&mut self, close: char) -> Result<Datum, ReadError> {
        let base = self.items.len();
        let mut tail = Datum::Nil;
        loop {
            self.skip_atmosphere()?;
            match self.peek() {
                None => return Err(self.err(ReadErrorKind::UnexpectedEof)),
                Some(c) if c == close => {
                    self.bump();
                    break;
                }
                Some(')') | Some(']') => return Err(self.err(ReadErrorKind::UnbalancedClose)),
                Some('.') if self.dot_is_standalone() => {
                    if self.items.len() == base {
                        return Err(self.err(ReadErrorKind::MisplacedDot));
                    }
                    self.bump();
                    tail = self.read_datum()?;
                    self.skip_atmosphere()?;
                    match self.peek() {
                        Some(c) if c == close => {
                            self.bump();
                            break;
                        }
                        _ => return Err(self.err(ReadErrorKind::MisplacedDot)),
                    }
                }
                Some(_) => {
                    let item = self.read_datum()?;
                    self.items.push(item);
                }
            }
        }
        Ok(self
            .items
            .drain(base..)
            .rev()
            .fold(tail, |acc, d| Datum::cons(d, acc)))
    }

    fn dot_is_standalone(&self) -> bool {
        match self.peek2() {
            None => true,
            Some(c) => {
                c.is_whitespace() || c == '(' || c == ')' || c == '[' || c == ']' || c == ';'
            }
        }
    }

    fn read_string(&mut self) -> Result<Datum, ReadError> {
        self.bump(); // opening quote
        self.text.clear();
        loop {
            match self.bump() {
                None => return Err(self.err(ReadErrorKind::UnterminatedString)),
                Some('"') => return Ok(Datum::string(&self.text)),
                Some('\\') => match self.bump() {
                    None => return Err(self.err(ReadErrorKind::UnterminatedString)),
                    Some('n') => self.text.push('\n'),
                    Some('t') => self.text.push('\t'),
                    Some('\\') => self.text.push('\\'),
                    Some('"') => self.text.push('"'),
                    Some(c) => return Err(self.err(ReadErrorKind::BadEscape(c))),
                },
                Some(c) => self.text.push(c),
            }
        }
    }

    fn read_hash(&mut self) -> Result<Datum, ReadError> {
        self.bump(); // '#'
        match self.peek() {
            Some('t') => {
                self.bump();
                Ok(Datum::Bool(true))
            }
            Some('f') => {
                self.bump();
                Ok(Datum::Bool(false))
            }
            Some('\\') => {
                self.bump();
                // Named characters or a single char.
                self.text.clear();
                match self.bump() {
                    None => return Err(self.err(ReadErrorKind::UnexpectedEof)),
                    Some(c) => self.text.push(c),
                }
                while let Some(c) = self.peek() {
                    if c.is_alphanumeric() || c == '-' {
                        self.text.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
                let c = match self.text.as_str() {
                    "space" => ' ',
                    "newline" => '\n',
                    "tab" => '\t',
                    s => {
                        let mut cs = s.chars();
                        match (cs.next(), cs.next()) {
                            (Some(c), None) => c,
                            _ => return Err(self.err(ReadErrorKind::BadHash(format!("\\{s}")))),
                        }
                    }
                };
                Ok(Datum::Char(c))
            }
            Some(c) => Err(self.err(ReadErrorKind::BadHash(c.to_string()))),
            None => Err(self.err(ReadErrorKind::UnexpectedEof)),
        }
    }

    fn read_atom(&mut self) -> Result<Datum, ReadError> {
        let start = self.idx;
        while let Some(c) = self.peek() {
            if c.is_whitespace() || "()[];\"'`,".contains(c) {
                break;
            }
            self.bump();
        }
        self.text.clear();
        self.text.extend(&self.chars[start..self.idx]);
        let text = &self.text;
        debug_assert!(!text.is_empty(), "atom at {} in {:?}", start, self.src);
        // Integer?
        let looks_numeric = {
            let mut cs = text.chars();
            match cs.next() {
                Some('+') | Some('-') => cs.clone().next().is_some_and(|c| c.is_ascii_digit()),
                Some(c) => c.is_ascii_digit(),
                None => false,
            }
        };
        if looks_numeric {
            return text
                .parse::<i64>()
                .map(Datum::Int)
                .map_err(|_| self.err(ReadErrorKind::IntOverflow(text.clone())));
        }
        Ok(Datum::Sym(Symbol::new(text)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(src: &str) -> Datum {
        read_one(src).expect("read")
    }

    #[test]
    fn atoms() {
        assert_eq!(ok("42"), Datum::Int(42));
        assert_eq!(ok("-7"), Datum::Int(-7));
        assert_eq!(ok("+7"), Datum::Int(7));
        assert_eq!(ok("#t"), Datum::Bool(true));
        assert_eq!(ok("#f"), Datum::Bool(false));
        assert_eq!(ok("foo"), Datum::sym("foo"));
        assert_eq!(ok("+"), Datum::sym("+"));
        assert_eq!(ok("-"), Datum::sym("-"));
        assert_eq!(ok("list->vector"), Datum::sym("list->vector"));
        assert_eq!(ok("#\\a"), Datum::Char('a'));
        assert_eq!(ok("#\\space"), Datum::Char(' '));
        assert_eq!(ok("#\\newline"), Datum::Char('\n'));
        assert_eq!(ok("\"hi\\n\""), Datum::string("hi\n"));
    }

    #[test]
    fn lists_and_dots() {
        assert_eq!(ok("()"), Datum::Nil);
        assert_eq!(ok("(1 2 3)").list_len(), Some(3));
        assert_eq!(ok("(1 . 2)"), Datum::cons(Datum::Int(1), Datum::Int(2)));
        assert_eq!(
            ok("(1 2 . 3)"),
            Datum::cons(Datum::Int(1), Datum::cons(Datum::Int(2), Datum::Int(3)))
        );
        assert_eq!(ok("[a b]").list_len(), Some(2));
    }

    #[test]
    fn sugar() {
        assert_eq!(ok("'x").to_string(), "'x");
        assert_eq!(ok("`(a ,b ,@c)").to_string(), "`(a ,b ,@c)");
    }

    #[test]
    fn comments() {
        assert_eq!(ok("; hi\n 42"), Datum::Int(42));
        assert_eq!(ok("#| block #| nested |# |# 42"), Datum::Int(42));
        assert_eq!(ok("#;(ignored me) 42"), Datum::Int(42));
        let all = read_all("1 ; c\n2").unwrap();
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn errors_have_positions() {
        let e = read_one("(1 2").unwrap_err();
        assert_eq!(e.kind, ReadErrorKind::UnexpectedEof);
        let e = read_one(")").unwrap_err();
        assert_eq!(e.kind, ReadErrorKind::UnbalancedClose);
        let e = read_one("(. 2)").unwrap_err();
        assert_eq!(e.kind, ReadErrorKind::MisplacedDot);
        let e = read_one("\"abc").unwrap_err();
        assert_eq!(e.kind, ReadErrorKind::UnterminatedString);
        let e = read_one("99999999999999999999").unwrap_err();
        assert!(matches!(e.kind, ReadErrorKind::IntOverflow(_)));
        let e = read_one("1 2").unwrap_err();
        assert_eq!(e.kind, ReadErrorKind::TrailingData);
        let e = read_one("(a\nb").unwrap_err();
        assert_eq!(e.pos.line, 2);
        // After atoms and a string have used the scratch text, an error
        // still carries its own literal and position.
        let e = read_one("(ab \"c\" 99999999999999999999 d)").unwrap_err();
        assert_eq!(
            e.kind,
            ReadErrorKind::IntOverflow("99999999999999999999".into())
        );
        assert_eq!((e.pos.line, e.pos.col), (1, 29));
    }

    #[test]
    fn node_cap_stops_large_input() {
        let src = "(1 2 3 4 5 6 7 8 9 10)";
        assert!(read_one_with(src, &Limits::none().with_input_node_cap(1000)).is_ok());
        let e = read_one_with(src, &Limits::none().with_input_node_cap(4)).unwrap_err();
        match e.kind {
            ReadErrorKind::Limit(l) => assert_eq!(l.kind, LimitKind::InputNodes),
            k => panic!("expected node-cap limit, got {k:?}"),
        }
    }

    #[test]
    fn depth_cap_stops_deep_nesting() {
        let deep = format!("{}42{}", "(".repeat(200), ")".repeat(200));
        assert!(read_one_with(&deep, &Limits::none().with_input_depth_cap(1000)).is_ok());
        let e = read_one_with(&deep, &Limits::none().with_input_depth_cap(50)).unwrap_err();
        match e.kind {
            ReadErrorKind::Limit(l) => assert_eq!(l.kind, LimitKind::InputDepth),
            k => panic!("expected depth-cap limit, got {k:?}"),
        }
        // Flat width is not depth: a long flat list passes a small depth cap.
        let flat = format!("({})", "x ".repeat(200));
        assert!(read_one_with(&flat, &Limits::none().with_input_depth_cap(50)).is_ok());
    }

    #[test]
    fn dot_in_symbols_is_fine() {
        assert_eq!(ok("a.b"), Datum::sym("a.b"));
        assert_eq!(ok("..."), Datum::sym("..."));
    }

    #[test]
    fn roundtrip_display_then_read() {
        for src in [
            "(define (f x) (+ x 1))",
            "'(1 #t #\\a \"s\" (nested . pair))",
            "`(a ,(+ 1 2) ,@xs)",
        ] {
            let d = ok(src);
            let d2 = ok(&d.to_string());
            assert_eq!(d, d2, "roundtrip failed for {src}");
        }
    }
}

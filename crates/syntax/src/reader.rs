//! The s-expression reader: source text → [`Datum`], or → the data's
//! canonical bytes ([`codec`]).
//!
//! Supports the syntax the paper's system consumes: proper and dotted lists,
//! exact integers, booleans (`#t`/`#f`), characters (`#\c`, `#\space`,
//! `#\newline`, `#\tab`), strings with escapes, `'`/`` ` ``/`,`/`,@` sugar,
//! line comments (`;`), nested block comments (`#| ... |#`), and datum
//! comments (`#;`).
//!
//! One reader serves both outputs. It keeps the data under way on an
//! explicit stack, so nesting costs heap rather than Rust stack and the
//! depth cap bounds memory, not the thread a read runs on. It writes what
//! it reads to a sink: [`read_all_with`] builds data, [`scan_all_with`]
//! writes their bytes without interning a symbol or allocating a pair,
//! which is all the serving layer needs to key a request by its statics.

use crate::codec;
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
/// adversarial input cannot exhaust memory.
///
/// # Errors
///
/// Returns a [`ReadError`] on malformed or over-limit input.
pub fn read_all_with(src: &str, limits: &Limits) -> Result<Vec<Datum>, ReadError> {
    let mut out = Data::default();
    Reader::new(src, limits).all(&mut out)?;
    Ok(out.items)
}

/// The reader's second output: the canonical bytes ([`codec`]) of every
/// datum in `src`, in turn, written as they are read instead of built. No
/// symbol is interned and no pair allocated. The bytes are
/// [`codec::encode_data`] of what [`read_all_with`] returns, and an input
/// [`read_all_with`] refuses fails here with the same error at the same
/// position.
///
/// # Errors
///
/// Returns a [`ReadError`] on malformed or over-limit input.
///
/// # Example
///
/// ```
/// use two4one_syntax::{codec, reader};
/// use two4one_syntax::limits::Limits;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let text = "(a \"b\" . 3) #\\c";
/// let bytes = reader::scan_all_with(text, &Limits::default())?;
/// assert_eq!(bytes, codec::encode_data(&reader::read_all(text)?));
/// # Ok(())
/// # }
/// ```
pub fn scan_all_with(src: &str, limits: &Limits) -> Result<Vec<u8>, ReadError> {
    let mut out = Bytes(Vec::with_capacity(2 * src.len()));
    Reader::new(src, limits).all(&mut out)?;
    Ok(out.0)
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
    let mut out = Data::default();
    r.run(&mut out, Step::Skip(Then::One))?;
    r.run(&mut out, Step::Skip(Then::End))?;
    out.items
        .pop()
        .ok_or_else(|| r.err(ReadErrorKind::UnexpectedEof))
}

/// An atom as the reader hands it to a [`Sink`].
enum Atom<'s> {
    Bool(bool),
    Int(i64),
    Char(char),
    Str(&'s str),
    Sym(&'s str),
}

/// What the reader writes as it reads: the data themselves ([`Data`]) or
/// their canonical bytes ([`Bytes`]). A list arrives as `open`, then
/// `elem` before each element, then `close`, or `close_dotted` after a
/// dotted tail; quote sugar arrives as the two-element list it stands for.
trait Sink {
    fn atom(&mut self, a: Atom<'_>);
    fn open(&mut self);
    fn elem(&mut self);
    fn close(&mut self);
    fn close_dotted(&mut self);
    /// The output's length, for [`Sink::discard`] to cut back to.
    fn mark(&self) -> usize;
    /// Drops what was written since `mark`: a datum comment's datum.
    fn discard(&mut self, mark: usize);
}

/// Builds data: every finished datum is pushed on `items`, and a list
/// folds the items above the height it recorded at `open`.
#[derive(Default)]
struct Data {
    items: Vec<Datum>,
    opens: Vec<usize>,
}

impl Data {
    fn fold(&mut self, tail: Datum) {
        let base = self.opens.pop().unwrap_or_default();
        let list = self
            .items
            .drain(base..)
            .rev()
            .fold(tail, |acc, d| Datum::cons(d, acc));
        self.items.push(list);
    }
}

impl Sink for Data {
    fn atom(&mut self, a: Atom<'_>) {
        self.items.push(match a {
            Atom::Bool(b) => Datum::Bool(b),
            Atom::Int(n) => Datum::Int(n),
            Atom::Char(c) => Datum::Char(c),
            Atom::Str(s) => Datum::string(s),
            Atom::Sym(s) => Datum::Sym(Symbol::new(s)),
        });
    }

    fn open(&mut self) {
        self.opens.push(self.items.len());
    }

    fn elem(&mut self) {}

    fn close(&mut self) {
        self.fold(Datum::Nil);
    }

    fn close_dotted(&mut self) {
        let tail = self.items.pop().unwrap_or(Datum::Nil);
        self.fold(tail);
    }

    fn mark(&self) -> usize {
        self.items.len()
    }

    fn discard(&mut self, mark: usize) {
        self.items.truncate(mark);
    }
}

/// Writes canonical bytes: a pair tag before each list element and a nil
/// tag at a proper list's end, so a list's bytes are its pairs' in
/// pre-order.
struct Bytes(Vec<u8>);

impl Sink for Bytes {
    fn atom(&mut self, a: Atom<'_>) {
        let out = &mut self.0;
        match a {
            Atom::Bool(b) => codec::put_bool(out, b),
            Atom::Int(n) => codec::put_int(out, n),
            Atom::Char(c) => codec::put_char(out, c),
            Atom::Str(s) => codec::put_string(out, s),
            Atom::Sym(s) => codec::put_symbol(out, s),
        }
    }

    fn open(&mut self) {}

    fn elem(&mut self) {
        self.0.push(codec::PAIR);
    }

    fn close(&mut self) {
        self.0.push(codec::NIL);
    }

    fn close_dotted(&mut self) {}

    fn mark(&self) -> usize {
        self.0.len()
    }

    fn discard(&mut self, mark: usize) {
        self.0.truncate(mark);
    }
}

/// What the reader does once it has skipped the atmosphere in front of a
/// datum or a delimiter.
#[derive(Clone, Copy)]
enum Then {
    /// Read the next top-level datum, or stop at the end of the input.
    Next,
    /// Read one datum, even at the end of the input.
    One,
    /// Expect the end of the input.
    End,
    /// Start the datum a datum comment discards.
    Comment,
    /// Read the datum just entered, by its first character.
    Dispatch,
    /// Read the next item of a list closed by `close`, its dotted tail or
    /// its end; `first` until an item has been read.
    Items { close: char, first: bool },
    /// Expect the `close` after a dotted tail.
    Close { close: char },
}

/// Where a datum under way goes once it is read: the reader's explicit
/// stack holds one per datum being read, innermost last, so nesting costs
/// heap, never Rust stack.
enum Cont {
    /// A top-level datum: the run ends.
    Top,
    /// An item of a list closed by `close`.
    Item { close: char },
    /// The dotted tail of a list closed by `close`.
    Tail { close: char },
    /// The argument of quote sugar.
    Sugar,
    /// The datum of a datum comment: cut the output back to `mark`, then
    /// go on skipping and do `then`.
    Comment { mark: usize, then: Then },
}

/// One step of the reader's loop.
enum Step {
    /// Count a new datum against the caps, then skip to it.
    Enter,
    /// Skip atmosphere, then do what the `Then` says.
    Skip(Then),
    /// The innermost datum under way is read.
    Done,
}

struct Reader<'a> {
    src: &'a str,
    /// Byte offset of the next character.
    idx: usize,
    line: u32,
    col: u32,
    /// Data entered so far.
    nodes: usize,
    /// Data under way.
    depth: usize,
    node_cap: Option<usize>,
    depth_cap: Option<usize>,
    /// Scratch text of the string or character name being read: one
    /// buffer for the whole read, since neither nests.
    text: String,
    /// The explicit stack of data under way.
    stack: Vec<Cont>,
}

impl<'a> Reader<'a> {
    fn new(src: &'a str, limits: &Limits) -> Self {
        Reader {
            src,
            idx: 0,
            line: 1,
            col: 1,
            nodes: 0,
            depth: 0,
            node_cap: limits.input_node_cap,
            depth_cap: limits.input_depth_cap,
            text: String::new(),
            stack: Vec::new(),
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
        self.idx >= self.src.len()
    }

    fn char_at(&self, i: usize) -> Option<char> {
        let b = *self.src.as_bytes().get(i)?;
        if b.is_ascii() {
            Some(char::from(b))
        } else {
            self.src.get(i..)?.chars().next()
        }
    }

    fn peek(&self) -> Option<char> {
        self.char_at(self.idx)
    }

    fn peek2(&self) -> Option<char> {
        let c = self.peek()?;
        self.char_at(self.idx + c.len_utf8())
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.idx += c.len_utf8();
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    /// Reads every datum up to the end of the input into `out`.
    fn all(&mut self, out: &mut impl Sink) -> Result<(), ReadError> {
        while self.run(out, Step::Skip(Then::Next))? {}
        Ok(())
    }

    /// Runs the reader from `step` until it has read a top-level datum
    /// (`true`) or met the end of the input where `Then::Next` or
    /// `Then::End` allows it (`false`).
    fn run(&mut self, out: &mut impl Sink, mut step: Step) -> Result<bool, ReadError> {
        loop {
            step = match step {
                Step::Enter => self.enter()?,
                Step::Skip(then) => {
                    if self.skip_atmosphere()? {
                        // `#;`: read the datum it discards, then go on.
                        self.stack.push(Cont::Comment {
                            mark: out.mark(),
                            then,
                        });
                        Step::Skip(Then::Comment)
                    } else {
                        match then {
                            Then::Next if self.at_eof() => return Ok(false),
                            Then::Next | Then::One => {
                                self.stack.push(Cont::Top);
                                Step::Enter
                            }
                            Then::End if self.at_eof() => return Ok(false),
                            Then::End => return Err(self.err(ReadErrorKind::TrailingData)),
                            Then::Comment => Step::Enter,
                            Then::Dispatch => self.dispatch(out)?,
                            Then::Items { close, first } => self.item(out, close, first)?,
                            Then::Close { close } => match self.peek() {
                                Some(c) if c == close => {
                                    self.bump();
                                    out.close_dotted();
                                    Step::Done
                                }
                                _ => return Err(self.err(ReadErrorKind::MisplacedDot)),
                            },
                        }
                    }
                }
                Step::Done => {
                    self.depth -= 1;
                    match self.stack.pop() {
                        None | Some(Cont::Top) => return Ok(true),
                        Some(Cont::Item { close }) => Step::Skip(Then::Items {
                            close,
                            first: false,
                        }),
                        Some(Cont::Tail { close }) => Step::Skip(Then::Close { close }),
                        Some(Cont::Sugar) => {
                            out.close();
                            Step::Done
                        }
                        Some(Cont::Comment { mark, then }) => {
                            out.discard(mark);
                            Step::Skip(then)
                        }
                    }
                }
            };
        }
    }

    /// Accounts one node and one nesting level for the datum about to be
    /// read: the caps bound both what a read allocates and how deep its
    /// stack of data under way grows.
    fn enter(&mut self) -> Result<Step, ReadError> {
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
        Ok(Step::Skip(Then::Dispatch))
    }

    /// Skips whitespace and comments. Returns `true` right after a `#;`,
    /// whose datum the caller reads and discards before skipping on.
    fn skip_atmosphere(&mut self) -> Result<bool, ReadError> {
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
                    return Ok(true);
                }
                _ => return Ok(false),
            }
        }
    }

    /// Reads the datum just entered, by its first character: an atom is
    /// read whole, a list or quote sugar opens and enters its first datum.
    fn dispatch(&mut self, out: &mut impl Sink) -> Result<Step, ReadError> {
        let c = self
            .peek()
            .ok_or_else(|| self.err(ReadErrorKind::UnexpectedEof))?;
        match c {
            '(' | '[' => {
                self.bump();
                out.open();
                let close = if c == '(' { ')' } else { ']' };
                return Ok(Step::Skip(Then::Items { close, first: true }));
            }
            ')' | ']' => return Err(self.err(ReadErrorKind::UnbalancedClose)),
            '\'' | '`' | ',' => {
                self.bump();
                let head = match c {
                    '\'' => "quote",
                    '`' => "quasiquote",
                    _ if self.peek() == Some('@') => {
                        self.bump();
                        "unquote-splicing"
                    }
                    _ => "unquote",
                };
                out.open();
                out.elem();
                out.atom(Atom::Sym(head));
                out.elem();
                self.stack.push(Cont::Sugar);
                return Ok(Step::Enter);
            }
            _ => self.atom(out, c)?,
        }
        Ok(Step::Done)
    }

    /// Reads the atom that starts with `c`.
    fn atom(&mut self, out: &mut impl Sink, c: char) -> Result<(), ReadError> {
        match c {
            '"' => self.read_string(out),
            '#' => self.read_hash(out),
            _ => self.read_atom(out),
        }
    }

    /// After the atmosphere inside a list: its end, its dotted tail, or
    /// its next item.
    fn item(&mut self, out: &mut impl Sink, close: char, first: bool) -> Result<Step, ReadError> {
        match self.peek() {
            None => Err(self.err(ReadErrorKind::UnexpectedEof)),
            Some(c) if c == close => {
                self.bump();
                out.close();
                Ok(Step::Done)
            }
            Some(')') | Some(']') => Err(self.err(ReadErrorKind::UnbalancedClose)),
            Some('.') if self.dot_is_standalone() => {
                if first {
                    return Err(self.err(ReadErrorKind::MisplacedDot));
                }
                self.bump();
                self.stack.push(Cont::Tail { close });
                Ok(Step::Enter)
            }
            Some('(' | '[' | '\'' | '`' | ',') => {
                self.stack.push(Cont::Item { close });
                out.elem();
                Ok(Step::Enter)
            }
            Some(c) => {
                // An atom item is entered, read and done in one step,
                // with the checks and positions of the general path.
                out.elem();
                self.enter()?;
                self.atom(out, c)?;
                self.depth -= 1;
                Ok(Step::Skip(Then::Items {
                    close,
                    first: false,
                }))
            }
        }
    }

    fn dot_is_standalone(&self) -> bool {
        match self.peek2() {
            None => true,
            Some(c) => {
                c.is_whitespace() || c == '(' || c == ')' || c == '[' || c == ']' || c == ';'
            }
        }
    }

    fn read_string(&mut self, out: &mut impl Sink) -> Result<(), ReadError> {
        self.bump(); // opening quote
        self.text.clear();
        loop {
            match self.bump() {
                None => return Err(self.err(ReadErrorKind::UnterminatedString)),
                Some('"') => {
                    out.atom(Atom::Str(&self.text));
                    return Ok(());
                }
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

    fn read_hash(&mut self, out: &mut impl Sink) -> Result<(), ReadError> {
        self.bump(); // '#'
        match self.peek() {
            Some('t') => {
                self.bump();
                out.atom(Atom::Bool(true));
            }
            Some('f') => {
                self.bump();
                out.atom(Atom::Bool(false));
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
                out.atom(Atom::Char(c));
            }
            Some(c) => return Err(self.err(ReadErrorKind::BadHash(c.to_string()))),
            None => return Err(self.err(ReadErrorKind::UnexpectedEof)),
        }
        Ok(())
    }

    fn read_atom(&mut self, out: &mut impl Sink) -> Result<(), ReadError> {
        let start = self.idx;
        while let Some(c) = self.peek() {
            if c.is_whitespace()
                || matches!(c, '(' | ')' | '[' | ']' | ';' | '"' | '\'' | '`' | ',')
            {
                break;
            }
            self.idx += c.len_utf8();
            self.col += 1;
        }
        let src = self.src;
        let text = src.get(start..self.idx).unwrap_or_default();
        debug_assert!(!text.is_empty(), "atom at {} in {:?}", start, src);
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
            let n = text
                .parse::<i64>()
                .map_err(|_| self.err(ReadErrorKind::IntOverflow(text.to_string())))?;
            out.atom(Atom::Int(n));
        } else {
            out.atom(Atom::Sym(text));
        }
        Ok(())
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
    fn nesting_costs_heap_not_stack() {
        // A 2 MiB thread, the default for a spawned thread, reads and
        // scans data nested to the default depth cap.
        let depth = Limits::default().input_depth_cap.expect("a depth cap");
        let lists = depth - 1;
        let text = format!("{}x{}", "(".repeat(lists), ")".repeat(lists));
        let read = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let bytes = scan_all_with(&text, &Limits::default()).map(|b| b.len());
                let data = read_all_with(&text, &Limits::default()).map(|d| d.len());
                let quoted = format!("{}x", "'".repeat(depth - 1));
                let sugar = read_one_with(&quoted, &Limits::default()).is_ok();
                (bytes, data, sugar)
            })
            .expect("spawn")
            .join()
            .expect("no stack overflow");
        assert_eq!(read, (Ok(2 * lists + 6), Ok(1), true));
    }

    #[test]
    fn datum_comments_discard_on_both_outputs() {
        for (src, want) in [
            ("#;#;a b c", "c"),
            ("(a #;(b c) d)", "(a d)"),
            ("(a . #;b c)", "(a . c)"),
            ("'#;x y", "'y"),
            ("(a #;b)", "(a)"),
        ] {
            let data = read_all(src).expect("read");
            assert_eq!(data.len(), 1, "{src}");
            assert_eq!(data[0].to_string(), want, "{src}");
            let bytes = scan_all_with(src, &Limits::none()).expect("scan");
            assert_eq!(bytes, codec::encode_data(&data), "{src}");
        }
        let many = format!("{}{}", "#;".repeat(50_000), "x ".repeat(50_001));
        assert_eq!(read_all(&many).map(|d| d.len()), Ok(1));
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

//! The reader and the printer agree on random data: reading the printed
//! text of a datum gives the datum back, and printing that gives the same
//! text again. The reader's node and depth caps fall exactly at the size
//! of what it reads. Its two outputs agree: the canonical bytes it scans
//! from a text (the serving layer's cache key for statics) are the
//! encoding of the data it reads from it, and decode back to them.

use two4one_syntax::codec;
use two4one_syntax::datum::Datum;
use two4one_syntax::limits::{LimitKind, Limits};
use two4one_syntax::reader::{read_all_with, read_one_with, scan_all_with, ReadErrorKind};
use two4one_testkit::{gen_datum, Rng};

/// The argument of `d` if the printer writes `d` as quote sugar.
fn sugar_arg(d: &Datum) -> Option<&Datum> {
    let head = d.car()?.as_sym()?;
    let sugared = matches!(
        head.as_str(),
        "quote" | "quasiquote" | "unquote" | "unquote-splicing"
    );
    if sugared && d.list_len() == Some(2) {
        d.cdr()?.car()
    } else {
        None
    }
}

/// The nodes and the nesting depth the reader counts for the printed text
/// of `d`: one node per datum it reads, including every quote-sugar form,
/// every list (`()` too) and every dotted tail.
fn reader_shape(d: &Datum) -> (usize, usize) {
    if let Some(arg) = sugar_arg(d) {
        let (nodes, depth) = reader_shape(arg);
        return (nodes + 1, depth + 1);
    }
    if !d.is_pair() {
        return (1, 1);
    }
    let (mut nodes, mut depth) = (1, 1);
    let mut items = d.iter();
    let mut add = |item: &Datum| {
        let (n, h) = reader_shape(item);
        nodes += n;
        depth = depth.max(h + 1);
    };
    for item in items.by_ref() {
        add(item);
    }
    if !items.tail().is_nil() {
        add(items.tail());
    }
    (nodes, depth)
}

/// Wraps `d` in `levels` random layers of one-element lists and quote
/// sugar.
fn bury(rng: &mut Rng, mut d: Datum, levels: usize) -> Datum {
    for _ in 0..levels {
        d = if rng.flip() {
            Datum::list([d])
        } else {
            Datum::list([Datum::sym("quasiquote"), d])
        };
    }
    d
}

fn limit_kind(text: &str, limits: &Limits) -> Option<LimitKind> {
    match read_one_with(text, limits) {
        Err(e) => match e.kind {
            ReadErrorKind::Limit(l) => Some(l.kind),
            _ => None,
        },
        Ok(_) => None,
    }
}

/// The 400 random data both properties run over; every eighth nests
/// deep, still under the reader's caps.
fn case(seed: u64) -> Datum {
    let mut rng = Rng::new(seed);
    let depth = 1 + rng.index(6);
    let d = gen_datum(&mut rng, depth);
    if seed.is_multiple_of(8) {
        let levels = 100 + rng.index(200);
        bury(&mut rng, d, levels)
    } else {
        d
    }
}

#[test]
fn printed_data_read_back_to_themselves() {
    for seed in 0..400 {
        let d = case(seed);
        let text = d.to_string();
        let (nodes, depth) = reader_shape(&d);
        let exact = Limits::none()
            .with_input_node_cap(nodes)
            .with_input_depth_cap(depth);
        let back = read_one_with(&text, &exact)
            .unwrap_or_else(|e| panic!("seed {seed}: reading `{text}`: {e}"));
        assert_eq!(back, d, "seed {seed}: `{text}`");
        assert_eq!(back.to_string(), text, "seed {seed}");
        // One node or one level fewer trips the matching cap.
        assert_eq!(
            limit_kind(&text, &Limits::none().with_input_node_cap(nodes - 1)),
            Some(LimitKind::InputNodes),
            "seed {seed}: `{text}` has {nodes} nodes"
        );
        assert_eq!(
            limit_kind(&text, &Limits::none().with_input_depth_cap(depth - 1)),
            Some(LimitKind::InputDepth),
            "seed {seed}: `{text}` is {depth} deep"
        );
    }
}

#[test]
fn scanned_bytes_are_the_encoding_of_the_data_read() {
    for seed in 0..400 {
        let d = case(seed);
        let text = d.to_string();
        let (nodes, depth) = reader_shape(&d);
        let exact = Limits::none()
            .with_input_node_cap(nodes)
            .with_input_depth_cap(depth);
        let read = read_all_with(&text, &exact)
            .unwrap_or_else(|e| panic!("seed {seed}: reading `{text}`: {e}"));
        let bytes = scan_all_with(&text, &exact)
            .unwrap_or_else(|e| panic!("seed {seed}: scanning `{text}`: {e}"));
        assert_eq!(bytes, codec::encode_data(&read), "seed {seed}: `{text}`");
        assert_eq!(codec::decode_data(&bytes), Ok(read), "seed {seed}");
        // Over a cap, both outputs fail alike: same kind, same position.
        for over in [
            Limits::none().with_input_node_cap(nodes - 1),
            Limits::none().with_input_depth_cap(depth - 1),
        ] {
            let read = read_all_with(&text, &over).map(|_| ());
            let scanned = scan_all_with(&text, &over).map(|_| ());
            assert!(read.is_err(), "seed {seed}: `{text}` fits {over:?}");
            assert_eq!(scanned, read, "seed {seed}: `{text}`");
        }
    }
}

#[test]
fn malformed_text_fails_alike_on_both_outputs() {
    for text in [
        "(1 2",
        ")",
        "(. 2)",
        "(1 . 2 3)",
        "\"abc",
        "\"a\\q\"",
        "99999999999999999999",
        "(a\nb #\\bogus)",
        "#z",
        "#| open",
        "(a #;)",
        "'",
        "[1 2)",
        "(ab \"c\" 99999999999999999999 d)",
    ] {
        let read = read_all_with(text, &Limits::default()).map(|_| ());
        let scanned = scan_all_with(text, &Limits::default()).map(|_| ());
        assert!(read.is_err(), "`{text}` reads");
        assert_eq!(scanned, read, "`{text}`");
    }
}

//! Cross-crate pipeline tests: front end → ANF → byte code → VM, checked
//! against the tree-walking interpreter on a suite of realistic programs.

use two4one::{compile, interpret, run_image, with_stack, Datum, Pgg};

/// Programs exercising the whole language surface. Each entry is
/// `(source, entry, args, expected)`; `expected = None` means "whatever the
/// interpreter says".
fn suite() -> Vec<(&'static str, &'static str, Vec<Datum>, Option<&'static str>)> {
    fn d(s: &str) -> Datum {
        two4one::reader::read_one(s).unwrap()
    }
    vec![
        (
            "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))",
            "fib",
            vec![Datum::Int(15)],
            Some("610"),
        ),
        (
            "(define (map1 f xs) (if (null? xs) '() (cons (f (car xs)) (map1 f (cdr xs)))))
             (define (main xs) (map1 (lambda (x) (* x x)) xs))",
            "main",
            vec![d("(1 2 3 4)")],
            Some("(1 4 9 16)"),
        ),
        (
            "(define (foldl f acc xs) (if (null? xs) acc (foldl f (f acc (car xs)) (cdr xs))))
             (define (main xs) (foldl (lambda (a b) (+ a b)) 0 xs))",
            "main",
            vec![d("(10 20 30)")],
            Some("60"),
        ),
        (
            // Mutual recursion through letrec + named let.
            "(define (main n)
               (letrec ((even? (lambda (i) (if (= i 0) #t (odd? (- i 1)))))
                        (odd? (lambda (i) (if (= i 0) #f (even? (- i 1))))))
                 (let loop ((i 0) (acc '()))
                   (if (> i n) (reverse acc)
                       (loop (+ i 1) (cons (even? i) acc))))))",
            "main",
            vec![Datum::Int(4)],
            Some("(#t #f #t #f #t)"),
        ),
        (
            // Closures with mutation.
            "(define (make-acc init)
               (lambda (amount) (set! init (+ init amount)) init))
             (define (main)
               (let ((acc (make-acc 100)))
                 (acc 10)
                 (acc 20)
                 (acc 0)))",
            "main",
            vec![],
            Some("130"),
        ),
        (
            // Association lists and symbols.
            "(define (env-get k env) (cdr (assq k env)))
             (define (main)
               (let ((env `((a . 1) (b . 2) (c . ,(+ 1 2)))))
                 (list (env-get 'c env) (env-get 'a env))))",
            "main",
            vec![],
            Some("(3 1)"),
        ),
        (
            // Strings and case.
            "(define (kind x)
               (case x
                 ((1 2 3) \"small\")
                 ((10) \"ten\")
                 (else \"other\")))
             (define (main) (list (kind 2) (kind 10) (kind 99)))",
            "main",
            vec![],
            Some("(\"small\" \"ten\" \"other\")"),
        ),
        (
            // Deep tail loop: must run in constant space on the VM.
            "(define (main n) (let loop ((i n) (acc 0)) (if (= i 0) acc (loop (- i 1) (+ acc i)))))",
            "main",
            vec![Datum::Int(100000)],
            Some("5000050000"),
        ),
        (
            // and/or/when/unless/begin coverage.
            "(define (main x)
               (begin
                 (when (> x 0) (display \"pos\"))
                 (unless (> x 0) (display \"neg\"))
                 (list (and (> x 0) (* x 2)) (or (< x 0) 'fine))))",
            "main",
            vec![Datum::Int(5)],
            Some("(10 fine)"),
        ),
        (
            // A `let` in an operand position: its binding is gone before
            // the enclosing `let` binds, or `x` reads `y`'s slot.
            "(define (f) (let ((x (+ (let ((y 1)) y) 2))) x))",
            "f",
            vec![],
            Some("3"),
        ),
        (
            // `let`s in two operands of one primitive.
            "(define (g a) (+ (let ((y (* a 10))) (+ y 1)) (let ((z a)) (- z 5))))",
            "g",
            vec![Datum::Int(2)],
            Some("18"),
        ),
        (
            "(define (sum xs) (if (null? xs) 0 (+ (car xs) (sum (cdr xs)))))
             (define (main) (sum '(1 2 3 4 5)))",
            "main",
            vec![],
            Some("15"),
        ),
        (
            // Two non-tail conditionals in operand position.
            "(define (main a) (+ (if a 1 2) (if a 10 20)))",
            "main",
            vec![Datum::Bool(true)],
            Some("11"),
        ),
        (
            // A non-tail conditional with a `let` in only one arm, taken
            // and not taken.
            "(define (f a b) (+ (if a (let ((x 10)) (* x 2)) 3) b))",
            "f",
            vec![Datum::Bool(true), Datum::Int(1)],
            Some("21"),
        ),
        (
            "(define (f a b) (+ (if a (let ((x 10)) (* x 2)) 3) b))",
            "f",
            vec![Datum::Bool(false), Datum::Int(1)],
            Some("4"),
        ),
        (
            // Bindings made inside a non-tail arm must not shift the
            // slots of later `let`s, on either arm.
            "(define (g c)
               (let ((r (if c (let ((a 1)) (let ((b 2)) (+ a b))) 0)))
                 (let ((z 100))
                   (+ r z))))",
            "g",
            vec![Datum::Bool(true)],
            Some("103"),
        ),
        (
            "(define (g c)
               (let ((r (if c (let ((a 1)) (let ((b 2)) (+ a b))) 0)))
                 (let ((z 100))
                   (+ r z))))",
            "g",
            vec![Datum::Bool(false)],
            Some("100"),
        ),
        (
            // A closure returned by one global and called by another.
            "(define (mk n) (lambda (x) (+ x n)))
             (define (main a b) ((mk a) b))",
            "main",
            vec![Datum::Int(3), Datum::Int(4)],
            Some("7"),
        ),
    ]
}

#[test]
fn vm_agrees_with_interpreter_on_suite() {
    with_stack(|| {
        let pgg = Pgg::new();
        for (src, entry, args, expected) in suite() {
            let p = pgg.parse(src).unwrap();
            let i = interpret(&p, entry, &args).unwrap();
            let image = compile(&p, entry).unwrap();
            let v = run_image(&image, entry, &args).unwrap();
            assert_eq!(v.value, i.value, "value mismatch for {entry}: {src}");
            assert_eq!(v.output, i.output, "output mismatch for {entry}");
            if let Some(exp) = expected {
                assert_eq!(v.value.to_string(), exp, "{src}");
            }
        }
    });
}

#[test]
fn object_files_round_trip_on_suite() {
    with_stack(|| {
        let pgg = Pgg::new();
        for (src, entry, args, _) in suite() {
            let p = pgg.parse(src).unwrap();
            let image = compile(&p, entry).unwrap();
            let loaded = two4one::decode_image(&two4one::encode_image(&image)).unwrap();
            let a = run_image(&image, entry, &args).unwrap();
            let b = run_image(&loaded, entry, &args).unwrap();
            assert_eq!(a, b, "{src}");
        }
    });
}

#[test]
fn runtime_errors_agree_in_kind() {
    with_stack(|| {
        let pgg = Pgg::new();
        for src in [
            "(define (main) (car 5))",
            "(define (main) (1 2))",
            "(define (f x) x) (define (main) (f))",
            "(define (main) (error \"deliberate\" 1))",
            "(define (main) (quotient 1 0))",
        ] {
            let p = pgg.parse(src).unwrap();
            let i = interpret(&p, "main", &[]);
            let image = compile(&p, "main").unwrap();
            let v = run_image(&image, "main", &[]);
            assert!(i.is_err(), "{src}");
            assert!(v.is_err(), "{src}");
        }
    });
}

#[test]
fn disassembly_is_printable() {
    let pgg = Pgg::new();
    let p = pgg.parse("(define (f x) (if x (f (cdr x)) '()))").unwrap();
    let image = compile(&p, "f").unwrap();
    let text = image.disassemble();
    assert!(text.contains("jump-if-false"), "{text}");
    assert!(text.contains("tail-call"), "{text}");
    assert!(image.code_size() > 5);
}

#[test]
fn residual_source_is_loadable_source_text() {
    // Full circle: specialize → print → re-read → compile → run.
    with_stack(|| {
        let pgg = Pgg::new();
        let p = pgg
            .parse("(define (power x n) (if (= n 0) 1 (* x (power x (- n 1)))))")
            .unwrap();
        let genext = pgg
            .cogen(
                &p,
                "power",
                &two4one::Division::new([two4one::BT::Dynamic, two4one::BT::Static]),
            )
            .unwrap();
        let residual = genext.specialize_source(&[Datum::Int(6)]).unwrap();
        let image = two4one::compile_source_text(&residual.to_source(), "power").unwrap();
        let out = run_image(&image, "power", &[Datum::Int(2)]).unwrap();
        assert_eq!(out.value, Datum::Int(64));
    });
}

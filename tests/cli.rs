//! End-to-end tests of the `t4o` command-line driver and the REPL,
//! exercising the real binaries as a user would.

use std::io::Write as _;
use std::process::{Command, Stdio};

fn t4o() -> Command {
    Command::new(env!("CARGO_BIN_EXE_t4o"))
}

fn tmp_dir() -> std::path::PathBuf {
    // Tests run in parallel within one process, so a pid-only name would
    // be shared — and deleted out from under still-running tests. A
    // per-call counter keeps every test in its own directory.
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("two4one-cli-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn t4o_compile_run_spec_dis_workflow() {
    let dir = tmp_dir();
    let src = dir.join("pow.scm");
    std::fs::write(
        &src,
        "(define (power x n) (if (= n 0) 1 (* x (power x (- n 1)))))",
    )
    .unwrap();
    let obj = dir.join("pow.t4o");

    // compile → object file
    let out = t4o()
        .args([
            "compile",
            src.to_str().unwrap(),
            "--entry",
            "power",
            "-o",
            obj.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(obj.exists());

    // run the object file
    let out = t4o()
        .args([
            "run",
            obj.to_str().unwrap(),
            "--entry",
            "power",
            "--arg",
            "2",
            "--arg",
            "10",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "1024");

    // specialize to source on stdout
    let out = t4o()
        .args([
            "spec",
            src.to_str().unwrap(),
            "--entry",
            "power",
            "--division",
            "DS",
            "--static",
            "3",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("define"), "{text}");
    assert!(!text.contains("power%0 x"), "{text}");

    // specialize straight to an object file and run it
    let spec_obj = dir.join("pow3.t4o");
    let out = t4o()
        .args([
            "spec",
            src.to_str().unwrap(),
            "--entry",
            "power",
            "--division",
            "DS",
            "--static",
            "3",
            "-o",
            spec_obj.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = t4o()
        .args([
            "run",
            spec_obj.to_str().unwrap(),
            "--entry",
            "power",
            "--arg",
            "5",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "125");

    // disassemble
    let out = t4o()
        .args(["dis", obj.to_str().unwrap(), "--entry", "power"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("jump-if-false"));

    // bad usage fails with a message
    let out = t4o().args(["run", obj.to_str().unwrap()]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--entry"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn t4o_spec_grammar_compiles_a_recognizer() {
    let dir = tmp_dir();
    let gsrc = dir.join("word.g");
    std::fs::write(&gsrc, "((word (plus letter))\n (letter (alt a b c)))").unwrap();

    // --grammar --source prints the residual recognizer: the grammar
    // walk (gm-lookup / gm-match) is specialized away, the per-
    // nonterminal residual functions remain.
    let out = t4o()
        .args(["spec", gsrc.to_str().unwrap(), "--grammar", "--source"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("gm-nt"), "{text}");
    assert!(!text.contains("gm-lookup"), "{text}");
    assert!(!text.contains("gm-match"), "{text}");

    // --grammar -o writes a runnable object: the recognizer accepts and
    // rejects like the matcher interpreter would.
    let obj = dir.join("word.t4o");
    let out = t4o()
        .args([
            "spec",
            gsrc.to_str().unwrap(),
            "--grammar",
            "--optimize",
            "-o",
            obj.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for (input, expect) in [(r"(#\a #\b #\c)", "#t"), (r"(#\a #\d)", "#f"), ("()", "#f")] {
        let out = t4o()
            .args([
                "run",
                obj.to_str().unwrap(),
                "--entry",
                "gm-main",
                "--arg",
                input,
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), expect);
    }

    // The workload owns the entry and division.
    let out = t4o()
        .args([
            "spec",
            gsrc.to_str().unwrap(),
            "--grammar",
            "--entry",
            "word",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--grammar"));

    // Grammar defects are diagnosed, not panicked on.
    std::fs::write(&gsrc, "((word word))").unwrap();
    let out = t4o()
        .args(["spec", gsrc.to_str().unwrap(), "--grammar", "--source"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("bad grammar"), "{err}");
    assert!(err.contains("left-recursive"), "{err}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn t4o_rejects_an_unknown_option() {
    let dir = tmp_dir();
    let src = dir.join("g.scm");
    std::fs::write(&src, "(define (g a) (+ (if a 1 2) 10))").unwrap();
    let out = t4o()
        .args([
            "run",
            src.to_str().unwrap(),
            "--entry",
            "g",
            "--generic",
            "--arg",
            "#f",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown option `--generic`"), "{err}");
    assert!(out.stdout.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn t4o_rejects_malformed_inputs_with_a_message() {
    let dir = tmp_dir();

    // Unreadable source text: typed reader error, nonzero exit.
    let bad_src = dir.join("broken.scm");
    std::fs::write(&bad_src, "(define (f x").unwrap();
    let out = t4o()
        .args(["run", bad_src.to_str().unwrap(), "--entry", "f"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.starts_with("t4o: "), "{err}");

    // Garbage object file: rejected as not an object file.
    let garbage = dir.join("garbage.t4o");
    std::fs::write(&garbage, b"this is not an object file").unwrap();
    let out = t4o()
        .args(["run", garbage.to_str().unwrap(), "--entry", "f"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("object file"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Bit-flipped object file: the checksum catches it.
    let good_src = dir.join("ok.scm");
    std::fs::write(&good_src, "(define (f x) (* x x))").unwrap();
    let obj = dir.join("ok.t4o");
    let out = t4o()
        .args([
            "compile",
            good_src.to_str().unwrap(),
            "--entry",
            "f",
            "-o",
            obj.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut bytes = std::fs::read(&obj).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    std::fs::write(&obj, &bytes).unwrap();
    let out = t4o()
        .args(["run", obj.to_str().unwrap(), "--entry", "f", "--arg", "3"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("checksum"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Malformed numeric flag value.
    let out = t4o()
        .args([
            "run",
            good_src.to_str().unwrap(),
            "--entry",
            "f",
            "--fuel",
            "lots",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--fuel"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn t4o_spec_rejects_a_static_parameter_the_bta_makes_dynamic() {
    // `f` escapes into a dynamic call, so the analysis makes all of its
    // parameters dynamic: a division keeping `s` static is rejected by the
    // BTA with a message naming the entry and the parameter, not by a
    // static-argument count mismatch later on.
    let dir = tmp_dir();
    let src = dir.join("escape.scm");
    std::fs::write(&src, "(define (f s d) (d f))").unwrap();
    let spec = |division: &str, statics: &[&str]| {
        let mut cmd = t4o();
        cmd.args(["spec", src.to_str().unwrap(), "--entry", "f"]);
        cmd.args(["--division", division, "--source"]);
        for s in statics {
            cmd.args(["--static", s]);
        }
        cmd.output().unwrap()
    };
    let out = spec("SD", &["1"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.starts_with("t4o: "), "{err}");
    assert!(
        err.contains("entry `f`") && err.contains("static in the division"),
        "{err}"
    );
    assert!(!err.contains("static argument(s)"), "{err}");

    // All dynamic, the escaping entry specializes.
    let out = spec("DD", &[]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("(define (f"));
}

#[test]
fn t4o_run_limits_and_spec_fallback() {
    let dir = tmp_dir();
    let src = dir.join("loop.scm");
    std::fs::write(&src, "(define (spin n) (if (= n 0) 'done (spin (- n 1))))").unwrap();

    // A metered run that cannot finish reports fuel exhaustion and fails.
    let out = t4o()
        .args([
            "run",
            src.to_str().unwrap(),
            "--entry",
            "spin",
            "--arg",
            "100000000",
            "--fuel",
            "1000",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("fuel"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Specialization starved of unfold fuel: default degrades (success plus
    // a note), --strict fails with the limit error.
    let pow = dir.join("pow.scm");
    std::fs::write(
        &pow,
        "(define (power x n) (if (= n 0) 1 (* x (power x (- n 1)))))",
    )
    .unwrap();
    let out = t4o()
        .args([
            "spec",
            pow.to_str().unwrap(),
            "--entry",
            "power",
            "--division",
            "DS",
            "--static",
            "40",
            "--unfold-fuel",
            "3",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("generic fallback"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = t4o()
        .args([
            "spec",
            pow.to_str().unwrap(),
            "--entry",
            "power",
            "--division",
            "DS",
            "--static",
            "40",
            "--unfold-fuel",
            "3",
            "--strict",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unfold"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn t4o_spec_jobs_serves_batches_through_the_cache() {
    let dir = tmp_dir();
    let src = dir.join("powj.scm");
    std::fs::write(
        &src,
        "(define (power n x) (if (= n 0) 1 (* x (power (- n 1) x))))",
    )
    .unwrap();
    let prefix = dir.join("powj.t4o");

    // Four requests (one duplicated) over two workers, written to
    // numbered object files.
    let out = t4o()
        .args([
            "spec",
            src.to_str().unwrap(),
            "--entry",
            "power",
            "--division",
            "SD",
            "--jobs",
            "2",
            "--batch",
            "(2)",
            "--batch",
            "(3)",
            "--batch",
            "(2)",
            "--batch",
            "(5)",
            "-o",
            prefix.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");

    // One line per request, in order, plus a serve-stats summary showing
    // the duplicate was a cache hit (3 runs for 4 requests).
    for i in 0..4 {
        assert!(stdout.contains(&format!(";; [{i}] ")), "{stdout}");
        assert!(dir.join(format!("powj.{i}.t4o")).exists(), "{stdout}");
    }
    assert!(stdout.contains("spec_runs=3"), "{stdout}");
    assert!(stdout.contains("hits=1"), "{stdout}");
    assert!(stdout.contains("jobs=2"), "{stdout}");

    // A specialized image actually runs: 3^4 = 81.
    let out = t4o()
        .args([
            "run",
            dir.join("powj.3.t4o").to_str().unwrap(),
            "--entry",
            "power",
            "--arg",
            "3",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("243"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );

    // --jobs with a single --static tuple (no --batch) also serves.
    let out = t4o()
        .args([
            "spec",
            src.to_str().unwrap(),
            "--entry",
            "power",
            "--division",
            "SD",
            "--jobs",
            "4",
            "--static",
            "3",
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("spec_runs=1"), "{stdout}");

    // --source is incompatible with batch serving and says so.
    let out = t4o()
        .args([
            "spec",
            src.to_str().unwrap(),
            "--entry",
            "power",
            "--division",
            "SD",
            "--jobs",
            "2",
            "--static",
            "3",
            "--source",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--source"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn t4o_spec_rejects_zero_jobs_and_oversized_batches() {
    let dir = tmp_dir();
    let src = dir.join("powz.scm");
    std::fs::write(
        &src,
        "(define (power n x) (if (= n 0) 1 (* x (power (- n 1) x))))",
    )
    .unwrap();

    // --jobs 0 is a usage error, caught at parse time.
    let out = t4o()
        .args([
            "spec",
            src.to_str().unwrap(),
            "--entry",
            "power",
            "--division",
            "SD",
            "--jobs",
            "0",
            "--static",
            "3",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--jobs"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // --max-inflight 0 likewise.
    let out = t4o()
        .args([
            "spec",
            src.to_str().unwrap(),
            "--entry",
            "power",
            "--division",
            "SD",
            "--jobs",
            "1",
            "--max-inflight",
            "0",
            "--static",
            "3",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--max-inflight"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // A batch larger than the admission queue can hold is rejected up
    // front instead of half-serving and shedding the rest: with
    // --max-inflight 1 the capacity is 1 + queue_bound (256) = 257.
    let mut args: Vec<String> = [
        "spec",
        src.to_str().unwrap(),
        "--entry",
        "power",
        "--division",
        "SD",
        "--jobs",
        "2",
        "--max-inflight",
        "1",
    ]
    .into_iter()
    .map(String::from)
    .collect();
    for n in 0..258 {
        args.push("--batch".to_string());
        args.push(format!("({n})"));
    }
    let out = t4o().args(&args).output().unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("admission capacity"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn t4o_spec_cache_file_warm_starts_across_processes() {
    let dir = tmp_dir();
    let src = dir.join("powc.scm");
    std::fs::write(
        &src,
        "(define (power n x) (if (= n 0) 1 (* x (power (- n 1) x))))",
    )
    .unwrap();
    let snap = dir.join("cache.t4os");
    let spec_args = |src: &std::path::Path, snap: &std::path::Path| {
        vec![
            "spec".to_string(),
            src.to_str().unwrap().to_string(),
            "--entry".to_string(),
            "power".to_string(),
            "--division".to_string(),
            "SD".to_string(),
            "--jobs".to_string(),
            "2".to_string(),
            "--batch".to_string(),
            "(4)".to_string(),
            "--batch".to_string(),
            "(6)".to_string(),
            "--cache-file".to_string(),
            snap.to_str().unwrap().to_string(),
        ]
    };

    // Cold process: everything misses, then the cache is snapshotted.
    let out = t4o().args(spec_args(&src, &snap)).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("spec_runs=2"), "{stdout}");
    assert!(stdout.contains("snapshot written"), "{stdout}");
    assert!(snap.exists());

    // Fresh process ("after the crash"): restored entries serve every
    // request as a hit — the specializer never runs.
    let out = t4o().args(spec_args(&src, &snap)).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("restored 2 entries"), "{stdout}");
    assert!(stdout.contains("spec_runs=0"), "{stdout}");
    assert!(stdout.contains("hits=2"), "{stdout}");

    // A corrupted snapshot is quarantined, not fatal: the run succeeds
    // cold and rewrites a clean snapshot.
    let mut bytes = std::fs::read(&snap).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&snap, &bytes).unwrap();
    let out = t4o().args(spec_args(&src, &snap)).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("quarantined"), "{stdout}");
    assert!(stdout.contains("snapshot written"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn t4o_spec_genext_file_warm_starts_across_processes() {
    let dir = tmp_dir();
    let src = dir.join("powg.scm");
    std::fs::write(
        &src,
        "(define (power n x) (if (= n 0) 1 (* x (power (- n 1) x))))",
    )
    .unwrap();
    let genext = dir.join("power.t4og");
    let cold = dir.join("cold.t4o");
    let warm = dir.join("warm.t4o");
    let walker = dir.join("walker.t4o");

    // Cold process: front end + BTA run, the gen-ext is staged to
    // bytecode, written to disk, and drives the specialization.
    let out = t4o()
        .args([
            "spec",
            src.to_str().unwrap(),
            "--entry",
            "power",
            "--division",
            "SD",
            "--static",
            "5",
            "--genext-file",
            genext.to_str().unwrap(),
            "-o",
            cold.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains(";; genext: compiled"), "{stdout}");
    assert!(stdout.contains("genext: written to"), "{stdout}");
    assert!(genext.exists());

    // Warm process: no source file, no --entry, no --division — the
    // compiled gen-ext alone carries the specializer across processes.
    let out = t4o()
        .args([
            "spec",
            "--genext-file",
            genext.to_str().unwrap(),
            "--static",
            "5",
            "-o",
            warm.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("genext: loaded from"), "{stdout}");

    // The interpreted walker, for reference.
    let out = t4o()
        .args([
            "spec",
            src.to_str().unwrap(),
            "--entry",
            "power",
            "--division",
            "SD",
            "--static",
            "5",
            "-o",
            walker.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // All three processes produced the same residual image, bit for bit.
    let cold_bytes = std::fs::read(&cold).unwrap();
    assert_eq!(cold_bytes, std::fs::read(&warm).unwrap());
    assert_eq!(cold_bytes, std::fs::read(&walker).unwrap());

    // And the warm-started residual actually runs: power_5(2) = 32.
    let out = t4o()
        .args([
            "run",
            warm.to_str().unwrap(),
            "--entry",
            "power",
            "--arg",
            "2",
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("32"), "{stdout}");

    // A corrupted gen-ext file fails the load with a typed error (exit
    // code, not a panic).
    let mut bytes = std::fs::read(&genext).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&genext, &bytes).unwrap();
    let out = t4o()
        .args([
            "spec",
            "--genext-file",
            genext.to_str().unwrap(),
            "--static",
            "5",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("t4o:"), "{stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn t4o_spec_genext_cache_warm_starts_across_processes() {
    let dir = tmp_dir();
    let src = dir.join("powx.scm");
    std::fs::write(
        &src,
        "(define (power n x) (if (= n 0) 1 (* x (power (- n 1) x))))",
    )
    .unwrap();
    let gxs = dir.join("genexts.t4og");
    let spec_args = |src: &std::path::Path, batch: &str| {
        vec![
            "spec".to_string(),
            src.to_str().unwrap().to_string(),
            "--entry".to_string(),
            "power".to_string(),
            "--division".to_string(),
            "SD".to_string(),
            "--name".to_string(),
            "pow".to_string(),
            "--jobs".to_string(),
            "2".to_string(),
            "--batch".to_string(),
            batch.to_string(),
            "--genext-cache".to_string(),
            gxs.to_str().unwrap().to_string(),
        ]
    };

    // Cold process: the first miss compiles the gen-ext; the artifact
    // cache is snapshotted after serving.
    let out = t4o().args(spec_args(&src, "(4)")).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("genext_builds=1"), "{stdout}");
    assert!(
        stdout.contains("genext-cache: snapshot written"),
        "{stdout}"
    );
    assert!(gxs.exists());

    // Fresh process, new statics (so the result cache cannot answer):
    // the restored gen-ext serves the miss without rebuilding.
    let out = t4o().args(spec_args(&src, "(6)")).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("restored 1 gen-ext(s)"), "{stdout}");
    assert!(stdout.contains("genext_builds=0"), "{stdout}");
    assert!(stdout.contains("misses=1"), "{stdout}");

    // Fresh process registering *different* source under the same name:
    // the snapshotted gen-ext no longer matches any live registration
    // and is dropped as stale — never served against the new program.
    let src2 = dir.join("powx2.scm");
    std::fs::write(
        &src2,
        "(define (power n x) (if (= n 0) 2 (* x (power (- n 1) x))))",
    )
    .unwrap();
    let out = t4o().args(spec_args(&src2, "(4)")).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("1 stale dropped"), "{stdout}");
    assert!(stdout.contains("genext_builds=1"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn t4o_stats_restores_the_genext_cache() {
    let dir = tmp_dir();
    let src = dir.join("powx.scm");
    std::fs::write(
        &src,
        "(define (power n x) (if (= n 0) 1 (* x (power (- n 1) x))))",
    )
    .unwrap();
    let gxs = dir.join("genexts.t4og");
    let args = |cmd: &str, batch: &str| {
        [
            cmd,
            src.to_str().unwrap(),
            "--entry",
            "power",
            "--division",
            "SD",
            "--name",
            "pow",
            "--batch",
            batch,
            "--genext-cache",
            gxs.to_str().unwrap(),
        ]
        .map(String::from)
    };

    // A serve run stages the gen-ext and snapshots it.
    let out = t4o().args(args("spec", "(4)")).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("genext_builds=1"), "{stdout}");
    assert!(gxs.exists());

    // `stats` restores it like `spec` and `serve` do: its first miss runs
    // the restored gen-ext without staging it again. The reports go to
    // stderr, so stdout stays pure exposition.
    let out = t4o().args(args("stats", "(6)")).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    let page = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stderr}");
    assert!(
        stderr.contains(";; genext-cache: restored 1 gen-ext(s)"),
        "{stderr}"
    );
    assert!(stderr.contains("misses=1"), "{stderr}");
    assert!(stderr.contains("genext_builds=0"), "{stderr}");
    assert!(page.contains("t4o_serve_genext_builds_total 0"), "{page}");
    assert!(!page.contains(";;"), "{page}");

    std::fs::remove_dir_all(&dir).ok();
}

// The bytes `t4o_files_keep_their_bytes` expects for `power`, captured
// from the commands it runs. A change to any of these formats must
// update them on purpose, with the format's `VERSION`.
const POWER_T4O: &str = "\
    74776f346f6e6500030000000d367ff105000000706f77657201000000050000\
    00706f77657205000000706f7765720200000e00000018010000003d01000000\
    190200040000000001000a18010000002d010001000200000402030004010000\
    08020514010000002a000004000a020000000400000000000000000401000000\
    000000000100000005000000706f77657200000000";

const POWER_T4OG: &str = "\
    74346f67656e780001000000a347eed305000000706f77657206000000040000\
    0000000000000401000000000000000401000000000000000400000000000000\
    000401000000000000000401000000000000001b000000070400000006000000\
    0c010000003d02000000020000000300000001030000006e2531000001000000\
    0000000400010000000d010000002a0200000007000000080000000103000000\
    782530000000000a020000000a0000000b000000020000000001030000007825\
    30000000000c010000002d020000000c0000000d00000001030000006e253100\
    00010000020000000812000000130000000d010000003d020000001000000011\
    00000001030000006e253100000100000300000000040000000d010000002a02\
    00000014000000150000000103000000782530000000000b0200000017000000\
    1800000002000000000103000000782530000000000d010000002d0200000019\
    0000001a00000001030000006e25310000010000050000000000000001000000\
    05000000706f776572020000000300000078253001030000006e253100000000\
    00000e000000";

const POWER_T4OS: &str = "\
    74346f736e61700005000000010000001702000071c015044d01000028646566\
    696e652028706f776572207825303a44206e25313a53292028696620283d206e\
    253120302920286c69667420312920285f2a207825302028706f776572207825\
    3020282d206e2531203129292929290a00537065634f7074696f6e73207b206c\
    696d6974733a204c696d697473207b2074696d656f75743a204e6f6e652c2073\
    7465705f6675656c3a204e6f6e652c20756e666f6c645f6675656c3a20536f6d\
    652832303030303030292c206d61785f64657074683a20536f6d652834303030\
    3030292c206d656d6f5f6361703a20536f6d652831303030303030292c20636f\
    64655f6361703a20536f6d65283530303030303030292c20696e7075745f6e6f\
    64655f6361703a20536f6d65283130303030303030292c20696e7075745f6465\
    7074685f6361703a20536f6d652831303030303029207d2c2066616c6c626163\
    6b3a2074727565207d05000000706f7765720900000004030000000000000005\
    000000706f776572010000000000000003000000000000000000000000000000\
    0000000000000000010000000000000000000000000000000000000000000000\
    006a00000074776f346f6e650003000000c2bb4a7205000000706f7765720100\
    000005000000706f77657205000000706f776572010000040000001801000000\
    2a0000000017010000002a0000010014010000002a000002000a010000000401\
    000000000000000000000000000000";

const POWER_GENEXT_CACHE: &str = "\
    74346f67736e70000100000001000000150300008f05655105000000706f7765\
    724d01000028646566696e652028706f776572207825303a44206e25313a5329\
    2028696620283d206e253120302920286c69667420312920285f2a2078253020\
    28706f7765722078253020282d206e2531203129292929290a00537065634f70\
    74696f6e73207b206c696d6974733a204c696d697473207b2074696d656f7574\
    3a204e6f6e652c20737465705f6675656c3a204e6f6e652c20756e666f6c645f\
    6675656c3a20536f6d652832303030303030292c206d61785f64657074683a20\
    536f6d6528343030303030292c206d656d6f5f6361703a20536f6d6528313030\
    30303030292c20636f64655f6361703a20536f6d65283530303030303030292c\
    20696e7075745f6e6f64655f6361703a20536f6d65283130303030303030292c\
    20696e7075745f64657074685f6361703a20536f6d652831303030303029207d\
    2c2066616c6c6261636b3a2074727565207d05000000706f7765720100000000\
    000000a601000074346f67656e780001000000a347eed305000000706f776572\
    0600000004000000000000000004010000000000000004010000000000000004\
    00000000000000000401000000000000000401000000000000001b0000000704\
    000000060000000c010000003d02000000020000000300000001030000006e25\
    310000010000000000000400010000000d010000002a02000000070000000800\
    00000103000000782530000000000a020000000a0000000b0000000200000000\
    0103000000782530000000000c010000002d020000000c0000000d0000000103\
    0000006e25310000010000020000000812000000130000000d010000003d0200\
    0000100000001100000001030000006e25310000010000030000000004000000\
    0d010000002a0200000014000000150000000103000000782530000000000b02\
    000000170000001800000002000000000103000000782530000000000d010000\
    002d02000000190000001a00000001030000006e253100000100000500000000\
    0000000100000005000000706f77657202000000030000007825300103000000\
    6e25310000000000000e000000";

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect()
}

#[test]
fn t4o_files_keep_their_bytes() {
    let dir = tmp_dir();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    std::fs::write(
        dir.join("pow.scm"),
        "(define (power x n) (if (= n 0) 1 (* x (power x (- n 1)))))",
    )
    .unwrap();
    let run = |args: &[String]| {
        let out = t4o().args(args).output().unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let args = |words: &[&str]| words.iter().map(|w| w.to_string()).collect::<Vec<_>>();
    let serve = |t4os: &str, t4og: &str, batches: &[&str]| {
        let mut a = args(&[
            "spec",
            &path("pow.scm"),
            "--entry",
            "power",
            "--division",
            "DS",
            "--name",
            "power",
            "--jobs",
            "1",
            "-o",
            &path("pow-serve"),
            "--cache-file",
            &path(t4os),
            "--genext-cache",
            &path(t4og),
        ]);
        for b in batches {
            a.extend(args(&["--batch", b]));
        }
        a
    };

    // Snapshots in the pinned bytes restore: the residual entry answers
    // its statics as a hit, and the staged gen-ext serves new statics
    // without staging again.
    std::fs::write(dir.join("old.t4os"), unhex(POWER_T4OS)).unwrap();
    std::fs::write(dir.join("old.t4og"), unhex(POWER_GENEXT_CACHE)).unwrap();
    let stdout = run(&serve("old.t4os", "old.t4og", &["(3)", "(4)"]));
    assert!(stdout.contains("cache: restored 1 entries"), "{stdout}");
    assert!(stdout.contains("restored 1 gen-ext(s)"), "{stdout}");
    assert!(stdout.contains("hits=1 misses=1"), "{stdout}");
    assert!(stdout.contains("genext_builds=0"), "{stdout}");

    // Fresh files from the same commands come out byte for byte.
    run(&args(&[
        "compile",
        &path("pow.scm"),
        "--entry",
        "power",
        "-o",
        &path("pow.t4o"),
    ]));
    run(&args(&[
        "spec",
        &path("pow.scm"),
        "--entry",
        "power",
        "--division",
        "DS",
        "--static",
        "3",
        "-o",
        &path("pow-spec.t4o"),
        "--genext-file",
        &path("pow.t4og"),
    ]));
    run(&serve("pow.t4os", "pow-cache.t4og", &["(3)"]));
    for (file, pinned) in [
        ("pow.t4o", POWER_T4O),
        ("pow.t4og", POWER_T4OG),
        ("pow.t4os", POWER_T4OS),
        ("pow-cache.t4og", POWER_GENEXT_CACHE),
    ] {
        let bytes = std::fs::read(dir.join(file)).unwrap();
        assert!(
            bytes == unhex(pinned),
            "{file} no longer has its pinned bytes"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn t4o_spec_deadline_flag_bounds_requests() {
    let dir = tmp_dir();
    let src = dir.join("spin.scm");
    std::fs::write(&src, "(define (spin n) (if (= n 0) 0 (spin (- n 1))))").unwrap();

    // A specialization that would unfold 50M times is cut off by the
    // request deadline and reported as such.
    let out = t4o()
        .args([
            "spec",
            src.to_str().unwrap(),
            "--entry",
            "spin",
            "--division",
            "S",
            "--jobs",
            "1",
            "--static",
            "50000000",
            "--deadline-ms",
            "50",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("deadline"), "{stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repl_survives_malformed_input() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repl"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    // Unreadable form, unbound variable, bad ,spec usage — then a working
    // definition and call, proving the session survived all of it.
    let script = "(define (f\n\
                  (no-such-function 1)\n\
                  ,spec nothing Q\n\
                  (define (sq x) (* x x))\n\
                  (sq 6)\n\
                  ,quit\n";
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(script.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("read error") || text.contains("error"),
        "{text}"
    );
    assert!(text.contains("compiled `sq`"), "{text}");
    assert!(text.contains("36"), "{text}");
}

#[test]
fn repl_session_compiles_and_specializes() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repl"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let script = "(define (sq x) (* x x))\n\
                  (sq 9)\n\
                  (define (power x n) (if (= n 0) 1 (* x (power x (- n 1)))))\n\
                  ,spec power D S\n\
                  4\n\
                  (power 3)\n\
                  ,quit\n";
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(script.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("compiled `sq`"), "{text}");
    assert!(text.contains("81"), "{text}");
    assert!(text.contains("residual program"), "{text}");
    assert!(text.contains("\n81\n") || text.contains("81"), "{text}");
    // power specialized to n=4, then (power 3) = 81.
    let after_spec = text.split("residual program").nth(1).unwrap_or("");
    assert!(after_spec.contains("81"), "{text}");
}

#[test]
fn repl_spec_runs_the_compiled_genext() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repl"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let script = "(define (power x n) (if (= n 0) 1 (* x (power x (- n 1)))))\n\
                  ,spec power D S\n\
                  5\n\
                  (power 2)\n\
                  ,stats\n\
                  ,quit\n";
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(script.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    // The residual is installed and the specialized power_5(2) = 32 runs.
    assert!(text.contains("residual program"), "{text}");
    let after = text.split("residual program").nth(1).unwrap_or("");
    assert!(after.contains("32"), "{text}");
    // `,spec` went through the compiled generating extension: one
    // staging, one run of the gen-ext machine.
    assert!(text.contains("t4o_genext_builds_total 1\n"), "{text}");
    assert!(text.contains("t4o_genext_runs_total 1\n"), "{text}");
}

#[test]
fn t4o_stats_emits_the_full_prometheus_page() {
    let dir = tmp_dir();
    let src = dir.join("pow.scm");
    std::fs::write(
        &src,
        "(define (power x n) (if (= n 0) 1 (* x (power x (- n 1)))))",
    )
    .unwrap();

    // A workload run: the page must carry real serve traffic.
    let out = t4o()
        .args([
            "stats",
            src.to_str().unwrap(),
            "--entry",
            "power",
            "--division",
            "DS",
            "--jobs",
            "2",
            "--batch",
            "(2)",
            "--batch",
            "(3)",
            "--batch",
            "(2)",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let page = String::from_utf8_lossy(&out.stdout);
    for family in [
        "t4o_serve_requests_total 3",
        "t4o_serve_misses_total 2",
        "t4o_spec_fallbacks_total{kind=\"unfold-fuel\"} 0",
        "t4o_breaker_open 0",
        "t4o_phase_nanos_bucket{phase=\"genext-run\",le=\"+Inf\"} 2",
        "t4o_serve_request_nanos_count 3",
    ] {
        assert!(page.contains(family), "missing `{family}` in:\n{page}");
    }
    // The duplicate batch is a hit: served from the cache, or (if it
    // raced the first fill) by waiting on that fill, which counts as both
    // a hit and a coalesced wait. Either way exactly one request skipped
    // the specializer.
    let count_of = |name: &str| -> u64 {
        page.lines()
            .find(|l| l.starts_with(name) && !l.starts_with('#'))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("missing `{name}` in:\n{page}"))
    };
    assert_eq!(count_of("t4o_serve_hits_total"), 1, "{page}");
    // Human summary goes to stderr, keeping stdout valid exposition.
    assert!(String::from_utf8_lossy(&out.stderr).contains(";; serve: jobs=2"));
    assert!(!page.contains(";;"));

    // Without a workload, every family still appears (zero-valued), and
    // --json switches the format.
    let out = t4o().args(["stats", "--json"]).output().unwrap();
    assert!(out.status.success());
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"t4o_serve_requests_total\": 0"), "{json}");
    assert!(json.contains("t4o_phase_nanos{phase="), "{json}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn t4o_spec_metrics_file_and_stats_json() {
    let dir = tmp_dir();
    let src = dir.join("pow.scm");
    std::fs::write(
        &src,
        "(define (power x n) (if (= n 0) 1 (* x (power x (- n 1)))))",
    )
    .unwrap();
    let metrics = dir.join("metrics.prom");
    let stats = dir.join("stats.json");
    let obj = dir.join("powj");

    let out = t4o()
        .args([
            "spec",
            src.to_str().unwrap(),
            "--entry",
            "power",
            "--division",
            "DS",
            "--jobs",
            "2",
            "--batch",
            "(4)",
            "--batch",
            "(4)",
            "-o",
            obj.to_str().unwrap(),
            "--metrics-file",
            metrics.to_str().unwrap(),
            "--stats-json",
            stats.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let page = std::fs::read_to_string(&metrics).unwrap();
    assert!(page.contains("t4o_serve_requests_total 2"), "{page}");
    assert!(page.contains("t4o_serve_hits_total 1"), "{page}");
    assert!(page.contains("# TYPE t4o_phase_nanos histogram"), "{page}");

    let json = std::fs::read_to_string(&stats).unwrap();
    assert!(json.contains("\"hits\": 1"), "{json}");
    assert!(json.contains("\"spec_runs\": 1"), "{json}");

    // --stats-json without serve mode is rejected with a clear message.
    let out = t4o()
        .args([
            "spec",
            src.to_str().unwrap(),
            "--entry",
            "power",
            "--division",
            "DS",
            "--static",
            "3",
            "--stats-json",
            stats.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("serve mode"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repl_stats_command_prints_metrics() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repl"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"(define (sq x) (* x x))\n(sq 6)\n,stats\n,quit\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The session compiled and ran code, so the page shows phase traffic.
    assert!(
        stdout.contains("# TYPE t4o_phase_nanos histogram"),
        "{stdout}"
    );
    assert!(
        stdout.contains("t4o_phase_nanos_count{phase=\"frontend\"}"),
        "{stdout}"
    );
}

#[test]
fn t4o_spec_redefine_versions_the_cache_across_processes() {
    let dir = tmp_dir();
    let v1 = dir.join("pow-v1.scm");
    let v2 = dir.join("pow-v2.scm");
    std::fs::write(
        &v1,
        "(define (power n x) (if (= n 0) 1 (* x (power (- n 1) x))))",
    )
    .unwrap();
    std::fs::write(
        &v2,
        "(define (power n x) (if (= n 0) 2 (* x (power (- n 1) x))))",
    )
    .unwrap();
    let snap = dir.join("cache.t4os");
    let spec_args = |src: &std::path::Path| {
        vec![
            "spec".to_string(),
            src.to_str().unwrap().to_string(),
            "--entry".to_string(),
            "power".to_string(),
            "--division".to_string(),
            "SD".to_string(),
            "--name".to_string(),
            "pow".to_string(),
            "--jobs".to_string(),
            "2".to_string(),
            "--batch".to_string(),
            "(4)".to_string(),
            "--batch".to_string(),
            "(6)".to_string(),
            "--cache-file".to_string(),
            snap.to_str().unwrap().to_string(),
        ]
    };

    // `--redefine` without `--name` is rejected with guidance.
    let out = t4o()
        .args([
            "spec",
            v1.to_str().unwrap(),
            "--entry",
            "power",
            "--division",
            "SD",
            "--redefine",
            v2.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--name"), "{stderr}");

    // Mid-run redefinition: v1 serves, then v2 swaps in, invalidating
    // v1's cached entries; the snapshot carries the live (v2) generation.
    let mut args = spec_args(&v1);
    args.push("--redefine".to_string());
    args.push(v2.to_str().unwrap().to_string());
    let out = t4o().args(args).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("pow registered (epoch 1)"), "{stdout}");
    assert!(
        stdout.contains("pow redefined (epoch 2, 2 invalidated)"),
        "{stdout}"
    );
    assert!(stdout.contains("invalidated=2"), "{stdout}");
    assert!(stdout.contains("snapshot written"), "{stdout}");

    // Fresh process registering the same (v2) source: the snapshot's
    // records match the live registration by identity and warm-start it.
    let out = t4o().args(spec_args(&v2)).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("restored 2 entries") && stdout.contains("0 stale dropped"),
        "{stdout}"
    );
    assert!(stdout.contains("spec_runs=0"), "{stdout}");
    assert!(stdout.contains("hits=2"), "{stdout}");

    // Fresh process registering *v1* against the v2 snapshot: every
    // record belongs to a dead generation — dropped as stale, counted,
    // and re-specialized from the live source.
    let out = t4o().args(spec_args(&v1)).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("restored 0 entries") && stdout.contains("2 stale dropped"),
        "{stdout}"
    );
    assert!(stdout.contains("stale_dropped=2"), "{stdout}");
    assert!(stdout.contains("spec_runs=2"), "{stdout}");

    // And `t4o stats` exposes the drop on the metrics page: the snapshot
    // now holds v1 records, so registering v2 drops them visibly.
    let out = t4o()
        .args([
            "stats",
            v2.to_str().unwrap(),
            "--entry",
            "power",
            "--division",
            "SD",
            "--name",
            "pow",
            "--cache-file",
            snap.to_str().unwrap(),
            "--static",
            "4",
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("2 stale dropped"), "{stderr}");
    assert!(
        stdout.contains("t4o_serve_stale_dropped_total 2"),
        "{stdout}"
    );
    assert!(stdout.contains("t4o_programs_registered 1"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

// ---- t4o serve: the network front end, across a real process boundary --

/// `t4o serve` under real operating conditions: a child process bound to
/// an ephemeral port, mixed binary/HTTP traffic from this process,
/// SIGTERM landing in the middle of a burst, and the contract that the
/// child drains gracefully — exit 0, caches snapshotted, final counter
/// lines printed — and that a warm restart from those snapshots serves
/// the same request as a cache hit.
#[cfg(unix)]
mod serve {
    use super::{t4o, tmp_dir};
    use std::io::{BufRead as _, Read as _, Write as _};
    use std::net::TcpStream;
    use std::process::{Command, Stdio};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};
    use two4one_net::wire;

    /// Spawns `t4o serve` on an ephemeral port and waits for the
    /// `;; net: listening on ADDR` line. Returns the child, the bound
    /// address, and a reader thread that accumulates all of stdout.
    fn spawn_serve(
        src: &std::path::Path,
        extra: &[&str],
    ) -> (std::process::Child, String, std::thread::JoinHandle<String>) {
        let mut cmd = t4o();
        cmd.args([
            "serve",
            src.to_str().unwrap(),
            "--entry",
            "power",
            "--division",
            "DS",
            "--name",
            "power",
            "--listen",
            "127.0.0.1:0",
            "--drain-timeout-ms",
            "5000",
        ]);
        cmd.args(extra);
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        let stdout = child.stdout.take().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut all = String::new();
            for line in std::io::BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if let Some(addr) = line.strip_prefix(";; net: listening on ") {
                    let _ = tx.send(addr.to_string());
                }
                all.push_str(&line);
                all.push('\n');
            }
            all
        });
        let addr = rx
            .recv_timeout(Duration::from_secs(120))
            .expect("serve never printed its listening line");
        (child, addr, reader)
    }

    fn sigterm(child: &std::process::Child) {
        let ok = Command::new("kill")
            .args(["-TERM", &child.id().to_string()])
            .status()
            .map(|s| s.success())
            .unwrap_or(false);
        assert!(ok, "kill -TERM failed");
    }

    fn wait_exit(child: &mut std::process::Child, patience: Duration) -> std::process::ExitStatus {
        let start = Instant::now();
        loop {
            if let Some(status) = child.try_wait().unwrap() {
                return status;
            }
            if start.elapsed() > patience {
                let _ = child.kill();
                panic!("serve did not exit within {patience:?} of SIGTERM");
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// One binary-protocol spec request; `None` on any socket or framing
    /// failure (the drain sheds late arrivals — that is not an error).
    fn try_spec_meta(addr: &str, statics: &str) -> Option<wire::Frame> {
        let mut stream = TcpStream::connect(addr).ok()?;
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .ok()?;
        let req = wire::SpecWireRequest {
            token: String::new(),
            name: "power".into(),
            statics: statics.into(),
            deadline_ms: 10_000,
            want: wire::WANT_META,
        };
        stream
            .write_all(&wire::encode_frame(wire::REQ_SPEC, &req.encode()))
            .ok()?;
        wire::read_frame(&mut stream, 1 << 20).ok().flatten()
    }

    fn spec_meta(addr: &str, statics: &str) -> wire::Frame {
        try_spec_meta(addr, statics).expect("spec request failed against a live server")
    }

    #[test]
    fn t4o_serve_drains_on_sigterm_and_warm_restarts_from_snapshots() {
        let dir = tmp_dir();
        let src = dir.join("pow.scm");
        std::fs::write(
            &src,
            "(define (power x n) (if (= n 0) 1 (* x (power x (- n 1)))))",
        )
        .unwrap();
        let cache = dir.join("cache.t4os");
        let genexts = dir.join("genexts.t4og");
        let cache_args = [
            "--cache-file",
            cache.to_str().unwrap(),
            "--genext-cache",
            genexts.to_str().unwrap(),
        ];

        let (mut child, addr, reader) = spawn_serve(&src, &cache_args);

        // Mixed traffic: a binary spec and an HTTP health check.
        let frame = spec_meta(&addr, "4");
        assert_eq!(frame.ftype, wire::RESP_META);
        let meta = String::from_utf8_lossy(&frame.payload).to_string();
        assert!(meta.contains("\"name\""), "{meta}");
        let mut http = TcpStream::connect(&addr).unwrap();
        http.set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        http.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut resp = String::new();
        http.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");

        // SIGTERM lands while a burst is in flight; the burst tolerates
        // shed connections (that is the drain working as designed).
        let stop = Arc::new(AtomicBool::new(false));
        let burst: Vec<_> = (0..4u64)
            .map(|i| {
                let addr = addr.clone();
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut n = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let statics = format!("{}", 2 + (n + i) % 6);
                        let _ = try_spec_meta(&addr, &statics);
                        n += 1;
                    }
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(200));
        sigterm(&child);
        let status = wait_exit(&mut child, Duration::from_secs(60));
        stop.store(true, Ordering::Relaxed);
        for b in burst {
            b.join().unwrap();
        }
        assert!(status.success(), "serve exited with {status:?}");
        let out = reader.join().unwrap();
        assert!(out.contains(";; net: SIGTERM received, draining"), "{out}");
        assert!(out.contains(";; cache: snapshot written"), "{out}");
        assert!(out.contains(";; genext-cache: snapshot written"), "{out}");
        assert!(out.contains(";; serve: jobs="), "{out}");
        assert!(out.contains(";; net: conns_accepted="), "{out}");
        assert!(out.contains("worker_panics=0"), "{out}");
        assert!(cache.exists() && genexts.exists());

        // Warm restart: the snapshot restores, and the request served
        // before the drain is now a cache hit (no new specialization).
        let (mut child2, addr2, reader2) = spawn_serve(&src, &cache_args);
        let frame = spec_meta(&addr2, "4");
        assert_eq!(frame.ftype, wire::RESP_META);
        sigterm(&child2);
        let status2 = wait_exit(&mut child2, Duration::from_secs(60));
        assert!(status2.success(), "warm restart exited with {status2:?}");
        let out2 = reader2.join().unwrap();
        assert!(out2.contains(";; cache: restored"), "{out2}");
        assert!(out2.contains(";; genext-cache: restored"), "{out2}");
        let serve_line = out2
            .lines()
            .find(|l| l.starts_with(";; serve:"))
            .unwrap_or_else(|| panic!("no serve line in {out2}"));
        assert!(serve_line.contains("hits=1"), "{serve_line}");
        assert!(serve_line.contains("spec_runs=0"), "{serve_line}");

        std::fs::remove_dir_all(&dir).ok();
    }
}

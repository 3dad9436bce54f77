//! The `b3` command line, driven as a process: one job description gives
//! byte-identical group tables whichever way the sweep is run (threads,
//! workers it launches, or workers that dial in), and every subcommand
//! answers a bad command line with usage on stderr and exit 2.

use std::process::{Command, Output};

fn b3(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_b3"))
        .args(args)
        .output()
        .expect("b3 runs")
}

/// `sweep --in-process --out A` and `sweep --workers 2 --transport tcp --out
/// B` of the same job write the same bytes — for a file-system space under
/// a non-default policy and for an application space with a seeded bug.
#[test]
fn in_process_and_tcp_fanout_write_the_same_bytes_for_both_spaces() {
    let jobs: [&[&str]; 2] = [
        &[
            "--preset=tiny-seq2",
            "--crash-points=triaged",
            "--prune=rep",
        ],
        &[
            "--preset=app-tiny",
            "--era=patched",
            "--crash-points=all",
            "--engine=torn-commit",
        ],
    ];
    let dir = std::env::temp_dir().join(format!("b3-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    for job in jobs {
        let run = |mode: &[&str], out: &str| {
            let out = dir.join(out);
            let out_arg = out.to_str().expect("utf-8 temp path");
            let argv = [&["sweep"], job, mode, &["--out", out_arg]].concat();
            let ran = b3(&argv);
            let stdout = String::from_utf8_lossy(&ran.stdout).into_owned();
            let stderr = String::from_utf8_lossy(&ran.stderr);
            assert!(ran.status.success(), "{argv:?} failed: {stderr}");
            assert!(stdout.contains("sweep complete"), "{argv:?}: {stdout}");
            (std::fs::read(&out).expect("--out file written"), stdout)
        };
        let (reference, stdout) = run(&["--in-process"], "in-process.groups");
        let (fanned, _) = run(&["--workers", "2", "--transport", "tcp"], "tcp.groups");
        assert_eq!(reference, fanned, "{job:?}");
        assert!(
            !stdout.contains("bug groups: 0 "),
            "{job:?} must find bugs, or the comparison is vacuous: {stdout}"
        );
        // Every summary carries the prefix-sharing sample; the generation
        // sample is ACE's, so app jobs have none.
        assert!(stdout.contains("prefix sharing ("), "{stdout}");
        assert_eq!(
            stdout.contains("generation ("),
            job[0] == "--preset=tiny-seq2",
            "{stdout}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn usage_errors_exit_2_from_every_subcommand() {
    let bad: [&[&str]; 25] = [
        &[],
        &["frobnicate"],
        // The job-queue daemon's command is gone.
        &["fleet", "serve"],
        &["sweep", "--era", "3.13", "--nope"],
        &["sweep", "--workers"],
        &["sweep", "--workers", "0"],
        // A value given to a flag that takes none, mid-line and last.
        &["sweep", "--in-process=false", "--preset", "tiny-seq2"],
        &["sweep", "--preset", "tiny-seq2", "--challenge-loopback=no"],
        &["sweep", "--transport", "carrier-pigeon"],
        &["sweep", "--in-process", "--checkpoint", "x.ck"],
        // Pool flags an in-process sweep would ignore, before and after it.
        &["sweep", "--in-process", "--transport", "tcp"],
        &["sweep", "--listen", "127.0.0.1:0", "--in-process"],
        &["sweep", "--in-process", "--ssh", "host"],
        &["sweep", "--in-process", "--remote-worker", "b3"],
        &["sweep", "--in-process", "--secret", "s"],
        &["sweep", "--challenge-loopback", "--in-process"],
        &["sweep", "--in-process", "--respawn", "1"],
        // Audit budgets without the mode they budget.
        &["sweep", "--in-process", "--audit-k", "3"],
        &["sweep", "--triage-audit", "2", "--crash-points", "all"],
        &["worker", "--bogus"],
        &["groups"],
        &["groups", "--out", "x"],
        &["groups", "--checkpoint"],
        &["groups", "--checkpoint", "x", "--nope"],
        &["analyze", "--file", "a", "--corpus", "b"],
    ];
    for argv in bad {
        let ran = b3(argv);
        let stderr = String::from_utf8_lossy(&ran.stderr);
        assert_eq!(ran.status.code(), Some(2), "{argv:?}: {stderr}");
        assert!(stderr.contains("usage: b3 sweep"), "{argv:?}: {stderr}");
    }
    // Not a usage error: a well-formed command that fails at run time.
    let missing = std::env::temp_dir().join(format!("b3-cli-missing-{}.ck", std::process::id()));
    let missing = missing.to_str().expect("utf-8 temp path");
    let ran = b3(&["groups", "--checkpoint", missing]);
    assert_eq!(ran.status.code(), Some(1));
}

/// `b3 sweep --listen ADDR --secret S` takes its workers from outside its
/// own process tree: a `b3 worker --connect ADDR --secret S` somebody else
/// started joins the pool (challenged even on loopback here), while one
/// with the wrong secret is turned away (costing the sweep one of its two
/// worker slots), and the groups the admitted worker finds are
/// byte-identical to the in-process reference.
#[test]
fn a_listening_sweep_admits_an_externally_started_worker() {
    use std::io::BufRead;
    use std::process::Stdio;

    let dir = std::env::temp_dir().join(format!("b3-cli-listen-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let (listened, reference) = (dir.join("listen.groups"), dir.join("in-process.groups"));
    let mut sweep = Command::new(env!("CARGO_BIN_EXE_b3"))
        .args(["sweep", "--preset", "tiny-seq2", "--workers", "2"])
        .args(["--listen", "127.0.0.1:0", "--secret", "cli-test-secret"])
        .args(["--challenge-loopback", "--out"])
        .arg(&listened)
        .stdout(Stdio::piped())
        .spawn()
        .expect("sweep starts");
    let stdout = std::io::BufReader::new(sweep.stdout.take().expect("sweep stdout is piped"));
    let mut lines = stdout.lines().map(|line| line.expect("sweep stdout reads"));

    // The sweep prints where its listener materialized.
    let marker = "worker listener on ";
    let line = lines
        .find(|line| line.contains(marker))
        .unwrap_or_else(|| panic!("sweep never printed {marker:?}"));
    let rest = &line[line.find(marker).expect("marker found") + marker.len()..];
    let addr = rest.split(' ').next().expect("address");

    let worker = |secret: &str| {
        Command::new(env!("CARGO_BIN_EXE_b3"))
            .args(["worker", "--connect", addr, "--secret", secret])
            .status()
            .expect("worker runs")
    };
    let refused = worker("not-the-secret");
    let admitted = worker("cli-test-secret");
    let rest: Vec<String> = lines.collect();
    let ran = sweep.wait().expect("sweep exits");
    assert!(
        !refused.success(),
        "a worker with the wrong secret must be refused"
    );
    assert!(admitted.success(), "the worker runs the job to Shutdown");
    assert!(ran.success(), "{rest:?}");
    assert!(
        rest.iter().any(|line| line.contains("sweep complete")),
        "{rest:?}"
    );

    let reference_arg = reference.to_str().expect("utf-8 temp path");
    let ran = b3(&[
        "sweep",
        "--preset",
        "tiny-seq2",
        "--in-process",
        "--out",
        reference_arg,
    ]);
    assert!(
        ran.status.success(),
        "{}",
        String::from_utf8_lossy(&ran.stderr)
    );
    assert_eq!(
        std::fs::read(&listened).expect("--out file written"),
        std::fs::read(&reference).expect("reference written")
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// One job run to the end across a kill, then read back offline: a sweep
/// under a non-default scope stops early, its checkpoint gets the torn
/// record a coordinator killed mid-append leaves, and the same command
/// resumes it to completion. The resumed run's `--out`, and `b3 groups` of
/// the checkpoint it left, are each byte-identical to an in-process
/// reference of the same job; without `--out`, `b3 groups` renders the
/// table.
#[test]
fn a_resumed_torn_checkpoint_and_its_offline_groups_match_the_in_process_bytes() {
    use std::io::Write as _;

    let dir = std::env::temp_dir().join(format!("b3-cli-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = |name: &str| dir.join(name).to_str().expect("utf-8 temp path").to_owned();
    let (ck, resumed, offline, reference) = (
        path("resume.ck"),
        path("resumed.groups"),
        path("offline.groups"),
        path("in-process.groups"),
    );
    let job = [
        "sweep",
        "--preset",
        "tiny-seq2",
        "--crash-points",
        "triaged",
        "--prune",
        "rep",
    ];
    let ok = |argv: &[&str]| {
        let ran = b3(argv);
        let stderr = String::from_utf8_lossy(&ran.stderr);
        assert!(ran.status.success(), "{argv:?} failed: {stderr}");
        String::from_utf8_lossy(&ran.stdout).into_owned()
    };

    let pool = ["--workers", "2", "--checkpoint", &ck];
    let stopped = ok(&[&job[..], &pool, &["--stop-after", "50"]].concat());
    assert!(stopped.contains("sweep incomplete"), "{stopped}");
    std::fs::OpenOptions::new()
        .append(true)
        .open(&ck)
        .expect("checkpoint opens")
        .write_all(b"\x02\xf0\xff\x00\x00torn-by-a-crash")
        .expect("torn record appended");
    let finished = ok(&[&job[..], &pool, &["--out", &resumed]].concat());
    assert!(finished.contains("sweep complete"), "{finished}");
    assert!(!finished.contains("bug groups: 0 "), "{finished}");
    ok(&["groups", "--checkpoint", &ck, "--out", &offline]);
    ok(&[
        &job[..],
        &["--in-process", "--workers", "2", "--out", &reference],
    ]
    .concat());

    let read = |path: &str| std::fs::read(path).expect("--out file written");
    assert_eq!(read(&resumed), read(&reference));
    assert_eq!(read(&offline), read(&reference));
    let rendered = ok(&["groups", "--checkpoint", &ck]);
    assert!(!rendered.contains("no bug groups"), "{rendered}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `b3 groups` of a file that is not a checkpoint fails at run time (exit
/// 1) with a message naming the file, not a usage error.
#[test]
fn groups_refuses_a_file_that_is_not_a_checkpoint() {
    let path = std::env::temp_dir().join(format!("b3-cli-not-a-ck-{}.ck", std::process::id()));
    std::fs::write(&path, b"NOPE, not a checkpoint").expect("file written");
    let arg = path.to_str().expect("utf-8 temp path");
    let ran = b3(&["groups", "--checkpoint", arg]);
    let stderr = String::from_utf8_lossy(&ran.stderr);
    assert_eq!(ran.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("not a segment checkpoint"), "{stderr}");
    assert!(stderr.contains(arg), "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");
    let _ = std::fs::remove_file(&path);
}

/// An in-process sweep names the pool flag it refuses, whichever of them
/// is given, and still takes `--workers`, its thread count.
#[test]
fn in_process_sweep_names_the_pool_flag_it_refuses() {
    for flag in [
        &["--transport", "tcp"][..],
        &["--listen", "127.0.0.1:0"],
        &["--ssh", "host"],
        &["--remote-worker", "b3"],
        &["--secret", "s"],
        &["--challenge-loopback"],
        &["--respawn", "1"],
    ] {
        let argv = [&["sweep", "--preset", "tiny", "--in-process"], flag].concat();
        let ran = b3(&argv);
        let stderr = String::from_utf8_lossy(&ran.stderr);
        assert_eq!(ran.status.code(), Some(2), "{argv:?}: {stderr}");
        let needs = format!("{} needs a worker pool", flag[0]);
        assert!(stderr.contains(&needs), "{argv:?}: {stderr}");
    }
    let ran = b3(&[
        "sweep",
        "--preset",
        "tiny",
        "--in-process",
        "--workers",
        "2",
    ]);
    let stdout = String::from_utf8_lossy(&ran.stdout);
    let stderr = String::from_utf8_lossy(&ran.stderr);
    assert!(ran.status.success(), "{stderr}");
    assert!(stdout.contains("sweep complete"), "{stdout}");
}

/// Offsets and sizes are workload text. One no file system can hold fails
/// the operation — the workload "did not execute", exit 1 — instead of
/// aborting the process on an allocation failure or an overflow.
#[test]
fn analyze_refuses_absurd_sizes_with_exit_1() {
    use std::io::Write as _;
    use std::process::Stdio;

    let cases = [
        (
            "truncate foo 4611686018427387904",
            "no space left on device",
        ),
        ("write foo 18446744073709551610 10", "overflows"),
        ("falloc foo keep_size 18446744073709551615 1", "overflows"),
        ("msync foo 18446744073709551610 10", "overflows"),
    ];
    for fs in ["btrfs", "ext4"] {
        for (op, expected) in cases {
            let mut child = Command::new(env!("CARGO_BIN_EXE_b3"))
                .args(["analyze", "--fs", fs])
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("b3 runs");
            let text = format!("creat foo\n{op}\nfsync foo\n");
            child
                .stdin
                .take()
                .expect("piped stdin")
                .write_all(text.as_bytes())
                .expect("workload written");
            let ran = child.wait_with_output().expect("b3 exits");
            let stderr = String::from_utf8_lossy(&ran.stderr);
            assert_eq!(ran.status.code(), Some(1), "{fs}: {op:?}: {stderr}");
            assert!(
                stderr.contains("did not execute to completion") && stderr.contains(expected),
                "{fs}: {op:?}: {stderr}"
            );
        }
    }
}

//! The `b3` command line, driven as a process: one job description gives
//! byte-identical group tables whichever way the sweep is run, and every
//! subcommand answers a bad command line with usage on stderr and exit 2.

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
    let bad: [&[&str]; 18] = [
        &[],
        &["frobnicate"],
        &["sweep", "--era", "3.13", "--nope"],
        &["sweep", "--workers"],
        &["sweep", "--workers", "0"],
        &["fleet", "serve", "--dir", "x", "--workers", "0"],
        // A value given to a flag that takes none, mid-line and last.
        &["sweep", "--in-process=false", "--preset", "tiny-seq2"],
        &["sweep", "--preset", "tiny-seq2", "--challenge-loopback=no"],
        &["fleet", "serve", "--dir", "x", "--exit-when-idle=no"],
        &["fleet", "status", "--dir", "x", "--assert-all-done=no"],
        &["sweep", "--transport", "carrier-pigeon"],
        &["sweep", "--in-process", "--checkpoint", "x.ck"],
        &["worker", "--bogus"],
        &["fleet"],
        &["fleet", "status"],
        &["fleet", "serve", "--control", "127.0.0.1:0"],
        &["fleet", "enqueue", "--control", "127.0.0.1:1", "--audit-k"],
        &["analyze", "--file", "a", "--corpus", "b"],
    ];
    for argv in bad {
        let ran = b3(argv);
        let stderr = String::from_utf8_lossy(&ran.stderr);
        assert_eq!(ran.status.code(), Some(2), "{argv:?}: {stderr}");
        assert!(stderr.contains("usage: b3 sweep"), "{argv:?}: {stderr}");
    }
    // Not a usage error: a well-formed command that fails at run time.
    let ran = b3(&["fleet", "status", "--control", "127.0.0.1:1"]);
    assert_eq!(ran.status.code(), Some(1));
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

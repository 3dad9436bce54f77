//! Source-level lint checks, run as part of tier-1 `cargo test`.
//!
//! These enforce repo invariants that `rustc` and `clippy` cannot express:
//!
//! * **Determinism**: the enumeration, canonicalization, and codec layers
//!   must never read a wall clock. Workload identity, canonical keys, and
//!   wire bytes are replayed and compared across runs and machines, so a
//!   timestamp anywhere in those paths would silently break resume and
//!   audit equality.
//! * **No panics in the distributed layer**: `harness/src/distrib` runs in
//!   long-lived daemons and remote workers where a panic tears down every
//!   in-flight shard; non-test code there must surface failures as
//!   `FsResult` (or explicitly poison-recover), never `unwrap`/`expect`.
//! * **A coordinator core without I/O**: `harness/src/distrib/coordinator.rs`
//!   decides and the shell around it does the I/O, so the core names no
//!   lock, thread, clock, socket, file or link.
//! * **One shard scheduler**: the in-process engine
//!   (`harness/src/engine.rs`) claims and merges through that core, so it
//!   neither lists the missing shards nor records a result itself.
//! * **Wire-tag documentation**: every frame-tag constant in
//!   `protocol::wire` must be named in `docs/PROTOCOL.md`, so a new frame
//!   cannot ship undocumented. (`tests/docs.rs` checks the converse — the
//!   documented table matches the constants' values.)

use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, recursively, sorted for stable failure
/// output.
fn rust_sources(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries =
            std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display()));
        for entry in entries {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// The portion of a source file before its `#[cfg(test)] mod tests` block
/// (tests may unwrap freely; shipped code may not).
fn non_test_code(source: &str) -> &str {
    match source.find("#[cfg(test)]\nmod tests") {
        Some(idx) => &source[..idx],
        None => source,
    }
}

/// Lines of `source` that are code, paired with 1-based line numbers:
/// comment-only lines are dropped so a pattern named in a doc comment does
/// not trip the lint.
fn code_lines(source: &str) -> impl Iterator<Item = (usize, &str)> {
    source
        .lines()
        .enumerate()
        .map(|(i, line)| (i + 1, line))
        .filter(|(_, line)| {
            let trimmed = line.trim_start();
            !(trimmed.starts_with("//") || trimmed.starts_with("#!["))
        })
}

/// Collects `path:line: text` hits of any of `patterns` in the non-test
/// code of every file under `roots`.
fn scan(roots: &[PathBuf], patterns: &[&str]) -> Vec<String> {
    let mut hits = Vec::new();
    for root in roots {
        let files = if root.is_dir() {
            rust_sources(root)
        } else {
            vec![root.clone()]
        };
        for file in files {
            let source = std::fs::read_to_string(&file)
                .unwrap_or_else(|e| panic!("read {}: {e}", file.display()));
            for (number, line) in code_lines(non_test_code(&source)) {
                if patterns.iter().any(|pattern| line.contains(pattern)) {
                    let file = file.strip_prefix(repo_root()).unwrap_or(&file);
                    hits.push(format!("{}:{number}: {}", file.display(), line.trim()));
                }
            }
        }
    }
    hits
}

/// The enumeration, canonicalization, and codec layers are pure functions
/// of their inputs: workload identity, canonical keys, and wire bytes must
/// be identical across runs, machines, and resumes. A wall-clock read
/// anywhere in them would silently break that.
#[test]
fn deterministic_layers_never_read_the_clock() {
    let root = repo_root();
    let roots = [
        root.join("crates/ace/src"),
        root.join("crates/analyze/src"),
        root.join("crates/vfs/src/codec.rs"),
    ];
    let hits = scan(&roots, &["SystemTime::now", "Instant::now"]);
    assert!(
        hits.is_empty(),
        "wall-clock reads in deterministic layers:\n{}",
        hits.join("\n")
    );
}

/// The distributed layer runs in long-lived daemons and remote workers; a
/// panic there tears down every in-flight shard. Non-test code must
/// propagate `FsResult` errors (or recover poisoned locks via
/// `PoisonError::into_inner`) instead of unwrapping.
#[test]
fn distrib_non_test_code_never_unwraps() {
    let roots = [repo_root().join("crates/harness/src/distrib")];
    let hits = scan(&roots, &[".unwrap()", ".expect("]);
    assert!(
        hits.is_empty(),
        "unwrap/expect in distrib non-test code:\n{}",
        hits.join("\n")
    );
}

/// The coordinator core (`distrib/coordinator.rs`) makes every decision of a
/// distributed run and does no I/O: the shell in `distrib/mod.rs` moves the
/// frames, appends the records and waits. So the core's non-test code names
/// no lock, thread, clock, socket, file, link or persister, and every
/// schedule of its events runs on one thread. The shell recovers a poisoned
/// lock in one helper only.
#[test]
fn the_coordinator_core_does_no_io() {
    let distrib = repo_root().join("crates/harness/src/distrib");
    let io = [
        "Mutex",
        "Condvar",
        "Instant",
        "std::thread",
        "std::net",
        "std::fs",
        "WorkerLink",
        "Transport",
        "Persister",
    ];
    let hits = scan(&[distrib.join("coordinator.rs")], &io);
    assert!(
        hits.is_empty(),
        "I/O named in the coordinator core:\n{}",
        hits.join("\n")
    );
    let recoveries = scan(&[distrib.join("mod.rs")], &["PoisonError::into_inner"]);
    assert_eq!(
        recoveries.len(),
        1,
        "distrib/mod.rs recovers poisoned locks in more than one place:\n{}",
        recoveries.join("\n")
    );
}

/// The coordinator core owns the shard queue and the merge for both of its
/// callers. The in-process engine therefore never builds its own queue
/// (`missing_shards`) nor records a shard result (`SweepCheckpoint::record`)
/// outside its tests.
#[test]
fn the_engine_schedules_through_the_coordinator_core() {
    let engine = repo_root().join("crates/harness/src/engine.rs");
    let hits = scan(&[engine], &["missing_shards", ".record("]);
    assert!(
        hits.is_empty(),
        "the engine schedules shards itself:\n{}",
        hits.join("\n")
    );
}

/// Every frame-tag constant in `protocol::wire` must be named in
/// `docs/PROTOCOL.md` (as the CamelCase frame name the table uses), so new
/// frames cannot ship undocumented.
#[test]
fn every_wire_tag_is_documented() {
    let root = repo_root();
    let protocol = std::fs::read_to_string(root.join("crates/harness/src/distrib/protocol.rs"))
        .expect("protocol.rs exists");
    let spec =
        std::fs::read_to_string(root.join("docs/PROTOCOL.md")).expect("docs/PROTOCOL.md exists");

    let mut tags = Vec::new();
    for line in protocol.lines() {
        let Some(rest) = line.trim_start().strip_prefix("pub const ") else {
            continue;
        };
        let Some((name, _)) = rest.split_once(": u8") else {
            continue;
        };
        tags.push(name.trim().to_string());
    }
    assert!(
        tags.len() >= 15,
        "expected the full wire-tag roster in protocol.rs, found {tags:?}"
    );

    let camel = |name: &str| {
        name.split('_')
            .map(|word| {
                let mut chars = word.chars();
                let first = chars.next().into_iter().collect::<String>();
                first + &chars.as_str().to_lowercase()
            })
            .collect::<String>()
    };
    let missing: Vec<String> = tags
        .iter()
        .map(|tag| camel(tag))
        .filter(|name| !spec.contains(&format!("`{name}`")))
        .collect();
    assert!(
        missing.is_empty(),
        "wire tags not named in docs/PROTOCOL.md: {missing:?}"
    );
}

//! Documentation consistency checks, run as part of tier-1 `cargo test`
//! and as CI's dedicated docs job.
//!
//! * **Intra-repo links**: every relative link in `README.md` and
//!   `docs/*.md` must point at an existing file, and every `#anchor` must
//!   match a heading in its target document.
//! * **One command line**: no markdown file names an entry point the `b3`
//!   binary replaced.
//! * **Wire-spec consistency**: the frame-tag table in `docs/PROTOCOL.md`
//!   must match the `wire` constants in
//!   `b3_harness::distrib::protocol`, and the documented protocol version
//!   must equal `PROTOCOL_VERSION`.
//! * **On-disk-format consistency**: the worked hexdumps in
//!   `docs/FORMATS.md` must be byte-identical to a freshly generated
//!   checkpoint file and to a freshly encoded WAL commit record, and the
//!   documented magics/record tags must match the `segment` and app
//!   engine constants.

use std::collections::BTreeMap;
use std::path::PathBuf;

use b3::ace::{Classifier, CANON_VERSION};
use b3::harness::distrib::protocol::{wire, PROTOCOL_VERSION};
use b3::harness::distrib::save_checkpoint;
use b3::harness::distrib::segment::{REC_DELTA, REC_SNAPSHOT, SEGMENT_MAGIC};
use b3::harness::SweepCheckpoint;
use b3::prelude::{Bounds, Op};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The documentation files under link- and consistency-check.
fn doc_files() -> Vec<PathBuf> {
    let root = repo_root();
    let mut files = vec![root.join("README.md")];
    let docs = root.join("docs");
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&docs)
        .expect("docs/ directory exists")
        .map(|entry| entry.expect("docs/ entry reads").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "md"))
        .collect();
    entries.sort();
    assert!(
        !entries.is_empty(),
        "docs/ must contain the markdown specs this test guards"
    );
    files.extend(entries);
    files
}

/// Extracts `[text](target)` link targets from markdown, skipping fenced
/// code blocks (a hexdump's ASCII gutter could otherwise look like a
/// link).
fn link_targets(markdown: &str) -> Vec<String> {
    let mut targets = Vec::new();
    let mut in_fence = false;
    for line in markdown.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let mut rest = line;
        while let Some(open) = rest.find("](") {
            let after = &rest[open + 2..];
            let Some(close) = after.find(')') else { break };
            targets.push(after[..close].to_string());
            rest = &after[close + 1..];
        }
    }
    targets
}

/// GitHub-style anchor slug of a heading: lowercase, punctuation dropped,
/// spaces hyphenated.
fn heading_slug(heading: &str) -> String {
    heading
        .trim()
        .chars()
        .filter_map(|c| {
            if c.is_alphanumeric() {
                Some(c.to_ascii_lowercase())
            } else if c == ' ' || c == '-' || c == '_' {
                Some(if c == ' ' { '-' } else { c })
            } else {
                None
            }
        })
        .collect()
}

/// All heading anchors a markdown document defines.
fn anchors(markdown: &str) -> Vec<String> {
    let mut in_fence = false;
    markdown
        .lines()
        .filter(|line| {
            if line.trim_start().starts_with("```") {
                in_fence = !in_fence;
                return false;
            }
            !in_fence && line.starts_with('#')
        })
        .map(|line| heading_slug(line.trim_start_matches('#')))
        .collect()
}

#[test]
fn intra_repo_links_resolve() {
    let mut broken = Vec::new();
    for file in doc_files() {
        let markdown = std::fs::read_to_string(&file).expect("doc file reads");
        let dir = file.parent().expect("doc file has a parent");
        for target in link_targets(&markdown) {
            if target.starts_with("http://")
                || target.starts_with("https://")
                || target.starts_with("mailto:")
            {
                continue;
            }
            let (path_part, anchor) = match target.split_once('#') {
                Some((path, anchor)) => (path, Some(anchor.to_string())),
                None => (target.as_str(), None),
            };
            let resolved: PathBuf = if path_part.is_empty() {
                file.clone()
            } else {
                dir.join(path_part)
            };
            if !resolved.exists() {
                broken.push(format!("{}: broken link to {target}", file.display()));
                continue;
            }
            if let Some(anchor) = anchor {
                // Anchors are only checkable in markdown targets.
                if resolved.extension().is_some_and(|ext| ext == "md") {
                    let target_markdown = if resolved == file {
                        markdown.clone()
                    } else {
                        std::fs::read_to_string(&resolved).expect("link target reads")
                    };
                    if !anchors(&target_markdown).contains(&anchor) {
                        broken.push(format!(
                            "{}: link to {target} names a missing anchor #{anchor}",
                            file.display()
                        ));
                    }
                }
            }
        }
    }
    assert!(broken.is_empty(), "broken intra-repo links:\n{broken:#?}");
}

/// Every `.md` file of the repository (build directories aside).
fn markdown_files(dir: &std::path::Path, found: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("repository directory reads") {
        let path = entry.expect("directory entry reads").path();
        let name = path
            .file_name()
            .and_then(|name| name.to_str())
            .unwrap_or("");
        if path.is_dir() {
            if !matches!(name, "target" | ".git" | ".bench_build") {
                markdown_files(&path, found);
            }
        } else if name.ends_with(".md") {
            found.push(path);
        }
    }
}

/// The sweep stack has one command line, `b3` (README.md, "Command line").
/// A document that still names one of the five entry points it replaced,
/// a batch-sizing flag or field that was deleted, a type the one
/// crash-point loop replaced, the thread pool and benches the shard engine
/// and the examples replaced, or the capture the AutoChecker no longer
/// makes (`capture_paths` is only its reference now), sends readers to
/// something that no longer exists or no longer runs. History is exempt: the change
/// log, the roadmap's done-items and the issue being worked.
#[test]
fn no_document_names_a_replaced_entry_point() {
    const REPLACED: [&str; 17] = [
        "b3-sweep-fleet",
        "b3-sweep-worker",
        "b3-analyze",
        "sweep_coordinator",
        "app_sweep",
        "--calibrate",
        "--batch-target-ms",
        "batch_target",
        "max_batch",
        "calibrated_rate",
        "RecoverySession",
        "FsSharing",
        "AppSharing",
        "run_stream",
        "cargo bench",
        "B3_BENCH_QUICK",
        "capture_paths",
    ];
    const HISTORY: [&str; 3] = ["CHANGES.md", "ROADMAP.md", "ISSUE.md"];
    let root = repo_root();
    let mut files = Vec::new();
    markdown_files(&root, &mut files);
    let mut stale = Vec::new();
    for file in files {
        let relative = file.strip_prefix(&root).expect("file is under the root");
        if HISTORY
            .iter()
            .any(|name| relative == std::path::Path::new(name))
        {
            continue;
        }
        let markdown = std::fs::read_to_string(&file).expect("markdown file reads");
        for (number, line) in markdown.lines().enumerate() {
            // `b3-analyze` is also the package name of `crates/analyze`;
            // the README's crate table may list it, as a crate.
            if line.starts_with("| `b3-analyze` |") {
                continue;
            }
            for name in REPLACED.iter().filter(|name| line.contains(**name)) {
                stale.push(format!("{}:{}: {name}", relative.display(), number + 1));
            }
        }
    }
    assert!(
        stale.is_empty(),
        "replaced entry points or flags still documented:\n{stale:#?}"
    );
}

/// Parses the PROTOCOL.md frame-tag table into `name -> tag` pairs. Rows
/// look like `| `0x01` | `Job` | coord → worker | … |`.
fn documented_tags(protocol_md: &str) -> BTreeMap<String, u8> {
    let mut tags = BTreeMap::new();
    for line in protocol_md.lines() {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        if cells.len() < 4 {
            continue;
        }
        let tag_cell = cells[1].trim_matches('`');
        let Some(hex) = tag_cell.strip_prefix("0x") else {
            continue;
        };
        let Ok(tag) = u8::from_str_radix(hex, 16) else {
            continue;
        };
        let name = cells[2].trim_matches('`').to_string();
        tags.insert(name, tag);
    }
    tags
}

#[test]
fn protocol_spec_matches_the_wire_constants() {
    let path = repo_root().join("docs/PROTOCOL.md");
    let spec = std::fs::read_to_string(&path).expect("docs/PROTOCOL.md exists");

    let documented = documented_tags(&spec);
    let expected: BTreeMap<String, u8> = [
        ("Job".to_string(), wire::JOB),
        ("Assign".to_string(), wire::ASSIGN),
        ("Shutdown".to_string(), wire::SHUTDOWN),
        ("Challenge".to_string(), wire::CHALLENGE),
        ("Hello".to_string(), wire::HELLO),
        ("Claim".to_string(), wire::CLAIM),
        ("ShardDone".to_string(), wire::SHARD_DONE),
        ("Reject".to_string(), wire::REJECT),
        ("Enqueue".to_string(), wire::ENQUEUE),
        ("Status".to_string(), wire::STATUS),
        ("Results".to_string(), wire::RESULTS),
        ("Cancel".to_string(), wire::CANCEL),
        ("Subscribe".to_string(), wire::SUBSCRIBE),
        ("Ack".to_string(), wire::ACK),
        ("StatusReport".to_string(), wire::STATUS_REPORT),
        ("ResultsReport".to_string(), wire::RESULTS_REPORT),
        ("ClientError".to_string(), wire::CLIENT_ERROR),
        ("Event".to_string(), wire::EVENT),
    ]
    .into();
    assert_eq!(
        documented, expected,
        "the PROTOCOL.md tag table must list exactly the wire constants"
    );

    assert!(
        spec.contains(&format!("Protocol version: {PROTOCOL_VERSION}")),
        "PROTOCOL.md must state the current protocol version ({PROTOCOL_VERSION})"
    );
}

/// Renders bytes in the `xxd`-style layout FORMATS.md uses for its worked
/// example.
fn hexdump(bytes: &[u8]) -> String {
    let mut out = String::new();
    for (row, chunk) in bytes.chunks(16).enumerate() {
        let mut hex = String::new();
        for (i, byte) in chunk.iter().enumerate() {
            if i == 8 {
                hex.push(' ');
            }
            hex.push_str(&format!("{byte:02x} "));
        }
        let ascii: String = chunk
            .iter()
            .map(|&b| {
                if (0x20..0x7f).contains(&b) {
                    b as char
                } else {
                    '.'
                }
            })
            .collect();
        out.push_str(&format!("{:08x}  {hex:<49} |{ascii}|\n", row * 16));
    }
    out
}

/// The exact tiny checkpoint FORMATS.md walks through: an empty (unscoped)
/// two-shard checkpoint over `Bounds::tiny()`, persisted with
/// `save_checkpoint`. Fully deterministic, so the documented hexdump can
/// be compared byte-for-byte.
fn documented_checkpoint_bytes() -> Vec<u8> {
    let checkpoint = SweepCheckpoint::new(&Bounds::tiny(), 2);
    let path = std::env::temp_dir().join(format!("b3-docs-hexdump-{}.ck", std::process::id()));
    save_checkpoint(&path, &checkpoint).expect("documented checkpoint saves");
    let bytes = std::fs::read(&path).expect("documented checkpoint reads");
    let _ = std::fs::remove_file(&path);
    bytes
}

#[test]
fn formats_spec_matches_the_on_disk_bytes() {
    let path = repo_root().join("docs/FORMATS.md");
    let spec = std::fs::read_to_string(&path).expect("docs/FORMATS.md exists");

    // The magics and record tags named in the spec are the code's.
    assert_eq!(SEGMENT_MAGIC, *b"B3SG");
    assert!(
        spec.contains("B3SG"),
        "FORMATS.md must name the segment magic"
    );
    assert!(
        spec.contains("B3S4"),
        "FORMATS.md must name the checkpoint payload magic"
    );
    assert!(
        !spec.contains("(`B3S3`)"),
        "FORMATS.md must not still title a section with the superseded magic"
    );
    assert!(
        spec.contains(&format!("`{REC_SNAPSHOT:#04x}`")),
        "FORMATS.md must document the snapshot record tag {REC_SNAPSHOT:#04x}"
    );
    assert!(
        spec.contains(&format!("`{REC_DELTA:#04x}`")),
        "FORMATS.md must document the delta record tag {REC_DELTA:#04x}"
    );

    // The worked hexdump is regenerated from scratch and must match the
    // document byte-for-byte — the example can never drift from the code.
    let dump = hexdump(&documented_checkpoint_bytes());
    for line in dump.lines() {
        assert!(
            spec.contains(line),
            "FORMATS.md hexdump is stale; expected line:\n{line}\n\
             full regenerated dump:\n{dump}"
        );
    }
}

/// The worked WAL commit record FORMATS.md walks through: sequence 1, a
/// 3-byte put of `k0` at heap offset 0, then a delete of `k1`, encoded by
/// the application engine's `encode_commit_record`. Fully deterministic
/// (the checksum is FNV-1a over the record bytes), so the documented
/// hexdump can be compared byte-for-byte.
fn documented_commit_record_bytes() -> Vec<u8> {
    use b3::app::engine::{encode_commit_record, RecordOp, OP_DELETE, OP_PUT};
    encode_commit_record(
        1,
        &[
            RecordOp {
                kind: OP_PUT,
                key: "k0".to_string(),
                val_off: 0,
                val_len: 3,
            },
            RecordOp {
                kind: OP_DELETE,
                key: "k1".to_string(),
                val_off: 0,
                val_len: 0,
            },
        ],
    )
}

#[test]
fn formats_spec_matches_the_wal_record_bytes() {
    use b3::app::engine::{COMMIT_MAGIC, OP_APPEND, OP_DELETE, OP_PUT, SNAPSHOT_MAGIC};

    let path = repo_root().join("docs/FORMATS.md");
    let spec = std::fs::read_to_string(&path).expect("docs/FORMATS.md exists");

    // The magics and op kind bytes named in the spec are the code's.
    assert_eq!(COMMIT_MAGIC, *b"B3AC");
    assert_eq!(SNAPSHOT_MAGIC, *b"B3AS");
    assert!(
        spec.contains("B3AC"),
        "FORMATS.md must name the commit-record magic"
    );
    assert!(
        spec.contains("B3AS"),
        "FORMATS.md must name the snapshot magic"
    );
    for (name, kind) in [
        ("put", OP_PUT),
        ("delete", OP_DELETE),
        ("append", OP_APPEND),
    ] {
        assert!(
            spec.contains(&format!("`{kind:#04x}`")),
            "FORMATS.md must document the {name} op kind byte {kind:#04x}"
        );
    }

    // The worked hexdump is regenerated from scratch and must match the
    // document byte-for-byte — the WAL grammar can never drift from the
    // engine.
    let dump = hexdump(&documented_commit_record_bytes());
    for line in dump.lines() {
        assert!(
            spec.contains(line),
            "FORMATS.md WAL hexdump is stale; expected line:\n{line}\n\
             full regenerated dump:\n{dump}"
        );
    }
}

/// The canonical-key grammar in FORMATS.md is enforced the same way the
/// hexdump is: the worked example key is regenerated through
/// `Classifier::key` on every run and must appear verbatim in the spec,
/// along with the current canon version and its fingerprint scope
/// components.
#[test]
fn formats_spec_matches_the_canon_key_grammar() {
    let path = repo_root().join("docs/FORMATS.md");
    let spec = std::fs::read_to_string(&path).expect("docs/FORMATS.md exists");

    assert!(
        spec.contains(&format!("canon v{CANON_VERSION}")),
        "FORMATS.md must name the current canon version (v{CANON_VERSION})"
    );
    assert!(
        spec.contains(&format!("canon{CANON_VERSION}:rep")),
        "FORMATS.md must document the representative fingerprint scope"
    );

    // The worked example: B/bar and B/foo relabel to first-use ranks
    // under the paper file set's bounds.
    let classifier = Classifier::new(&Bounds::paper_seq2());
    let key = classifier.key(&[
        Op::Creat {
            path: "B/bar".into(),
        },
        Op::Link {
            existing: "B/bar".into(),
            new: "B/foo".into(),
        },
        Op::Fsync {
            path: "B/bar".into(),
        },
    ]);
    assert!(
        spec.contains(&format!("`{key}`")),
        "FORMATS.md worked canon key is stale; regenerated key:\n{key}"
    );
}

//! Static persistence-order analysis of recorded workload executions.
//!
//! The B3 checker is dynamic: every crash state is constructed, mounted,
//! and compared against an oracle. This crate adds the static layer in
//! front of it — WITCHER-style persistence-ordering analysis over the
//! recorded block IO stream (`b3_block::record`) and the syscall-level ops
//! that produced it:
//!
//! * a **happens-before graph** over the log, ordered by flush barriers
//!   (writes between two barriers form one *flush epoch* and are mutually
//!   unordered);
//! * a **persistence-race report** — write pairs and rename/fsync patterns
//!   left unordered at a crash point, mapped back to the syscall span that
//!   produced them ([`analyze`], printed by `b3 analyze`);
//! * a **crash-state triage** — each crash point partitioned into *hazard
//!   windows* (states that can differ across legal reorderings) and
//!   *provably-quiescent* states (bit-identical to an already-tested
//!   neighbor, established via [`StateDigest`] content digests). The
//!   dynamic checker's `CrashPointPolicy::AllTriaged` tests only the new
//!   states and reuses recorded verdicts for the quiescent ones (see
//!   docs/ANALYSIS.md).

pub mod digest;
pub mod hb;

pub use digest::{state_digests, Digest128, StateDigest};
pub use hb::{analyze, Analysis, CrashWindow, PersistenceRace, RaceKind, RaceSite, WindowClass};

#[cfg(test)]
mod tests {
    use super::*;
    use b3_block::{BlockDevice, CowSnapshotDevice, DiskImage, IoFlags, RecordingDevice};
    use b3_vfs::workload::Op;
    use b3_vfs::Workload;

    fn fsync(path: &str) -> Op {
        Op::Fsync { path: path.into() }
    }

    /// Builds a log by hand: each element is a tiny script instruction.
    enum Step {
        Write(u64, &'static [u8]),
        Flush,
        Checkpoint,
    }

    fn record(steps: &[Step]) -> b3_block::IoLog {
        let mut dev = RecordingDevice::new(CowSnapshotDevice::new(DiskImage::empty(64)));
        let handle = dev.log_handle();
        for step in steps {
            match step {
                Step::Write(block, data) => {
                    dev.write_block(*block, data, IoFlags::META).unwrap();
                }
                Step::Flush => dev.flush().unwrap(),
                Step::Checkpoint => {
                    handle.checkpoint();
                }
            }
        }
        handle.snapshot()
    }

    #[test]
    fn ordered_window_has_no_races() {
        let log = record(&[
            Step::Write(1, b"a"),
            Step::Flush,
            Step::Write(2, b"b"),
            Step::Flush,
            Step::Checkpoint,
        ]);
        let workload = Workload::new("ordered", vec![Op::Creat { path: "f".into() }, fsync("f")]);
        let analysis = analyze(&log, &workload, true);
        assert_eq!(analysis.windows.len(), 1);
        assert_eq!(analysis.windows[0].class, WindowClass::Ordered);
        assert!(analysis.races.is_empty());
        assert_eq!(analysis.epochs, 3);
        assert_eq!(analysis.windows[0].op_span, Some((0, 1)));
    }

    #[test]
    fn unordered_writes_make_a_hazard_window() {
        let log = record(&[Step::Write(1, b"a"), Step::Write(2, b"b"), Step::Checkpoint]);
        let workload = Workload::new("racy", vec![Op::Creat { path: "f".into() }, fsync("f")]);
        let analysis = analyze(&log, &workload, true);
        assert_eq!(analysis.windows.len(), 1);
        let WindowClass::Hazard { races } = &analysis.windows[0].class else {
            panic!("expected hazard, got {:?}", analysis.windows[0].class);
        };
        assert_eq!(races.len(), 1);
        let race = &analysis.races[races[0]];
        assert_eq!(race.kind, RaceKind::UnorderedWrites);
        assert_eq!(race.first.block, 1);
        assert_eq!(race.second.block, 2);
        assert_eq!(race.pending_writes, 2);
        assert_eq!(race.op_descriptions.len(), 2);
    }

    #[test]
    fn unflushed_rename_is_reported() {
        let log = record(&[
            Step::Write(1, b"dirent"),
            Step::Write(2, b"inode"),
            Step::Checkpoint,
        ]);
        let workload = Workload::new(
            "rename",
            vec![
                Op::Rename {
                    from: "a".into(),
                    to: "b".into(),
                },
                fsync("b"),
            ],
        );
        let analysis = analyze(&log, &workload, true);
        assert!(analysis
            .races
            .iter()
            .any(|race| race.kind == RaceKind::UnflushedRename));
    }

    #[test]
    fn repeated_and_empty_states_are_quiescent() {
        let log = record(&[
            // Marker 1: no writes at all -> base image.
            Step::Checkpoint,
            // Marker 2: new content.
            Step::Write(1, b"x"),
            Step::Flush,
            Step::Checkpoint,
            // Marker 3: block 1 rewritten to the same final bytes -> the
            // content digest matches marker 2.
            Step::Write(1, b"x"),
            Step::Checkpoint,
        ]);
        let workload = Workload::new("quiesce", vec![fsync("a"), fsync("a"), fsync("a")]);
        let analysis = analyze(&log, &workload, true);
        assert_eq!(analysis.windows.len(), 3);
        assert_eq!(
            analysis.windows[0].class,
            WindowClass::Quiescent { witness: None }
        );
        assert_eq!(analysis.windows[1].class, WindowClass::Ordered);
        assert_eq!(
            analysis.windows[2].class,
            WindowClass::Quiescent { witness: Some(2) }
        );
        assert_eq!(analysis.quiescent_windows(), 2);
        assert_eq!(analysis.hazard_windows(), 0);
    }

    #[test]
    fn pending_writes_carry_across_markers_until_flushed() {
        // A write before marker 1 is still unflushed at marker 2: the
        // second window inherits the race even though the new write is the
        // only one in its own window.
        let log = record(&[
            Step::Write(1, b"a"),
            Step::Checkpoint,
            Step::Write(2, b"b"),
            Step::Checkpoint,
        ]);
        let workload = Workload::new("carry", vec![fsync("a"), fsync("b")]);
        let analysis = analyze(&log, &workload, true);
        assert_eq!(analysis.windows[0].class, WindowClass::Ordered);
        assert!(matches!(
            analysis.windows[1].class,
            WindowClass::Hazard { .. }
        ));
    }

    #[test]
    fn display_mentions_races_and_witnesses() {
        let log = record(&[
            Step::Write(1, b"a"),
            Step::Write(2, b"b"),
            Step::Checkpoint,
            Step::Checkpoint,
        ]);
        let workload = Workload::new("show", vec![fsync("a"), fsync("b")]);
        let analysis = analyze(&log, &workload, true);
        let text = analysis.to_string();
        assert!(text.contains("unordered-writes"), "{text}");
        assert!(text.contains("bit-identical to crash point 1"), "{text}");
    }

    #[test]
    fn state_digests_match_analysis_windows() {
        let log = record(&[
            Step::Write(1, b"a"),
            Step::Checkpoint,
            Step::Write(2, b"b"),
            Step::Checkpoint,
        ]);
        let workload = Workload::new("digests", vec![fsync("a"), fsync("b")]);
        let analysis = analyze(&log, &workload, true);
        let digests = state_digests(&log);
        assert_eq!(digests.len(), 2);
        for (window, (id, digest)) in analysis.windows.iter().zip(&digests) {
            assert_eq!(window.checkpoint, *id);
            assert_eq!(window.state_digest, *digest);
        }
    }
}

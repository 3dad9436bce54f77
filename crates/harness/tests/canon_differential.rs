//! Differential tests of representative (equivalence-class-pruned) sweeps.
//!
//! The soundness claim under test: canonicalizing workloads by the
//! file-set's forest automorphisms (`b3_ace::canon`) and crash-testing only
//! each class's enumeration-first representative finds the **same bug
//! groups with the same exemplar reports** as exhaustively testing every
//! candidate — while testing strictly fewer workloads. The tests here pin
//! that down three ways:
//!
//! * The **differential** test runs a full sweep and a
//!   [`PruneMode::Representative`] sweep over the same symmetric space and
//!   asserts identical `(skeleton, consequence)` group sets with
//!   byte-identical exemplars, plus the coverage-accounting invariant
//!   `tested_full + skipped_full == tested_rep + skipped_rep + pruned_rep`
//!   (pruned candidates are counted, never silently dropped).
//! * The **distributed** variant drives the same representative sweep
//!   through 4 real worker processes and the framed protocol, proving the
//!   prune mode rides the `SweepJob` codec and the canon-scoped fingerprint
//!   handshake intact.
//! * The **audit** tests exercise [`PruneMode::Audit`]: with the sound
//!   classifier, sampled members never diverge from their representatives;
//!   with a deliberately over-coarse classifier (the test-only hook), the
//!   audit detects the false merge and reports the offending class. The
//!   audit sample itself is frozen: the counts and the diverging
//!   (representative, member) pairs are pinned to what the per-candidate
//!   classification loop produced before pruning was decided per core
//!   block.

use b3_ace::{Bounds, Classifier, WorkloadGenerator};
use b3_fs_cow::CowFsSpec;
use b3_harness::distrib::{run_with_transport, ChildTransport, DistribConfig, SweepJob};
use b3_harness::{Progress, PruneMode, RunConfig, RunSummary, Sweep};
use b3_vfs::codec::Encoder;
use b3_vfs::workload::FileSet;
use b3_vfs::KernelEra;
use std::time::Duration;

/// A Progress with only the counter fields populated, for asserting on
/// [`Progress::describe`].
fn progress_with_counts(tested: usize, skipped: usize, pruned: usize) -> Progress {
    Progress {
        tested,
        skipped,
        pruned,
        bugs: 0,
        completed_shards: 0,
        total_shards: 0,
        total_workloads: 0,
        elapsed: Duration::ZERO,
        eta: None,
        per_worker: Vec::new(),
    }
}

const NUM_SHARDS: usize = 12;

/// A small two-operation space over a file set with nontrivial symmetry:
/// three root files are mutually interchangeable, so the forest
/// automorphism group has 3! − 1 = 5 non-identity elements and pruning has
/// real work to do, while the space stays debug-build sized.
fn symmetric_seq2_bounds() -> Bounds {
    let mut bounds = Bounds::tiny();
    bounds.seq_len = 2;
    bounds.name_prefix = "sym-seq2".into();
    bounds.files = FileSet::new(Vec::new(), vec!["foo".into(), "bar".into(), "baz".into()]);
    bounds
}

fn sweep(bounds: &Bounds, mode: PruneMode) -> RunSummary {
    let spec = CowFsSpec::new(KernelEra::V4_16);
    let config = RunConfig {
        threads: 2,
        ..RunConfig::default()
    };
    Sweep::new(&spec, config)
        .shards(NUM_SHARDS)
        .prune(mode)
        .run(bounds)
}

/// Serializes every exemplar report of a summary, so equality can be
/// asserted on bytes rather than field-by-field.
fn report_bytes(summary: &RunSummary) -> Vec<u8> {
    let mut enc = Encoder::new();
    for report in &summary.reports {
        report.encode(&mut enc);
    }
    enc.finish()
}

#[test]
fn representative_sweep_matches_full_sweep() {
    let bounds = symmetric_seq2_bounds();
    let full = sweep(&bounds, PruneMode::Off);
    assert!(full.tested > 0, "reference sweep must test workloads");
    assert!(
        !full.reports.is_empty(),
        "reference sweep must find bugs on the 4.16-era CowFs"
    );
    assert_eq!(full.pruned, 0, "pruning off must prune nothing");

    let rep = sweep(&bounds, PruneMode::Representative);
    assert!(rep.pruned > 0, "a symmetric space must prune members");
    assert!(
        rep.tested < full.tested,
        "representatives must be a strict subset ({} vs {})",
        rep.tested,
        full.tested
    );
    // Every candidate is accounted for exactly once: tested, skipped by
    // bounds, or pruned as equivalent. The two sweeps enumerate the same
    // space, so the totals must agree.
    assert_eq!(
        full.tested + full.skipped,
        rep.tested + rep.skipped + rep.pruned,
        "pruned candidates must be counted, not dropped"
    );
    // Same bugs: same (skeleton, consequence) groups, and — because each
    // class's representative is its enumeration-first member — the *same
    // exemplar workload* for every group, byte for byte.
    assert_eq!(
        report_bytes(&rep),
        report_bytes(&full),
        "exemplar reports must be byte-identical"
    );

    // Progress rendering distinguishes the two kinds of non-tested
    // candidates: "skipped" (could not execute) vs "pruned" (equivalent to
    // an earlier representative). A no-pruning sweep never mentions pruning.
    let described = progress_with_counts(rep.tested, rep.skipped, rep.pruned).describe();
    assert!(described.contains("pruned"), "{described}");
    let full_described = progress_with_counts(full.tested, full.skipped, full.pruned).describe();
    assert!(!full_described.contains("pruned"), "{full_described}");
}

#[test]
fn four_worker_representative_sweep_matches_full_sweep() {
    let bounds = symmetric_seq2_bounds();
    let full = sweep(&bounds, PruneMode::Off);
    let rep = sweep(&bounds, PruneMode::Representative);

    let mut job = SweepJob::new(bounds, NUM_SHARDS);
    job.prune = PruneMode::Representative;
    let config = DistribConfig {
        workers: 4,
        ..DistribConfig::default()
    };
    let transport = ChildTransport::new(
        b3_harness::distrib::WorkerCommand::new(env!("CARGO_BIN_EXE_b3")).arg("worker"),
    );
    let outcome = run_with_transport(&job, &config, &transport, None)
        .expect("4-worker representative sweep runs");
    assert!(outcome.is_complete());

    let distributed = &outcome.summary;
    assert_eq!(distributed.tested, rep.tested, "tested counts differ");
    assert_eq!(distributed.skipped, rep.skipped, "skipped counts differ");
    assert_eq!(distributed.pruned, rep.pruned, "pruned counts differ");
    assert!(distributed.audit_failures.is_empty());
    assert_eq!(
        full.tested + full.skipped,
        distributed.tested + distributed.skipped + distributed.pruned,
        "distributed pruning must account for every candidate"
    );
    assert_eq!(
        report_bytes(distributed),
        report_bytes(&full),
        "distributed representative exemplars must match the full sweep"
    );
}

/// With the *sound* classifier, audited members never diverge from their
/// representatives — the audit is a no-op safety net that still tests a
/// deterministic sample of pruned candidates.
#[test]
fn audit_mode_passes_on_sound_classifier() {
    let bounds = symmetric_seq2_bounds();
    let full = sweep(&bounds, PruneMode::Off);
    let audited = sweep(
        &bounds,
        PruneMode::Audit {
            samples_per_class: 2,
        },
    );
    assert!(audited.pruned > 0);
    assert!(audited.audited > 0, "audit mode must sample members");
    assert!(
        audited.audited <= audited.pruned,
        "audits come from the pruned population"
    );
    assert_eq!(
        audited.audit_failures,
        Vec::new(),
        "a sound canonicalization must never diverge"
    );
    assert_eq!(
        report_bytes(&audited),
        report_bytes(&full),
        "audit runs must not perturb the group exemplars"
    );
}

/// The regression the audit exists for: an over-coarse canon key (here the
/// test-only classifier that treats files as interchangeable *across*
/// directories and flattens directory structure out of keys) falsely merges
/// classes whose members crash differently. Audit mode must catch it and
/// name the offending class.
#[test]
fn audit_mode_detects_over_coarse_canonicalization() {
    // Two sibling directories plus a root file: the sound group only swaps
    // A and B (with their contents), but the unsound hook also merges
    // `foo` with `A/foo` — and e.g. `rename(A, B); creat(A/foo)` is
    // unexecutable (its parent was just renamed away) while its false
    // "representative" `rename(A, B); creat(foo)` runs fine. That
    // skipped-vs-ran divergence is exactly what the audit compares.
    let mut bounds = Bounds::tiny();
    bounds.seq_len = 2;
    bounds.name_prefix = "unsound-seq2".into();
    bounds.files = FileSet::new(
        vec!["A".into(), "B".into()],
        vec!["foo".into(), "A/foo".into(), "B/foo".into()],
    );
    let unsound = Classifier::unsound_for_tests(&bounds);
    assert!(
        unsound.num_automorphisms() > Classifier::new(&bounds).num_automorphisms(),
        "the test hook must add false symmetries"
    );

    let spec = CowFsSpec::new(KernelEra::V4_16);
    let config = RunConfig {
        threads: 2,
        ..RunConfig::default()
    };
    let summary = Sweep::new(&spec, config)
        .shards(NUM_SHARDS)
        .prune(PruneMode::Audit {
            // Sample aggressively: the space is tiny and the point is to
            // hit a diverging member, not to model production sampling.
            samples_per_class: u32::MAX,
        })
        .with_classifier_for_tests(unsound)
        .run(&bounds);
    assert!(summary.audited > 0, "audit must have sampled members");
    assert!(
        !summary.audit_failures.is_empty(),
        "audit mode must detect the over-coarse key \
         (audited {} members, pruned {})",
        summary.audited,
        summary.pruned
    );
    let failure = &summary.audit_failures[0];
    assert!(!failure.class.is_empty(), "failure must name the class");
    assert!(
        failure.detail.contains("diverges") || failure.detail.contains("rejected"),
        "{}",
        failure.detail
    );

    // The sampled members — and so the divergences found — are exactly the
    // ones the per-candidate classification loop found.
    assert_eq!(
        (summary.tested, summary.skipped, summary.pruned),
        (134, 100, 772)
    );
    assert_eq!(summary.audited, 398);
    let pairs: Vec<(&str, &str)> = summary
        .audit_failures
        .iter()
        .map(|f| (f.representative.as_str(), f.member.as_str()))
        .collect();
    let pinned = [
        ("unsound-seq2-0000615", "unsound-seq2-0000621"),
        ("unsound-seq2-0000617", "unsound-seq2-0000623"),
        ("unsound-seq2-0000618", "unsound-seq2-0000624"),
        ("unsound-seq2-0000759", "unsound-seq2-0000765"),
        ("unsound-seq2-0000760", "unsound-seq2-0000766"),
        ("unsound-seq2-0000761", "unsound-seq2-0000767"),
        ("unsound-seq2-0000765", "unsound-seq2-0000771"),
        ("<unmaterializable>", "unsound-seq2-0000934"),
        ("<unmaterializable>", "unsound-seq2-0001026"),
        ("unsound-seq2-0001084", "unsound-seq2-0001090"),
        ("unsound-seq2-0001086", "unsound-seq2-0001092"),
        ("unsound-seq2-0001090", "unsound-seq2-0001102"),
        ("unsound-seq2-0001090", "unsound-seq2-0001108"),
        ("unsound-seq2-0001092", "unsound-seq2-0001110"),
    ];
    assert_eq!(pairs, pinned);
}

/// The seq-3-metadata operation set over two interchangeable root files: a
/// debug-build-sized slice of the paper space with three-operation cores.
fn seq3_metadata_slice() -> Bounds {
    Bounds {
        name_prefix: "seq-3m-slice".into(),
        files: FileSet::new(Vec::new(), vec!["foo".into(), "bar".into()]),
        ..Bounds::paper_seq3_metadata()
    }
}

/// Which members an audit samples is part of the checkpoint scope's
/// contract (the sample is seeded from the fingerprint), so deciding
/// pruning per core block — the coin flipped on the generator's index
/// before anything is built — must sample exactly the members the
/// per-candidate loop sampled. Pinned to that loop's counts.
#[test]
fn audit_sample_is_unchanged_by_block_pruning() {
    // (samples per class, audited) per space; the other counts do not
    // depend on the sample.
    let spaces = [
        (
            symmetric_seq2_bounds(),
            (116, 66, 580),
            [(1, 210), (2, 265), (u32::MAX, 268)],
        ),
        (
            seq3_metadata_slice(),
            (1154, 2578, 2268),
            [(1, 1078), (2, 1134), (u32::MAX, 1159)],
        ),
    ];
    for (bounds, counts, samples) in spaces {
        for (samples_per_class, audited) in samples {
            let summary = sweep(&bounds, PruneMode::Audit { samples_per_class });
            assert_eq!(
                (summary.tested, summary.skipped, summary.pruned),
                counts,
                "{} at {samples_per_class} samples per class",
                bounds.name_prefix
            );
            assert_eq!(summary.audited, audited, "{}", bounds.name_prefix);
            assert_eq!(summary.audit_failures, Vec::new());
        }
    }
}

/// The pruned counter threads through checkpoint resume: interrupting a
/// representative sweep and resuming it yields the same totals as an
/// uninterrupted one, with pruned counts restored from the checkpoint
/// rather than recounted from zero. The interrupted run executes exactly its
/// workload budget, on one thread or two: pruned candidates take none of it.
#[test]
fn representative_sweep_resumes_with_pruned_counts() {
    let bounds = symmetric_seq2_bounds();
    let uninterrupted = sweep(&bounds, PruneMode::Representative);
    let budget = uninterrupted.tested / 2;

    let spec = CowFsSpec::new(KernelEra::V4_16);
    for threads in [1, 2] {
        let partial_config = RunConfig {
            threads,
            stop_after_workloads: Some(budget),
            ..RunConfig::default()
        };
        let sweeper = Sweep::new(&spec, partial_config)
            .shards(NUM_SHARDS)
            .prune(PruneMode::Representative);
        let mut checkpoint = sweeper.empty_checkpoint(&bounds);
        let partial = sweeper.run_resumable(&bounds, &mut checkpoint);
        assert!(partial.tested < uninterrupted.tested);
        assert_eq!(
            partial.tested + partial.skipped,
            budget,
            "{threads} threads"
        );
        assert!(partial.pruned > 0, "{threads} threads");
        // Serialize/restore between the partial run and the resume, as a
        // real kill/restart would.
        let mut restored = b3_harness::SweepCheckpoint::from_bytes(&checkpoint.to_bytes())
            .expect("checkpoint round-trips");
        let resume_config = RunConfig {
            threads: 2,
            ..RunConfig::default()
        };
        let resumed = Sweep::new(&spec, resume_config)
            .shards(NUM_SHARDS)
            .prune(PruneMode::Representative)
            .run_resumable(&bounds, &mut restored);
        assert_eq!(resumed.tested, uninterrupted.tested);
        assert_eq!(resumed.skipped, uninterrupted.skipped);
        assert_eq!(resumed.pruned, uninterrupted.pruned);
        assert_eq!(report_bytes(&resumed), report_bytes(&uninterrupted));
    }
}

/// A representative-mode checkpoint is scoped by the canon version, so a
/// full-sweep checkpoint and a pruned-sweep checkpoint of the same bounds
/// can never be confused for one another.
#[test]
fn prune_mode_scopes_checkpoint_fingerprints() {
    let bounds = symmetric_seq2_bounds();
    let spec = CowFsSpec::new(KernelEra::V4_16);
    let off = Sweep::new(&spec, RunConfig::default())
        .shards(NUM_SHARDS)
        .empty_checkpoint(&bounds);
    let rep = Sweep::new(&spec, RunConfig::default())
        .shards(NUM_SHARDS)
        .prune(PruneMode::Representative)
        .empty_checkpoint(&bounds);
    let audit = Sweep::new(&spec, RunConfig::default())
        .shards(NUM_SHARDS)
        .prune(PruneMode::Audit {
            samples_per_class: 2,
        })
        .empty_checkpoint(&bounds);
    assert_ne!(off.fingerprint(), rep.fingerprint());
    assert_ne!(rep.fingerprint(), audit.fingerprint());
    assert!(
        rep.fingerprint()
            .contains(&format!("canon{}", b3_ace::CANON_VERSION)),
        "{}",
        rep.fingerprint()
    );
    // WorkloadGenerator and the classifier agree on the space the
    // fingerprint describes.
    let generated = WorkloadGenerator::new(bounds.clone()).count();
    assert!(generated > 0);
}

/// The acceptance-scale differential from the issue: representative mode
/// over the **full paper seq-3-metadata space** (3,884,796 candidates,
/// 982,766 tested exhaustively) reproduces the full sweep's 40 bug groups
/// with byte-identical exemplars while crash-testing at most 20% of the
/// workloads. Ignored by default (minutes even in release); run it with
/// `cargo test --release -p b3-harness --test canon_differential -- --ignored`.
#[test]
#[ignore = "full seq-3-metadata space; run explicitly in release builds"]
fn full_seq3_metadata_representative_sweep_reproduces_the_40_groups() {
    let bounds = Bounds::paper_seq3_metadata();
    let spec = CowFsSpec::new(KernelEra::V4_16);
    let shards = 512;
    let full = Sweep::new(&spec, RunConfig::default())
        .shards(shards)
        .run(&bounds);
    assert_eq!(full.tested, 982_766, "the paper-scale space changed");
    assert_eq!(
        full.reports.len(),
        40,
        "the full sweep's group count changed"
    );

    let rep = Sweep::new(&spec, RunConfig::default())
        .shards(shards)
        .prune(PruneMode::Representative)
        .run(&bounds);
    assert_eq!(
        full.tested + full.skipped,
        rep.tested + rep.skipped + rep.pruned
    );
    assert!(
        rep.tested * 5 <= full.tested,
        "representatives must be at most 20% of the space \
         ({} of {} tested)",
        rep.tested,
        full.tested
    );
    assert_eq!(
        report_bytes(&rep),
        report_bytes(&full),
        "representative exemplars must be byte-identical to the full sweep"
    );
    println!(
        "representative sweep: {} tested / {} skipped / {} pruned \
         (full sweep tested {}), {} groups",
        rep.tested,
        rep.skipped,
        rep.pruned,
        full.tested,
        rep.reports.len()
    );
}

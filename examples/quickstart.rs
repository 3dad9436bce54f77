//! Quickstart: reproduce the paper's Figure 1 bug, run the whole B3
//! pipeline (ACE → sweep → CrashMonkey → dedup) over the seq-1 bound, drive
//! a full seq-2 sweep through the sharded, resumable sweep engine, then
//! show where a workload's time and memory go.
//!
//! Part 1 — the workload (create foo; link foo bar; sync; unlink bar;
//! create bar; fsync bar; CRASH) makes pre-4.16 btrfs un-mountable. It runs
//! under CrashMonkey against the btrfs-like CowFs, once with the buggy-era
//! bug set and once fully patched.
//!
//! Part 2 — ACE exhaustively generates every seq-1 workload within the
//! paper's bounds and the sweep fans its shards out to one CrashMonkey
//! instance per worker thread; the run's `RunSummary` and the
//! de-duplicated bug groups are printed (the in-process analogue of the
//! paper's 65-node cluster run).
//!
//! Part 3 — the seq-2 space (~400K candidates) is split into generator
//! shards that worker threads steal whole; progress is reported every two
//! seconds, completed shards are recorded in a `SweepCheckpoint` (the bytes
//! a long-running sweep would persist to disk), and a kill-and-resume round
//! trip is demonstrated on a link/rename subspace.
//!
//! Part 4 — the cost shape of §6.3 and §6.5: the phase breakdown of one
//! representative seq-2 workload, with the paper's kernel delays modeled
//! back in, and the memory and storage a seq-2 workload needs on average.
//!
//! Run with: `cargo run --release --example quickstart
//! [-- --stop-after N] [--crash-points {last,all}]`

use std::collections::BTreeSet;
use std::time::Duration;

use b3::block::{IoRecord, BLOCK_SIZE};
use b3::prelude::*;
use b3_harness::{Progress, RunSummary, SweepCheckpoint};
use b3_vfs::workload::OpKind;

#[path = "common/args.rs"]
mod args;

fn main() {
    let stop_after = args::parse_stop_after();
    let crash_points = args::parse_crash_points();
    figure_1_bug();
    seq1_pipeline();
    seq2_sweep(stop_after, crash_points);
    resume_demo();
    phase_breakdown();
    resource_consumption();
}

fn figure_1_bug() {
    let workload = parse_workload(
        "# workload figure-1\n\
         [ops]\n\
         creat foo\n\
         link foo bar\n\
         sync\n\
         unlink bar\n\
         creat bar\n\
         fsync bar\n",
        "figure-1",
    )
    .expect("workload parses");

    println!("Workload under test (Figure 1 of the paper):\n{workload}");

    // A btrfs-like file system from the era in which the bug was reported.
    let buggy = CowFsSpec::new(KernelEra::V4_15);
    let config = CrashMonkeyConfig::small();
    let outcome = CrashMonkey::with_config(&buggy, config)
        .test_workload(&workload)
        .expect("crash testing runs");

    println!("--- kernel 4.15 era ---");
    if outcome.bugs.is_empty() {
        println!("no bug found (unexpected!)");
    } else {
        for bug in &outcome.bugs {
            println!("{bug}");
        }
    }

    // The same workload on a fully patched file system passes every check.
    let patched = CowFsSpec::patched();
    let outcome = CrashMonkey::with_config(&patched, config)
        .test_workload(&workload)
        .expect("crash testing runs");
    println!("--- patched file system ---");
    println!(
        "bugs found: {} (checkpoints tested: {})",
        outcome.bugs.len(),
        outcome.checkpoints_tested
    );
}

fn print_summary(summary: &RunSummary) {
    println!("  tested:       {}", summary.tested);
    println!("  skipped:      {}", summary.skipped);
    // Sweeps deduplicate at the source: one exemplar per (skeleton,
    // consequence) group, with the raw total alongside.
    println!(
        "  bug reports:  {} raw, kept as {} group exemplars",
        summary.raw_reports,
        summary.reports.len()
    );
    println!("  elapsed:      {:.2?}", summary.elapsed);
    println!("  avg latency:  {:.2?}", summary.avg_workload_latency());
    println!("  throughput:   {:.0} workloads/s", summary.throughput());
}

fn seq1_pipeline() {
    println!("\n=== seq-1 pipeline: ACE -> sweep -> CrashMonkey -> dedup ===\n");

    let bounds = b3::ace::Bounds::paper_seq1();
    println!("bounds: {}", bounds.describe());

    let spec = CowFsSpec::new(KernelEra::V4_15);
    // At least four workers even on small machines, so the example always
    // exercises the concurrent fan-out path.
    let config = RunConfig {
        threads: RunConfig::default().threads.max(4),
        ..RunConfig::default()
    };
    println!(
        "running every seq-1 workload on {} with {} worker threads...",
        spec.name(),
        config.threads
    );
    let sweep = Sweep::new(&spec, config);
    let mut checkpoint = sweep.empty_checkpoint(&bounds);
    let summary = sweep.run_resumable(&bounds, &mut checkpoint);

    println!("\nRunSummary:");
    print_summary(&summary);

    let groups = checkpoint.bug_groups();
    if groups.is_empty() {
        println!("\nno bugs found in the seq-1 space (unexpected on a 4.15-era fs)");
        return;
    }
    println!("\nde-duplicated bug groups (skeleton x consequence):");
    println!("{}", b3_harness::bug_group_table(&groups).render());
}

fn seq2_sweep(stop_after: Option<usize>, crash_points: CrashPointPolicy) {
    println!("\n=== seq-2 sweep: sharded work-stealing over the full space ===\n");

    let bounds = b3::ace::Bounds::paper_seq2();
    let candidates = WorkloadGenerator::estimate_candidates(&bounds);
    let spec = CowFsSpec::new(KernelEra::V4_16);
    let config = RunConfig {
        threads: RunConfig::default().threads.max(4),
        stop_after_workloads: stop_after,
        crashmonkey: CrashMonkeyConfig {
            crash_points,
            ..CrashMonkeyConfig::small()
        },
        ..RunConfig::default()
    };
    if crash_points == CrashPointPolicy::All {
        println!("crash points: all persistence points");
    }
    match stop_after {
        Some(budget) => println!(
            "sweeping {candidates} seq-2 candidates on {} (budget: {budget} workloads)...",
            spec.name()
        ),
        None => println!(
            "sweeping all {candidates} seq-2 candidates on {}...",
            spec.name()
        ),
    }

    let progress = |p: &Progress| println!("  [progress] {}", p.describe());
    let summary = Sweep::new(&spec, config)
        .on_progress(&progress, Duration::from_secs(2))
        .run(&bounds);

    println!("\nseq-2 RunSummary:");
    print_summary(&summary);
}

/// Kill-and-resume round trip on a small link/rename subspace: a budgeted
/// sweep records completed shards into a checkpoint, the checkpoint is
/// serialized and restored, and the resumed sweep finishes the rest.
fn resume_demo() {
    println!("\n=== resumable sweep: kill after a budget, resume from the checkpoint ===\n");

    let bounds = b3::ace::Bounds::paper_seq2().with_ops(vec![OpKind::Link, OpKind::Rename]);
    let spec = CowFsSpec::new(KernelEra::V4_16);
    let shards = 16;

    // A budget slightly above one shard's candidate count, spent by one
    // thread: the "killed" run completes the first shard and abandons the
    // one it dies inside. (Split across several threads, the budget would
    // end every shard part-way and record none.)
    let per_shard = WorkloadGenerator::estimate_candidates(&bounds) / shards as u64;
    let budgeted = RunConfig {
        threads: 1,
        stop_after_workloads: Some(per_shard as usize + 50),
        ..RunConfig::default()
    };
    let mut checkpoint = SweepCheckpoint::new(&bounds, shards);
    let partial = Sweep::new(&spec, budgeted)
        .shards(shards)
        .run_resumable(&bounds, &mut checkpoint);
    println!(
        "killed after budget: {} tested, {}/{} shards recorded, checkpoint {} bytes",
        partial.tested,
        checkpoint.completed_shards(),
        shards,
        checkpoint.to_bytes().len()
    );
    assert!(
        checkpoint.completed_shards() >= 1,
        "the budgeted run records the shard it completed"
    );

    // "Restart": restore the checkpoint from its serialized bytes and finish.
    let mut restored = SweepCheckpoint::from_bytes(&checkpoint.to_bytes()).expect("valid bytes");
    let resumed = Sweep::new(&spec, RunConfig::default())
        .shards(shards)
        .run_resumable(&bounds, &mut restored);
    println!(
        "resumed to completion: {} tested, {} skipped, {} raw reports in {} groups (complete: {})",
        resumed.tested,
        resumed.skipped,
        resumed.raw_reports,
        restored.bug_groups().len(),
        restored.is_complete()
    );
}

/// The kernel-imposed delay the paper measured per workload (§6.3): ~1 s to
/// mount, a 2 s settle delay and other kernel-side waits, 84% of the 4.6 s
/// end-to-end latency. The simulated file systems have none of it.
const KERNEL_DELAY_SECONDS: f64 = 4.6 * 0.84;

/// §6.3: where one representative seq-2 workload's time goes, measured on
/// the simulator and modeled with the real kernels' mount/settle delays.
fn phase_breakdown() {
    let workload = parse_workload(
        "[setup]\nmkdir A\ncreat A/foo\n\
         [ops]\nwrite A/foo 0 16384\nsync\nlink A/foo A/bar\nfsync A/foo\n",
        "representative",
    )
    .expect("workload parses");
    let spec = CowFsSpec::patched();
    let outcome = CrashMonkey::with_config(&spec, CrashMonkeyConfig::small())
        .test_workload(&workload)
        .expect("crash testing runs");

    println!("\n=== §6.3 CrashMonkey performance (representative seq-2 workload) ===\n");
    let mut table = Table::new(vec![
        "phase",
        "measured (simulator)",
        "paper (real kernels)",
    ]);
    let timing = &outcome.timing;
    table.row(vec![
        "profiling".into(),
        format!("{:.1?}", timing.profile),
        "~3.9 s (84% kernel mount/settle delays)".into(),
    ]);
    table.row(vec![
        "crash-state construction".into(),
        format!("{:.1?}", timing.crash_state_construction),
        "20 ms per crash state".into(),
    ]);
    table.row(vec![
        "consistency checking".into(),
        format!("{:.1?}", timing.checking),
        "20 ms per crash state".into(),
    ]);
    table.row(vec![
        "end-to-end".into(),
        format!(
            "{:.1?} measured / {:.2} s modeled with kernel delays",
            timing.total,
            timing.total.as_secs_f64() + KERNEL_DELAY_SECONDS
        ),
        "4.6 s".into(),
    ]);
    println!("{}", table.render());
}

/// §6.5: the copy-on-write memory, recorded IO and persistent storage of a
/// workload, averaged over the first 200 seq-2 workloads that run. The
/// memory is what the last crash state holds over the base image: the
/// distinct blocks written before the last persistence point.
fn resource_consumption() {
    let spec = CowFsSpec::new(KernelEra::V4_16);
    let monkey = CrashMonkey::with_config(&spec, CrashMonkeyConfig::small());
    let (mut tested, mut overlay, mut recorded, mut storage) = (0u64, 0u64, 0u64, 0u64);
    for workload in WorkloadGenerator::new(Bounds::paper_seq2()).take(200) {
        let profile = monkey.profile_only(&workload).expect("profiling runs");
        if profile.exec_error.is_some() {
            continue;
        }
        tested += 1;
        let records = profile.log.records();
        let last = records
            .iter()
            .rposition(|record| matches!(record, IoRecord::Checkpoint { .. }));
        let written: BTreeSet<_> = records[..last.unwrap_or(0)]
            .iter()
            .filter_map(|record| match record {
                IoRecord::Write { index, .. } => Some(*index),
                _ => None,
            })
            .collect();
        overlay += written.len() as u64 * BLOCK_SIZE as u64;
        recorded += profile.log.recorded_bytes();
        storage += workload.to_string().len() as u64;
    }
    let average = |bytes: u64| bytes as f64 / tested.max(1) as f64;
    let mb = |bytes: u64| format!("{:.2} MB", average(bytes) / (1024.0 * 1024.0));
    let kb = |bytes: u64| format!("{:.1} KB", average(bytes) / 1024.0);

    println!("\n=== §6.5 resource consumption (average over {tested} seq-2 workloads) ===\n");
    let mut table = Table::new(vec!["resource", "measured (simulator)", "paper"]);
    table.row(vec![
        "crash-state copy-on-write memory".into(),
        mb(overlay),
        "20.12 MB average".into(),
    ]);
    table.row(vec![
        "recorded block IO per workload".into(),
        kb(recorded),
        "(dominated by the CoW device)".into(),
    ]);
    table.row(vec![
        "persistent storage per workload".into(),
        kb(storage),
        "480 KB".into(),
    ]);
    println!("{}", table.render());
}

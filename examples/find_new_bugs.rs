//! Find the "new" bugs of Table 5 the way the paper did: by running
//! ACE-generated workloads through CrashMonkey on the 4.16-era file systems,
//! then post-processing the reports into distinct bug groups.
//!
//! The full 3.37M-workload sweep of the paper takes a cluster two days; this
//! example runs the exhaustive seq-1 space plus a targeted seq-2 subspace on
//! one machine in seconds (with periodic progress lines), merges the two
//! sweeps' bug-group tables, and prints Table 5 by replaying every Table 5
//! workload (encoded in the corpus) to confirm it is detected.
//!
//! Run with: `cargo run --release --example find_new_bugs [-- --stop-after N]
//! [--crash-points {last,all}]` (`--stop-after` caps the number of
//! workloads per sweep; `--crash-points all` crash-tests every
//! persistence point instead of only the final one).

use std::time::Duration;

use b3::prelude::*;
use b3_harness::corpus::new_bugs;
use b3_harness::{GroupTable, Progress};
use b3_vfs::workload::OpKind;

#[path = "common/args.rs"]
mod args;

/// Sweeps `bounds` and returns its merged bug-group table.
fn sweep(
    spec: &(dyn FsSpec + Sync),
    bounds: Bounds,
    label: &str,
    stop_after: Option<usize>,
    crash_points: CrashPointPolicy,
) -> GroupTable {
    let total = WorkloadGenerator::estimate_candidates(&bounds);
    let config = RunConfig {
        stop_after_workloads: stop_after,
        crashmonkey: CrashMonkeyConfig {
            crash_points,
            ..CrashMonkeyConfig::small()
        },
        ..RunConfig::default()
    };
    let progress = |p: &Progress| println!("  [progress] {}", p.describe());
    let sweep = Sweep::new(spec, config).on_progress(&progress, Duration::from_secs(2));
    let mut checkpoint = sweep.empty_checkpoint(&bounds);
    let summary = sweep.run_resumable(&bounds, &mut checkpoint);
    println!(
        "{label}: tested {} of {} candidates in {:.2?} ({:.0} workloads/s), {} raw reports",
        summary.tested,
        total,
        summary.elapsed,
        summary.throughput(),
        summary.raw_reports
    );
    checkpoint.grouped().clone()
}

fn main() {
    let stop_after = args::parse_stop_after();
    let crash_points = args::parse_crash_points();
    let cow = CowFsSpec::new(KernelEra::V4_16);

    // Exhaustive seq-1 (the paper's 300-workload set) and a focused seq-2
    // subspace around links and renames.
    let mut groups = sweep(
        &cow,
        Bounds::paper_seq1(),
        "seq-1 (cowfs/4.16)",
        stop_after,
        crash_points,
    );
    groups.merge_from(&sweep(
        &cow,
        Bounds::paper_seq2().with_ops(vec![OpKind::Link, OpKind::Rename, OpKind::Creat]),
        "seq-2 link/rename/creat (cowfs/4.16)",
        stop_after,
        crash_points,
    ));

    println!("\ndistinct (skeleton, consequence) bug groups found by the sweep:");
    let mut table = Table::new(vec!["skeleton", "consequence", "reports"]);
    for group in groups.groups() {
        table.row(vec![
            group.skeleton,
            group.consequence.describe().to_string(),
            group.count.to_string(),
        ]);
    }
    println!("{}", table.render());

    // Every Table 5 bug, as encoded in the corpus, is within ACE's seq-3
    // bounds; replay each on its 4.16-era file system to confirm detection.
    println!("Table 5: newly discovered bugs (corpus replay)\n");
    let mut table = Table::new(vec![
        "bug",
        "file system",
        "consequence (paper)",
        "# of ops",
        "detected",
        "observed consequence",
    ]);
    let entries = new_bugs();
    let mut detected = 0;
    for entry in &entries {
        let check = entry.replay().expect("corpus entry runs");
        detected += usize::from(check.detected_expected);
        table.row(vec![
            entry.id.to_string(),
            entry.fs.paper_name().to_string(),
            entry.title.to_string(),
            entry.workload().sequence_length().to_string(),
            if check.detected_expected { "yes" } else { "NO" }.to_string(),
            check
                .observed
                .map_or_else(|| "-".to_string(), |c| c.describe().to_string()),
        ]);
    }
    println!("{}", table.render());
    println!(
        "detected {detected} of {} new bugs (paper: 10 file-system bugs + 1 FSCQ bug)",
        entries.len()
    );
}

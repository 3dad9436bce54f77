//! `b3 sweep`: run (or resume) one job to the end and print its summary.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use b3_ace::{Bounds, Classifier, SpaceTable, WorkloadGenerator};
use b3_app::{AppHarness, EngineProfile, TxnBounds, TxnWorkloadGenerator};
use b3_crashmonkey::{CrashMonkey, ProfileSharing, Sharing};
use b3_harness::distrib::{load_checkpoint, run_with_transport, segment_stats};
use b3_harness::{Progress, RunConfig, SweepJob, SweepSpace};

use crate::args::Args;
use crate::job::JobSpec;
use crate::pool::PoolSpec;
use crate::{print_groups, Exit, EXIT_AUDIT};

pub fn run(mut args: Args) -> Result<(), Exit> {
    let (mut spec, mut pool) = (JobSpec::new(), PoolSpec::new());
    let mut in_process = false;
    let mut checkpoint: Option<PathBuf> = None;
    let mut stop_after: Option<usize> = None;
    let mut out: Option<PathBuf> = None;
    // The last pool flag given that only a worker pool reads.
    let mut pool_only: Option<String> = None;
    while let Some(flag) = args.next_flag()? {
        if spec.take(&flag, &mut args)? {
            continue;
        }
        if pool.take(&flag, &mut args)? {
            if flag != "--workers" {
                pool_only = Some(flag);
            }
            continue;
        }
        match flag.as_str() {
            "--in-process" => in_process = true,
            "--checkpoint" => checkpoint = Some(args.value()?.into()),
            "--stop-after" => stop_after = Some(args.parsed()?),
            "--out" => out = Some(args.value()?.into()),
            _ => return Err(args.unknown()),
        }
    }
    if in_process && checkpoint.is_some() {
        return Err(Exit::usage(
            "--checkpoint needs a worker pool: an --in-process sweep is not persisted",
        ));
    }
    if let Some(flag) = pool_only.filter(|_| in_process) {
        return Err(Exit::usage(format!(
            "{flag} needs a worker pool: an --in-process sweep runs on threads"
        )));
    }

    let mut resumed_shards = None;
    if let Some(path) = &checkpoint {
        let existing = load_checkpoint(path)
            .map_err(|e| Exit::runtime(format!("unreadable checkpoint: {e}")))?;
        match existing {
            Some(existing) => {
                println!(
                    "resuming from {}: {}/{} shards already complete",
                    path.display(),
                    existing.completed_shards(),
                    existing.num_shards()
                );
                resumed_shards = Some(existing.num_shards());
            }
            None => println!("checkpoint file {} (new sweep)", path.display()),
        }
    }
    let job = spec.job(resumed_shards)?;
    let total = job.total_candidates();
    println!(
        "sweeping {} ({total} candidates, {} shards) under {}",
        spec.preset,
        job.num_shards,
        job.scope()
    );

    let (summary, swept) = if in_process {
        let threads = pool.workers;
        println!("in-process on {threads} threads");
        let config = RunConfig {
            threads,
            stop_after_workloads: stop_after,
            ..RunConfig::default()
        };
        job.run_in_process(&config)?
    } else {
        let (mut config, transport) = pool.build()?;
        config.checkpoint_path.clone_from(&checkpoint);
        config.stop_after_workloads = stop_after;
        config.progress_interval = Duration::from_secs(2);
        println!("{} workers via {}", config.workers, transport.describe());
        let progress = |p: &Progress| println!("  [progress] {}", p.describe());
        let outcome = run_with_transport(&job, &config, transport.as_ref(), Some(&progress))?;
        println!(
            "{:.0} workloads/s this run | {} worker respawn(s) | {} worker(s) lost, \
             their shards re-queued",
            outcome.throughput_this_run(),
            outcome.respawns,
            outcome.failed_workers
        );
        (outcome.summary, outcome.checkpoint)
    };

    let groups = swept.grouped();
    println!(
        "\n{} of {total} candidates tested ({} skipped, {} pruned as equivalent, {} audited) | \
         {} raw reports | bug groups: {} | {}/{} shards complete",
        summary.tested,
        summary.skipped,
        summary.pruned,
        summary.audited,
        summary.raw_reports,
        groups.len(),
        swept.completed_shards(),
        swept.num_shards(),
    );
    if !summary.audit_failures.is_empty() {
        let mut message = format!(
            "AUDIT FAILURE: {} audited workload(s) diverged from the verdict they were \
             assumed to share (canon v{}):",
            summary.audit_failures.len(),
            b3_ace::CANON_VERSION,
        );
        for failure in &summary.audit_failures {
            message.push_str(&format!("\n  {failure}"));
        }
        return Err(Exit {
            code: EXIT_AUDIT,
            message,
        });
    }
    if let Some(path) = &checkpoint {
        if let (Ok(metadata), Ok(stats)) = (std::fs::metadata(path), segment_stats(path)) {
            println!(
                "checkpoint file: {} bytes ({} snapshot(s) + {} delta record(s))",
                metadata.len(),
                stats.snapshots,
                stats.deltas,
            );
        }
    }
    match &job.space {
        SweepSpace::Fs(bounds) => print_sampled_sharing(&job, bounds),
        SweepSpace::App { bounds, engine } => print_sampled_app_sharing(&job, bounds, *engine),
    }
    print_groups(out.as_deref(), &groups)?;
    match (swept.is_complete(), &checkpoint) {
        (true, _) => println!("sweep complete"),
        (false, Some(path)) => println!(
            "sweep incomplete; re-run the same command to resume from {}",
            path.display()
        ),
        (false, None) => println!("sweep incomplete and no --checkpoint was given"),
    }
    Ok(())
}

/// Workloads generated and profiled locally for the summary's sharing lines.
const SHARING_SAMPLE: usize = 2000;

/// The sampled "prefix sharing" line both spaces print: what the trunk
/// counted over `sampled` workloads that were `done` here, in `steps`.
fn sharing_line(sampled: usize, done: &str, steps: &str, sharing: ProfileSharing) -> String {
    format!(
        "prefix sharing (first {sampled} workloads of shard 0, {done} here): \
         {} {steps} applied, {} resumed from a shared prefix ({:.0} %), {} forks, {} mount(s)",
        sharing.ops_applied,
        sharing.ops_resumed,
        sharing.resumed_share() * 100.0,
        sharing.forks,
        sharing.mounts,
    )
}

/// What a crash-tested sample appends to its line: the crash states tested
/// here and those the trunk answered instead.
fn states_part(sharing: Sharing) -> String {
    let (done, answered) = (sharing.states_tested, sharing.states_inherited);
    format!(
        "{done} crash states tested, {answered} answered from the trunk ({:.0} %)",
        answered as f64 * 100.0 / (done + answered).max(1) as f64,
    )
}

/// The application-space sample: the head of shard 0 crash-tested through
/// one local harness, in generator order like a worker — crash-tested, not
/// only run, because the recoveries a workload is answered from the trunk
/// are the larger half of what sharing saves there.
fn print_sampled_app_sharing(job: &SweepJob, bounds: &TxnBounds, engine: EngineProfile) {
    let spec = job.fs.spec(job.era);
    let harness = AppHarness::new(spec.as_ref(), job.crashmonkey, engine);
    let shard = bounds.shard(0, job.num_shards);
    let mut tested = 0;
    for workload in TxnWorkloadGenerator::for_shard(bounds.clone(), &shard).take(SHARING_SAMPLE) {
        // A workload that cannot be tested is the sweep's to report.
        let _ = harness.test_workload(&workload);
        tested += 1;
    }
    let sharing = harness.sharing();
    println!(
        "{}; {}",
        sharing_line(tested, "crash-tested", "transactions", sharing.steps),
        states_part(sharing),
    );
}

/// Measures prefix sharing — the harness's and the generator's — on the
/// head of shard 0. The harnesses that ran the sweep report outcomes only
/// (and may live in other processes), so the summary samples the figures
/// here: the workloads are generated through one local generator (with the
/// job's classifier when it prunes) and run through one local harness, in
/// generator order like a worker — crash-tested when the policy covers
/// every persistence point, where the trunk answers crash states too, and
/// only profiled otherwise.
fn print_sampled_sharing(job: &SweepJob, bounds: &Bounds) {
    let spec = job.fs.spec(job.era);
    let monkey = CrashMonkey::with_config(spec.as_ref(), job.crashmonkey);
    let table = SpaceTable::new(bounds);
    let shard = table.shard(0, job.num_shards);
    let mut generator = WorkloadGenerator::on_table(table.clone(), shard.start, shard.end);
    if !job.prune.is_off() {
        generator = generator.classified_by(Arc::new(Classifier::on_table(table)));
    }
    let crash_test = job.crashmonkey.crash_points.covers_all();
    let mut sampled = 0;
    for workload in generator.by_ref().take(SHARING_SAMPLE) {
        // A workload that cannot be run is the sweep's to report.
        if crash_test {
            let _ = monkey.test_workload(&workload);
        } else {
            let _ = monkey.profile_only(&workload);
        }
        sampled += 1;
    }
    let sharing = monkey.sharing();
    if crash_test {
        println!(
            "{}; {}",
            sharing_line(sampled, "crash-tested", "ops", sharing.steps),
            states_part(sharing),
        );
    } else {
        println!(
            "{}",
            sharing_line(sampled, "profiled", "ops", sharing.steps)
        );
    }
    let generation = generator.stats();
    println!(
        "generation (same workloads, generated here): {} candidates examined, {} ops \
         simulated by phase 4, {} rejected prefix(es) discarded with their subtree, \
         {} core(s) classified, {} of them non-representative",
        generation.candidates,
        generation.sim_applies,
        generation.subtrees_discarded,
        generation.cores_classified,
        generation.cores_pruned,
    );
}

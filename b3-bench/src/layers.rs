//! The traced run: every layer measured from outside, by timing calls into
//! its public functions.
//!
//! The product's sweep engines keep no per-layer numbers, so the traced run
//! drives the same layers by hand: a single-threaded shard loop over every
//! [`SLICE_STRIDE`]-th shard of the workload's own layout (resetting triage
//! at shard boundaries, as the product does), with a span around each call.
//! On every [`PROBE_EVERY`]-th tested workload the phases *inside*
//! `test_workload` are additionally driven one by one through their public
//! API. The loop runs alternately with spans off and on; the difference is
//! the tracing overhead.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use b3::ace::canon::{Class, Classifier};
use b3::ace::{Bounds, WorkloadGenerator};
use b3::analyze::{analyze, state_digests};
use b3::app::generator::{key_name, value_for};
use b3::app::harness::formatted_app_image;
use b3::app::{
    AppHarness, EngineProfile, TxnBounds, TxnOpKind, TxnOracle, TxnWorkloadGenerator, WalKv,
};
use b3::block::{CowSnapshotDevice, CrashStateStream, DiskImage};
use b3::crashmonkey::profiler::formatted_base_image;
use b3::crashmonkey::{AutoChecker, CrashMonkey, CrashMonkeyConfig, Profiler, WorkloadOutcome};
use b3::harness::distrib::{load_checkpoint, save_checkpoint};
use b3::harness::{GroupTable, SweepCheckpoint, SweepJob, SweepSpace};
use b3::vfs::{EntryInterner, Executor, FsResult, FsSpec, Workload as FsWorkload};

use crate::bench;
use crate::fanout::{self, FanoutStats, LinkCounters, LinkStats, Workers};
use crate::metrics::Values;
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{self, Entry, Scale, Workload, WORKERS};

/// The by-hand loop covers shards `i ≡ 0 (mod SLICE_STRIDE)`.
pub const SLICE_STRIDE: usize = 4;
/// Layer probes run on every this-many-th tested workload of the slice.
pub const PROBE_EVERY: u64 = 64;

/// What one by-hand pass over the slice counted. Identical on every pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct SliceCounts {
    candidates: u64,
    tested: u64,
    skipped: u64,
    pruned: u64,
    crash_states_tested: u64,
    crash_states_reused: u64,
    raw_reports: u64,
    probes: u64,
    recorded_bytes: u64,
}

/// One by-hand pass: its counts, its per-shard group tables, and the wall
/// seconds of the loop with the probes' own time taken out.
struct SlicePass {
    counts: SliceCounts,
    tables: Vec<GroupTable>,
    loop_s: f64,
}

/// Folds one outcome into the counts and the shard's table, as
/// `ShardResult::absorb` does. Returns true when the workload was tested.
fn absorb(
    outcome: FsResult<WorkloadOutcome>,
    counts: &mut SliceCounts,
    table: &mut GroupTable,
    tracer: &mut Tracer,
) -> bool {
    let outcome = match outcome {
        Ok(outcome) if outcome.skipped.is_none() => outcome,
        _ => {
            counts.skipped += 1;
            return false;
        }
    };
    counts.tested += 1;
    counts.crash_states_tested += u64::from(outcome.checkpoints_tested);
    counts.crash_states_reused += u64::from(outcome.checkpoints_reused);
    counts.raw_reports += outcome.bugs.len() as u64;
    let span = tracer.enter("harness.dedup.observe");
    for bug in outcome.bugs {
        table.observe(bug);
    }
    tracer.exit(span);
    true
}

/// The by-hand shard loop over a file-system space.
fn fs_slice(job: &SweepJob, bounds: &Bounds, tracer: &mut Tracer) -> Result<SlicePass, String> {
    let spec = job.fs.spec(job.era);
    let monkey = CrashMonkey::with_interner(
        spec.as_ref(),
        job.crashmonkey,
        Arc::new(EntryInterner::new()),
    );
    let base = formatted_base_image(spec.as_ref(), &job.crashmonkey).map_err(|e| e.to_string())?;
    let mut counts = SliceCounts::default();
    let mut tables = Vec::new();
    let mut probe_s = 0.0;
    let start = Instant::now();
    let classifier = (!job.prune.is_off()).then(|| Classifier::new(bounds));
    for shard_index in (0..job.num_shards).step_by(SLICE_STRIDE) {
        let shard = bounds.shard(shard_index, job.num_shards);
        let mut generator = WorkloadGenerator::for_shard(bounds.clone(), &shard);
        let mut table = GroupTable::new();
        monkey.reset_triage();
        loop {
            tracer.at(shard_index as u32, counts.candidates);
            let span = tracer.enter("ace.generator.next");
            let next = generator.next();
            tracer.exit(span);
            let Some(workload) = next else { break };
            counts.candidates += 1;
            if let Some(classifier) = &classifier {
                let span = tracer.enter("ace.canon.classify");
                let class = classifier.classify(&workload.ops);
                tracer.exit(span);
                if matches!(class, Some(Class::Member { .. })) {
                    counts.pruned += 1;
                    continue;
                }
            }
            let span = tracer.enter("crashmonkey.test_workload");
            let outcome = monkey.test_workload(&workload);
            if let Ok(outcome) = &outcome {
                // The phases inside the call, as the program timed them.
                let timing = &outcome.timing;
                tracer.measured("crashmonkey.profile", timing.profile, &[]);
                tracer.measured(
                    "crashmonkey.construct",
                    timing.crash_state_construction,
                    &[("crashmonkey.recovery", timing.recovery)],
                );
                tracer.measured("crashmonkey.check", timing.checking, &[]);
            }
            tracer.exit(span);
            let tested = absorb(outcome, &mut counts, &mut table, tracer);
            if tested && tracer.enabled() && counts.tested % PROBE_EVERY == 0 {
                let probe_start = Instant::now();
                counts.probes += 1;
                counts.recorded_bytes +=
                    probe_fs(spec.as_ref(), &job.crashmonkey, &base, &workload, tracer)
                        .map_err(|e| format!("probe of {}: {e}", workload.name))?;
                probe_s += probe_start.elapsed().as_secs_f64();
            }
        }
        tables.push(table);
    }
    Ok(SlicePass {
        counts,
        tables,
        loop_s: start.elapsed().as_secs_f64() - probe_s,
    })
}

/// Drives the phases of `CrashMonkey::test_workload` one by one for one
/// workload: execution alone, profiling (execution + block recording +
/// oracle capture), the static analyses, and per crash state replay,
/// from-scratch mount, patch-forward recovery and the checker. Returns the
/// bytes of block IO the profile recorded.
fn probe_fs(
    spec: &dyn FsSpec,
    config: &CrashMonkeyConfig,
    base: &DiskImage,
    workload: &FsWorkload,
    tracer: &mut Tracer,
) -> FsResult<u64> {
    let mut fs = spec.mount(Box::new(CowSnapshotDevice::new(base.clone())))?;
    let span = tracer.enter("vfs.exec.apply");
    let applied = Executor::new().apply_all(fs.as_mut(), workload);
    tracer.exit(span);
    applied?;
    drop(fs);

    let span = tracer.enter("crashmonkey.profiler.profile_on");
    let profile = Profiler::new(spec, config).profile_on(base.clone(), workload);
    tracer.exit(span);
    let profile = profile?;

    let span = tracer.enter("analyze.digest.state_digests");
    black_box(state_digests(&profile.log));
    tracer.exit(span);
    let span = tracer.enter("analyze.hb.analyze");
    black_box(analyze(
        &profile.log,
        workload,
        config.direct_write_is_persistence_point,
    ));
    tracer.exit(span);

    let mut stream = CrashStateStream::new(&profile.base_image, &profile.log);
    let mut session = spec.recovery_session();
    session.prime(spec, &profile.base_image);
    let checker = AutoChecker::new(spec, config);
    for info in config.crash_points.select(&profile.checkpoints) {
        let span = tracer.enter("block.replay.step_to");
        let step = stream.step_to(info.id);
        tracer.exit(span);
        let step = step?;
        let span = tracer.enter("fs.mount");
        black_box(spec.mount(Box::new(step.state.clone())).is_ok());
        tracer.exit(span);
        let span = tracer.enter("fs.recover_delta");
        let recovered = session.recover(spec, Box::new(step.state.clone()), step.delta.as_ref());
        tracer.exit(span);
        let span = tracer.enter("crashmonkey.checker.check_recovered");
        black_box(checker.check_recovered(workload, &profile, info, step.state, recovered));
        tracer.exit(span);
    }
    Ok(profile.log.recorded_bytes())
}

/// The by-hand shard loop over the application transaction space.
fn app_slice(
    job: &SweepJob,
    bounds: &TxnBounds,
    engine: EngineProfile,
    tracer: &mut Tracer,
) -> Result<SlicePass, String> {
    let spec = job.fs.spec(job.era);
    let harness = AppHarness::new(spec.as_ref(), job.crashmonkey, engine);
    let base = formatted_app_image(spec.as_ref(), &job.crashmonkey).map_err(|e| e.to_string())?;
    let mut counts = SliceCounts::default();
    let mut tables = Vec::new();
    let mut probe_s = 0.0;
    let start = Instant::now();
    for shard_index in (0..job.num_shards).step_by(SLICE_STRIDE) {
        let shard = bounds.shard(shard_index, job.num_shards);
        let mut generator = TxnWorkloadGenerator::for_shard(bounds.clone(), &shard);
        let mut table = GroupTable::new();
        loop {
            tracer.at(shard_index as u32, counts.candidates);
            let span = tracer.enter("app.generator.next");
            let next = generator.next();
            tracer.exit(span);
            let Some(workload) = next else { break };
            counts.candidates += 1;
            let span = tracer.enter("app.harness.test_workload");
            let outcome = harness.test_workload(&workload);
            tracer.exit(span);
            let tested = absorb(outcome, &mut counts, &mut table, tracer);
            if tested && tracer.enabled() && counts.tested % PROBE_EVERY == 0 {
                let probe_start = Instant::now();
                counts.probes += 1;
                probe_app(spec.as_ref(), engine, &base, &workload, tracer)
                    .map_err(|e| format!("probe of {}: {e}", workload.name))?;
                probe_s += probe_start.elapsed().as_secs_f64();
            }
        }
        tables.push(table);
    }
    Ok(SlicePass {
        counts,
        tables,
        loop_s: start.elapsed().as_secs_f64() - probe_s,
    })
}

/// Drives the engine by hand for one transaction workload: every commit,
/// then a reopen of the store it left (recovery replay), and the oracle's
/// construction.
fn probe_app(
    spec: &dyn FsSpec,
    engine: EngineProfile,
    base: &DiskImage,
    workload: &b3::app::TxnWorkload,
    tracer: &mut Tracer,
) -> FsResult<()> {
    let mut fs = spec.mount(Box::new(CowSnapshotDevice::new(base.clone())))?;
    let mut store = WalKv::open(fs.as_mut(), engine)?;
    for (position, txn) in workload.txns.iter().enumerate() {
        for (op_index, op) in txn.ops.iter().enumerate() {
            let key = key_name(op.key);
            match op.kind {
                TxnOpKind::Put => store.put(&key, &value_for(position, op_index)),
                TxnOpKind::Append => store.append(&key, &value_for(position, op_index)),
                TxnOpKind::Delete => store.delete(&key),
            }
        }
        if txn.commit {
            let span = tracer.enter("app.engine.commit");
            let committed = store.commit(fs.as_mut());
            tracer.exit(span);
            committed?;
        } else {
            store.abort();
        }
    }
    drop(store);
    let span = tracer.enter("app.engine.open_recover");
    let reopened = WalKv::open(fs.as_mut(), engine);
    tracer.exit(span);
    black_box(reopened?.dump());
    let span = tracer.enter("app.oracle.new");
    black_box(TxnOracle::new(workload));
    tracer.exit(span);
    Ok(())
}

fn slice_pass(job: &SweepJob, tracer: &mut Tracer) -> Result<SlicePass, String> {
    match &job.space {
        SweepSpace::Fs(bounds) => fs_slice(job, bounds, tracer),
        SweepSpace::App { bounds, engine } => app_slice(job, bounds, *engine, tracer),
    }
}

/// Median seconds of `reps` calls of `f`.
fn median_seconds<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&samples)
}

/// The harness layers below the sweep loop, timed on this run's own data:
/// merging the slice's per-shard group tables, and the checkpoint codec and
/// segment file on the product pass's complete checkpoint.
fn harness_layers(
    tables: &[GroupTable],
    checkpoint: &SweepCheckpoint,
    dir: &Path,
    values: &mut Values,
) -> Result<(), String> {
    const REPS: usize = 5;
    let merge = || {
        let mut merged = GroupTable::new();
        for table in tables {
            merged.merge_from(table);
        }
        merged.len()
    };
    values.set("harness.dedup.groups", merge() as f64);
    values.set("harness.dedup.merge_s", median_seconds(REPS, merge));
    let bytes = checkpoint.to_bytes();
    values.set("harness.checkpoint.bytes", bytes.len() as f64);
    values.set(
        "harness.checkpoint.to_bytes_s",
        median_seconds(REPS, || checkpoint.to_bytes()),
    );
    let decoded = SweepCheckpoint::from_bytes(&bytes).map_err(|e| e.to_string())?;
    if &decoded != checkpoint {
        return Err("checkpoint does not survive its own codec".into());
    }
    values.set(
        "harness.checkpoint.from_bytes_s",
        median_seconds(REPS, || SweepCheckpoint::from_bytes(&bytes).is_ok()),
    );
    let path = dir.join("saved.b3sg");
    values.set(
        "harness.segment.save_s",
        median_seconds(REPS, || save_checkpoint(&path, checkpoint).is_ok()),
    );
    let loaded = load_checkpoint(&path).map_err(|e| e.to_string())?;
    if loaded.as_ref() != Some(checkpoint) {
        return Err("checkpoint does not survive the segment file".into());
    }
    values.set(
        "harness.segment.load_s",
        median_seconds(REPS, || load_checkpoint(&path).is_ok()),
    );
    Ok(())
}

/// What the transport wrapper and the segment log saw of one fan-out run.
fn distrib_layers(links: &LinkCounters, fanout: &FanoutStats, values: &mut Values) {
    let seconds = |ns: u64| ns as f64 / 1e9;
    values.set("distrib.transport.connect_s", seconds(links.connect_ns));
    values.set("distrib.link.frames_tx", links.frames_tx as f64);
    values.set("distrib.link.frames_rx", links.frames_rx as f64);
    values.set("distrib.link.bytes_tx", links.bytes_tx as f64);
    values.set("distrib.link.bytes_rx", links.bytes_rx as f64);
    values.set("distrib.link.send_s", seconds(links.send_ns));
    values.set("distrib.link.recv_wait_s", seconds(links.recv_wait_ns));
    values.set("distrib.coordinator.service_s", seconds(links.service_ns));
    values.set(
        "distrib.coordinator.service_p99_us",
        links.service.quantile(0.99) as f64 / 1e3,
    );
    values.set("distrib.segment.bytes", fanout.segment_bytes as f64);
    values.set(
        "distrib.segment.delta_records",
        fanout.segment.deltas as f64,
    );
    values.set("distrib.segment.snapshots", fanout.segment.snapshots as f64);
    values.set("distrib.worker.peak_rss_mb", fanout.worker_peak_rss_mb);
}

/// Result of a traced run.
pub struct Traced {
    pub values: Values,
    /// Candidates the by-hand passes and product passes attempted.
    pub attempted: u64,
    pub failed: u64,
}

/// The traced run of one workload, for about `seconds` seconds.
pub fn trace(
    workload: &Workload,
    scale: Scale,
    seed: u64,
    seconds: f64,
    workers: Workers,
    trace_out: &Path,
) -> Result<Traced, String> {
    let run_start = Instant::now();
    let job = workload.job(scale, seed);
    let dir = fanout::fresh_dir("trace");
    let mut values = Values::per_layer();
    bench::set_up(workload, scale, workers)?;

    // One pass through the product entry point: the wall time the by-hand
    // loop is compared against, the checkpoint the codec layers are timed
    // on, and (for the fan-out) the run the transport wrapper watches.
    let links = (workload.entry == Entry::FanoutTcp).then(|| Arc::new(LinkStats::default()));
    let product = workloads::run_pass(workload.entry, &job, &dir, workers, None, links.as_ref())?;
    let reference =
        (workload.entry == Entry::FanoutTcp).then(|| workloads::fanout_reference(scale, seed));
    workloads::check(
        workload,
        scale,
        seed,
        std::slice::from_ref(&product.outputs),
        reference.as_ref().map(|pass| &pass.outputs),
    )?;
    let product_rate = product.outputs.candidates as f64 / product.wall_s;
    if let (Some(links), Some(fanout), Some(reference)) = (&links, &product.fanout, &reference) {
        distrib_layers(&links.snapshot(), fanout, &mut values);
        values.set("distrib.respawns", product.outputs.respawns as f64);
        let reference_rate = reference.outputs.candidates as f64 / reference.wall_s;
        values.set("distrib.fanout_efficiency", product_rate / reference_rate);
    }

    // The by-hand loop, spans off then on, until the time is used. The
    // first pair always runs; another starts only if it should also fit.
    let mut tracer = Tracer::new(true);
    let (mut off_s, mut on_s) = (Vec::new(), Vec::new());
    let mut first: Option<SlicePass> = None;
    while first.is_none() || run_start.elapsed().as_secs_f64() + off_s[0] + on_s[0] <= seconds {
        let off = slice_pass(&job, &mut Tracer::new(false))?;
        let on = slice_pass(&job, &mut tracer)?;
        off_s.push(off.loop_s);
        on_s.push(on.loop_s);
        // Every pass repeats exactly; probes run only with spans on.
        let on_counts = on.counts.clone();
        let expected = &first.get_or_insert(on).counts;
        let without_probes = SliceCounts {
            probes: 0,
            recorded_bytes: 0,
            ..expected.clone()
        };
        if on_counts != *expected || off.counts != without_probes {
            return Err(format!(
                "{}: by-hand passes disagree: {expected:?}, then {on_counts:?} and {:?}",
                workload.name, off.counts
            ));
        }
    }
    let slice = first.expect("at least one pair ran");
    let counts = &slice.counts;
    let passes = on_s.len() as f64;
    let covered = counts.crash_states_tested + counts.crash_states_reused;
    if scale == Scale::Pinned && seed == 0 && covered != workload.pins.slice_crash_states {
        return Err(format!(
            "{}: the slice covers {covered} crash states, pinned {}",
            workload.name, workload.pins.slice_crash_states
        ));
    }
    tracer
        .write(trace_out, workload.name, seed)
        .map_err(|e| format!("write {}: {e}", trace_out.display()))?;

    // Busy seconds are per pass over the slice; counts repeat exactly.
    let per_pass = |name: &str| tracer.get(name).total_s() / passes;
    let share = |part: u64, whole: u64| {
        if whole == 0 {
            0.0
        } else {
            part as f64 / whole as f64
        }
    };
    let prefix = match job.space {
        SweepSpace::Fs(_) => "ace",
        SweepSpace::App { .. } => "app",
    };
    values.set(
        &format!("{prefix}.generator.next_s"),
        per_pass(&format!("{prefix}.generator.next")),
    );
    if prefix == "ace" {
        values.set("ace.generator.candidates", counts.candidates as f64);
        values.set("ace.canon.classify_s", per_pass("ace.canon.classify"));
        values.set(
            "ace.canon.pruned_share",
            share(counts.pruned, counts.candidates),
        );
        let test = tracer.get("crashmonkey.test_workload");
        values.set("crashmonkey.test_workload_s", test.total_s() / passes);
        values.set(
            "crashmonkey.test_workload_p50_us",
            test.hist.quantile(0.5) as f64 / 1e3,
        );
        values.set(
            "crashmonkey.test_workload_p99_us",
            test.hist.quantile(0.99) as f64 / 1e3,
        );
        values.set("crashmonkey.profile_s", per_pass("crashmonkey.profile"));
        values.set(
            "crashmonkey.construct_self_s",
            tracer.get("crashmonkey.construct").self_ns as f64 / 1e9 / passes,
        );
        values.set("crashmonkey.recovery_s", per_pass("crashmonkey.recovery"));
        values.set("crashmonkey.check_s", per_pass("crashmonkey.check"));
    } else {
        let test = tracer.get("app.harness.test_workload");
        values.set("app.harness.test_workload_s", test.total_s() / passes);
        values.set(
            "app.harness.test_workload_p99_us",
            test.hist.quantile(0.99) as f64 / 1e3,
        );
    }
    values.set("crashmonkey.crash_states_covered", covered as f64);
    values.set(
        "crashmonkey.crash_states_tested",
        counts.crash_states_tested as f64,
    );
    values.set(
        "crashmonkey.triage_reuse_share",
        share(counts.crash_states_reused, covered),
    );
    values.set(
        "crashmonkey.skipped_share",
        share(counts.skipped, counts.tested + counts.skipped),
    );
    values.set("probe.workloads", counts.probes as f64);
    values.set(
        "block.record.bytes_per_workload",
        share(counts.recorded_bytes, counts.probes),
    );
    for probe in [
        "vfs.exec.apply",
        "crashmonkey.profiler.profile_on",
        "block.replay.step_to",
        "fs.recover_delta",
        "fs.mount",
        "crashmonkey.checker.check_recovered",
        "analyze.digest.state_digests",
        "analyze.hb.analyze",
        "app.engine.commit",
        "app.engine.open_recover",
        "app.oracle.new",
    ] {
        values.set(&format!("{probe}_s"), per_pass(probe));
    }
    values.set("harness.dedup.observe_s", per_pass("harness.dedup.observe"));
    values.set("harness.dedup.raw_reports", counts.raw_reports as f64);
    harness_layers(&slice.tables, &product.checkpoint, &dir, &mut values)?;

    // One thread's seconds for the slice, scaled to the whole space, over
    // the seconds the product's two workers spent on it.
    let slice_cpu_s = stats::median(&off_s);
    let whole_space_cpu_s =
        slice_cpu_s * product.outputs.candidates as f64 / counts.candidates as f64;
    values.set(
        "harness.sweep.parallel_efficiency",
        whole_space_cpu_s / (WORKERS as f64 * product.wall_s),
    );
    values.set("trace.slice_cpu_s", slice_cpu_s);
    values.set("trace.slice_passes", passes);
    let (off_total, on_total): (f64, f64) = (off_s.iter().sum(), on_s.iter().sum());
    values.set("trace.overhead_share", (on_total - off_total) / off_total);

    std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    let expected = workload.expected_candidates(scale, &product.outputs);
    Ok(Traced {
        values,
        attempted: product.outputs.candidates + 2 * on_s.len() as u64 * counts.candidates,
        failed: product.outputs.failed(expected),
    })
}

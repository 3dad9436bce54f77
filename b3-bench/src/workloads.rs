//! The five pinned workloads: what each sweeps, why it exists, the one
//! timed call into the product, and the outputs that call must produce.
//!
//! Every workload is a [`SweepJob`] — the harness's own job description —
//! plus the entry point it is handed to. The spaces are the paper's seq-2 /
//! seq-3-metadata / app spaces over a reduced file set (or transaction
//! bound), sized so one complete sweep takes 2–4 s on two cores: a run can
//! then repeat the sweep several times and report a median, and every pass
//! is a *whole* space whose counts and bug groups are checked.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use b3::ace::Bounds;
use b3::analyze::Digest128;
use b3::app::{EngineProfile, TxnBounds, TxnOpKind};
use b3::crashmonkey::CrashPointPolicy;
use b3::harness::{
    AppSweep, FsKind, PruneMode, RunConfig, RunSummary, Sweep, SweepCheckpoint, SweepJob,
    SweepSpace,
};
use b3::vfs::codec::Encoder;
use b3::vfs::workload::FileSet;
use b3::vfs::KernelEra;

use crate::fanout::{self, LinkStats, Workers};
use crate::stats;

/// A sweep is a batch job: a closed loop of exactly this many workers
/// (threads in-process, processes for the fan-out), each claiming its next
/// shard when the previous one completes. Part of the workload definition,
/// deliberately not `nproc`.
pub const WORKERS: usize = 2;

/// The product entry point a workload's job is handed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// `Sweep::run_resumable`, threads in this process.
    Sweep,
    /// `AppSweep::run_resumable`, threads in this process.
    AppSweep,
    /// `run_with_transport` over `TcpTransport` loopback, worker processes.
    FanoutTcp,
}

/// Pinned spaces, or the `tiny` presets the unit tests sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Pinned,
    Smoke,
}

/// What one complete sweep produced — everything the output check compares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outputs {
    /// tested + skipped + pruned.
    pub candidates: u64,
    pub tested: u64,
    pub skipped: u64,
    pub pruned: u64,
    pub raw_reports: u64,
    pub bug_groups: u64,
    /// `Digest128` of the encoded `SweepCheckpoint::grouped()`.
    pub groups_digest: u128,
    /// Every shard recorded.
    pub complete: bool,
    /// Canonicalization-audit failures plus triage divergences.
    pub audit_failures: u64,
    /// Fan-out only: worker slots that gave up, and replacement links.
    pub failed_workers: u64,
    pub respawns: u64,
}

impl Outputs {
    fn new(summary: &RunSummary, checkpoint: &SweepCheckpoint) -> Outputs {
        let grouped = checkpoint.grouped();
        let mut enc = Encoder::new();
        grouped.encode(&mut enc);
        Outputs {
            candidates: (summary.tested + summary.skipped + summary.pruned) as u64,
            tested: summary.tested as u64,
            skipped: summary.skipped as u64,
            pruned: summary.pruned as u64,
            raw_reports: summary.raw_reports as u64,
            bug_groups: grouped.len() as u64,
            groups_digest: Digest128::of(&enc.finish()),
            complete: checkpoint.is_complete(),
            audit_failures: summary.audit_failures.len() as u64,
            failed_workers: 0,
            respawns: 0,
        }
    }

    /// Operations that did not complete as a clean sweep would have:
    /// audit failures, dead or replaced workers, and candidates missing
    /// from (or beyond) the expected total.
    pub fn failed(&self, expected_candidates: u64) -> u64 {
        self.audit_failures
            + self.failed_workers
            + self.respawns
            + self.candidates.abs_diff(expected_candidates)
    }
}

/// The outputs pinned at seed 0. Every field but `groups_digest` and
/// `slice_crash_states` is seed-invariant and is required at any seed.
#[derive(Debug, Clone, Copy)]
pub struct Pins {
    pub tested: u64,
    pub skipped: u64,
    pub pruned: u64,
    pub raw_reports: u64,
    pub bug_groups: u64,
    pub groups_digest: u128,
    /// Crash states covered (tested + triage-reused) by the traced slice:
    /// coverage is a constant of (space, policy), so it is pinned rather
    /// than reported as a rate of its own.
    pub slice_crash_states: u64,
}

impl Pins {
    pub fn candidates(&self) -> u64 {
        self.tested + self.skipped + self.pruned
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub entry: Entry,
    build: fn() -> SweepJob,
    pub pins: Pins,
}

/// seq-2 / seq-3 file set of the seq-2 workloads: the paper's two
/// directories with one file each, and one top-level file. All 14
/// operations stay, so the seq-2 space keeps every one of the full space's
/// 63 bug groups at a fifth of its candidates.
fn seq2_bounds() -> Bounds {
    Bounds {
        files: FileSet::new(
            vec!["A".into(), "B".into()],
            vec!["foo".into(), "A/foo".into(), "B/foo".into()],
        ),
        ..Bounds::paper_seq2()
    }
}

/// The seq-3-metadata file set: three directories with one file each. The
/// three-way symmetry lets representative pruning remove four fifths of
/// the space and leaves one candidate in twenty to crash-test, so — as on
/// the paper's full space — generation and canonicalization are most of the
/// work (38 of the full space's 40 bug groups remain).
fn seq3m_bounds() -> Bounds {
    Bounds {
        files: FileSet::new(
            vec!["A".into(), "B".into(), "C".into()],
            vec!["A/foo".into(), "B/foo".into(), "C/foo".into()],
        ),
        ..Bounds::paper_seq3_metadata()
    }
}

fn seq2_cow_triaged() -> SweepJob {
    let mut job = SweepJob::new(seq2_bounds(), 64);
    job.crashmonkey.crash_points = CrashPointPolicy::AllTriaged { audit: 0 };
    job
}

fn seq2_journal_all() -> SweepJob {
    let mut job = SweepJob::new(seq2_bounds(), 64);
    job.fs = FsKind::Journal;
    job.era = KernelEra::Patched;
    job.crashmonkey.crash_points = CrashPointPolicy::All;
    job
}

fn seq3m_cow_pruned() -> SweepJob {
    let mut job = SweepJob::new(seq3m_bounds(), 64);
    job.prune = PruneMode::Representative;
    job
}

/// The `seq2_cow_triaged` job cut into ~170-candidate shards, so frames,
/// merges, fsync'd segment appends and per-shard triage resets are a real
/// share of the run (a worker idles through its shard's fsync).
fn seq2_fanout_tcp() -> SweepJob {
    SweepJob {
        num_shards: 512,
        ..seq2_cow_triaged()
    }
}

fn app_walkv() -> SweepJob {
    let bounds = TxnBounds {
        name_prefix: "app-bench".into(),
        max_txns: 3,
        max_ops_per_txn: 2,
        keys: 2,
        ops: vec![TxnOpKind::Put, TxnOpKind::Append],
        allow_abort: true,
    };
    let engine = EngineProfile {
        commit_without_data_fsync: true,
        torn_commit: true,
        double_replay: true,
    };
    let mut job = SweepJob::new_app(bounds, engine, 64);
    job.era = KernelEra::Patched;
    job.crashmonkey.crash_points = CrashPointPolicy::All;
    job
}

pub static WORKLOADS: [Workload; 5] = [
    Workload {
        name: "seq2_cow_triaged",
        why: "seq-2 on buggy CowFs, AllTriaged: profiling dominates and most crash states \
              are triage-reused, so prefix sharing and the triage/interner caches show here",
        entry: Entry::Sweep,
        build: seq2_cow_triaged,
        pins: Pins {
            tested: 72_017,
            skipped: 13_597,
            pruned: 0,
            raw_reports: 14_388,
            bug_groups: 63,
            groups_digest: 0x7f0ab5e0_7bc47051_43f861dd_02b35557,
            slice_crash_states: 34_734,
        },
    },
    Workload {
        name: "seq2_journal_all",
        why: "same space on patched JournalFs, All: every crash state is built, recovered and \
              checked (triage bypassed) and a patched target must report nothing",
        entry: Entry::Sweep,
        build: seq2_journal_all,
        pins: Pins {
            tested: 79_608,
            skipped: 6_006,
            pruned: 0,
            raw_reports: 0,
            bug_groups: 0,
            groups_digest: 0x35a29dfb_1023dab2_f52edfd8_68a3f775,
            slice_crash_states: 38_106,
        },
    },
    Workload {
        name: "seq3m_cow_pruned",
        why: "seq-3-metadata with representative pruning: ACE generation and canonicalization \
              dominate while CrashMonkey does little",
        entry: Entry::Sweep,
        build: seq3m_cow_pruned,
        pins: Pins {
            tested: 5_973,
            skipped: 22_143,
            pruned: 100_809,
            raw_reports: 978,
            bug_groups: 38,
            groups_digest: 0x0a6b62b4_65d2f7b7_7180c148_517022e6,
            slice_crash_states: 1_363,
        },
    },
    Workload {
        name: "seq2_fanout_tcp",
        why: "the seq2_cow_triaged job through 2 TCP-loopback worker processes in 512 fine \
              shards: codec, merge, fsync'd segment log and transport carry a real share",
        entry: Entry::FanoutTcp,
        build: seq2_fanout_tcp,
        pins: Pins {
            tested: 72_017,
            skipped: 13_597,
            pruned: 0,
            raw_reports: 14_388,
            bug_groups: 63,
            groups_digest: 0x7f0ab5e0_7bc47051_43f861dd_02b35557,
            slice_crash_states: 34_763,
        },
    },
    Workload {
        name: "app_walkv",
        why: "the WAL/KV engine with all three seeded bugs under the transaction oracle: the \
              second job space (AppSweep), write+fsync traffic, and the dedup-heavy one",
        entry: Entry::AppSweep,
        build: app_walkv,
        pins: Pins {
            tested: 65_640,
            skipped: 0,
            pruned: 0,
            raw_reports: 175_716,
            bug_groups: 1_626,
            groups_digest: 0x809ed253_ff131202_3b7f8c1e_de701be4,
            slice_crash_states: 42_664,
        },
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|workload| workload.name == name)
}

impl Workload {
    /// The candidates one complete sweep must account for: the pinned total,
    /// or (for the `tiny` spaces, which have no pins) what the sweep found.
    pub fn expected_candidates(&self, scale: Scale, outputs: &Outputs) -> u64 {
        match scale {
            Scale::Pinned => self.pins.candidates(),
            Scale::Smoke => outputs.candidates,
        }
    }

    /// The job handed to the product: the pinned space (or its `tiny`
    /// stand-in) with the operation list reordered by `seed`. The program
    /// is an exhaustive enumerator, so reordering the operations is the one
    /// input change that keeps the work equal: the same workloads are
    /// tested, but enumeration order, shard contents, triage-witness order
    /// and exemplar names all change.
    pub fn job(&self, scale: Scale, seed: u64) -> SweepJob {
        let mut job = (self.build)();
        if scale == Scale::Smoke {
            job.num_shards = if self.entry == Entry::FanoutTcp { 8 } else { 4 };
        }
        match &mut job.space {
            SweepSpace::Fs(bounds) => {
                if scale == Scale::Smoke {
                    *bounds = Bounds::tiny();
                }
                bounds.ops = stats::permute(&bounds.ops, seed);
            }
            SweepSpace::App { bounds, .. } => {
                if scale == Scale::Smoke {
                    *bounds = TxnBounds::tiny();
                }
                bounds.ops = stats::permute(&bounds.ops, seed);
            }
        }
        job
    }
}

/// The in-process run configuration of a job: the workload's two threads,
/// the job's CrashMonkey configuration, and the workload budget (if any).
fn run_config(job: &SweepJob, budget: Option<usize>) -> RunConfig {
    RunConfig {
        threads: WORKERS,
        crashmonkey: job.crashmonkey,
        stop_after_workloads: budget,
        ..RunConfig::default()
    }
}

/// One timed call into the product.
pub struct Pass {
    /// Wall seconds of the call.
    pub wall_s: f64,
    /// CPU seconds charged to this process (and reaped workers) by it.
    pub cpu_s: f64,
    pub outputs: Outputs,
    pub checkpoint: SweepCheckpoint,
    /// Fan-out only.
    pub fanout: Option<fanout::FanoutStats>,
}

/// Runs `job` through `Sweep` / `AppSweep` with two threads — the
/// in-process entry points, also the reference a fan-out run is checked
/// against. With a `budget` the sweep stops after that many workloads.
pub fn run_in_process(job: &SweepJob, budget: Option<usize>) -> Pass {
    let spec = job.fs.spec(job.era);
    let config = run_config(job, budget);
    let cpu_before = stats::cpu_seconds();
    let (wall_s, summary, checkpoint) = match &job.space {
        SweepSpace::Fs(bounds) => {
            let sweep = Sweep::new(spec.as_ref(), config)
                .shards(job.num_shards)
                .prune(job.prune);
            let mut checkpoint = sweep.empty_checkpoint(bounds);
            let start = Instant::now();
            let summary = sweep.run_resumable(bounds, &mut checkpoint);
            (start.elapsed().as_secs_f64(), summary, checkpoint)
        }
        SweepSpace::App { bounds, engine } => {
            let sweep = AppSweep::new(spec.as_ref(), config, *engine).shards(job.num_shards);
            let mut checkpoint = sweep.empty_checkpoint(bounds);
            let start = Instant::now();
            let summary = sweep.run_resumable(bounds, &mut checkpoint);
            (start.elapsed().as_secs_f64(), summary, checkpoint)
        }
    };
    let cpu_s = stats::cpu_seconds() - cpu_before;
    Pass {
        wall_s,
        cpu_s,
        outputs: Outputs::new(&summary, &checkpoint),
        checkpoint,
        fanout: None,
    }
}

/// An in-process sweep of the fan-out's space at its in-process shard
/// count (the `seq2_cow_triaged` job): what a fan-out run's bug groups must
/// equal and its rate is compared with.
pub fn fanout_reference(scale: Scale, seed: u64) -> Pass {
    let triaged = find("seq2_cow_triaged").expect("the fan-out's in-process twin");
    run_in_process(&triaged.job(scale, seed), None)
}

/// Runs `job` through the workload's entry point. `dir` is a fresh
/// directory for the fan-out's segment log; with a `budget` the sweep stops
/// after about that many workloads (the warm-up); `links`, when given,
/// times every transport call (the traced run).
pub fn run_pass(
    entry: Entry,
    job: &SweepJob,
    dir: &Path,
    workers: Workers,
    budget: Option<usize>,
    links: Option<&Arc<LinkStats>>,
) -> Result<Pass, String> {
    if entry != Entry::FanoutTcp {
        return Ok(run_in_process(job, budget));
    }
    let cpu_before = stats::cpu_seconds();
    let run = fanout::run(job, dir, workers, budget, links)?;
    // The workers are reaped by now, so their CPU time is in ours.
    let cpu_s = stats::cpu_seconds() - cpu_before;
    let mut outputs = Outputs::new(&run.outcome.summary, &run.outcome.checkpoint);
    outputs.failed_workers = run.outcome.failed_workers as u64;
    outputs.respawns = run.outcome.respawns as u64;
    Ok(Pass {
        wall_s: run.wall_s,
        cpu_s,
        outputs,
        checkpoint: run.outcome.checkpoint,
        fanout: Some(run.stats),
    })
}

/// The output check. `passes` are the outputs of every timed call of one
/// run; `reference` is an in-process sweep of the same job, required where
/// the digest is not pinned for a fan-out run.
pub fn check(
    workload: &Workload,
    scale: Scale,
    seed: u64,
    passes: &[Outputs],
    reference: Option<&Outputs>,
) -> Result<(), String> {
    let first = passes.first().ok_or("no pass ran")?;
    let fail = |what: String| Err(format!("{}: {what}", workload.name));
    if let Some(other) = passes.iter().find(|outputs| *outputs != first) {
        return fail(format!(
            "passes disagree: {first:?} vs {other:?} (a sweep's outputs must be a pure \
             function of its job)"
        ));
    }
    if !first.complete {
        return fail("checkpoint is incomplete".into());
    }
    if first.failed(first.candidates) != 0 {
        return fail(format!(
            "{} audit failures, {} failed workers, {} respawns",
            first.audit_failures, first.failed_workers, first.respawns
        ));
    }
    if let Some(reference) = reference {
        if (reference.groups_digest, reference.candidates)
            != (first.groups_digest, first.candidates)
        {
            return fail(format!(
                "fan-out outputs {first:?} differ from the in-process sweep's {reference:?}"
            ));
        }
    }
    if scale == Scale::Smoke {
        return Ok(());
    }
    let pins = &workload.pins;
    let counts = |o: &Outputs| [o.tested, o.skipped, o.pruned, o.raw_reports, o.bug_groups];
    let pinned = [
        pins.tested,
        pins.skipped,
        pins.pruned,
        pins.raw_reports,
        pins.bug_groups,
    ];
    if counts(first) != pinned {
        return fail(format!(
            "tested/skipped/pruned/raw_reports/bug_groups are {:?}, pinned {pinned:?}",
            counts(first)
        ));
    }
    if seed == 0 && first.groups_digest != pins.groups_digest {
        return fail(format!(
            "groups_digest is {:032x}, pinned {:032x}",
            first.groups_digest, pins.groups_digest
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_the_fanout_shares_the_triaged_job() {
        for (i, workload) in WORKLOADS.iter().enumerate() {
            assert_eq!(find(workload.name).unwrap().name, workload.name);
            assert!(WORKLOADS[..i].iter().all(|w| w.name != workload.name));
            assert!(workload.why.len() <= 200 && !workload.why.contains('\n'));
        }
        assert!(find("nope").is_none());
        let (triaged, fanout) = (
            find("seq2_cow_triaged").unwrap(),
            find("seq2_fanout_tcp").unwrap(),
        );
        // Same space and context, different shard count and entry point:
        // their bug groups must be byte-identical, so they share pins.
        assert_eq!(triaged.pins.groups_digest, fanout.pins.groups_digest);
        assert_eq!(triaged.pins.candidates(), fanout.pins.candidates());
        let (a, b) = (triaged.job(Scale::Pinned, 5), fanout.job(Scale::Pinned, 5));
        assert_eq!(a.fs_bounds(), b.fs_bounds());
        assert_eq!(a.scope(), b.scope());
        assert_ne!(a.num_shards, b.num_shards);
    }

    #[test]
    fn the_seed_reorders_operations_and_nothing_else() {
        for workload in &WORKLOADS {
            let base = workload.job(Scale::Pinned, 0);
            let again = workload.job(Scale::Pinned, 0);
            let seeded = workload.job(Scale::Pinned, 3);
            assert_eq!(base.total_candidates(), seeded.total_candidates());
            assert_eq!(base.scope(), seeded.scope());
            assert_eq!(
                base.empty_checkpoint().fingerprint(),
                again.empty_checkpoint().fingerprint()
            );
            if let (Some(a), Some(b)) = (base.fs_bounds(), seeded.fs_bounds()) {
                assert_ne!(a.ops, b.ops, "{}", workload.name);
                let mut sorted = b.ops.clone();
                sorted.sort_by_key(|op| a.ops.iter().position(|x| x == op));
                assert_eq!(sorted, a.ops);
            }
        }
    }

    fn outputs(tested: u64, digest: u128) -> Outputs {
        Outputs {
            candidates: tested,
            tested,
            skipped: 0,
            pruned: 0,
            raw_reports: 0,
            bug_groups: 0,
            groups_digest: digest,
            complete: true,
            audit_failures: 0,
            failed_workers: 0,
            respawns: 0,
        }
    }

    #[test]
    fn the_output_check_rejects_every_kind_of_mismatch() {
        let workload = find("seq2_journal_all").unwrap();
        let pins = workload.pins;
        let good = Outputs {
            candidates: pins.candidates(),
            tested: pins.tested,
            skipped: pins.skipped,
            ..outputs(0, pins.groups_digest)
        };
        let ok = |passes: &[Outputs], seed| check(workload, Scale::Pinned, seed, passes, None);
        assert_eq!(ok(&[good.clone(), good.clone()], 0), Ok(()));
        assert!(ok(&[], 0).is_err());
        // Digest is pinned at seed 0 only; counts at every seed.
        let other_digest = Outputs {
            groups_digest: 1,
            ..good.clone()
        };
        assert!(ok(std::slice::from_ref(&other_digest), 0).is_err());
        assert_eq!(ok(std::slice::from_ref(&other_digest), 9), Ok(()));
        let miscounted = Outputs {
            tested: good.tested - 1,
            candidates: good.candidates - 1,
            ..good.clone()
        };
        assert!(ok(&[miscounted], 9).is_err());
        assert!(
            ok(&[good.clone(), other_digest], 9).is_err(),
            "passes disagree"
        );
        for broken in [
            Outputs {
                complete: false,
                ..good.clone()
            },
            Outputs {
                audit_failures: 1,
                ..good.clone()
            },
            Outputs {
                failed_workers: 1,
                ..good.clone()
            },
            Outputs {
                respawns: 1,
                ..good.clone()
            },
        ] {
            assert!(ok(&[broken], 0).is_err());
        }
        // A fan-out run must match its in-process reference; smoke runs
        // check everything but the pins.
        let reference = outputs(7, 2);
        let smoke = |passes: &[Outputs], r| check(workload, Scale::Smoke, 1, passes, r);
        assert_eq!(smoke(&[outputs(7, 2)], Some(&reference)), Ok(()));
        assert!(smoke(&[outputs(7, 3)], Some(&reference)).is_err());
        assert_eq!(good.failed(pins.candidates()), 0);
        assert_eq!(good.failed(pins.candidates() + 5), 5);
    }
}

//! The coordinator's decisions, free of I/O: which shards a `Claim` gets,
//! when a link waits or is shut down, what a `ShardDone` merges, what a lost
//! link hands back, and when the run stops handing out work.
//!
//! Two callers run it, each calling one method here per event under one
//! lock. [`super::run_with_transport_hooked`] is the distributed shell: one
//! thread per worker slot moves frames, appends the checkpoint records and
//! waits. The crate's in-process engine (`engine::run_resumable`) makes each
//! of its threads a slot that runs the shards it claims itself. Nothing in
//! this file holds a lock, a thread, a clock, a socket or a file, so a test
//! can drive it through any schedule of events on one thread.

use std::collections::{BTreeSet, VecDeque};
use std::time::Duration;

use b3_vfs::error::{FsError, FsResult};

use super::DistribConfig;
use crate::dedup::GroupKey;
use crate::postprocess::BugGroup;
use crate::sweep::{eta, Progress, ShardResult, SweepCheckpoint, WorkerThroughput};

/// The answer to a worker's `Claim`.
#[derive(Debug, PartialEq)]
pub(crate) enum Claim {
    /// Run these shards.
    Assign(Vec<u32>),
    /// Nothing is queued, but other links hold shards that come back to
    /// the queue if their link dies: claim again after the next merge or
    /// requeue.
    Wait,
    /// No work is left for this run: shut the worker down.
    Shutdown,
}

/// A merged `ShardDone`: the number that versions its delta record, and
/// what the shell announces.
pub(crate) struct Merged {
    /// The merge number (shards merged this run), which versions the
    /// delta record.
    pub(super) version: u64,
    /// Bug groups the shard brought into the sweep for the first time;
    /// empty unless the merge asked for them.
    pub(super) discovered: Vec<BugGroup>,
    /// True when the slot holds no other shard, so its next `Claim` is
    /// already on the wire.
    pub(super) idle: bool,
}

/// One worker slot: the shards its current link holds, and its telemetry.
#[derive(Default)]
struct Slot {
    /// Shards assigned over the current link and not merged yet.
    held: Vec<u32>,
    /// Transport endpoint of the slot's latest link; empty until the first
    /// handshake, and kept after the link dies so progress output still
    /// names the machine.
    endpoint: String,
    tested: u64,
    shards: u64,
    alive: bool,
}

/// The coordinator's state: the shard queue, what every slot holds, the
/// merged checkpoint, the running counts and the budget.
pub(crate) struct Coordinator {
    queue: VecDeque<u32>,
    slots: Vec<Slot>,
    checkpoint: SweepCheckpoint,
    /// Running totals mirroring the checkpoint, so a progress snapshot
    /// does not re-aggregate it.
    tested: usize,
    skipped: usize,
    pruned: usize,
    buggy: usize,
    merged_this_run: usize,
    processed_this_run: usize,
    /// Candidates of every shard assigned this run (held or merged). A
    /// workload budget gates *assignment* on this, not on merged results —
    /// otherwise claims granted while the first shards are still in flight
    /// overshoot the budget by workers × shard size.
    assigned_candidates: u64,
    stopping: bool,
    /// Bug-group keys already merged, so a group is discovered exactly
    /// once. Built from the checkpoint by the first merge that asks for
    /// discoveries, so a run that announces none never holds it.
    seen_groups: Option<BTreeSet<GroupKey>>,
    shard_sizes: Vec<u64>,
    total_workloads: u64,
    seeded_shards: usize,
    config: DistribConfig,
}

impl Coordinator {
    /// A run resuming `checkpoint`: every missing shard is queued, in
    /// order. `shard_sizes` holds each shard's candidate count.
    pub(crate) fn new(
        checkpoint: SweepCheckpoint,
        shard_sizes: Vec<u64>,
        total_workloads: u64,
        config: &DistribConfig,
    ) -> Coordinator {
        let seeded = checkpoint.summary();
        Coordinator {
            queue: checkpoint.missing_shards().into(),
            slots: (0..config.workers)
                .map(|_| Slot {
                    alive: true,
                    ..Slot::default()
                })
                .collect(),
            tested: seeded.tested,
            skipped: seeded.skipped,
            pruned: seeded.pruned,
            buggy: checkpoint.total_buggy() as usize,
            merged_this_run: 0,
            processed_this_run: 0,
            assigned_candidates: 0,
            stopping: false,
            seen_groups: None,
            seeded_shards: checkpoint.completed_shards(),
            checkpoint,
            shard_sizes,
            total_workloads,
            config: config.clone(),
        }
    }

    /// True once a stop limit of the configuration is reached.
    fn limit_reached(&self) -> bool {
        let config = &self.config;
        config
            .stop_after_shards
            .is_some_and(|limit| self.merged_this_run >= limit)
            || config.stop_after_workloads.is_some_and(|limit| {
                self.processed_this_run >= limit || self.assigned_candidates >= limit as u64
            })
    }

    fn in_flight(&self) -> bool {
        self.slots.iter().any(|slot| !slot.held.is_empty())
    }

    /// True when a fresh link would have nothing to do: the run is
    /// stopping, or the queue is empty with nothing in flight that could
    /// flow back to it.
    pub(super) fn no_work_left(&self) -> bool {
        self.stopping || self.limit_reached() || (self.queue.is_empty() && !self.in_flight())
    }

    /// A `Claim` from `slot`. `stop` is the caller's stop condition (the
    /// stop hook, or an in-process budget or bug limit): like a reached
    /// stop limit, it ends all handing out of work for the run, while the
    /// shards in flight still merge. A slot claims only once it has
    /// reported every shard it holds; a claim before that is refused before
    /// it touches any count.
    pub(crate) fn claim(&mut self, slot: usize, stop: bool) -> FsResult<Claim> {
        let held = &self.slots[slot].held;
        if !held.is_empty() {
            return Err(FsError::Corrupted(format!(
                "worker claimed while it holds shards {held:?}"
            )));
        }
        self.stopping |= stop || self.limit_reached();
        if self.stopping {
            return Ok(Claim::Shutdown);
        }
        if self.queue.is_empty() {
            // A dying link hands its shards back: wait for them rather
            // than shut this worker down and strand that work.
            return Ok(if self.in_flight() {
                Claim::Wait
            } else {
                Claim::Shutdown
            });
        }
        let take = self.config.assign_batch.min(self.queue.len());
        let batch: Vec<u32> = self.queue.drain(..take).collect();
        for &shard in &batch {
            self.assigned_candidates += self.shard_sizes[shard as usize];
        }
        self.slots[slot].held.extend(&batch);
        Ok(Claim::Assign(batch))
    }

    /// Workloads that produced a bug report, over every merged shard.
    pub(crate) fn bugs(&self) -> usize {
        self.buggy
    }

    /// A `ShardDone` from `slot`: merges the result into the checkpoint,
    /// and with `discover` renders the bug groups it brings into the sweep
    /// for the first time. A shard the slot does not hold (never assigned
    /// to it, or already reported) is refused before it touches any count.
    pub(crate) fn shard_done(
        &mut self,
        slot: usize,
        shard: u32,
        result: ShardResult,
        discover: bool,
    ) -> FsResult<Merged> {
        let held = &mut self.slots[slot].held;
        let Some(position) = held.iter().position(|&s| s == shard) else {
            return Err(FsError::Corrupted(format!(
                "worker reported shard {shard} it does not hold"
            )));
        };
        held.swap_remove(position);
        let idle = held.is_empty();
        self.tested += result.tested as usize;
        self.skipped += result.skipped as usize;
        self.pruned += result.pruned as usize;
        self.buggy += result.buggy as usize;
        self.processed_this_run += (result.tested + result.skipped + result.pruned) as usize;
        self.merged_this_run += 1;
        self.slots[slot].shards += 1;
        self.slots[slot].tested += result.tested;
        let mut discovered = Vec::new();
        if discover {
            let checkpoint = &self.checkpoint;
            let seen = self.seen_groups.get_or_insert_with(|| {
                let grouped = checkpoint.grouped();
                grouped.entries().map(|(key, _)| key.clone()).collect()
            });
            for (key, entry) in result.groups.entries() {
                if !seen.contains(key) {
                    seen.insert(key.clone());
                    discovered.push(BugGroup {
                        skeleton: key.0.clone(),
                        consequence: key.1,
                        count: entry.count as usize,
                        example: entry.exemplar.clone(),
                    });
                }
            }
        }
        // The slot held the shard, and a held shard is never recorded yet
        // (`link_down` requeues only unrecorded ones): this overwrites
        // nothing.
        self.checkpoint.record(shard, result);
        Ok(Merged {
            version: self.merged_this_run as u64,
            discovered,
            idle,
        })
    }

    /// A link on `slot` completed its handshake.
    pub(super) fn link_up(&mut self, slot: usize, endpoint: &str) {
        self.slots[slot].endpoint = endpoint.to_string();
        self.slots[slot].alive = true;
    }

    /// `slot`'s link is gone, or never came: the shards it held that are
    /// not merged go back to the front of the queue with their share of
    /// the budget, and the slot stops counting as alive, so progress never
    /// shows a live rate on a dead endpoint.
    pub(crate) fn link_down(&mut self, slot: usize) {
        for shard in std::mem::take(&mut self.slots[slot].held) {
            if !self.checkpoint.has_shard(shard) {
                self.queue.push_front(shard);
                self.assigned_candidates = self
                    .assigned_candidates
                    .saturating_sub(self.shard_sizes[shard as usize]);
            }
        }
        self.slots[slot].alive = false;
    }

    /// A progress snapshot `elapsed` into the run.
    pub(crate) fn progress(&self, elapsed: Duration) -> Progress {
        let completed = self.checkpoint.completed_shards();
        let total_shards = self.checkpoint.num_shards();
        Progress {
            tested: self.tested,
            skipped: self.skipped,
            pruned: self.pruned,
            bugs: self.buggy,
            completed_shards: completed,
            total_shards,
            total_workloads: self.total_workloads,
            elapsed,
            eta: eta(
                elapsed,
                completed,
                self.seeded_shards,
                total_shards,
                self.stopping,
            ),
            per_worker: self
                .slots
                .iter()
                .enumerate()
                .map(|(worker, slot)| WorkerThroughput {
                    worker,
                    endpoint: slot.endpoint.clone(),
                    tested: slot.tested,
                    shards: slot.shards,
                    throughput: (slot.alive && !elapsed.is_zero())
                        .then(|| slot.tested as f64 / elapsed.as_secs_f64()),
                })
                .collect(),
        }
    }

    /// The checkpoint as of the latest merge, for a compaction: its merge
    /// number and its bytes.
    pub(super) fn snapshot(&self) -> (u64, Vec<u8>) {
        (self.merged_this_run as u64, self.checkpoint.to_bytes())
    }

    /// Ends the run: the merged checkpoint and the workloads this run
    /// processed. A slot's `error` fails the run only when the sweep is
    /// unfinished and no stop limit was reached: the shards a failed slot
    /// completed are merged, and surviving slots usually absorb the rest.
    pub(crate) fn finish(self, error: Option<FsError>) -> FsResult<(SweepCheckpoint, usize)> {
        match error {
            Some(error) if !self.checkpoint.is_complete() && !self.limit_reached() => Err(error),
            _ => Ok((self.checkpoint, self.processed_this_run)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    use crate::dedup::GroupTable;
    use crate::distrib::SweepJob;
    use b3_ace::Bounds;
    use b3_crashmonkey::{BugReport, Consequence};
    use b3_vfs::codec::Encoder;

    /// Shards of the schedule tests' job.
    const SHARDS: u32 = 8;

    /// A splitmix64 stream: each seed names one schedule.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }

        fn one_in(&mut self, n: usize) -> bool {
            self.below(n) == 0
        }
    }

    /// The result a worker reports for `shard`. Neighbouring shards share
    /// bug groups, so a merge both adds groups and folds counts and
    /// exemplars into groups other shards brought.
    fn result_for(shard: u32) -> ShardResult {
        let mut groups = GroupTable::new();
        for (skeleton, consequence) in [
            (shard % 3, Consequence::FileMissing),
            ((shard + 1) % 5, Consequence::DataCorruption),
        ] {
            groups.observe(BugReport {
                workload_name: format!("w{shard}"),
                skeleton: format!("skeleton{skeleton}"),
                fs_name: "simfs".into(),
                crash_point: shard,
                consequence,
                all_consequences: vec![consequence],
                expected: String::new(),
                actual: String::new(),
                diffs: Vec::new(),
                write_check_failures: Vec::new(),
            });
        }
        ShardResult {
            tested: 10 + u64::from(shard),
            skipped: 1,
            buggy: 2,
            groups,
            ..ShardResult::default()
        }
    }

    /// One worker slot as the schedule sees it.
    #[derive(Clone, PartialEq)]
    enum Link {
        /// No link: the slot may connect.
        Down,
        /// A link that has handshaken; `pending` is what it was assigned
        /// and has not reported.
        Up { pending: Vec<u32> },
        /// The slot was shut down or gave up.
        Gone,
    }

    /// What the schedules of one seed did, across every run.
    #[derive(Default)]
    struct Tally {
        merges: [usize; SHARDS as usize],
        discovered: BTreeSet<GroupKey>,
        /// Per bug group, whether the first merge that brought it came
        /// over a link: a thread's merge announces nothing.
        first_by_link: BTreeMap<GroupKey, bool>,
    }

    impl Tally {
        fn merged(&mut self, shard: u32, by_link: bool) {
            self.merges[shard as usize] += 1;
            for (key, _) in result_for(shard).groups.entries() {
                self.first_by_link.entry(key.clone()).or_insert(by_link);
            }
        }
    }

    /// Checks the bookkeeping every event must keep: each shard is queued,
    /// held by one slot, or merged, and the budget counts exactly the
    /// shards held plus those merged this run.
    fn check_books(core: &Coordinator, seeded: &SweepCheckpoint, links: &[Link]) {
        let mut places = vec![0; SHARDS as usize];
        let held = core.slots.iter().flat_map(|slot| &slot.held);
        for &shard in core.queue.iter().chain(held) {
            places[shard as usize] += 1;
        }
        let mut budget = 0;
        for shard in 0..SHARDS {
            let merged = core.checkpoint.has_shard(shard);
            places[shard as usize] += usize::from(merged);
            if (merged && !seeded.has_shard(shard))
                || core.slots.iter().any(|s| s.held.contains(&shard))
            {
                budget += core.shard_sizes[shard as usize];
            }
        }
        assert_eq!(places, vec![1; SHARDS as usize], "every shard in one place");
        assert_eq!(
            core.assigned_candidates, budget,
            "budget = held + merged this run"
        );
        for (slot, link) in core.slots.iter().zip(links) {
            let pending = match link {
                Link::Up { pending } => pending.clone(),
                _ => Vec::new(),
            };
            let (mut held, mut pending) = (slot.held.clone(), pending);
            held.sort_unstable();
            pending.sort_unstable();
            assert_eq!(held, pending, "the core holds what the link was assigned");
        }
    }

    /// Everything an event may change: the queue, what each slot holds,
    /// the budget, the merge count and the stop.
    fn books(core: &Coordinator) -> (VecDeque<u32>, Vec<Vec<u32>>, u64, usize, bool) {
        (
            core.queue.clone(),
            core.slots.iter().map(|slot| slot.held.clone()).collect(),
            core.assigned_candidates,
            core.merged_this_run,
            core.stopping,
        )
    }

    /// One coordinator run under a schedule drawn from `rng`: links come
    /// up, claim, report and die; `chaos` adds link losses, duplicate and
    /// foreign `ShardDone`s, a stop and a coordinator crash. The first
    /// `threads` slots act as the in-process engine's threads instead
    /// (see `thread_step`); `chaos` gives them a workload budget or a
    /// bug limit. Returns the checkpoint a restart sees: every shard whose
    /// merge returned.
    fn run_once(
        rng: &mut Rng,
        checkpoint: SweepCheckpoint,
        sizes: &[u64],
        config: &DistribConfig,
        threads: usize,
        chaos: bool,
        tally: &mut Tally,
    ) -> SweepCheckpoint {
        let seeded = checkpoint.clone();
        let mut core = Coordinator::new(checkpoint, sizes.to_vec(), 0, config);
        // A thread is a slot from the start: it never calls `link_up`.
        let mut links: Vec<Link> = (0..config.workers)
            .map(|slot| {
                if slot < threads {
                    Link::Up {
                        pending: Vec::new(),
                    }
                } else {
                    Link::Down
                }
            })
            .collect();
        let total: u64 = sizes.iter().sum();
        let mut limits = Limits {
            budget: (chaos && rng.one_in(3)).then(|| rng.below(total as usize + 1) as u64),
            bugs: (chaos && rng.one_in(3)).then(|| rng.below(2 * SHARDS as usize)),
        };
        let mut stop = false;
        for _ in 0..10_000 {
            let live: Vec<usize> = (0..links.len())
                .filter(|&s| links[s] != Link::Gone)
                .collect();
            if live.is_empty() || (chaos && rng.one_in(60)) {
                // Every slot is done, or the coordinator crashed.
                return core.checkpoint;
            }
            let slot = live[rng.below(live.len())];
            stop |= chaos && rng.one_in(40);
            if slot < threads {
                thread_step(&mut core, slot, &mut links[slot], &mut limits, sizes, tally);
                check_books(&core, &seeded, &links);
                continue;
            }
            let pending = match &mut links[slot] {
                Link::Up { pending } => pending,
                _ if core.no_work_left() => {
                    core.link_down(slot);
                    links[slot] = Link::Gone;
                    continue;
                }
                _ => {
                    core.link_up(slot, &format!("sim:{slot}"));
                    links[slot] = Link::Up {
                        pending: Vec::new(),
                    };
                    continue;
                }
            };
            if chaos && rng.one_in(12) {
                // The link dies (a respawn may bring the slot back), or
                // breaks the protocol: it reports a shard it does not hold
                // (a duplicate of a merged shard, or one that is queued or
                // held elsewhere), or claims while it holds shards. That is
                // fatal, and must change nothing first.
                let shard = rng.below(SHARDS as usize) as u32;
                let before = books(&core);
                let refused = match rng.below(3) {
                    0 if !pending.contains(&shard) => Some(
                        core.shard_done(slot, shard, result_for(shard), true)
                            .map(|_| ()),
                    ),
                    1 if !pending.is_empty() => Some(core.claim(slot, stop).map(|_| ())),
                    _ => None,
                };
                links[slot] = match refused {
                    Some(refused) => {
                        assert!(refused.is_err(), "slot {slot} broke the protocol");
                        assert!(books(&core) == before, "a refused event changed the books");
                        Link::Gone
                    }
                    None => Link::Down,
                };
                core.link_down(slot);
            } else if pending.is_empty() {
                match core.claim(slot, stop).expect("an idle slot may claim") {
                    Claim::Assign(batch) => *pending = batch,
                    Claim::Wait => assert!(core.in_flight(), "a wait needs shards in flight"),
                    Claim::Shutdown => {
                        assert!(core.no_work_left(), "shut down with work left");
                        core.link_down(slot);
                        links[slot] = Link::Gone;
                    }
                }
            } else {
                let shard = pending.swap_remove(rng.below(pending.len()));
                let merged = core.shard_done(slot, shard, result_for(shard), true);
                let merged = merged.unwrap_or_else(|e| panic!("shard {shard}: {e}"));
                assert_eq!(merged.idle, pending.is_empty());
                tally.merged(shard, true);
                for group in merged.discovered {
                    let key = (group.skeleton, group.consequence);
                    assert!(
                        tally.discovered.insert(key.clone()),
                        "{key:?} discovered twice"
                    );
                }
            }
            check_books(&core, &seeded, &links);
        }
        panic!("the schedule did not end in 10 000 events");
    }

    /// The stop limits of an in-process run: the workload budget left, and
    /// the bug limit.
    struct Limits {
        budget: Option<u64>,
        bugs: Option<usize>,
    }

    /// One event of an in-process slot, as `engine::run_resumable`'s
    /// threads drive the core: an idle thread claims with the stop its
    /// budget or bug limit gives, and leaves with `link_down` on anything
    /// but an assignment; a busy one runs its next shard and reports it
    /// without discoveries, unless the budget runs out inside the shard,
    /// which leaves it unrecorded and ends the thread.
    fn thread_step(
        core: &mut Coordinator,
        slot: usize,
        link: &mut Link,
        limits: &mut Limits,
        sizes: &[u64],
        tally: &mut Tally,
    ) {
        let Link::Up { pending } = link else {
            unreachable!("a thread is up until it leaves");
        };
        if pending.is_empty() {
            let stop =
                limits.budget == Some(0) || limits.bugs.is_some_and(|limit| core.bugs() >= limit);
            let claim = core.claim(slot, stop);
            match claim.expect("a thread claims with no shard held") {
                Claim::Assign(batch) => {
                    *pending = batch;
                    return;
                }
                Claim::Wait => assert!(core.in_flight(), "a wait needs shards in flight"),
                Claim::Shutdown => assert!(core.no_work_left(), "shut down with work left"),
            }
            core.link_down(slot);
            *link = Link::Gone;
            return;
        }
        let shard = pending.remove(0);
        let size = sizes[shard as usize];
        if let Some(left) = &mut limits.budget {
            if *left < size {
                *left = 0;
                core.link_down(slot);
                *link = Link::Gone;
                return;
            }
            *left -= size;
        }
        let merged = core.shard_done(slot, shard, result_for(shard), false);
        let merged = merged.unwrap_or_else(|e| panic!("shard {shard}: {e}"));
        assert!(
            merged.discovered.is_empty(),
            "a thread asked for no discoveries"
        );
        assert_eq!(merged.idle, pending.is_empty());
        tally.merged(shard, false);
    }

    /// Runs seed `seed`: a chaotic run, up to two more after coordinator
    /// restarts or stops, then a clean run that must complete from the
    /// checkpoint they left. A seeded share of the slots are in-process
    /// threads in every run.
    fn run_schedule(seed: u64, sizes: &[u64], job: &SweepJob) {
        let mut rng = Rng(seed);
        let total: u64 = sizes.iter().sum();
        let config = DistribConfig {
            workers: 1 + rng.below(4),
            assign_batch: 1 + rng.below(3),
            stop_after_shards: rng.one_in(4).then(|| rng.below(SHARDS as usize)),
            stop_after_workloads: rng.one_in(4).then(|| rng.below(total as usize)),
            ..DistribConfig::default()
        };
        let threads = rng.below(config.workers + 1);
        let mut tally = Tally::default();
        let mut checkpoint = job.empty_checkpoint();
        for _ in 0..1 + rng.below(3) {
            checkpoint = run_once(
                &mut rng, checkpoint, sizes, &config, threads, true, &mut tally,
            );
        }
        let clean = DistribConfig {
            workers: config.workers,
            assign_batch: config.assign_batch,
            ..DistribConfig::default()
        };
        let checkpoint = run_once(
            &mut rng, checkpoint, sizes, &clean, threads, false, &mut tally,
        );
        assert!(checkpoint.is_complete(), "the clean run completes");
        assert_eq!(tally.merges, [1; SHARDS as usize], "each shard merged once");
        let mut reference = GroupTable::new();
        for shard in 0..SHARDS {
            reference.merge_from(&result_for(shard).groups);
        }
        let bytes = |table: &GroupTable| {
            let mut enc = Encoder::new();
            table.encode(&mut enc);
            enc.finish()
        };
        assert_eq!(bytes(&checkpoint.grouped()), bytes(&reference));
        // A group a link's merge brought into the sweep first is
        // discovered (once: see `run_once`). One a thread brought first
        // may be announced by a later link merge, as a thread's merges do
        // not mark groups seen; only tests mix the two kinds of slot.
        let announced: BTreeSet<GroupKey> = tally
            .first_by_link
            .iter()
            .filter(|(_, &by_link)| by_link)
            .map(|(key, _)| key.clone())
            .collect();
        assert!(
            announced.is_subset(&tally.discovered),
            "a group not discovered"
        );
        if threads == 0 {
            assert_eq!(tally.discovered, announced, "every group discovered once");
        }
    }

    /// Runs every seed of `seeds`, naming the one that fails.
    fn check_seeds(seeds: std::ops::Range<u64>) {
        let job = SweepJob::new(Bounds::tiny(), SHARDS as usize);
        let sizes = job.shard_sizes();
        for seed in seeds {
            let run = std::panic::catch_unwind(|| run_schedule(seed, &sizes, &job));
            assert!(run.is_ok(), "coordinator schedule seed {seed} failed");
        }
    }

    /// A slot claims only after reporting its batch: a second claim with
    /// a shard still held is refused before it changes anything, instead of
    /// answering `Wait` to a slot that then waits for itself forever.
    #[test]
    fn a_claim_from_a_slot_that_holds_shards_is_refused() {
        let job = SweepJob::new(Bounds::tiny(), 2);
        let config = DistribConfig {
            workers: 1,
            ..DistribConfig::default()
        };
        let mut core = Coordinator::new(job.empty_checkpoint(), vec![5; 2], 10, &config);
        assert_eq!(core.claim(0, false).unwrap(), Claim::Assign(vec![0]));
        let before = books(&core);
        // Not even the stop it carries is taken.
        let refused = core.claim(0, true).unwrap_err();
        assert!(
            refused.to_string().contains("holds shards [0]"),
            "{refused}"
        );
        assert!(
            books(&core) == before,
            "the refused claim changed the books"
        );
        core.shard_done(0, 0, result_for(0), true).unwrap();
        assert_eq!(core.claim(0, false).unwrap(), Claim::Assign(vec![1]));
        core.shard_done(0, 1, result_for(1), true).unwrap();
        assert_eq!(core.claim(0, false).unwrap(), Claim::Shutdown);
    }

    /// A core over a fresh `shards`-shard job whose shards hold five
    /// candidates each.
    fn core_for(shards: usize, config: &DistribConfig) -> Coordinator {
        let job = SweepJob::new(Bounds::tiny(), shards);
        let sizes = vec![5; shards];
        Coordinator::new(job.empty_checkpoint(), sizes, 5 * shards as u64, config)
    }

    /// A thread whose budget runs out inside a shard leaves it unrecorded:
    /// `link_down` puts it back at the front of the queue with its share
    /// of the budget, and the next claim, from any slot, gets it first.
    #[test]
    fn a_shard_its_slot_leaves_goes_back_to_the_front_of_the_queue() {
        let config = DistribConfig {
            workers: 2,
            ..DistribConfig::default()
        };
        let mut core = core_for(4, &config);
        assert_eq!(core.claim(0, false).unwrap(), Claim::Assign(vec![0]));
        assert_eq!(core.claim(1, false).unwrap(), Claim::Assign(vec![1]));
        assert_eq!(core.assigned_candidates, 10);
        core.link_down(0);
        assert_eq!(core.queue, [0, 2, 3]);
        assert_eq!(core.assigned_candidates, 5);
        assert!(!core.checkpoint.has_shard(0));
        core.shard_done(1, 1, result_for(1), false).unwrap();
        assert_eq!(core.claim(1, false).unwrap(), Claim::Assign(vec![0]));
        let progress = core.progress(Duration::from_secs(1));
        assert_eq!(progress.per_worker[0].throughput, None, "slot 0 left");
        assert!(progress.per_worker[1].throughput.is_some());
    }

    /// With the queue empty and a shard in flight, an idle slot is told to
    /// wait. A thread leaves instead, taking nothing from the queue; when
    /// the holder's link dies its shard flows back, and a new link on that
    /// slot finishes the run.
    #[test]
    fn a_slot_that_leaves_on_a_wait_strands_no_shard() {
        let config = DistribConfig {
            workers: 2,
            ..DistribConfig::default()
        };
        let mut core = core_for(1, &config);
        assert_eq!(core.claim(0, false).unwrap(), Claim::Assign(vec![0]));
        assert_eq!(core.claim(1, false).unwrap(), Claim::Wait);
        core.link_down(1);
        assert!(core.queue.is_empty() && !core.no_work_left());
        core.link_down(0);
        assert_eq!(core.queue, [0]);
        core.link_up(0, "sim:0");
        assert_eq!(core.claim(0, false).unwrap(), Claim::Assign(vec![0]));
        assert!(core.shard_done(0, 0, result_for(0), true).unwrap().idle);
        assert_eq!(core.claim(0, false).unwrap(), Claim::Shutdown);
        let (checkpoint, processed) = core.finish(None).unwrap();
        assert!(checkpoint.is_complete());
        assert_eq!(processed, 11, "shard 0 tests 10 and skips 1");
    }

    /// A claim carrying a stop shuts its slot down, and every later claim
    /// too, but the shards already handed out still merge and the run ends
    /// with them.
    #[test]
    fn a_stop_ends_the_handing_out_but_shards_in_flight_still_merge() {
        let config = DistribConfig {
            workers: 3,
            ..DistribConfig::default()
        };
        let mut core = core_for(4, &config);
        assert_eq!(core.claim(0, false).unwrap(), Claim::Assign(vec![0]));
        assert_eq!(core.claim(1, true).unwrap(), Claim::Shutdown);
        assert_eq!(core.claim(2, false).unwrap(), Claim::Shutdown);
        assert!(core.no_work_left());
        let merged = core.shard_done(0, 0, result_for(0), false).unwrap();
        assert_eq!((merged.version, merged.idle), (1, true));
        assert_eq!(core.claim(0, false).unwrap(), Claim::Shutdown);
        assert_eq!(core.queue, [1, 2, 3], "the unassigned shards stay queued");
        let (checkpoint, processed) = core.finish(None).unwrap();
        assert_eq!(checkpoint.missing_shards(), [1, 2, 3]);
        assert_eq!(processed, 11);
    }

    /// A slot's error fails the run only while the sweep is unfinished and
    /// no stop limit was reached; otherwise the merged shards stand.
    #[test]
    fn a_slot_error_fails_only_an_unfinished_run_below_its_limits() {
        let error = || Some(FsError::Corrupted("slot failed".into()));
        let run = |config: &DistribConfig, shards_to_merge: u32| {
            let mut core = core_for(2, config);
            for shard in 0..shards_to_merge {
                assert_eq!(core.claim(0, false).unwrap(), Claim::Assign(vec![shard]));
                core.shard_done(0, shard, result_for(shard), false).unwrap();
            }
            core
        };
        let config = DistribConfig {
            workers: 1,
            ..DistribConfig::default()
        };
        let refused = run(&config, 1).finish(error()).expect_err("run fails");
        assert!(refused.to_string().contains("slot failed"), "{refused}");
        let (complete, _) = run(&config, 2).finish(error()).unwrap();
        assert!(complete.is_complete());
        let limited = DistribConfig {
            stop_after_shards: Some(1),
            ..config
        };
        let mut core = run(&limited, 1);
        assert_eq!(core.claim(0, false).unwrap(), Claim::Shutdown);
        let (partial, processed) = core.finish(error()).unwrap();
        assert_eq!((partial.completed_shards(), processed), (1, 11));
    }

    /// A merge that asks for discoveries announces each bug group the first
    /// time a shard brings it into the sweep, with that shard's count and
    /// exemplar; groups of the resumed checkpoint are never announced, and
    /// a merge that does not ask announces nothing.
    #[test]
    fn discoveries_announce_each_group_once_past_the_resumed_checkpoint() {
        let job = SweepJob::new(Bounds::tiny(), 4);
        let mut checkpoint = job.empty_checkpoint();
        checkpoint.record(0, result_for(0));
        let config = DistribConfig {
            workers: 1,
            assign_batch: 3,
            ..DistribConfig::default()
        };
        let mut core = Coordinator::new(checkpoint, vec![5; 4], 20, &config);
        assert_eq!(core.claim(0, false).unwrap(), Claim::Assign(vec![1, 2, 3]));
        let names = |merged: Merged| -> Vec<String> {
            let groups = merged.discovered.iter();
            groups
                .map(|group| format!("{}:{}", group.skeleton, group.example.workload_name))
                .collect()
        };
        // Shard 3 shares skeleton0/FileMissing with the resumed shard 0.
        let merged = core.shard_done(0, 3, result_for(3), true).unwrap();
        assert_eq!(names(merged), ["skeleton4:w3"]);
        let merged = core.shard_done(0, 1, result_for(1), false).unwrap();
        assert!(names(merged).is_empty());
        let merged = core.shard_done(0, 2, result_for(2), true).unwrap();
        assert!(merged.idle);
        assert_eq!(merged.discovered.len(), 2);
        assert!(merged.discovered.iter().all(|group| group.count == 1));
        assert_eq!(names(merged), ["skeleton2:w2", "skeleton3:w2"]);
    }

    /// Seeded schedules of claims, results, link losses, refused results
    /// and claims, stops and coordinator restarts, with 1–4 slots.
    #[test]
    fn seeded_schedules_merge_every_shard_once() {
        check_seeds(0..300);
    }

    /// The same schedules, 100 000 seeds: run in release.
    #[test]
    #[ignore]
    fn seeded_schedules_merge_every_shard_once_100k() {
        check_seeds(0..100_000);
    }
}

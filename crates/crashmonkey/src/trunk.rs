//! Prefix sharing: run each shared step prefix once.
//!
//! Both generators vary the last choice fastest — ACE's odometer its final
//! operations, the transaction generator its final transaction — so
//! consecutive workloads of a shard mostly differ at the end only.
//! Re-mounting and re-running every workload from its first step repeats the
//! prefix the previous workload just ran. The [`Trunk`] keeps, along the
//! previous workload's step path, a stack of *frames* — forked runs, each
//! the run as it stood after some prefix — and starts the next workload
//! from a fork of the deepest frame whose prefix it shares.
//!
//! What a run is, and what one step of it does, is the caller's: the trunk
//! is generic over a [`TrunkRun`] and owns only the prefix match, the frame
//! policy, the [`ProfileSharing`] counters and the [`Held`] cell a run hangs
//! on each persistence point. It is instantiated twice,
//! monomorphized each time: for the profiler's `ProfileState` stepped one
//! [`Op`](b3_vfs::workload::Op) at a time, and for `b3_app`'s engine run
//! stepped one transaction at a time.
//!
//! A frame is only ever forked, never stepped, so it stays the state after
//! exactly the steps `path[..depth]`; and a forked run is by the
//! [`fork` contract](b3_vfs::fs::FileSystem::fork) indistinguishable from
//! one that ran those steps itself. What a run returns is therefore a pure
//! function of the workload whatever the trunk held before — the order
//! workloads arrive in, shard boundaries, and earlier failures change what
//! is re-run, never what is returned. Debug builds assert that (see
//! [`CrashMonkey`](crate::CrashMonkey)), and
//! `profile_sharing_differential.rs` pins it across orders and file systems.

use std::sync::{Arc, OnceLock};

/// One run of a workload stopped between two steps, as the [`Trunk`] needs
/// to see it.
pub trait TrunkRun: Sized {
    /// One unit of the workload's path: two workloads share a prefix as far
    /// as their steps compare equal.
    type Step: PartialEq + Clone;

    /// Number of steps run so far, a failing one included.
    fn depth(&self) -> usize;

    /// True once a step failed; a failed run takes no further steps.
    fn failed(&self) -> bool;

    /// An independent copy of the run: nothing done to either side may
    /// change what the other holds, and any step sequence applied to the
    /// copy must behave exactly as it would have on `self`.
    fn fork(&self) -> Self;

    /// Readies the run to be forked many times (work every fork would
    /// otherwise repeat is done here, once). False when it cannot be: the
    /// state is then simply not kept as a frame.
    fn keep_as_frame(&mut self) -> bool;
}

/// What the first workload to examine one persistence point of a run found
/// there, held for every later workload that shares the run up to that
/// point: a fill-once cell that [`TrunkRun::fork`] copies by reference, so
/// the forks of a run — the trunk's frames and the workloads resumed from
/// them — all see the one value. Both instantiations of the trunk hang one
/// on each persistence point: the profiler the crash state's check verdict,
/// `b3_app` its recovery.
///
/// The cell says how much of the work has been done already, never what the
/// run *is*: it always compares equal and prints the same, so the
/// structures holding one keep deriving `PartialEq` and `Debug` over what
/// they captured only.
pub struct Held<T>(Arc<OnceLock<T>>);

impl<T> Held<T> {
    /// The held value, `None` until some fork of the run filled the cell.
    pub fn get(&self) -> Option<&T> {
        self.0.get()
    }

    /// Fills an empty cell with `value`; a filled one keeps what it holds.
    /// Returns the held value either way.
    pub fn fill(&self, value: T) -> &T {
        self.0.get_or_init(|| value)
    }
}

impl<T> Default for Held<T> {
    fn default() -> Self {
        Held(Arc::default())
    }
}

impl<T> Clone for Held<T> {
    /// The same cell: filling either side fills both.
    fn clone(&self) -> Self {
        Held(Arc::clone(&self.0))
    }
}

impl<T> PartialEq for Held<T> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl<T> std::fmt::Debug for Held<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Held")
    }
}

/// How much work prefix sharing saved, cumulative over a harness's
/// lifetime. A step is an operation for a file-system workload and a
/// transaction for an application workload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfileSharing {
    /// Steps executed (the failing step of a skipped workload included).
    pub ops_applied: u64,
    /// Steps *not* executed because a frame already held their result.
    /// `ops_applied + ops_resumed` is what per-workload re-execution would
    /// have executed.
    pub ops_resumed: u64,
    /// Runs forked: one per resumed workload plus one per frame taken.
    pub forks: u64,
    /// File-system mounts: one per trunk, for its root frame.
    pub mounts: u64,
}

impl ProfileSharing {
    /// The share of steps that were resumed rather than executed (0 when
    /// nothing ran yet).
    pub fn resumed_share(&self) -> f64 {
        let total = self.ops_applied + self.ops_resumed;
        if total == 0 {
            0.0
        } else {
            self.ops_resumed as f64 / total as f64
        }
    }
}

/// A workload's run as [`Trunk::run`] hands it back.
pub enum Finished<'t, R> {
    /// Every step ran; the run is the caller's.
    Complete(R),
    /// A step failed — now, or when an earlier workload ran it. The trunk
    /// keeps the run to answer the next workload that shares the failing
    /// step.
    Failed(&'t R),
}

/// The stack of forked runs along the previous workload's step path.
pub struct Trunk<R: TrunkRun> {
    /// The steps of the most recent workload.
    path: Vec<R::Step>,
    /// Strictly increasing in depth; `frames[i]` is the run after exactly
    /// `path[..frames[i].depth()]`. The first is the mounted root (depth 0).
    frames: Vec<R>,
    sharing: ProfileSharing,
}

impl<R: TrunkRun> Default for Trunk<R> {
    fn default() -> Self {
        Trunk {
            path: Vec::new(),
            frames: Vec::new(),
            sharing: ProfileSharing::default(),
        }
    }
}

impl<R: TrunkRun> Trunk<R> {
    /// The counters so far; [`Trunk::reset`] does not clear them.
    pub fn sharing(&self) -> ProfileSharing {
        self.sharing
    }

    /// Drops every frame: the next workload mounts again and runs from its
    /// first step.
    pub fn reset(&mut self) {
        self.path.clear();
        self.frames.clear();
    }

    /// Runs the workload whose path is `steps`, resuming from the deepest
    /// frame whose prefix it shares. `mount` makes the root run every
    /// workload starts from (called when the trunk holds none); `step`
    /// advances a run by one step, recording a step that fails to execute
    /// in the run rather than returning it. Every call must pass a `mount`
    /// and a `step` that behave the same.
    ///
    /// Frame policy, which needs no knowledge of the next workload: keep a
    /// frame where this workload's path leaves the previous one's (the
    /// odometer digit that just moved will move again) and one before the
    /// final step (the next workload most likely differs only there).
    /// A run that fails is kept whole, so workloads sharing the failing
    /// step are answered with the recorded error.
    pub fn run<E>(
        &mut self,
        steps: &[&R::Step],
        mount: impl FnOnce() -> Result<R, E>,
        mut step: impl FnMut(&mut R, &R::Step) -> Result<(), E>,
    ) -> Result<Finished<'_, R>, E> {
        let shared = self
            .path
            .iter()
            .zip(steps)
            .take_while(|(ran, step)| ran == *step)
            .count();
        // Frames past the shared prefix ran steps this workload lacks.
        while self.frames.last().is_some_and(|f| f.depth() > shared) {
            self.frames.pop();
        }
        self.path.truncate(shared);
        self.path
            .extend(steps[shared..].iter().map(|step| (*step).clone()));

        if self.frames.is_empty() {
            self.sharing.mounts += 1;
            self.frames.push(mount()?);
        }
        let resume = self.frames.last().expect("the root frame is never popped");
        self.sharing.ops_resumed += resume.depth() as u64;
        if !resume.failed() {
            let mut state = resume.fork();
            self.sharing.forks += 1;

            while state.depth() < steps.len() && !state.failed() {
                let depth = state.depth();
                let wanted = depth == shared || depth + 1 == steps.len();
                let held = self.frames.last().is_some_and(|f| f.depth() == depth);
                if wanted && !held && state.keep_as_frame() {
                    self.frames.push(state.fork());
                    self.sharing.forks += 1;
                }
                step(&mut state, steps[depth])?;
                self.sharing.ops_applied += 1;
            }

            if !state.failed() {
                return Ok(Finished::Complete(state));
            }
            self.frames.push(state);
        }
        let failed = self
            .frames
            .last()
            .expect("a failed run is the deepest frame");
        Ok(Finished::Failed(failed))
    }
}

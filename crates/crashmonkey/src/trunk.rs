//! Prefix-sharing profiling: run each shared operation prefix once.
//!
//! ACE's odometer varies the last choice fastest, so consecutive workloads
//! of a shard mostly differ in their final operations only. Re-mounting and
//! re-running every workload from its first operation repeats the prefix
//! the previous workload just ran. The [`Trunk`] keeps, along the previous
//! workload's operation path, a stack of *frames* — forked
//! [`ProfileState`]s, each the run as it stood after some prefix — and
//! starts the next workload from a fork of the deepest frame whose prefix
//! it shares.
//!
//! A frame is only ever forked, never stepped, so it stays the state after
//! exactly the operations `path[..depth]`; and a forked run is by the
//! [`fork` contract](b3_vfs::fs::FileSystem::fork) indistinguishable from
//! one that ran those operations itself. A profile is therefore a pure
//! function of the workload whatever the trunk held before — the order
//! workloads arrive in, shard boundaries, and earlier failures change what
//! is re-run, never what is returned. Debug builds assert that (see
//! [`CrashMonkey`](crate::CrashMonkey)), and
//! `profile_sharing_differential.rs` pins it across orders and file systems.

use b3_block::DiskImage;
use b3_vfs::error::FsResult;
use b3_vfs::workload::{Op, Workload};

use crate::profiler::{ProfileResult, ProfileState, Profiler};

/// How much profiling work prefix sharing saved, cumulative over a
/// harness's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfileSharing {
    /// Operations executed (the failing operation of a skipped workload
    /// included).
    pub ops_applied: u64,
    /// Operations *not* executed because a frame already held their
    /// result. `ops_applied + ops_resumed` is what per-workload
    /// re-execution would have executed.
    pub ops_resumed: u64,
    /// Profile states forked: one per resumed workload plus one per frame
    /// taken.
    pub forks: u64,
    /// File-system mounts: one per trunk, for its root frame.
    pub mounts: u64,
}

impl ProfileSharing {
    /// The share of operations that were resumed rather than executed
    /// (0 when nothing ran yet).
    pub fn resumed_share(&self) -> f64 {
        let total = self.ops_applied + self.ops_resumed;
        if total == 0 {
            0.0
        } else {
            self.ops_resumed as f64 / total as f64
        }
    }
}

/// The stack of forked profile states along the previous workload's
/// operation path.
#[derive(Default)]
pub(crate) struct Trunk {
    /// Setup + core operations of the most recent workload.
    path: Vec<Op>,
    /// Strictly increasing in depth; `frames[i]` is the run after exactly
    /// `path[..frames[i].depth()]`. The first is the mounted root (depth 0).
    frames: Vec<ProfileState>,
    sharing: ProfileSharing,
}

impl Trunk {
    pub(crate) fn sharing(&self) -> ProfileSharing {
        self.sharing
    }

    /// Profiles `workload` on a snapshot of `base_image`, resuming from the
    /// deepest frame whose prefix it shares. Every call must pass the same
    /// profiler settings and base image.
    ///
    /// Frame policy, which needs no knowledge of the next workload: keep a
    /// frame where this workload's path leaves the previous one's (the
    /// odometer digit that just moved will move again) and one before the
    /// final operation (the next workload most likely differs only there).
    /// A run that fails is kept whole, so workloads sharing the failing
    /// operation are answered with the recorded error.
    pub(crate) fn profile(
        &mut self,
        profiler: &Profiler<'_>,
        base_image: &DiskImage,
        workload: &Workload,
    ) -> FsResult<ProfileResult> {
        let ops: Vec<&Op> = workload.all_ops().collect();
        let shared = self
            .path
            .iter()
            .zip(&ops)
            .take_while(|(ran, op)| ran == *op)
            .count();
        // Frames past the shared prefix ran operations this workload lacks.
        while self.frames.last().is_some_and(|f| f.depth() > shared) {
            self.frames.pop();
        }
        self.path.truncate(shared);
        self.path
            .extend(ops[shared..].iter().map(|op| (*op).clone()));

        if self.frames.is_empty() {
            self.sharing.mounts += 1;
            self.frames.push(profiler.mount(base_image)?);
        }
        let resume = self.frames.last().expect("the root frame is never popped");
        self.sharing.ops_resumed += resume.depth() as u64;
        if resume.failed() {
            return Ok(resume.result(base_image));
        }
        let mut state = resume.fork();
        self.sharing.forks += 1;

        while state.depth() < ops.len() && !state.failed() {
            let depth = state.depth();
            let wanted = depth == shared || depth + 1 == ops.len();
            let held = self.frames.last().is_some_and(|f| f.depth() == depth);
            // A frame whose oracle cannot be settled is simply not kept.
            if wanted && !held && state.settle_oracle().is_ok() {
                self.frames.push(state.fork());
                self.sharing.forks += 1;
            }
            profiler.step(&mut state, ops[depth])?;
            self.sharing.ops_applied += 1;
        }

        if state.failed() {
            let result = state.result(base_image);
            self.frames.push(state);
            Ok(result)
        } else {
            Ok(state.into_result(base_image))
        }
    }
}

//! CowFs: a btrfs-like copy-on-write file system with an fsync log tree.
//!
//! CowFs is the workspace's stand-in for btrfs, the file system in which the
//! overwhelming majority of the paper's crash-consistency bugs live (24 of
//! the 28 studied bugs, 8 of the 10 newly found ones). It reproduces the
//! architectural properties that make those bugs possible:
//!
//! * All operations modify only in-memory state (the *working tree*).
//! * A full commit — triggered by `sync()` or a clean unmount — writes the
//!   whole tree copy-on-write to fresh blocks and flips the superblock with
//!   FLUSH+FUA.
//! * `fsync`/`fdatasync`/`msync` do **not** commit; they append *log items*
//!   describing the persisted inode (and the directory entries it needs) to
//!   a log area — the analogue of the btrfs log tree.
//! * Mounting an uncleanly-unmounted image loads the last committed tree and
//!   replays the log items into it.
//!
//! Every crash-consistency bug from the paper's btrfs corpus is implemented
//! as an era-gated deviation in exactly one of those two places — log
//! *recording* (which items are emitted for an fsync) or log *replay* (how
//! items are applied during recovery) — mirroring where the real bugs lived.
//! See [`CowBugs`] for the complete catalogue.
//!
//! The tree operations, format, mount, commit, unmount and fork are the
//! shared tree-backed core's ([`b3_vfs::treefs::TreeFs`]). This crate
//! supplies [`Cow`], CowFs's [`Persistence`](b3_vfs::treefs::Persistence):
//! the fsync-log recorder behind `fsync`/`fdatasync`/`msync`, log replay as
//! recovery, the commit that ends a mount of an uncleanly unmounted image,
//! and the mmap-dirty and punch-hole tracking its recorder reads.

mod bugs;
mod fs;
mod log;

pub use bugs::CowBugs;
pub use fs::{Cow, CowFs, CowFsSpec};
pub use log::{LogItem, LogTree};

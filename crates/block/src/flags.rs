//! IO request flags.
//!
//! These mirror the subset of Linux block-layer request flags that matter for
//! crash-consistency testing: whether a request carries data or metadata,
//! whether it is a barrier/flush, whether it is forced-unit-access (FUA), and
//! whether it was issued synchronously. CrashMonkey's checkpoint markers are
//! records of their own in the IO log, not flagged requests.

use std::fmt;
use std::ops::{BitAnd, BitOr, BitOrAssign};

/// A small hand-rolled bit-flag set describing one block IO request.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct IoFlags(u16);

impl IoFlags {
    /// No flags set.
    pub const NONE: IoFlags = IoFlags(0);
    /// The request writes data blocks (file contents).
    pub const DATA: IoFlags = IoFlags(1 << 0);
    /// The request writes metadata blocks (inodes, trees, journals, …).
    pub const META: IoFlags = IoFlags(1 << 1);
    /// The request asks the device to flush its volatile cache first
    /// (`REQ_PREFLUSH`).
    pub const FLUSH: IoFlags = IoFlags(1 << 2);
    /// Forced unit access: the write must reach stable media before the
    /// request completes (`REQ_FUA`).
    pub const FUA: IoFlags = IoFlags(1 << 3);
    /// The request is synchronous (issued from an fsync-like path).
    pub const SYNC: IoFlags = IoFlags(1 << 4);

    /// Returns true if every flag in `other` is also set in `self`.
    pub fn contains(self, other: IoFlags) -> bool {
        (self.0 & other.0) == other.0
    }

    /// Returns true if no flags are set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Returns the raw bit representation.
    pub fn bits(self) -> u16 {
        self.0
    }

    /// Reconstructs flags from raw bits (unknown bits are preserved).
    pub fn from_bits(bits: u16) -> IoFlags {
        IoFlags(bits)
    }
}

impl BitOr for IoFlags {
    type Output = IoFlags;
    fn bitor(self, rhs: IoFlags) -> IoFlags {
        IoFlags(self.0 | rhs.0)
    }
}

impl BitOrAssign for IoFlags {
    fn bitor_assign(&mut self, rhs: IoFlags) {
        self.0 |= rhs.0;
    }
}

impl BitAnd for IoFlags {
    type Output = IoFlags;
    fn bitand(self, rhs: IoFlags) -> IoFlags {
        IoFlags(self.0 & rhs.0)
    }
}

impl fmt::Debug for IoFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names = Vec::new();
        for (flag, name) in [
            (IoFlags::DATA, "DATA"),
            (IoFlags::META, "META"),
            (IoFlags::FLUSH, "FLUSH"),
            (IoFlags::FUA, "FUA"),
            (IoFlags::SYNC, "SYNC"),
        ] {
            if self.contains(flag) {
                names.push(name);
            }
        }
        if names.is_empty() {
            write!(f, "NONE")
        } else {
            write!(f, "{}", names.join("|"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn or_and_contains() {
        let flags = IoFlags::DATA | IoFlags::FUA;
        assert!(flags.contains(IoFlags::DATA));
        assert!(flags.contains(IoFlags::FUA));
        assert!(!flags.contains(IoFlags::META));
        assert!(flags.contains(IoFlags::DATA | IoFlags::FUA));
        assert!(!flags.contains(IoFlags::DATA | IoFlags::META));
    }

    #[test]
    fn or_assign() {
        let mut flags = IoFlags::NONE;
        assert!(flags.is_empty());
        flags |= IoFlags::FLUSH;
        assert!(flags.contains(IoFlags::FLUSH));
        assert!(!flags.is_empty());
    }

    #[test]
    fn debug_formatting() {
        let flags = IoFlags::META | IoFlags::FLUSH | IoFlags::FUA;
        let s = format!("{flags:?}");
        assert_eq!(s, "META|FLUSH|FUA");
        assert_eq!(format!("{:?}", IoFlags::NONE), "NONE");
    }

    #[test]
    fn round_trip_bits() {
        let flags = IoFlags::FUA | IoFlags::SYNC;
        assert_eq!(IoFlags::from_bits(flags.bits()), flags);
    }
}

//! File-system error types.

use std::fmt;

/// Result alias for file-system operations.
pub type FsResult<T> = Result<T, FsError>;

/// Errors returned by simulated file systems.
///
/// The variants mirror the POSIX errno values the corresponding kernel
/// operations return, plus two crash-testing-specific variants:
/// [`FsError::Corrupted`] (internal inconsistency detected while the file
/// system is mounted) and [`FsError::Unmountable`] (recovery failed, the
/// image cannot be mounted — the most severe consequence in the paper's
/// Table 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// ENOENT: a path component does not exist.
    NotFound(String),
    /// EEXIST: the target already exists.
    AlreadyExists(String),
    /// ENOTDIR: a non-directory was used as a directory.
    NotADirectory(String),
    /// EISDIR: a directory was used where a file was required.
    IsADirectory(String),
    /// ENOTEMPTY: attempted to remove a non-empty directory.
    DirectoryNotEmpty(String),
    /// EINVAL: invalid argument (bad offset, bad rename, …).
    InvalidArgument(String),
    /// ENOSPC: the device is out of blocks.
    NoSpace,
    /// ENODATA: the requested extended attribute does not exist.
    NoXattr(String),
    /// EMLINK / ELOOP style errors.
    TooManyLinks(String),
    /// EROFS: the file system is mounted read-only.
    ReadOnly,
    /// The operation is not supported by this file system.
    Unsupported(String),
    /// An underlying block-device error.
    Device(String),
    /// The file system detected an internal inconsistency at runtime
    /// (analogous to the kernel remounting read-only or logging a
    /// corruption warning).
    Corrupted(String),
    /// Recovery failed; the image cannot be mounted. Mirrors the paper's
    /// "file system becomes un-mountable" consequence (e.g. Figure 1).
    Unmountable(String),
}

impl FsError {
    /// Short machine-readable tag, used when grouping bug reports.
    pub fn tag(&self) -> &'static str {
        match self {
            FsError::NotFound(_) => "ENOENT",
            FsError::AlreadyExists(_) => "EEXIST",
            FsError::NotADirectory(_) => "ENOTDIR",
            FsError::IsADirectory(_) => "EISDIR",
            FsError::DirectoryNotEmpty(_) => "ENOTEMPTY",
            FsError::InvalidArgument(_) => "EINVAL",
            FsError::NoSpace => "ENOSPC",
            FsError::NoXattr(_) => "ENODATA",
            FsError::TooManyLinks(_) => "EMLINK",
            FsError::ReadOnly => "EROFS",
            FsError::Unsupported(_) => "ENOTSUP",
            FsError::Device(_) => "EIO",
            FsError::Corrupted(_) => "CORRUPTED",
            FsError::Unmountable(_) => "UNMOUNTABLE",
        }
    }

    /// True for errors that indicate the file system itself is damaged
    /// (rather than the caller misusing the API).
    pub fn is_integrity_failure(&self) -> bool {
        matches!(self, FsError::Corrupted(_) | FsError::Unmountable(_))
    }
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::NotFound(p) => write!(f, "no such file or directory: {p}"),
            FsError::AlreadyExists(p) => write!(f, "already exists: {p}"),
            FsError::NotADirectory(p) => write!(f, "not a directory: {p}"),
            FsError::IsADirectory(p) => write!(f, "is a directory: {p}"),
            FsError::DirectoryNotEmpty(p) => write!(f, "directory not empty: {p}"),
            FsError::InvalidArgument(m) => write!(f, "invalid argument: {m}"),
            FsError::NoSpace => write!(f, "no space left on device"),
            FsError::NoXattr(n) => write!(f, "no such extended attribute: {n}"),
            FsError::TooManyLinks(p) => write!(f, "too many links: {p}"),
            FsError::ReadOnly => write!(f, "read-only file system"),
            FsError::Unsupported(m) => write!(f, "operation not supported: {m}"),
            FsError::Device(m) => write!(f, "device error: {m}"),
            FsError::Corrupted(m) => write!(f, "file system corrupted: {m}"),
            FsError::Unmountable(m) => write!(f, "file system unmountable: {m}"),
        }
    }
}

impl std::error::Error for FsError {}

impl From<b3_block::BlockError> for FsError {
    fn from(err: b3_block::BlockError) -> Self {
        FsError::Device(err.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_stable() {
        assert_eq!(FsError::NotFound("x".into()).tag(), "ENOENT");
        assert_eq!(FsError::Unmountable("x".into()).tag(), "UNMOUNTABLE");
        assert_eq!(FsError::NoSpace.tag(), "ENOSPC");
    }

    #[test]
    fn integrity_failures() {
        assert!(FsError::Corrupted("bad tree".into()).is_integrity_failure());
        assert!(FsError::Unmountable("log replay".into()).is_integrity_failure());
        assert!(!FsError::NotFound("f".into()).is_integrity_failure());
    }

    #[test]
    fn block_error_converts() {
        let err: FsError = b3_block::BlockError::OversizedWrite { len: 1 }.into();
        assert_eq!(err.tag(), "EIO");
    }

    #[test]
    fn display_includes_path() {
        let err = FsError::AlreadyExists("A/foo".into());
        assert!(err.to_string().contains("A/foo"));
    }
}

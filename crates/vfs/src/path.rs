//! Path handling for the simulated file systems.
//!
//! Paths are plain `/`-separated strings relative to the file-system root
//! (e.g. `"A/foo"`). The root itself is written `""` or `"/"`. This module
//! provides the normalization and decomposition helpers shared by every file
//! system implementation, so that path semantics (and therefore workload
//! semantics) are identical across all of them.

use std::borrow::Cow;
use std::sync::Arc;

use crate::error::{FsError, FsResult};

/// A path held where sets and lists of paths are copied often — a logical
/// snapshot's keys, the profiler's persisted set and rename lists: copying
/// one bumps a reference count instead of copying the string. Compares,
/// orders and hashes as its `str`, so a map keyed by it iterates in the
/// order a `String`-keyed one does.
pub type SharedPath = Arc<str>;

/// Maximum length of a single path component, mirroring `NAME_MAX`.
pub const NAME_MAX: usize = 255;

/// Which `/`-separated parts of a path are names: empty parts (leading,
/// trailing and doubled slashes) and `.` are not.
fn is_name(part: &str) -> bool {
    !part.is_empty() && part != "."
}

/// The one component walk: the names of a path in order, borrowed from it.
/// [`MemTree::resolve`](crate::tree::MemTree::resolve) and every helper in
/// this module that looks at names is this iterator; [`split_parent`], which
/// needs the names' positions, trims the same non-names off the path's end.
pub fn components(path: &str) -> impl DoubleEndedIterator<Item = &str> + Clone {
    path.split('/').filter(|part| is_name(part))
}

/// Appends `comps` to `out`, `/`-separated.
fn push_components<'a>(out: &mut String, comps: impl Iterator<Item = &'a str>) {
    for comp in comps {
        if !out.is_empty() {
            out.push('/');
        }
        out.push_str(comp);
    }
}

/// Normalizes a path: strips leading/trailing slashes and collapses empty
/// and `.` components. Returns the canonical relative path ("" for the
/// root) — borrowed when `path` already is canonical, which every path ACE
/// emits is.
pub fn normalize(path: &str) -> Cow<'_, str> {
    if path.is_empty() || path.split('/').all(is_name) {
        return Cow::Borrowed(path);
    }
    let mut out = String::with_capacity(path.len());
    push_components(&mut out, components(path));
    Cow::Owned(out)
}

/// Returns true if the path denotes the file-system root.
pub fn is_root(path: &str) -> bool {
    components(path).next().is_none()
}

/// `path` up to the end of its last name: trailing slashes and `.` parts
/// dropped.
fn trim_tail(mut path: &str) -> &str {
    loop {
        path = path.trim_end_matches('/');
        match path.strip_suffix('.') {
            Some(rest) if rest.is_empty() || rest.ends_with('/') => path = rest,
            _ => return path,
        }
    }
}

/// Splits a path into `(parent, name)`, both borrowed from it. Fails for
/// the root. The parent half is canonical whenever `path` is; for any other
/// spelling it names the same directory (it [`normalize`]s to the canonical
/// parent) but keeps whatever `/`, `//` or `/./` the input had before a name.
pub fn split_parent(path: &str) -> FsResult<(&str, &str)> {
    let path = trim_tail(path);
    if path.is_empty() {
        return Err(FsError::InvalidArgument(
            "cannot split the root path".to_string(),
        ));
    }
    Ok(match path.rsplit_once('/') {
        Some((parent, name)) => (trim_tail(parent), name),
        None => ("", path),
    })
}

/// Returns the final component of a path, or an error for the root.
pub fn file_name(path: &str) -> FsResult<&str> {
    Ok(split_parent(path)?.1)
}

/// Returns the parent of a path ("" for top-level entries); see
/// [`split_parent`] for its spelling.
pub fn parent(path: &str) -> FsResult<&str> {
    Ok(split_parent(path)?.0)
}

/// Joins a parent path with a child name (or relative path); the result is
/// canonical.
pub fn join(parent: &str, name: &str) -> String {
    let mut out = String::with_capacity(parent.len() + 1 + name.len());
    push_components(&mut out, components(parent).chain(components(name)));
    out
}

/// Every name prefix of a *canonical* path, shallowest first and ending with
/// the path itself (`A`, `A/C`, `A/C/foo`): the directories a `mkdir -p`
/// walks. Nothing for the root.
pub fn prefixes(path: &str) -> impl Iterator<Item = &str> {
    debug_assert!(
        matches!(normalize(path), Cow::Borrowed(_)),
        "prefixes of non-canonical {path:?}"
    );
    path.match_indices('/')
        .map(|(at, _)| &path[..at])
        .chain((!path.is_empty()).then_some(path))
}

/// Depth of a path below the root (root = 0, "A/foo" = 2).
pub fn depth(path: &str) -> usize {
    components(path).count()
}

/// Returns true if `ancestor` is a (non-strict) prefix directory of `path`.
pub fn is_ancestor(ancestor: &str, path: &str) -> bool {
    let mut names = components(path);
    components(ancestor).all(|a| names.next() == Some(a))
}

/// Validates a path for use in a file-system operation: no empty name, no
/// over-long components, no `..` traversal (the workload language never
/// produces one).
pub fn validate(path: &str) -> FsResult<()> {
    for comp in components(path) {
        if comp == ".." {
            return Err(FsError::InvalidArgument(format!(
                "parent traversal not supported: {path}"
            )));
        }
        if comp.len() > NAME_MAX {
            return Err(FsError::InvalidArgument(format!(
                "path component longer than {NAME_MAX} bytes"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The allocation-based definitions this module had before its helpers
    /// borrowed, kept verbatim as the reference the property test below
    /// holds the borrowed ones to.
    mod reference {
        use crate::error::{FsError, FsResult};

        pub fn normalize(path: &str) -> String {
            path.split('/')
                .filter(|c| !c.is_empty() && *c != ".")
                .collect::<Vec<_>>()
                .join("/")
        }

        pub fn components(path: &str) -> Vec<String> {
            let normalized = normalize(path);
            if normalized.is_empty() {
                Vec::new()
            } else {
                normalized.split('/').map(str::to_string).collect()
            }
        }

        pub fn split_parent(path: &str) -> FsResult<(String, String)> {
            let mut comps = components(path);
            let name = comps
                .pop()
                .ok_or_else(|| FsError::InvalidArgument("cannot split the root path".into()))?;
            Ok((comps.join("/"), name))
        }

        pub fn join(parent: &str, name: &str) -> String {
            let parent = normalize(parent);
            let name = normalize(name);
            if parent.is_empty() {
                name
            } else if name.is_empty() {
                parent
            } else {
                format!("{parent}/{name}")
            }
        }

        pub fn is_ancestor(ancestor: &str, path: &str) -> bool {
            let anc = components(ancestor);
            let comps = components(path);
            comps.len() >= anc.len() && comps[..anc.len()] == anc[..]
        }

        pub fn validate(path: &str) -> FsResult<()> {
            for comp in components(path) {
                if comp == ".." {
                    return Err(FsError::InvalidArgument(format!(
                        "parent traversal not supported: {path}"
                    )));
                }
                if comp.len() > super::NAME_MAX {
                    return Err(FsError::InvalidArgument("component too long".into()));
                }
            }
            Ok(())
        }
    }

    /// Strings over `{a, B, ., .., /, ""}`: every way a path can be spelled
    /// non-canonically, and names that merely look like `.`/`..` (`.a`,
    /// `...`, `B.`).
    fn path_strategy() -> impl Strategy<Value = String> {
        prop::collection::vec(
            prop::sample::select(vec!["a", "B", ".", "..", "/", ""]),
            0..9,
        )
        .prop_map(|tokens| tokens.concat())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn borrowed_helpers_agree_with_the_allocating_reference(
            path in path_strategy(),
            other in path_strategy(),
        ) {
            let canonical = reference::normalize(&path);
            prop_assert_eq!(normalize(&path), canonical.as_str());
            prop_assert_eq!(
                matches!(normalize(&path), Cow::Borrowed(_)),
                path == canonical,
                "normalize borrows exactly the canonical spellings"
            );
            prop_assert_eq!(
                components(&path).collect::<Vec<_>>(),
                reference::components(&path)
            );
            prop_assert_eq!(depth(&path), reference::components(&path).len());
            prop_assert_eq!(is_root(&path), reference::components(&path).is_empty());
            prop_assert_eq!(validate(&path).is_ok(), reference::validate(&path).is_ok());
            prop_assert_eq!(is_ancestor(&path, &other), reference::is_ancestor(&path, &other));
            prop_assert_eq!(is_ancestor(&other, &path), reference::is_ancestor(&other, &path));
            prop_assert_eq!(join(&path, &other), reference::join(&path, &other));
            match (split_parent(&path), reference::split_parent(&path)) {
                (Ok((parent, name)), Ok((ref_parent, ref_name))) => {
                    prop_assert_eq!(name, ref_name.as_str());
                    prop_assert_eq!(normalize(parent), ref_parent.as_str());
                    prop_assert_eq!(file_name(&path).unwrap(), name);
                    // A canonical path splits into canonical halves, and so
                    // does its parent, all the way up.
                    let (parent, _) = split_parent(&canonical).unwrap();
                    prop_assert_eq!(parent, ref_parent.as_str());
                }
                (Err(_), Err(_)) => prop_assert!(file_name(&path).is_err()),
                (ours, theirs) => prop_assert!(false, "{path:?}: {ours:?} vs {theirs:?}"),
            }
        }
    }

    #[test]
    fn normalize_strips_slashes() {
        assert_eq!(normalize("/A/foo/"), "A/foo");
        assert_eq!(normalize("A//foo"), "A/foo");
        assert_eq!(normalize("/"), "");
        assert_eq!(normalize(""), "");
        assert_eq!(normalize("./A/./foo"), "A/foo");
        assert!(matches!(normalize("A/foo"), Cow::Borrowed("A/foo")));
    }

    #[test]
    fn components_of_root_is_empty() {
        assert_eq!(components("/").count(), 0);
        assert_eq!(
            components("/A//B/./foo/").collect::<Vec<_>>(),
            ["A", "B", "foo"]
        );
        assert_eq!(components("A/B/foo").next_back(), Some("foo"));
    }

    #[test]
    fn split_parent_works() {
        assert_eq!(split_parent("A/B/foo").unwrap(), ("A/B", "foo"));
        assert_eq!(split_parent("foo").unwrap(), ("", "foo"));
        assert_eq!(split_parent("A/./foo/.").unwrap(), ("A", "foo"));
        assert_eq!(split_parent("/foo/").unwrap(), ("", "foo"));
        assert!(split_parent("/").is_err());
        assert!(split_parent("./.").is_err());
    }

    #[test]
    fn prefixes_walk_down_to_the_path() {
        assert_eq!(
            prefixes("A/C/foo").collect::<Vec<_>>(),
            ["A", "A/C", "A/C/foo"]
        );
        assert_eq!(prefixes("foo").collect::<Vec<_>>(), ["foo"]);
        assert_eq!(prefixes("").count(), 0);
    }

    #[test]
    fn join_handles_root() {
        assert_eq!(join("", "foo"), "foo");
        assert_eq!(join("A", "foo"), "A/foo");
        assert_eq!(join("A/", "/foo"), "A/foo");
        assert_eq!(join("A", ""), "A");
    }

    #[test]
    fn depth_and_ancestor() {
        assert_eq!(depth("/"), 0);
        assert_eq!(depth("A/C/foo"), 3);
        assert!(is_ancestor("A", "A/C/foo"));
        assert!(is_ancestor("", "A"));
        assert!(is_ancestor("A/C", "A/C"));
        assert!(!is_ancestor("A/C", "A"));
        assert!(!is_ancestor("B", "A/C/foo"));
        assert!(!is_ancestor("A", "AB"), "names compare whole, not as bytes");
    }

    #[test]
    fn validate_rejects_traversal_and_long_names() {
        assert!(validate("A/foo").is_ok());
        assert!(validate("A/../etc").is_err());
        let long = "x".repeat(NAME_MAX + 1);
        assert!(validate(&long).is_err());
    }
}

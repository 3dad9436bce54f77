//! Kernel-era model.
//!
//! The paper reproduces bugs "across seven kernel versions" (§1) and reports
//! for each new bug the kernel release it has been present since (Table 5).
//! Real kernels differ in which crash-consistency fixes they contain; our
//! simulated file systems expose the same dimension through [`KernelEra`]:
//! constructing a file system for an era enables exactly the injected bugs
//! that were unfixed in that era.
//!
//! Each target (the four file systems and the WAL/KV engine) keeps its
//! injectable bugs as a struct of `pub bool` fields, read by the bug sites,
//! plus one [`Mutant`] table. [`MutantSet`] derives everything else from
//! that table: the era sets, single-mutant sets, the enabled ids and the
//! text and bit spellings.

use std::fmt;

/// A Linux kernel release relevant to the bug study.
///
/// The ordering (`V3_12 < … < V4_16 < Patched`) matches release order;
/// `Patched` represents a hypothetical kernel with every bug in the corpus
/// fixed, and is what a "correct" file system is configured with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KernelEra {
    /// Linux 3.12 (2013).
    V3_12,
    /// Linux 3.13 (2014) — the era most studied btrfs bugs date from.
    V3_13,
    /// Linux 3.16 (2014).
    V3_16,
    /// Linux 4.1.1 (2015).
    V4_1_1,
    /// Linux 4.4 (2016).
    V4_4,
    /// Linux 4.15 (2018).
    V4_15,
    /// Linux 4.16 (2018) — the kernel all of §6's testing ran on.
    V4_16,
    /// Every corpus bug fixed (used as the regression-free baseline).
    Patched,
}

impl KernelEra {
    /// All concrete kernel versions from the study, oldest first
    /// (excluding the synthetic [`KernelEra::Patched`]).
    pub const ALL_VERSIONS: [KernelEra; 7] = [
        KernelEra::V3_12,
        KernelEra::V3_13,
        KernelEra::V3_16,
        KernelEra::V4_1_1,
        KernelEra::V4_4,
        KernelEra::V4_15,
        KernelEra::V4_16,
    ];

    /// The kernel used for the paper's evaluation runs (§6.2: "All the tests
    /// are run only on 4.16 kernel").
    pub const EVALUATION: KernelEra = KernelEra::V4_16;

    /// Human-readable version string.
    pub fn as_str(&self) -> &'static str {
        match self {
            KernelEra::V3_12 => "3.12",
            KernelEra::V3_13 => "3.13",
            KernelEra::V3_16 => "3.16",
            KernelEra::V4_1_1 => "4.1.1",
            KernelEra::V4_4 => "4.4",
            KernelEra::V4_15 => "4.15",
            KernelEra::V4_16 => "4.16",
            KernelEra::Patched => "patched",
        }
    }

    /// Parses a version string as printed by [`KernelEra::as_str`].
    pub fn parse(s: &str) -> Option<KernelEra> {
        match s {
            "3.12" => Some(KernelEra::V3_12),
            "3.13" => Some(KernelEra::V3_13),
            "3.16" => Some(KernelEra::V3_16),
            "4.1.1" => Some(KernelEra::V4_1_1),
            "4.4" => Some(KernelEra::V4_4),
            "4.15" => Some(KernelEra::V4_15),
            "4.16" => Some(KernelEra::V4_16),
            "patched" => Some(KernelEra::Patched),
            _ => None,
        }
    }

    /// True if a bug introduced in `introduced` and (optionally) fixed in
    /// `fixed_in` is present in this era.
    pub fn bug_present(&self, introduced: KernelEra, fixed_in: Option<KernelEra>) -> bool {
        if *self == KernelEra::Patched {
            return false;
        }
        if *self < introduced {
            return false;
        }
        match fixed_in {
            Some(fixed) => *self < fixed,
            None => true,
        }
    }
}

/// One injectable bug of a target: its id, the era window it is present in
/// (`introduced` up to, not including, `fixed_in`; `None` = never fixed)
/// and the field of the target's bug set `S` that turns it on.
pub struct Mutant<S: 'static> {
    /// Stable id: the flag's field name, or the spelling the target prints.
    pub id: &'static str,
    /// First era with the bug.
    pub introduced: KernelEra,
    /// First era without it (`None`: unfixed until [`KernelEra::Patched`]).
    pub fixed_in: Option<KernelEra>,
    /// The flag the bug sites read.
    pub flag: fn(&mut S) -> &mut bool,
}

/// One [`Mutant`] row: `mutant!(field, V3_12..V4_4)`, or `mutant!(field,
/// V3_13..)` for a bug never fixed. The id is the field name unless given
/// first: `mutant!("torn-commit" => torn_commit, V3_12..)`.
#[macro_export]
macro_rules! mutant {
    ($field:ident, $($window:tt)*) => {
        $crate::mutant!(stringify!($field) => $field, $($window)*)
    };
    ($id:expr => $field:ident, $introduced:ident..$($fixed:ident)?) => {
        $crate::era::Mutant {
            id: $id,
            introduced: $crate::KernelEra::$introduced,
            // `Some(fixed)` when the window is closed, else `None`.
            fixed_in: [$(Some($crate::KernelEra::$fixed),)? None][0],
            flag: |set| &mut set.$field,
        }
    };
}

/// A target's bug set, derived from its one [`Mutant`] table. Bit `i` of
/// [`MutantSet::bits`] is row `i`.
pub trait MutantSet: Copy + Default + 'static {
    /// The target's mutants, one row per flag.
    const MUTANTS: &'static [Mutant<Self>];

    /// No mutant enabled (equivalent to `for_era(KernelEra::Patched)`).
    fn none() -> Self {
        Self::default()
    }

    /// Every mutant enabled.
    fn all() -> Self {
        select(|_, _| true)
    }

    /// The mutants present in the given kernel era.
    fn for_era(era: KernelEra) -> Self {
        select(|_, m| era.bug_present(m.introduced, m.fixed_in))
    }

    /// The set with only mutant `id` enabled; `None` if the table has no
    /// such row.
    fn only(id: &str) -> Option<Self> {
        let row = Self::MUTANTS.iter().position(|m| m.id == id)?;
        Some(select(|i, _| i == row))
    }

    /// The ids of the enabled mutants, in table order.
    fn enabled(&self) -> impl Iterator<Item = &'static str> {
        let bits = self.bits();
        let rows = Self::MUTANTS.iter().enumerate();
        rows.filter(move |(i, _)| bits >> i & 1 == 1)
            .map(|(_, m)| m.id)
    }

    /// `fixed`, or the enabled ids joined by commas.
    fn describe(&self) -> String {
        let ids = self.enabled().collect::<Vec<_>>().join(",");
        if ids.is_empty() {
            "fixed".into()
        } else {
            ids
        }
    }

    /// Inverse of [`MutantSet::describe`]; ids may come in any order.
    fn parse(text: &str) -> Result<Self, String> {
        // `fixed` is the empty set.
        let mut ids = text.split(',').map(str::trim).filter(|_| text != "fixed");
        let bits = ids.try_fold(0, |bits, id| match Self::only(id) {
            Some(one) => Ok(bits | one.bits()),
            None => Err(format!("unknown mutant {id:?}")),
        })?;
        Ok(select(|i, _| bits >> i & 1 == 1))
    }

    /// Compact wire form: bit `i` is row `i`.
    fn bits(&self) -> u64 {
        let mut set = *self;
        let rows = Self::MUTANTS.iter().enumerate();
        rows.map(|(i, m)| u64::from(*(m.flag)(&mut set)) << i).sum()
    }

    /// Inverse of [`MutantSet::bits`]; `None` if a bit has no row.
    fn from_bits(bits: u64) -> Option<Self> {
        (bits >> Self::MUTANTS.len() == 0).then(|| select(|i, _| bits >> i & 1 == 1))
    }
}

/// The set whose enabled rows are those `keep` accepts (by index and row).
fn select<S: MutantSet>(keep: impl Fn(usize, &Mutant<S>) -> bool) -> S {
    let mut set = S::default();
    for (i, m) in S::MUTANTS.iter().enumerate() {
        *(m.flag)(&mut set) = keep(i, m);
    }
    set
}

impl fmt::Display for KernelEra {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_matches_release_order() {
        assert!(KernelEra::V3_12 < KernelEra::V3_13);
        assert!(KernelEra::V3_16 < KernelEra::V4_1_1);
        assert!(KernelEra::V4_16 < KernelEra::Patched);
    }

    #[test]
    fn round_trip_parse() {
        for era in KernelEra::ALL_VERSIONS {
            assert_eq!(KernelEra::parse(era.as_str()), Some(era));
        }
        assert_eq!(KernelEra::parse("patched"), Some(KernelEra::Patched));
        assert_eq!(KernelEra::parse("2.6"), None);
    }

    #[test]
    fn bug_presence_window() {
        // Bug introduced in 3.13, fixed in 4.4.
        let introduced = KernelEra::V3_13;
        let fixed = Some(KernelEra::V4_4);
        assert!(!KernelEra::V3_12.bug_present(introduced, fixed));
        assert!(KernelEra::V3_13.bug_present(introduced, fixed));
        assert!(KernelEra::V3_16.bug_present(introduced, fixed));
        assert!(!KernelEra::V4_4.bug_present(introduced, fixed));
        assert!(!KernelEra::V4_16.bug_present(introduced, fixed));
        assert!(!KernelEra::Patched.bug_present(introduced, fixed));
    }

    #[test]
    fn unfixed_bug_present_in_all_later_eras() {
        let introduced = KernelEra::V3_13;
        assert!(KernelEra::V4_16.bug_present(introduced, None));
        assert!(!KernelEra::Patched.bug_present(introduced, None));
    }

    #[test]
    fn evaluation_kernel_is_4_16() {
        assert_eq!(KernelEra::EVALUATION.as_str(), "4.16");
    }
}

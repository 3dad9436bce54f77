//! The one job description: the flags that select a bounded space, a
//! target and the crash-point / pruning policy, turned into a `SweepJob`.

use b3_ace::{Bounds, SequencePreset};
use b3_app::{EngineProfile, TxnBounds};
use b3_crashmonkey::CrashPointPolicy;
use b3_harness::{FsKind, PruneMode, SweepJob};
use b3_vfs::{KernelEra, MutantSet};

use crate::args::Args;
use crate::Exit;

/// Shards a job is split into unless `--shards` (or the checkpoint being
/// resumed) says otherwise.
const DEFAULT_SHARDS: usize = 12;

/// The job flags, with their defaults.
pub struct JobSpec {
    pub preset: String,
    fs: FsKind,
    era: KernelEra,
    shards: Option<usize>,
    prune: PruneMode,
    audit_k: Option<u32>,
    crash_points: CrashPointPolicy,
    triage_audit: Option<u32>,
    engine: EngineProfile,
}

impl JobSpec {
    pub fn new() -> JobSpec {
        JobSpec {
            preset: "tiny-seq2".into(),
            fs: FsKind::Cow,
            era: KernelEra::V4_16,
            shards: None,
            prune: PruneMode::Off,
            audit_k: None,
            crash_points: CrashPointPolicy::LastOnly,
            triage_audit: None,
            engine: EngineProfile::none(),
        }
    }

    /// Consumes the current flag if it is a job flag.
    pub fn take(&mut self, flag: &str, args: &mut Args) -> Result<bool, Exit> {
        match flag {
            "--preset" => self.preset = args.value()?,
            "--fs" => self.fs = args.named(FsKind::parse, "file system")?,
            "--era" => self.era = args.named(KernelEra::parse, "kernel era")?,
            "--shards" => self.shards = Some(args.parsed()?),
            "--prune" => self.prune = args.named(PruneMode::parse, "prune mode (off/rep/audit)")?,
            "--audit-k" => self.audit_k = Some(args.parsed()?),
            "--crash-points" => {
                self.crash_points = args.named(
                    CrashPointPolicy::parse,
                    "crash-point policy (last/all/triaged)",
                )?;
            }
            "--triage-audit" => self.triage_audit = Some(args.parsed()?),
            "--engine" => {
                self.engine = EngineProfile::parse(&args.value()?)
                    .map_err(|e| Exit::usage(format!("--engine: {e}")))?;
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The job these flags describe. `resumed_shards` is the shard count of
    /// the checkpoint being resumed, adopted when `--shards` is absent so a
    /// resume is not rejected as "a different sweep".
    pub fn job(&self, resumed_shards: Option<usize>) -> Result<SweepJob, Exit> {
        let shards = self.shards.or(resumed_shards).unwrap_or(DEFAULT_SHARDS);
        if shards == 0 {
            return Err(Exit::usage("--shards must be at least 1"));
        }
        let mut job = match (preset_bounds(&self.preset), app_preset_bounds(&self.preset)) {
            (Some(bounds), _) if self.engine == EngineProfile::none() => {
                SweepJob::new(bounds, shards)
            }
            (Some(_), _) => return Err(Exit::usage("--engine only applies to app-* presets")),
            (None, Some(bounds)) => SweepJob::new_app(bounds, self.engine, shards),
            (None, None) => {
                return Err(Exit::usage(format!(
                    "unknown preset {:?} (expected tiny, tiny-seq2, a Table 4 name, \
                     app-tiny or app-smoke)",
                    self.preset
                )))
            }
        };
        job.fs = self.fs;
        job.era = self.era;
        job.prune = match (self.prune, self.audit_k) {
            (PruneMode::Audit { .. }, Some(samples_per_class)) => {
                PruneMode::Audit { samples_per_class }
            }
            (_, Some(_)) => return Err(Exit::usage("--audit-k requires --prune audit")),
            (mode, None) => mode,
        };
        job.crashmonkey.crash_points = match (self.crash_points, self.triage_audit) {
            (CrashPointPolicy::AllTriaged { .. }, Some(audit)) => {
                CrashPointPolicy::AllTriaged { audit }
            }
            (_, Some(_)) => {
                return Err(Exit::usage(
                    "--triage-audit requires --crash-points triaged",
                ))
            }
            (policy, None) => policy,
        };
        job.validate().map_err(|e| Exit::usage(e.to_string()))?;
        Ok(job)
    }
}

/// The file-system presets: `tiny`, the CI-sized two-operation `tiny-seq2`
/// (~130 workloads: big enough to find bugs, small enough for a smoke) and
/// the paper's Table 4 names.
fn preset_bounds(name: &str) -> Option<Bounds> {
    match name {
        "tiny" => Some(Bounds::tiny()),
        "tiny-seq2" => {
            let mut bounds = Bounds::tiny();
            bounds.seq_len = 2;
            bounds.name_prefix = "tiny-seq2".into();
            Some(bounds)
        }
        _ => SequencePreset::ALL
            .iter()
            .find(|preset| preset.name() == name)
            .map(SequencePreset::bounds),
    }
}

/// The application-transaction presets (docs/APP.md).
fn app_preset_bounds(name: &str) -> Option<TxnBounds> {
    match name {
        "app-tiny" => Some(TxnBounds::tiny()),
        "app-smoke" => Some(TxnBounds::smoke()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &str) -> Result<SweepJob, Exit> {
        let mut args = Args::new(argv.split_whitespace().map(str::to_string).collect());
        let mut spec = JobSpec::new();
        while let Some(flag) = args.next_flag()? {
            if !spec.take(&flag, &mut args)? {
                return Err(args.unknown());
            }
        }
        spec.job(None)
    }

    const SEQ3M: &str = "seq-3-metadata/seq3/[WriteBuffered,Link,Unlink,Rename]/sequence length 3; 4 operations; 6 files in 2 directories (max depth 2); 1 write patterns; 5 falloc modes/p1111/3884796cand";
    const SEQ4M: &str = "seq-4-metadata/seq4/[WriteBuffered,Link,Unlink,Rename]/sequence length 4; 4 operations; 6 files in 2 directories (max depth 2); 1 write patterns; 5 falloc modes/p1111/687608892cand";
    const TINY: &str = "tiny/seq1/[Creat,Link,Rename]/sequence length 1; 3 operations; 2 files in 1 directories (max depth 2); 1 write patterns; 1 falloc modes/p1011/10cand";
    const TINY2: &str = "tiny-seq2/seq2/[Creat,Link,Rename]/sequence length 2; 3 operations; 2 files in 1 directories (max depth 2); 1 write patterns; 1 falloc modes/p1011/150cand";
    const APP_ALL: &str =
        "--era patched --crash-points all --engine no-data-fsync,torn-commit,double-replay";

    /// Scopes and fingerprints printed by the three pre-`b3` parsers
    /// (`sweep_coordinator`, `app_sweep`, `b3-sweep-fleet enqueue`) for the
    /// argv on the left — with what each used to inherit from its private
    /// defaults spelled out — so the checkpoint files they wrote still
    /// resume. Columns: argv, scope, fingerprint after `scope|`.
    #[test]
    fn argv_of_every_old_parser_keeps_its_scope_and_fingerprint() {
        let seq1 = "seq-1/seq1/[Creat,Mkdir,Falloc,WriteBuffered,WriteMmap,Link,WriteDirect,Unlink,Rmdir,SetXattr,RemoveXattr,Remove,Truncate,Rename]/sequence length 1; 14 operations; 6 files in 2 directories (max depth 2); 4 write patterns; 5 falloc modes/p1111/598cand/16shards";
        let table: [(String, &str, String); 15] = [
            // sweep_coordinator
            ("--preset seq-1 --shards 16".into(), "btrfs@4.16/blk4096/cp010", seq1.into()),
            ("--preset seq-3-metadata --shards 512".into(), "btrfs@4.16/blk4096/cp010", format!("{SEQ3M}/512shards")),
            ("--preset=tiny --fs=ext4 --shards=8 --crash-points=all".into(), "ext4@4.16/blk4096/cp110", format!("{TINY}/8shards")),
            ("--preset seq-4-metadata --prune audit --audit-k 3 --shards 4096".into(), "btrfs@4.16/blk4096/cp010/canon1:audit3", format!("{SEQ4M}/4096shards")),
            ("--preset seq-4-metadata --prune rep --crash-points triaged --triage-audit 2 --shards 4096".into(), "btrfs@4.16/blk4096/cp2a210/canon1:rep", format!("{SEQ4M}/4096shards")),
            ("--preset seq-3-metadata --shards 256".into(), "btrfs@4.16/blk4096/cp010", format!("{SEQ3M}/256shards")),
            // app_sweep
            (format!("--preset app-tiny --fs f2fs --shards 16 {APP_ALL}"), "F2FS@patched/blk4096/cp110/app:no-data-fsync,torn-commit,double-replay", "txn/app-tiny/t1c2k2[PA]a0/20cand/16shards".into()),
            ("--preset app-tiny --engine torn-commit --era patched --crash-points all --shards 16".into(), "btrfs@patched/blk4096/cp110/app:torn-commit", "txn/app-tiny/t1c2k2[PA]a0/20cand/16shards".into()),
            ("--engine fixed --preset app-smoke --shards 5 --era patched --crash-points all".into(), "btrfs@patched/blk4096/cp110/app:fixed", "txn/app-smoke/t2c2k2[PAD]a1/7140cand/5shards".into()),
            // b3-sweep-fleet enqueue
            (String::new(), "btrfs@4.16/blk4096/cp010", format!("{TINY2}/12shards")),
            ("--preset tiny-seq2 --fs btrfs --era 3.13".into(), "btrfs@3.13/blk4096/cp010", format!("{TINY2}/12shards")),
            ("--preset tiny-seq2 --crash-points triaged --prune rep".into(), "btrfs@4.16/blk4096/cp210/canon1:rep", format!("{TINY2}/12shards")),
            ("--preset app-tiny --engine no-data-fsync,torn-commit --fs F2FS --shards 3".into(), "F2FS@4.16/blk4096/cp010/app:no-data-fsync,torn-commit", "txn/app-tiny/t1c2k2[PA]a0/20cand/3shards".into()),
            ("--preset tiny --prune audit".into(), "btrfs@4.16/blk4096/cp010/canon1:audit2", format!("{TINY}/12shards")),
            ("--crash-points triaged --triage-audit 4 --era=patched".into(), "btrfs@patched/blk4096/cp2a410", format!("{TINY2}/12shards")),
        ];
        for (argv, scope, space) in table {
            let job = parse(&argv).unwrap_or_else(|e| panic!("{argv:?}: {}", e.message));
            assert_eq!(job.scope(), scope, "{argv:?}");
            let fingerprint = format!("{scope}|{space}");
            assert_eq!(
                job.empty_checkpoint().fingerprint(),
                fingerprint,
                "{argv:?}"
            );
        }
    }

    #[test]
    fn combinations_no_old_parser_could_spell_parse() {
        let job = parse("--preset app-tiny --era 3.13 --crash-points triaged").unwrap();
        assert_eq!(job.scope(), "btrfs@3.13/blk4096/cp210/app:fixed");
        let job = parse("--preset tiny-seq2 --prune audit --audit-k 3").unwrap();
        assert_eq!(job.scope(), "btrfs@4.16/blk4096/cp010/canon1:audit3");
        // The audit budgets may come before the flags they refine, and a
        // repeated policy keeps the budget.
        let job = parse("--audit-k 3 --preset tiny-seq2 --prune audit").unwrap();
        assert_eq!(job.scope(), "btrfs@4.16/blk4096/cp010/canon1:audit3");
        for argv in [
            "--triage-audit 2 --crash-points triaged",
            "--crash-points triaged --triage-audit 2 --crash-points triaged",
        ] {
            assert_eq!(
                parse(argv).unwrap().scope(),
                "btrfs@4.16/blk4096/cp2a210",
                "{argv:?}"
            );
        }
    }

    /// Every order of `n` items, as index lists.
    fn orders(n: usize) -> Vec<Vec<usize>> {
        if n == 0 {
            return vec![Vec::new()];
        }
        let mut all = Vec::new();
        for shorter in orders(n - 1) {
            for at in 0..n {
                let mut order = shorter.clone();
                order.insert(at, n - 1);
                all.push(order);
            }
        }
        all
    }

    /// A job is a function of its flags, not of their order: each audit
    /// budget is resolved against the mode it refines once every flag is
    /// read.
    #[test]
    fn every_order_of_the_audit_flags_describes_one_job() {
        let flags = [
            "--prune audit",
            "--audit-k 3",
            "--crash-points triaged",
            "--triage-audit 2",
        ];
        let all = orders(flags.len());
        assert_eq!(all.len(), 24);
        for order in all {
            let argv: Vec<&str> = order.iter().map(|&i| flags[i]).collect();
            let argv = argv.join(" ");
            let job = parse(&argv).unwrap_or_else(|e| panic!("{argv:?}: {}", e.message));
            assert_eq!(
                job.scope(),
                "btrfs@4.16/blk4096/cp2a210/canon1:audit3",
                "{argv:?}"
            );
        }
    }

    /// A budget given without the mode it budgets names that mode.
    #[test]
    fn an_audit_budget_without_its_mode_names_the_mode() {
        for (argv, needs) in [
            ("--audit-k 3", "--audit-k requires --prune audit"),
            (
                "--audit-k 3 --prune rep",
                "--audit-k requires --prune audit",
            ),
            (
                "--triage-audit 2",
                "--triage-audit requires --crash-points triaged",
            ),
            (
                "--triage-audit 2 --crash-points triaged --crash-points last",
                "--triage-audit requires --crash-points triaged",
            ),
        ] {
            let exit = parse(argv)
                .err()
                .unwrap_or_else(|| panic!("{argv:?} must be rejected"));
            assert!(exit.message.contains(needs), "{argv:?}: {}", exit.message);
        }
    }

    #[test]
    fn contradictory_and_unknown_flags_are_usage_errors() {
        for argv in [
            "--triage-audit 2",
            "--crash-points all --triage-audit 2",
            "--crash-points triaged --triage-audit 2 --crash-points all",
            "--audit-k 3",
            "--prune rep --audit-k 3",
            "--audit-k 3 --prune audit --prune off",
            "--preset tiny --engine torn-commit",
            "--preset app-tiny --prune rep",
            "--preset nope",
            "--shards 0",
            "--shards many",
            "--era",
            "--frobnicate",
        ] {
            let exit = parse(argv)
                .err()
                .unwrap_or_else(|| panic!("{argv:?} must be rejected"));
            assert_eq!(exit.code, crate::EXIT_USAGE, "{argv:?}: {}", exit.message);
        }
    }
}

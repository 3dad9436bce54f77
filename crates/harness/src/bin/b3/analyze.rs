//! `b3 analyze`: static persistence-order analysis of one workload.
//!
//! Profiles the workload on a simulated file system (no crash states are
//! constructed or checked), feeds the recorded IO log to
//! `b3_analyze::analyze`, and prints the happens-before report: flush
//! epochs, persistence races mapped back to syscall spans, and the hazard
//! / ordered / quiescent classification of every crash point — the same
//! triage `--crash-points triaged` uses to skip redundant dynamic tests
//! (`docs/ANALYSIS.md`).
//!
//! Input is the ACE workload text format, read from `--file PATH`, from
//! `--corpus ID` (an entry of the built-in bug corpus, which also picks the
//! entry's file system and kernel era), or from stdin. Races found or not,
//! the report is informational: the exit code is 0 unless the workload
//! cannot be read, parsed or executed (1) or the flags are wrong (2).

use std::io::Read as _;

use b3_crashmonkey::{CrashMonkey, CrashMonkeyConfig};
use b3_harness::corpus::all_entries;
use b3_harness::FsKind;
use b3_vfs::workload::parse_workload;
use b3_vfs::KernelEra;

use crate::args::Args;
use crate::Exit;

pub fn run(mut args: Args) -> Result<(), Exit> {
    let mut file: Option<String> = None;
    let mut corpus_id: Option<String> = None;
    let mut fs_flag: Option<FsKind> = None;
    let mut era_flag: Option<KernelEra> = None;
    let mut name: Option<String> = None;
    while let Some(flag) = args.next_flag()? {
        match flag.as_str() {
            "--file" => file = Some(args.value()?),
            "--corpus" => corpus_id = Some(args.value()?),
            "--name" => name = Some(args.value()?),
            "--fs" => fs_flag = Some(args.named(FsKind::parse, "file system")?),
            "--era" => era_flag = Some(args.named(KernelEra::parse, "kernel era")?),
            _ => return Err(args.unknown()),
        }
    }

    // Resolve the workload text and the fs/era defaults. A corpus entry
    // carries its own fs and era; explicit flags still win.
    let (text, fallback_name, fs, era) = match (&file, &corpus_id) {
        (Some(_), Some(_)) => {
            return Err(Exit::usage("--file and --corpus are mutually exclusive"));
        }
        (Some(path), None) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| Exit::runtime(format!("cannot read {path}: {e}")))?;
            (text, path.clone(), FsKind::Cow, KernelEra::EVALUATION)
        }
        (None, Some(id)) => {
            let entry = all_entries()
                .into_iter()
                .find(|e| e.id == id)
                .ok_or_else(|| Exit::usage(format!("no corpus entry named {id:?}")))?;
            if !entry.is_runnable() {
                return Err(Exit::runtime(format!(
                    "corpus entry {id:?} has no runnable workload"
                )));
            }
            let text = entry.workload_text.to_string();
            (text, entry.id.to_string(), entry.fs, entry.era)
        }
        (None, None) => {
            let mut text = String::new();
            std::io::stdin()
                .read_to_string(&mut text)
                .map_err(|e| Exit::runtime(format!("cannot read stdin: {e}")))?;
            (text, "<stdin>".into(), FsKind::Cow, KernelEra::EVALUATION)
        }
    };
    let (fs, era) = (fs_flag.unwrap_or(fs), era_flag.unwrap_or(era));
    let target = format!("{}/{era}", fs.paper_name());

    let workload = parse_workload(&text, &name.unwrap_or(fallback_name))
        .map_err(|e| Exit::runtime(format!("cannot parse workload: {e}")))?;
    let spec = fs.spec(era);
    let config = CrashMonkeyConfig::small();
    let monkey = CrashMonkey::with_config(spec.as_ref(), config);
    let profile = monkey
        .profile_only(&workload)
        .map_err(|e| Exit::runtime(format!("profiling failed on {target}: {e}")))?;
    if let Some(error) = &profile.exec_error {
        return Err(Exit::runtime(format!(
            "workload did not execute to completion on {target}: {error}"
        )));
    }

    let analysis = b3_analyze::analyze(
        &profile.log,
        &workload,
        config.direct_write_is_persistence_point,
    );
    println!("file system: {} (kernel {era})", fs.paper_name());
    print!("{analysis}");

    let reused = analysis.quiescent_windows();
    let total = analysis.windows.len();
    println!(
        "triage: {tested} of {total} crash states need dynamic testing \
         ({reused} provably quiescent, reusable under --crash-points triaged)",
        tested = total - reused,
    );
    Ok(())
}

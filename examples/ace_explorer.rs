//! Explore ACE's bounded workload generation: show the four phases on the
//! paper's Figure 4 example, print the bounds of Table 3, report how many
//! workloads each Table 4 preset expands to (with the §6.4 generation rate
//! of every set it walks and a projected single-thread test time), and show
//! how each bound shapes the space (§4.2, §5.2).
//!
//! Run with: `cargo run --release --example ace_explorer [--exact]`
//!
//! By default the seq-3 spaces are estimated analytically; pass `--exact` to
//! walk them exhaustively (slower).

use std::time::{Duration, Instant};

use b3::prelude::*;
use b3_ace::phases::{phase1_skeletons, phase3_persistence, phase4_dependencies};
use b3_harness::baseline::xfstests_suite;
use b3_vfs::workload::{Op, OpKind};

fn main() {
    let exact = std::env::args().any(|a| a == "--exact");

    // --- Figure 4: a seq-2 workload through the four phases -------------------
    println!("Figure 4 walk-through (rename + link):\n");
    let bounds = Bounds::paper_seq2();
    println!(
        "phase 1: {} skeletons of length 2",
        phase1_skeletons(&bounds).len()
    );
    let core = vec![
        Op::Rename {
            from: "A/foo".into(),
            to: "B/bar".into(),
        },
        Op::Link {
            existing: "B/bar".into(),
            new: "A/bar".into(),
        },
    ];
    println!("phase 2 picked: rename(A/foo, B/bar); link(B/bar, A/bar)");
    let with_persistence = phase3_persistence(&core, &bounds);
    println!(
        "phase 3: {} persistence-point variants",
        with_persistence.len()
    );
    let workload = phase4_dependencies("figure-4", with_persistence[0].clone(), &bounds)
        .expect("figure 4 workload is valid");
    println!("phase 4 output:\n{workload}");

    // --- Table 3: the bounds ---------------------------------------------------
    println!("Table 3: bounds used by ACE\n");
    for preset in SequencePreset::ALL {
        println!("{:>16}: {}", preset.name(), preset.bounds().describe());
    }

    // --- Table 4 style counts ---------------------------------------------------
    // Single-thread CrashMonkey latency on a seq-1 sample, to project how
    // long testing each set would take.
    let spec = CowFsSpec::new(KernelEra::V4_16);
    let monkey = CrashMonkey::with_config(&spec, CrashMonkeyConfig::small());
    let sample: Vec<Workload> = WorkloadGenerator::new(Bounds::paper_seq1())
        .take(100)
        .collect();
    let start = Instant::now();
    for workload in &sample {
        let _ = monkey.test_workload(workload);
    }
    let per_workload = start.elapsed() / sample.len() as u32;

    println!("\nTable 4: workloads per preset (this reproduction's bounds)\n");
    let mut table = Table::new(vec![
        "set",
        "operations",
        "workloads",
        "mode",
        "generation time",
        "workloads/s",
        "projected test time (1 thread)",
        "paper (#)",
    ]);
    // seq-4-metadata is beyond the paper's Table 4, so outside its total.
    let paper = ["300", "254K", "120K", "1.5M", "1.5M", "-"];
    let (mut total, mut walked, mut walk_time) = (0u64, 0u64, Duration::ZERO);
    for (preset, paper_count) in SequencePreset::ALL.into_iter().zip(paper) {
        let bounds = preset.bounds();
        let ops = bounds.ops.len();
        let walk = preset == SequencePreset::Seq1 || preset == SequencePreset::Seq2 || exact;
        let (count, mode, time, rate) = if walk {
            let start = Instant::now();
            let emitted = WorkloadGenerator::new(bounds).count() as u64;
            let elapsed = start.elapsed();
            walked += emitted;
            walk_time += elapsed;
            let rate = emitted as f64 / elapsed.as_secs_f64();
            (
                emitted,
                "exact",
                format!("{elapsed:.2?}"),
                format!("{rate:.0}"),
            )
        } else {
            let estimate = WorkloadGenerator::estimate_candidates(&bounds);
            (estimate, "estimated", "-".into(), "-".into())
        };
        if preset != SequencePreset::Seq4Metadata {
            total += count;
        }
        let projected = per_workload * count.min(u64::from(u32::MAX)) as u32;
        table.row(vec![
            preset.name().to_string(),
            ops.to_string(),
            count.to_string(),
            mode.to_string(),
            time,
            rate,
            format!("{projected:.0?}"),
            paper_count.to_string(),
        ]);
    }
    table.row(vec![
        "Total (Table 4)".into(),
        String::new(),
        total.to_string(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        "3.37M".into(),
    ]);
    println!("{}", table.render());
    println!(
        "§6.4: ACE generated the {walked} workloads of the walked sets at {:.0} workloads/s \
         (the paper: 3.37M in 374 minutes, ~150 workloads/s of single-threaded Python)",
        walked as f64 / walk_time.as_secs_f64()
    );
    println!(
        "measured CrashMonkey latency: {per_workload:.0?} per workload on the simulator \
         (the paper reports 4.6 s per workload on real kernels, 84% of it kernel delays)"
    );

    // --- Ablation: each bound's effect on the space --------------------------------
    println!("\nAblation: effect of each bound on the workload space\n");
    let estimate = |bounds: &Bounds| WorkloadGenerator::estimate_candidates(bounds);
    let base = Bounds::paper_seq3_metadata();
    let relaxed = Bounds::paper_seq3_metadata().with_nested_files();
    let mut table = Table::new(vec!["configuration", "candidate workloads"]);
    for (label, count) in [
        ("seq-1, paper bounds", estimate(&Bounds::paper_seq1())),
        ("seq-2, paper bounds", estimate(&Bounds::paper_seq2())),
        ("seq-3-metadata, paper bounds", estimate(&base)),
        (
            "seq-3-metadata, +1 nested directory (relaxed file set)",
            estimate(&relaxed),
        ),
        (
            "seq-3-metadata, restricted to link+rename",
            estimate(&base.clone().with_ops(vec![OpKind::Link, OpKind::Rename])),
        ),
        (
            "xfstests-style regression suite",
            xfstests_suite().len() as u64,
        ),
    ] {
        table.row(vec![label.to_string(), count.to_string()]);
    }
    println!("{}", table.render());
    let (base_estimate, relaxed_estimate) = (estimate(&base), estimate(&relaxed));
    println!(
        "relaxing the file-set bound with one nested directory grows seq-3-metadata \
         from {} to {} candidate workloads ({:.1}x; the paper reports 2.5x)",
        base_estimate,
        relaxed_estimate,
        relaxed_estimate as f64 / base_estimate as f64
    );

    // --- Custom bounds -------------------------------------------------------------
    let custom = Bounds::paper_seq2().with_ops(vec![OpKind::Falloc, OpKind::WriteBuffered]);
    println!(
        "\na user-restricted seq-2 bound (falloc + write only) expands to {} workloads",
        generate_count(custom)
    );
}

fn generate_count(bounds: Bounds) -> usize {
    WorkloadGenerator::new(bounds).count()
}

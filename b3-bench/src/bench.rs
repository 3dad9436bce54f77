//! The untraced run: set up, repeat the workload's one timed call for the
//! given number of seconds, check every pass's outputs, and report medians.

use std::time::Instant;

use crate::fanout::{self, Workers};
use crate::metrics::Values;
use crate::stats;
use crate::workloads::{self, Entry, Outputs, Scale, Workload};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

pub struct Measured {
    pub values: Values,
    /// The outputs every pass agreed on.
    pub outputs: Outputs,
    pub passes: usize,
    /// Candidates handed to the product over all timed passes.
    pub attempted: u64,
    pub failed: u64,
}

/// Workloads the warm-up sweep crash-tests before it is stopped. A sweep of
/// a `tiny` space takes under a millisecond — less than a relative bound on
/// `setup_s` could resolve, and it would warm none of the job's own
/// structures — so the warm-up is the start of the job itself.
pub const WARM_UP_WORKLOADS: usize = 10_000;

/// One set-up: construct the inputs, create the scratch directory, and run
/// the job through the same entry point until [`WARM_UP_WORKLOADS`] are
/// tested, so caches are filled and lazy initialisation is done before
/// anything is timed. The warm-up always enumerates in seed-0 order: which
/// workloads come first depends on the operation order, and set-up must be
/// the same work at every seed. Which shards a stopped sweep finished
/// depends on thread timing, so only its health is checked, not its outputs.
pub fn set_up(workload: &Workload, scale: Scale, workers: Workers) -> Result<(), String> {
    let job = workload.job(scale, 0);
    let dir = fanout::fresh_dir("setup");
    let budget = Some(WARM_UP_WORKLOADS);
    let warm_up = workloads::run_pass(workload.entry, &job, &dir, workers, budget, None)?.outputs;
    if warm_up.tested + warm_up.skipped == 0 || warm_up.failed(warm_up.candidates) != 0 {
        return Err(format!(
            "{}: warm-up sweep failed: {warm_up:?}",
            workload.name
        ));
    }
    std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))
}

/// Measures `workload` for about `seconds` seconds. `process_start` is when
/// this process began: the first set-up is timed from there.
pub fn measure(
    workload: &Workload,
    scale: Scale,
    seed: u64,
    seconds: f64,
    workers: Workers,
    process_start: Instant,
) -> Result<Measured, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut rep_start = process_start;
    for _ in 0..SETUP_REPS {
        set_up(workload, scale, workers)?;
        setup_s.push(rep_start.elapsed().as_secs_f64());
        rep_start = Instant::now();
    }

    let job = workload.job(scale, seed);
    let dir = fanout::fresh_dir("run");
    // (wall seconds, CPU seconds, outputs) of every timed call.
    let mut passes: Vec<(f64, f64, Outputs)> = Vec::new();
    let measure_start = Instant::now();
    // A closed loop: the next sweep starts when the previous one completes.
    // After the first, a sweep starts only if it should end in time.
    let median_wall = |passes: &[(f64, f64, Outputs)]| {
        stats::median(&passes.iter().map(|pass| pass.0).collect::<Vec<_>>())
    };
    while passes.is_empty()
        || measure_start.elapsed().as_secs_f64() + median_wall(&passes) <= seconds
    {
        let pass_dir = dir.join(passes.len().to_string());
        std::fs::create_dir_all(&pass_dir).map_err(|e| e.to_string())?;
        let pass = workloads::run_pass(workload.entry, &job, &pass_dir, workers, None, None)?;
        passes.push((pass.wall_s, pass.cpu_s, pass.outputs));
    }
    let peak_rss_mb = stats::peak_rss_mb();

    // Not timed: a fan-out run whose digest is not pinned is compared with
    // an in-process sweep of the same space.
    let digest_pinned = scale == Scale::Pinned && seed == 0;
    let reference = (workload.entry == Entry::FanoutTcp && !digest_pinned)
        .then(|| workloads::fanout_reference(scale, seed).outputs);
    let outputs: Vec<Outputs> = passes.iter().map(|(_, _, o)| o.clone()).collect();
    workloads::check(workload, scale, seed, &outputs, reference.as_ref())?;
    std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;

    let expected = workload.expected_candidates(scale, &outputs[0]);
    let rates: Vec<f64> = passes
        .iter()
        .map(|(wall_s, _, outputs)| outputs.candidates as f64 / wall_s)
        .collect();
    let cpu_us: Vec<f64> = passes
        .iter()
        .map(|(_, cpu_s, outputs)| cpu_s * 1e6 / outputs.candidates as f64)
        .collect();
    let mut values = Values::end_to_end();
    values.set("candidates_per_s", stats::median(&rates));
    values.set("cpu_us_per_candidate", stats::median(&cpu_us));
    values.set("peak_rss_mb", peak_rss_mb);
    values.set("setup_s", stats::median(&setup_s));
    Ok(Measured {
        values,
        passes: passes.len(),
        attempted: expected * passes.len() as u64,
        failed: outputs.iter().map(|o| o.failed(expected)).sum(),
        outputs: outputs.into_iter().next().expect("at least one pass ran"),
    })
}

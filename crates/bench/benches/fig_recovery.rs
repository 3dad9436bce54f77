//! Incremental crash-state recovery vs remount-from-scratch.
//!
//! Under `CrashPointPolicy::All` a workload contributes one crash state
//! per persistence point, and the recovery engine — not the profiler — is
//! the part that scales with the crash-state count. This bench compares
//! the two [`RecoveryMode`]s end to end on a representative seq-2
//! workload, plus the isolated recovery step (`RecoverySession` consuming
//! adjacent-state deltas vs `FsSpec::mount` per state). The committed
//! before/after trajectory lives in `BENCH_7.json` (emitted by
//! the one-off example `b3-bench` superseded).

use criterion::{criterion_group, criterion_main, Criterion};

use b3_bench::representative_workload;
use b3_crashmonkey::{session_for, CrashMonkey, CrashMonkeyConfig, RecoveryMode, RecoverySession};
use b3_fs_cow::CowFsSpec;

fn config(recovery: RecoveryMode) -> CrashMonkeyConfig {
    CrashMonkeyConfig {
        recovery,
        ..CrashMonkeyConfig::exhaustive_crash_points()
    }
}

fn bench(c: &mut Criterion) {
    let spec = CowFsSpec::patched();
    let workload = representative_workload();

    for (label, mode) in [
        ("recovery/workload_remount", RecoveryMode::Remount),
        (
            "recovery/workload_patch_forward",
            RecoveryMode::PatchForward,
        ),
    ] {
        let monkey = CrashMonkey::with_config(&spec, config(mode));
        c.bench_function(label, |b| {
            b.iter(|| criterion::black_box(monkey.test_workload(&workload).unwrap()));
        });
    }

    // The recovery step in isolation: walk every crash state of one
    // profiled workload through a persistent (re-primed per iteration)
    // session, exactly as a sweep does per workload.
    let monkey = CrashMonkey::with_config(&spec, config(RecoveryMode::PatchForward));
    let profile = monkey.profile_only(&workload).unwrap();
    for (label, mode) in [
        ("recovery/states_remount", RecoveryMode::Remount),
        ("recovery/states_patch_forward", RecoveryMode::PatchForward),
    ] {
        let mut persistent = session_for(&spec, mode);
        c.bench_function(label, |b| {
            b.iter(|| {
                let mut session = RecoverySession::new(
                    &spec,
                    &profile.base_image,
                    &profile.log,
                    persistent.as_mut(),
                );
                for info in &profile.checkpoints {
                    let (_, recovered) = session.recover_at(info.id).unwrap();
                    criterion::black_box(recovered.unwrap());
                }
            });
        });
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);

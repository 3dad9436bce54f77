//! The worker side of the distributed sweep protocol (see
//! `b3_harness::distrib` and `docs/PROTOCOL.md`): announces itself with a
//! `Hello` frame, reads a job plus shard assignments, runs each shard
//! through CrashMonkey, and writes per-shard results back — with bug
//! reports deduplicated at the source into per-group exemplars + counts,
//! so a frame stays small no matter how bug-dense the shard is.
//!
//! Two transports, same protocol:
//!
//! * spawned by a coordinator (stdio child or ssh pipe): frames flow over
//!   this process's stdin/stdout;
//! * `--connect HOST:PORT`: dial a coordinator's TCP listener and speak
//!   frames over the socket — this is how remote machines join a sweep.
//!
//! `--calibrate[=N]` runs a short measured burst before the `Hello` so the
//! coordinator can size this worker's shard batches by its throughput
//! (only the seed: the coordinator re-sizes by observed throughput as
//! shards complete). `--secret S` (or the `B3_SWEEP_SECRET` environment
//! variable) supplies the shared secret for answering a coordinator's
//! HMAC challenge — required when dialing a non-loopback listener.
//! `--die-after-workloads N` is the chaos-test hook: the process exits
//! abruptly just before its `N+1`-th workload, simulating a worker VM dying
//! mid-shard.

fn main() {
    std::process::exit(b3_harness::distrib::worker_from_args(
        std::env::args().skip(1),
    ));
}

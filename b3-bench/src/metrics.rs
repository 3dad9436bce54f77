//! The catalogue of every metric the benchmark prints: name, unit and
//! direction — and, for the end-to-end ones, the share of the parent's
//! median by which each may worsen. `BENCHMARK.json` lists exactly these
//! (a unit test compares the two).

/// `(name, unit, better, bound)`. Measured with tracing off.
pub const END_TO_END: [(&str, &str, &str, f64); 4] = [
    // (tested + skipped + pruned) / wall seconds of the timed call; the
    // median over the passes of a run.
    ("candidates_per_s", "1/s", "higher", 0.25),
    // CPU microseconds (this process and its reaped workers) per candidate:
    // catches "faster wall by burning more cores", and is steadier than
    // wall time on a shared box.
    ("cpu_us_per_candidate", "us", "lower", 0.25),
    // VmHWM of the process that made the timed calls (the coordinator, for
    // the fan-out) when the run ends.
    ("peak_rss_mb", "MiB", "lower", 0.20),
    // Input construction, scratch-directory creation and one warm-up sweep
    // (the job itself, stopped after `WARM_UP_WORKLOADS`) through the same
    // entry point; the median of `SETUP_REPS` set-ups, the first of which
    // starts at process start.
    ("setup_s", "s", "lower", 0.25),
];

/// `(name, unit, better)`. From the traced run; no bounds.
pub const PER_LAYER: [(&str, &str, &str); 59] = [
    ("ace.generator.next_s", "s", "lower"),
    ("ace.generator.candidates", "count", "higher"),
    ("ace.canon.classify_s", "s", "lower"),
    ("ace.canon.pruned_share", "ratio", "higher"),
    ("crashmonkey.test_workload_s", "s", "lower"),
    ("crashmonkey.test_workload_p50_us", "us", "lower"),
    ("crashmonkey.test_workload_p99_us", "us", "lower"),
    ("crashmonkey.profile_s", "s", "lower"),
    ("crashmonkey.construct_self_s", "s", "lower"),
    ("crashmonkey.recovery_s", "s", "lower"),
    ("crashmonkey.check_s", "s", "lower"),
    ("crashmonkey.crash_states_covered", "count", "higher"),
    ("crashmonkey.crash_states_tested", "count", "lower"),
    ("crashmonkey.triage_reuse_share", "ratio", "higher"),
    ("crashmonkey.skipped_share", "ratio", "lower"),
    ("probe.workloads", "count", "higher"),
    ("vfs.exec.apply_s", "s", "lower"),
    ("crashmonkey.profiler.profile_on_s", "s", "lower"),
    ("block.record.bytes_per_workload", "B", "lower"),
    ("block.replay.step_to_s", "s", "lower"),
    ("fs.recover_delta_s", "s", "lower"),
    ("fs.mount_s", "s", "lower"),
    ("crashmonkey.checker.check_recovered_s", "s", "lower"),
    ("analyze.digest.state_digests_s", "s", "lower"),
    ("analyze.hb.analyze_s", "s", "lower"),
    ("harness.dedup.observe_s", "s", "lower"),
    ("harness.dedup.raw_reports", "count", "lower"),
    ("harness.dedup.groups", "count", "lower"),
    ("harness.dedup.merge_s", "s", "lower"),
    ("harness.checkpoint.to_bytes_s", "s", "lower"),
    ("harness.checkpoint.from_bytes_s", "s", "lower"),
    ("harness.checkpoint.bytes", "B", "lower"),
    ("harness.segment.save_s", "s", "lower"),
    ("harness.segment.load_s", "s", "lower"),
    ("harness.sweep.parallel_efficiency", "ratio", "higher"),
    ("distrib.transport.connect_s", "s", "lower"),
    ("distrib.link.frames_tx", "count", "lower"),
    ("distrib.link.frames_rx", "count", "lower"),
    ("distrib.link.bytes_tx", "B", "lower"),
    ("distrib.link.bytes_rx", "B", "lower"),
    ("distrib.link.send_s", "s", "lower"),
    ("distrib.link.recv_wait_s", "s", "lower"),
    ("distrib.coordinator.service_s", "s", "lower"),
    ("distrib.coordinator.service_p99_us", "us", "lower"),
    ("distrib.segment.bytes", "B", "lower"),
    ("distrib.segment.delta_records", "count", "lower"),
    ("distrib.segment.snapshots", "count", "lower"),
    ("distrib.worker.peak_rss_mb", "MiB", "lower"),
    ("distrib.respawns", "count", "lower"),
    ("distrib.fanout_efficiency", "ratio", "higher"),
    ("app.generator.next_s", "s", "lower"),
    ("app.harness.test_workload_s", "s", "lower"),
    ("app.harness.test_workload_p99_us", "us", "lower"),
    ("app.engine.commit_s", "s", "lower"),
    ("app.engine.open_recover_s", "s", "lower"),
    ("app.oracle.new_s", "s", "lower"),
    ("trace.slice_cpu_s", "s", "lower"),
    ("trace.slice_passes", "count", "higher"),
    ("trace.overhead_share", "ratio", "lower"),
];

/// The metric values of one run, in catalogue order.
pub struct Values(Vec<(&'static str, f64, &'static str)>);

impl Values {
    /// Starts every per-layer metric at zero: a layer that does not run in
    /// a workload reports no work, and every metric is always printed.
    pub fn per_layer() -> Values {
        Values(
            PER_LAYER
                .iter()
                .map(|&(name, unit, _)| (name, 0.0, unit))
                .collect(),
        )
    }

    pub fn end_to_end() -> Values {
        Values(
            END_TO_END
                .iter()
                .map(|&(name, unit, _, _)| (name, 0.0, unit))
                .collect(),
        )
    }

    /// # Panics
    /// Panics on a name the catalogue does not list.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .iter_mut()
            .find(|(listed, _, _)| *listed == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the catalogue"));
        slot.1 = value;
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(listed, _, _)| *listed == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the catalogue"))
            .1
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        self.0.iter().copied()
    }
}

fn end_to_end(name: &str) -> &'static (&'static str, &'static str, &'static str, f64) {
    END_TO_END
        .iter()
        .find(|(listed, ..)| *listed == name)
        .unwrap_or_else(|| panic!("{name:?} is not an end-to-end metric"))
}

/// The bound of an end-to-end metric.
pub fn bound(name: &str) -> f64 {
    end_to_end(name).3
}

/// By what share of `baseline` the `candidate` value is worse, in the
/// metric's own direction (negative when it is better).
pub fn worse_by(name: &str, baseline: f64, candidate: f64) -> f64 {
    let change = (candidate - baseline) / baseline.abs();
    if end_to_end(name).2 == "higher" {
        -change
    } else {
        change
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::WORKLOADS;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue_and_the_workloads() {
        let manifest = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let keys: Vec<&str> = manifest.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let list = |key: &str| match manifest.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("{key} is {other:?}"),
        };
        let text = |item: &Json, key: &str| match item.get(key) {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("{key} is {other:?}"),
        };

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (listed, workload) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(text(listed, "name"), workload.name);
            assert_eq!(text(listed, "why"), workload.why);
            assert_eq!(listed.entries().len(), 2);
        }

        let end_to_end = list("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (listed, &(name, unit, better, bound)) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(text(listed, "name"), name);
            assert_eq!(text(listed, "unit"), unit);
            assert_eq!(text(listed, "better"), better);
            assert_eq!(listed.get("bound").and_then(Json::as_f64), Some(bound));
            assert!(bound > 0.0 && bound <= 0.25);
        }
        assert!(END_TO_END.contains(&("setup_s", "s", "lower", 0.25)));

        let per_layer = list("per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        assert!(per_layer.len() <= 128);
        for (listed, &(name, unit, better)) in per_layer.iter().zip(&PER_LAYER) {
            assert_eq!(text(listed, "name"), name);
            assert_eq!(text(listed, "unit"), unit);
            assert_eq!(text(listed, "better"), better);
            assert_eq!(listed.entries().len(), 3);
        }

        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for (i, name) in names.iter().enumerate() {
            assert!(valid_name(name), "{name}");
            assert!(!names[..i].contains(name), "{name} is used twice");
        }
    }

    #[test]
    fn values_start_at_zero_and_direction_decides_what_worse_means() {
        let mut values = Values::per_layer();
        assert_eq!(values.iter().count(), PER_LAYER.len());
        assert!(values.iter().all(|(_, value, _)| value == 0.0));
        values.set("fs.mount_s", 1.5);
        assert_eq!(values.get("fs.mount_s"), 1.5);
        assert_eq!(bound("setup_s"), 0.25);
        // Higher is better: a drop is worse. Lower is better: a rise is.
        assert!((worse_by("candidates_per_s", 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((worse_by("peak_rss_mb", 100.0, 90.0) + 0.1).abs() < 1e-12);
    }
}

//! Command-line helpers shared by the examples (included via `#[path]`).

use b3::prelude::CrashPointPolicy;

/// The value of `--name V` / `--name=V` on the command line, if present.
fn flag_value(name: &str) -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == name {
            return Some(
                args.next()
                    .unwrap_or_else(|| panic!("{name} needs a value")),
            );
        }
        if let Some(value) = arg
            .strip_prefix(name)
            .and_then(|rest| rest.strip_prefix('='))
        {
            return Some(value.to_string());
        }
    }
    None
}

/// Parses `--crash-points {last,all,triaged}` / `--crash-points=...`:
/// which persistence points each workload is crash-tested at. Defaults to
/// `last`, the paper's strategy for exhaustively generated spaces.
pub fn parse_crash_points() -> CrashPointPolicy {
    flag_value("--crash-points").map_or(CrashPointPolicy::LastOnly, |value| {
        CrashPointPolicy::parse(&value)
            .unwrap_or_else(|| panic!("unknown crash-point policy {value:?} (last/all/triaged)"))
    })
}

/// Parses `--stop-after N` / `--stop-after=N` from the command line: a
/// workload budget for the example's sweeps. Returns `None` when absent.
pub fn parse_stop_after() -> Option<usize> {
    flag_value("--stop-after").map(|value| value.parse().expect("--stop-after needs a number"))
}

//! The transaction oracle: decides whether a recovered KV state is a legal
//! crash outcome for a given transaction history.
//!
//! This is the application-level analogue of CrashMonkey's AutoChecker.
//! Because every committed transaction's effects are a deterministic
//! function of the workload, the oracle can enumerate *every* legal
//! post-crash state up front — the committed-prefix states `S_0 .. S_n` —
//! and classify a recovered state by exact comparison:
//!
//! - **atomicity**: the state must equal some `S_j`, never a partial or
//!   garbled application of a transaction;
//! - **durability**: `j` must not be smaller than the number of
//!   transactions whose commit had fully persisted before the crash point;
//! - **no resurrection**: aborted (or not-yet-committed) transactions must
//!   not appear;
//! - **replay idempotence**: recovering the same crash state twice must
//!   yield the same state.
//!
//! Judging and rendering are separate steps: [`TxnOracle::classify`] finds
//! the violations as data, and only a bug report that is kept pays for
//! their text ([`Violation::detail`], [`TxnOracle::render_expected`],
//! [`render_state`]).

use std::collections::BTreeMap;
use std::fmt::Write;

use b3_crashmonkey::Consequence;

use crate::generator::{key_name, value_for, TxnWorkload};

/// The KV state type the oracle compares.
pub type KvState = BTreeMap<String, Vec<u8>>;

/// What the harness observed about one crash point while profiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPointMeta {
    /// The block-layer checkpoint id the crash state was built from.
    pub checkpoint: u32,
    /// Number of transactions whose commit had fully returned before this
    /// persistence point.
    pub committed_before: u32,
    /// Workload position (0-based) of the transaction whose commit was in
    /// progress at this persistence point, if any. A recovered state may
    /// legally include it (commit record persisted) or not (crash before).
    pub in_flight: Option<u32>,
}

/// One oracle violation: its kind and the prefix state, prefix length or
/// transaction it names. `S_j` is the state after the first `j` committed
/// transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Violation {
    /// Recovering the crash state a second time gave a different state.
    ReplayNotIdempotent,
    /// The state is `S_state`, but `committed_before` transactions had
    /// committed before the crash point.
    DurabilityLoss {
        /// `j` of the recovered `S_j`.
        state: usize,
        /// Transactions committed before the crash point.
        committed_before: usize,
    },
    /// The state is `S_state`, which holds transactions that had not
    /// committed by the crash point.
    LaterPrefix {
        /// `j` of the recovered `S_j`.
        state: usize,
    },
    /// Aborted transaction `position` (0-based) leaked into the state.
    AbortedVisible {
        /// Workload position of the aborted transaction.
        position: u32,
    },
    /// The state matches no committed prefix: a transaction was applied
    /// partially or with garbled values.
    AtomicityBroken,
}

impl Violation {
    /// The taxonomy bucket (one of the four `Txn*` consequences).
    pub fn consequence(&self) -> Consequence {
        match self {
            Violation::ReplayNotIdempotent => Consequence::TxnReplayNotIdempotent,
            Violation::DurabilityLoss { .. } => Consequence::TxnDurabilityLoss,
            Violation::LaterPrefix { .. } | Violation::AbortedVisible { .. } => {
                Consequence::TxnResurrection
            }
            Violation::AtomicityBroken => Consequence::TxnAtomicityBroken,
        }
    }

    /// What went wrong, concretely, for the state `recovered` (and
    /// `reopened`, the second recovery) it was found in.
    pub fn detail(&self, recovered: &KvState, reopened: &KvState) -> String {
        match *self {
            Violation::ReplayNotIdempotent => format!(
                "second recovery diverged: first {}, second {}",
                render_state(recovered),
                render_state(reopened)
            ),
            Violation::DurabilityLoss {
                state,
                committed_before,
            } => format!(
                "state is S_{state} but {committed_before} transactions had \
                 committed before the crash point"
            ),
            Violation::LaterPrefix { state } => format!(
                "state is S_{state}: transactions that had not \
                 committed by the crash point are visible"
            ),
            Violation::AbortedVisible { position } => format!(
                "aborted transaction {} is visible in the \
                 recovered state",
                position + 1
            ),
            Violation::AtomicityBroken => format!(
                "recovered state {} matches no committed \
                 prefix: a transaction was applied partially \
                 or with garbled values",
                render_state(recovered)
            ),
        }
    }
}

/// The oracle for one transaction workload.
#[derive(Debug, Clone)]
pub struct TxnOracle {
    /// `states[j]` = KV state after the first `j` *committed* transactions.
    states: Vec<KvState>,
    /// Workload positions of the committed transactions, in order.
    committed: Vec<u32>,
    /// For each aborted transaction: every state that would result from
    /// its effects leaking on top of some committed prefix. Resurrection
    /// detection is exact comparison against these.
    resurrection_states: Vec<(u32, KvState)>,
}

impl TxnOracle {
    /// Precomputes the legal crash states of `workload`.
    pub fn new(workload: &TxnWorkload) -> Self {
        let mut states = vec![KvState::new()];
        let mut committed = Vec::new();
        for (position, txn) in workload.txns.iter().enumerate() {
            if !txn.commit {
                continue;
            }
            let mut next = states[states.len() - 1].clone();
            apply_txn(&mut next, workload, position);
            states.push(next);
            committed.push(position as u32);
        }
        let mut resurrection_states = Vec::new();
        for (position, txn) in workload.txns.iter().enumerate() {
            if txn.commit {
                continue;
            }
            for base in &states {
                let mut leaked = base.clone();
                apply_txn(&mut leaked, workload, position);
                if !states.contains(&leaked) {
                    resurrection_states.push((position as u32, leaked));
                }
            }
        }
        TxnOracle {
            states,
            committed,
            resurrection_states,
        }
    }

    /// Number of committed transactions in the workload.
    pub fn num_committed(&self) -> usize {
        self.committed.len()
    }

    /// The state after the first `j` committed transactions.
    pub fn committed_state(&self, j: usize) -> &KvState {
        &self.states[j]
    }

    /// The fully committed final state.
    pub fn final_state(&self) -> &KvState {
        &self.states[self.states.len() - 1]
    }

    /// Classifies the recovery of one crash state: the violations found,
    /// none when the state is a legal crash outcome. `recovered` is the KV
    /// state after the first open; `reopened` after opening the same file
    /// system a second time (the replay-idempotence probe).
    pub fn classify(
        &self,
        meta: &CrashPointMeta,
        recovered: &KvState,
        reopened: &KvState,
    ) -> Vec<Violation> {
        let cb = meta.committed_before as usize;
        let mut violations = Vec::new();
        if reopened != recovered {
            violations.push(Violation::ReplayNotIdempotent);
        }
        // Prefix states can repeat (put then delete returns to an earlier
        // state), so legality is membership in the *allowed* set, not the
        // index of the first matching prefix.
        let in_flight_ok = meta.in_flight.is_some() && cb + 1 < self.states.len();
        let allowed =
            recovered == &self.states[cb] || (in_flight_ok && recovered == &self.states[cb + 1]);
        if !allowed {
            violations.push(
                match self.states.iter().position(|state| state == recovered) {
                    Some(j) if j < cb => Violation::DurabilityLoss {
                        state: j,
                        committed_before: cb,
                    },
                    Some(j) => Violation::LaterPrefix { state: j },
                    None => match self
                        .resurrection_states
                        .iter()
                        .find(|(_, state)| state == recovered)
                    {
                        Some(&(position, _)) => Violation::AbortedVisible { position },
                        None => Violation::AtomicityBroken,
                    },
                },
            );
        }
        violations
    }

    /// Renders the set of states legal at `meta` for bug reports.
    pub fn render_expected(&self, meta: &CrashPointMeta) -> String {
        let cb = meta.committed_before as usize;
        let mut legal = vec![format!("S_{cb} = {}", render_state(&self.states[cb]))];
        if meta.in_flight.is_some() && cb + 1 < self.states.len() {
            legal.push(format!(
                "S_{} = {} (in-flight commit persisted)",
                cb + 1,
                render_state(&self.states[cb + 1])
            ));
        }
        // `join` sizes the text exactly, and an exemplar keeps it.
        legal.join(" or ")
    }
}

/// Applies transaction `position` of `workload` to `state` — the reference
/// semantics the engine must match.
pub fn apply_txn(state: &mut KvState, workload: &TxnWorkload, position: usize) {
    let txn = &workload.txns[position];
    for (op_index, op) in txn.ops.iter().enumerate() {
        let key = key_name(op.key);
        match op.kind {
            crate::bounds::TxnOpKind::Put => {
                state.insert(key, value_for(position, op_index));
            }
            crate::bounds::TxnOpKind::Append => {
                state
                    .entry(key)
                    .or_default()
                    .extend_from_slice(&value_for(position, op_index));
            }
            crate::bounds::TxnOpKind::Delete => {
                state.remove(&key);
            }
        }
    }
}

/// Deterministic human-readable rendering of a KV state; garbage bytes
/// (e.g. zero-filled unpersisted values) stay visible through the escaped
/// debug form.
pub fn render_state(state: &KvState) -> String {
    if state.is_empty() {
        return "(empty)".to_string();
    }
    let mut text = String::new();
    for (key, value) in state {
        let separator = if text.is_empty() { "" } else { " " };
        // Writing to a `String` cannot fail.
        let _ = write!(
            text,
            "{separator}{key}={:?}",
            String::from_utf8_lossy(value)
        );
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::TxnBounds;
    use crate::generator::TxnWorkloadGenerator;

    fn meta(checkpoint: u32, committed_before: u32, in_flight: Option<u32>) -> CrashPointMeta {
        CrashPointMeta {
            checkpoint,
            committed_before,
            in_flight,
        }
    }

    /// The exact text exemplars carry: a rendering change would change
    /// every stored app bug report.
    #[test]
    fn render_state_text_is_pinned() {
        let state = |entries: &[(&str, &[u8])]| -> KvState {
            entries
                .iter()
                .map(|(key, value)| (key.to_string(), value.to_vec()))
                .collect()
        };
        assert_eq!(render_state(&state(&[])), "(empty)");
        assert_eq!(render_state(&state(&[("k0", b"v1.1")])), r#"k0="v1.1""#);
        assert_eq!(
            render_state(&state(&[("k1", &[0, 0, 0, 0])])),
            r#"k1="\0\0\0\0""#
        );
        assert_eq!(
            render_state(&state(&[("k1", b"v2.1v3.1"), ("k0", b"")])),
            r#"k0="" k1="v2.1v3.1""#
        );
    }

    #[test]
    fn prefix_states_are_legal_and_later_states_resurrect() {
        let workload = TxnWorkloadGenerator::decode(&TxnBounds::smoke(), 5000);
        let oracle = TxnOracle::new(&workload);
        for j in 0..=oracle.num_committed() {
            let state = oracle.committed_state(j).clone();
            let verdict = oracle.classify(&meta(0, j as u32, None), &state, &state);
            assert!(verdict.is_empty(), "S_{j} must be legal: {verdict:?}");
        }
        if oracle.num_committed() >= 1 {
            let last = oracle.final_state().clone();
            let verdict = oracle.classify(&meta(0, 0, None), &last, &last);
            if oracle.committed_state(0) != oracle.final_state() {
                assert_eq!(verdict[0].consequence(), Consequence::TxnResurrection);
            }
        }
    }

    #[test]
    fn durability_atomicity_and_idempotence_fire() {
        // Workload 0 of tiny: single committed put of k0 := v1.1.
        let workload = TxnWorkloadGenerator::decode(&TxnBounds::tiny(), 0);
        let oracle = TxnOracle::new(&workload);
        let empty = KvState::new();
        let full = oracle.final_state().clone();

        // Committed txn lost.
        let verdict = oracle.classify(&meta(0, 1, None), &empty, &empty);
        assert_eq!(verdict[0].consequence(), Consequence::TxnDurabilityLoss);

        // Garbled value: right key, wrong bytes.
        let mut garbled = KvState::new();
        garbled.insert("k0".to_string(), vec![0, 0, 0, 0]);
        let verdict = oracle.classify(&meta(0, 1, None), &garbled, &garbled);
        assert_eq!(verdict[0].consequence(), Consequence::TxnAtomicityBroken);

        // Replay not idempotent: second open diverges.
        let verdict = oracle.classify(&meta(0, 1, None), &full, &garbled);
        assert!(verdict
            .iter()
            .any(|v| v.consequence() == Consequence::TxnReplayNotIdempotent));

        // In-flight commit may be present or absent.
        assert!(oracle
            .classify(&meta(0, 0, Some(0)), &empty, &empty)
            .is_empty());
        assert!(oracle
            .classify(&meta(0, 0, Some(0)), &full, &full)
            .is_empty());
        // ...but without an in-flight commit, the full state is phantom.
        let verdict = oracle.classify(&meta(0, 0, None), &full, &full);
        assert_eq!(verdict[0].consequence(), Consequence::TxnResurrection);
    }

    #[test]
    fn aborted_transactions_must_not_resurrect() {
        // Find a smoke workload whose first txn aborts with a put.
        let bounds = TxnBounds::smoke();
        let workload = TxnWorkloadGenerator::new(bounds)
            .find(|w| {
                w.txns.len() == 1
                    && !w.txns[0].commit
                    && w.txns[0]
                        .ops
                        .iter()
                        .any(|op| op.kind == crate::bounds::TxnOpKind::Put)
            })
            .unwrap();
        let oracle = TxnOracle::new(&workload);
        let mut leaked = KvState::new();
        apply_txn(&mut leaked, &workload, 0);
        let verdict = oracle.classify(&meta(0, 0, None), &leaked, &leaked);
        assert_eq!(verdict[0].consequence(), Consequence::TxnResurrection);
    }
}

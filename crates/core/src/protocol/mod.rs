//! Discrete-event simulations of the paper's protocol variants.
//!
//! * [`open_loop`] — §3: one FIFO announcement queue, no feedback.
//! * [`two_queue`] — §4: hot/cold transmission queues with proportional
//!   bandwidth sharing.
//! * [`feedback`] — §5: hot/cold queues plus receiver NACKs that promote
//!   lost records back to the hot queue (Figure 7's H/C/D machine).
//!
//! The paper derives each variant from the one before, and so does the
//! code: there is one simulation engine (private, `engine.rs`), and each
//! module above is a public config and report around one *shape* of it —
//! where a surviving record re-enters, how the data servers share
//! bandwidth, whether a feedback channel exists. The pure Table 1 /
//! Figure 7 rules the engine applies live in [`machine`], where
//! `ss-verify` checks them exhaustively.
//!
//! So the variants share workload, measurement and random streams by
//! construction and compare on common random numbers: the same seed
//! gives every variant the identical arrival/death/loss draws it would
//! have seen under any other variant.

pub mod feedback;
pub mod machine;
pub mod open_loop;
pub mod two_queue;

mod engine;
pub(crate) mod jobs;

/// The plain-data loss specification now lives in `ss-netsim` (one
/// audited loss module for the whole workspace); re-exported here so
/// protocol configs keep their historical path.
pub use ss_netsim::LossSpec;

/// Empirical counts of the Table 1 state changes observed in a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransitionCounts {
    /// Inconsistent record survived a lost announcement (I → I).
    pub i_to_i: u64,
    /// Inconsistent record delivered and survived (I → C).
    pub i_to_c: u64,
    /// Inconsistent record died at service (I → death).
    pub i_death: u64,
    /// Consistent record survived (C → C).
    pub c_to_c: u64,
    /// Consistent record died (C → death).
    pub c_death: u64,
}

impl TransitionCounts {
    /// Empirical transition probabilities out of the inconsistent class:
    /// `(P[I→I], P[I→C], P[I→death])`. `None` with no observations.
    pub fn from_inconsistent(&self) -> Option<(f64, f64, f64)> {
        let total = self.i_to_i + self.i_to_c + self.i_death;
        (total > 0).then(|| {
            let t = total as f64;
            (
                self.i_to_i as f64 / t,
                self.i_to_c as f64 / t,
                self.i_death as f64 / t,
            )
        })
    }

    /// Empirical probabilities out of the consistent class:
    /// `(P[C→C], P[C→death])`.
    pub fn from_consistent(&self) -> Option<(f64, f64)> {
        let total = self.c_to_c + self.c_death;
        (total > 0).then(|| {
            let t = total as f64;
            (self.c_to_c as f64 / t, self.c_death as f64 / t)
        })
    }

    /// Total services observed.
    pub fn total(&self) -> u64 {
        self.i_to_i + self.i_to_c + self.i_death + self.c_to_c + self.c_death
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transition_counts_probabilities() {
        let t = TransitionCounts {
            i_to_i: 10,
            i_to_c: 70,
            i_death: 20,
            c_to_c: 90,
            c_death: 10,
        };
        let (ii, ic, id) = t.from_inconsistent().unwrap();
        assert!((ii - 0.1).abs() < 1e-12);
        assert!((ic - 0.7).abs() < 1e-12);
        assert!((id - 0.2).abs() < 1e-12);
        let (cc, cd) = t.from_consistent().unwrap();
        assert!((cc - 0.9).abs() < 1e-12);
        assert!((cd - 0.1).abs() < 1e-12);
        assert_eq!(t.total(), 200);
    }

    #[test]
    fn empty_counts_give_none() {
        let t = TransitionCounts::default();
        assert_eq!(t.from_inconsistent(), None);
        assert_eq!(t.from_consistent(), None);
        assert_eq!(t.total(), 0);
    }
}

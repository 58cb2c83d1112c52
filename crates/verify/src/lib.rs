//! `ss-verify`: bounded exhaustive state-space checking of the SSTP
//! state machines.
//!
//! The SSTP endpoints (`sstp::sender`, `sstp::receiver`) are sans-I/O
//! machines, which makes them checkable: this crate drives them through
//! the same public methods the session harness and the live runtime
//! call, closing a small-scope system around them — one sender, a
//! couple of receivers, an adversarial wire with
//! loss/duplication/reorder/crash budgets — and explores *every*
//! interleaving of protocol and adversary moves to a bounded depth
//! (see [`explore::explore`]), asserting the safety invariants in
//! [`invariants`] after every step and running a repair-only
//! convergence drain at every quiescent state.
//!
//! Counterexamples are replayable event scripts ([`model::Action`]
//! lines), and the checker is itself validated by thirteen seeded
//! protocol defects ([`mutation::Mutation`]) that it must catch — the
//! small-scope hypothesis, made executable.
//!
//! ```
//! use ss_verify::{explore, model::Scope, mutation::MutationSet};
//!
//! let report = explore::explore(Scope::smoke(), MutationSet::default());
//! assert!(report.counterexample.is_none());
//! assert!(report.states > 100);
//! ```

pub mod explore;
pub mod invariants;
pub mod model;
pub mod mutation;

pub use explore::{detect, explore as explore_scope, run_script, Counterexample, Report};
pub use invariants::{drain_converges, Violation};
pub use model::{parse_script, Action, Model, Scope};
pub use mutation::{Mutation, MutationSet, WireMutations};

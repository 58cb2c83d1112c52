//! # ss-queueing — closed-form analysis of open-loop announce/listen
//!
//! §3 of the paper models the open-loop soft-state channel as a single
//! FIFO server with two job classes (*consistent* / *inconsistent*) and
//! closes it with Jackson's theorem. This crate implements every formula
//! in that section:
//!
//! * [`openloop::OpenLoop`] — class throughputs `λ_I`, `λ_C`, utilization,
//!   the stability condition `p_d > λ/μ`, the consistency closed forms
//!   behind Figure 3, the wasted-bandwidth fraction behind Figure 4, and
//!   the joint occupancy distribution.
//! * [`openloop::Transitions`] — Table 1's state-change probabilities.
//! * [`mm1::Mm1`] — the M/M/1 facts used for the Figure 6 latency anchor.
//! * [`sync_time`] — convergence-time analysis: how long "eventual"
//!   consistency takes for a late joiner recovering a static store
//!   (max-of-geometrics closed forms, validated against simulation).
//!
//! The formulas are validated against discrete-event simulation in the
//! `softstate` crate's tests and in the `validate-analysis` experiment.

pub mod mm1;
pub mod openloop;
pub mod sync_time;

pub use mm1::Mm1;
pub use openloop::{OpenLoop, Transitions};
pub use sync_time::{expected_cycles_to_sync, expected_sync_time};

//! # softstate — the paper's soft-state model, metric, and protocols
//!
//! This crate is the primary contribution of *"A Model, Analysis, and
//! Protocol Framework for Soft State-based Communication"* (Raman &
//! McCanne, SIGCOMM 1999), reproduced in Rust:
//!
//! * [`model`] — §2's data model: a publisher's evolving `{key, value}`
//!   table and subscriber replicas with soft-state expiration timers.
//! * [`consistency`] — §2.1's consistency metric: per-key agreement,
//!   instantaneous system consistency `c(t)`, and its time average under
//!   three empty-system conventions, derived from the exact integrals of
//!   `ss-netsim`'s `WindowedTimeAverage`.
//! * [`workload`] — the update/death processes of §2–§3 (Poisson
//!   arrivals, per-transmission death, lifetimes, bulk inputs).
//! * [`protocol`] — discrete-event simulations of the three protocol
//!   variants the paper evaluates:
//!   [`protocol::open_loop`] (§3), [`protocol::two_queue`] (§4), and
//!   [`protocol::feedback`] (§5).
//!
//! The open-loop simulation is validated against the closed forms in
//! `ss-queueing`; all three variants share workload and measurement
//! machinery so they compare on common random numbers. The SSTP protocol
//! framework of §6 builds on this crate in `sstp`.
//!
//! ## Example: measuring open-loop consistency
//!
//! ```
//! use softstate::protocol::open_loop::{self, OpenLoopConfig};
//! use ss_netsim::SimDuration;
//!
//! // λ = 2 records/s, μ_ch = 16 announcements/s, 20% loss, p_d = 0.25.
//! let mut cfg = OpenLoopConfig::analytic(2.0, 16.0, 0.20, 0.25, 42);
//! cfg.duration = SimDuration::from_secs(5_000);
//! let report = open_loop::run(&cfg);
//!
//! let theory = ss_queueing::OpenLoop::new(2.0, 16.0, 0.20, 0.25);
//! let sim = report.stats.consistency.busy.unwrap();
//! assert!((sim - theory.consistency_busy()).abs() < 0.05);
//! ```

#![deny(missing_docs)]

pub mod consistency;
pub mod model;
pub mod protocol;
pub mod workload;

pub use consistency::{measure_tables, ConsistencyAverages};
pub use model::{Key, PublisherTable, Record, ReplicaEntry, SubscriberTable, Value};
pub use protocol::{LossSpec, TransitionCounts};
pub use workload::{ArrivalProcess, DeathProcess, ServiceModel};

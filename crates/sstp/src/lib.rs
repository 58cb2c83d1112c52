//! # sstp — the Soft State Transport Protocol framework (§6)
//!
//! The paper's §6 sketches SSTP: a transport framework whose reliability
//! behavior is predictable from the soft-state model and customizable by
//! the application. This crate is a full implementation of that sketch:
//!
//! * [`digest`] — MD5 (RFC 1321, from scratch) and FNV-1a summary hashes.
//! * [`namespace`] — the hierarchical ADU index with recursive digests,
//!   stable slots, tombstones, and interest tags (§6.2).
//! * [`wire`] — binary packet formats: data, root/node summaries, repair
//!   queries, NACKs, receiver reports.
//! * [`reports`] — RTCP-style loss measurement (§6.1).
//! * [`profile`] — consistency and latency profiles derived from the
//!   paper's model (§6.1, Figure 12's "profiles" input).
//! * [`allocator`] — the profile-driven bandwidth allocator with
//!   application back-pressure notification (§6.1).
//! * [`reliability`] — the continuum of reliability levels.
//! * [`sender`] / [`receiver`] — sans-I/O protocol endpoints with
//!   recursive-descent repair, interest scoping, and slotting-and-damping
//!   feedback suppression for multicast.
//! * [`machine`] — what the `ss-verify` explorer needs from the endpoints:
//!   state fingerprints, self-check errors, and seeded defects.
//! * [`session`] — the end-to-end simulated session (1 sender,
//!   N receivers, lossy rate-limited channels, adaptation loop).
//! * [`runtime`] — the same endpoints on real `std::net` UDP sockets, with
//!   a wall clock: the production-shaped multi-session runtime, many
//!   sessions multiplexed over one socket with bounded queues,
//!   per-session rate limiting, liveness supervision with capped
//!   exponential re-probes, and shed-cold-first graceful degradation. A
//!   single publisher/subscriber pair is a runtime holding one session.
//!
//! ## Example: one repaired unicast exchange
//!
//! ```
//! use sstp::digest::HashAlgorithm;
//! use sstp::namespace::MetaTag;
//! use sstp::receiver::{ReceiverConfig, SstpReceiver};
//! use sstp::sender::SstpSender;
//! use ss_netsim::{SimRng, SimTime};
//!
//! let mut tx = SstpSender::new(HashAlgorithm::Fnv64, 1000);
//! let mut rx = SstpReceiver::new(
//!     ReceiverConfig::unicast(0, HashAlgorithm::Fnv64),
//!     SimRng::new(1),
//! );
//! let root = tx.root();
//! let key = tx.publish(SimTime::ZERO, root, MetaTag(0));
//!
//! // The data packet is lost; the periodic summary reveals it.
//! let _lost = tx.next_hot_packet().unwrap();
//! let now = SimTime::from_secs(1);
//! let summary = tx.summary_packet();
//! rx.on_packet(now, &summary);
//!
//! // Recursive descent: query -> node summary -> NACK -> retransmission.
//! for _ in 0..4 {
//!     for fb in rx.poll_feedback(now) {
//!         tx.on_packet(&fb);
//!     }
//!     while let Some(p) = tx.next_hot_packet() {
//!         rx.on_packet(now, &p);
//!     }
//! }
//! assert!(rx.replica().get(key).is_some());
//! ```

#![deny(missing_docs)]

pub mod allocator;
pub mod digest;
pub mod machine;
pub mod namespace;
pub mod profile;
pub mod receiver;
pub mod reliability;
pub mod reports;
pub mod runtime;
pub mod sender;
pub mod session;
pub mod wire;

pub use allocator::{Allocation, Allocator, AllocatorConfig};
pub use digest::{Digest, HashAlgorithm};
pub use namespace::{MetaTag, Namespace, Path};
pub use receiver::{Interest, ReceiverConfig, SstpReceiver};
pub use reliability::{ReliabilityLevel, ReliabilityParams};
pub use runtime::{Runtime, RuntimeConfig, WallClock};
pub use sender::SstpSender;
pub use session::{SessionConfig, SessionReport, SessionWorkload};
pub use wire::Packet;

//! SSTP over real UDP sockets.
//!
//! The [`SstpSender`]/[`SstpReceiver`] endpoints are sans-I/O: state in,
//! packets out. This module binds them to `std::net::UdpSocket` with a
//! real-time clock ([`WallClock`]), a token-bucket rate limiter standing
//! in for the session bandwidth budget, and the periodic machinery
//! (summaries, receiver reports, expiry sweeps) driven by deadlines on
//! the protocol's [`SimTime`] axis.
//!
//! The implementation is deliberately single-threaded and poll-based —
//! call [`UdpPublisher::poll`] / [`UdpSubscriber::poll`] from your event
//! loop, or [`UdpPublisher::run_for`] to drive it for a bounded time.
//! `run_for` is **event-driven**, not a sleep loop: each iteration
//! computes the next protocol deadline (pending summary, report, expiry
//! sweep, feedback backoff, token-bucket refill) and blocks on the
//! socket for exactly that long via
//! [`crate::runtime::wait::wait_for_datagram`], waking early the moment
//! a datagram arrives.
//!
//! For test determinism both ends accept an optional seeded ingress
//! [`LossSpec`] — the same audited loss description the simulator
//! channels use — so loss-recovery paths can be exercised on loopback
//! under Bernoulli or bursty loss alike.

use crate::digest::HashAlgorithm;
use crate::receiver::{ReceiverConfig, SstpReceiver};
use crate::runtime::pacing::TokenBucket;
use crate::runtime::wait::wait_for_datagram;
use crate::runtime::WallClock;
use crate::sender::SstpSender;
use crate::wire::{Packet, WireError};
use bytes::BytesMut;
use softstate::Key;
use ss_netsim::{Bandwidth, Clock, LossModel, LossSpec, SimDuration, SimRng, SimTime};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::Duration;

/// Counters common to both UDP endpoints.
#[derive(Clone, Copy, Debug, Default)]
pub struct UdpStats {
    /// Datagrams sent.
    pub datagrams_tx: u64,
    /// Datagrams received and decoded.
    pub datagrams_rx: u64,
    /// Datagrams discarded by the test-only ingress drop.
    pub injected_drops: u64,
    /// Datagrams that failed to decode.
    pub decode_errors: u64,
    /// Transmissions deferred by the rate limiter (retried next poll).
    pub throttled: u64,
}

fn make_socket(bind: SocketAddr) -> io::Result<UdpSocket> {
    let socket = UdpSocket::bind(bind)?;
    socket.set_nonblocking(true)?;
    Ok(socket)
}

fn recv_packet(
    socket: &UdpSocket,
    buf: &mut [u8],
) -> io::Result<Option<Result<Packet, WireError>>> {
    match socket.recv_from(buf) {
        Ok((n, _peer)) => Ok(Some(Packet::decode_slice(&buf[..n]))),
        Err(e) if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            Ok(None)
        }
        Err(e) => Err(e),
    }
}

/// Converts a std [`Duration`] onto the protocol time axis.
fn sim_duration(d: Duration) -> SimDuration {
    SimDuration::from_micros(d.as_micros() as u64)
}

/// Configuration shared by the UDP endpoints.
#[derive(Clone, Debug)]
pub struct UdpConfig {
    /// Local bind address (use port 0 to pick an ephemeral port).
    pub bind: SocketAddr,
    /// The remote endpoint.
    pub peer: SocketAddr,
    /// Session bandwidth budget enforced by the token bucket.
    pub bandwidth: Bandwidth,
    /// Root-summary interval (publisher side).
    pub summary_interval: Duration,
    /// Receiver-report interval (subscriber side).
    pub report_interval: Duration,
    /// Soft-state expiry sweep interval (subscriber side).
    pub expiry_interval: Duration,
    /// Test hook: drop incoming datagrams according to this loss
    /// process, drawn from a seeded stream (deterministic loss on
    /// loopback). The same [`LossSpec`] the simulator channels consume,
    /// so loopback tests can inject Bernoulli or bursty loss.
    pub ingress_loss: LossSpec,
    /// Seed for the ingress-drop stream.
    pub seed: u64,
}

/// The built ingress loss process, or `None` for a lossless spec (which
/// then consumes no randomness at all — matching the simulator channels'
/// draw discipline).
///
/// Lossy specs build **batched** ([`LossSpec::build_batched`]): each
/// endpoint's `drop_rng` exists solely to drive this model, which is
/// exactly the dedicated-stream contract batched draws require, and
/// batched Bernoulli is draw-for-draw identical to the unbatched model
/// on such a stream. Loopback chaos replays therefore see the very same
/// loss sequence as a simulator channel given the same seed — the drops
/// are comparable draw for draw, not merely in distribution.
fn ingress_model(spec: LossSpec) -> Option<Box<dyn LossModel>> {
    (spec.mean() > 0.0).then(|| spec.build_batched())
}

impl UdpConfig {
    /// A loopback-friendly default: 1 Mbps, 200 ms summaries.
    pub fn loopback(bind: SocketAddr, peer: SocketAddr) -> Self {
        UdpConfig {
            bind,
            peer,
            bandwidth: Bandwidth::from_mbps(1),
            summary_interval: Duration::from_millis(200),
            report_interval: Duration::from_millis(500),
            expiry_interval: Duration::from_millis(500),
            ingress_loss: LossSpec::None,
            seed: 0,
        }
    }
}

/// The publishing side of an SSTP session over UDP.
pub struct UdpPublisher {
    socket: UdpSocket,
    peer: SocketAddr,
    sender: SstpSender,
    clock: WallClock,
    bucket: TokenBucket,
    summary_interval: SimDuration,
    next_summary: SimTime,
    /// A packet that was built but could not be sent yet (rate limit).
    pending: Option<Packet>,
    drop_rng: SimRng,
    ingress_loss: Option<Box<dyn LossModel>>,
    stats: UdpStats,
    buf: Vec<u8>,
}

impl UdpPublisher {
    /// Binds the publisher. The inner [`SstpSender`] is constructed with
    /// the given hash algorithm and default payload size.
    pub fn bind(cfg: &UdpConfig, algo: HashAlgorithm, default_payload: u32) -> io::Result<Self> {
        Ok(UdpPublisher {
            socket: make_socket(cfg.bind)?,
            peer: cfg.peer,
            sender: SstpSender::new(algo, default_payload),
            clock: WallClock::start(),
            bucket: TokenBucket::new(cfg.bandwidth),
            summary_interval: sim_duration(cfg.summary_interval),
            next_summary: SimTime::ZERO,
            pending: None,
            drop_rng: SimRng::new(cfg.seed ^ 0x9e37_79b9),
            ingress_loss: ingress_model(cfg.ingress_loss),
            stats: UdpStats::default(),
            buf: vec![0u8; 65_536],
        })
    }

    /// The bound local address (useful with ephemeral ports).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// Re-targets the peer (e.g. once the subscriber's port is known).
    pub fn set_peer(&mut self, peer: SocketAddr) {
        self.peer = peer;
    }

    /// Mutable access to the protocol sender (publish/update/withdraw).
    pub fn sender_mut(&mut self) -> &mut SstpSender {
        &mut self.sender
    }

    /// The protocol sender.
    pub fn sender(&self) -> &SstpSender {
        &self.sender
    }

    /// The current protocol time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    fn send_packet(&mut self, pkt: &Packet) -> io::Result<()> {
        let mut out = BytesMut::with_capacity(2048);
        pkt.encode(&mut out);
        self.socket.send_to(&out, self.peer)?;
        self.stats.datagrams_tx += 1;
        Ok(())
    }

    /// One poll iteration: ingest feedback, emit due traffic within the
    /// bandwidth budget. Returns the number of datagrams sent.
    pub fn poll(&mut self) -> io::Result<usize> {
        let now = self.clock.now();
        // Ingest all waiting feedback.
        while let Some(decoded) = recv_packet(&self.socket, &mut self.buf)? {
            match decoded {
                Ok(pkt) => {
                    if let Some(loss) = &mut self.ingress_loss {
                        if loss.is_lost(&mut self.drop_rng) {
                            self.stats.injected_drops += 1;
                            continue;
                        }
                    }
                    self.stats.datagrams_rx += 1;
                    self.sender.on_packet(&pkt);
                }
                Err(_) => self.stats.decode_errors += 1,
            }
        }

        let mut sent = 0;
        // Flush a previously throttled packet first.
        if let Some(pkt) = self.pending.take() {
            if self.bucket.try_take(now, pkt.wire_len()) {
                self.send_packet(&pkt)?;
                sent += 1;
            } else {
                self.pending = Some(pkt);
                self.stats.throttled += 1;
                return Ok(sent);
            }
        }
        // Hot traffic (new data, repairs, summaries-on-demand).
        while let Some(pkt) = self.sender.next_hot_packet() {
            if self.bucket.try_take(now, pkt.wire_len()) {
                self.send_packet(&pkt)?;
                sent += 1;
            } else {
                self.pending = Some(pkt);
                self.stats.throttled += 1;
                return Ok(sent);
            }
        }
        // Periodic root summary.
        if now >= self.next_summary {
            let pkt = self.sender.summary_packet();
            if self.bucket.try_take(now, pkt.wire_len()) {
                self.send_packet(&pkt)?;
                sent += 1;
                self.next_summary = self.clock.now() + self.summary_interval;
            } else {
                self.pending = Some(pkt);
                self.stats.throttled += 1;
            }
        }
        Ok(sent)
    }

    /// The next instant this endpoint has scheduled work: the pending
    /// summary, or the token-bucket refill for a throttled packet.
    fn next_deadline(&mut self) -> SimTime {
        let now = self.clock.now();
        let mut deadline = self.next_summary;
        if let Some(pkt) = &self.pending {
            deadline = deadline.min(now.saturating_add(self.bucket.eta(now, pkt.wire_len())));
        }
        deadline
    }

    /// Drives the poll loop for `duration`, blocking on the socket until
    /// the next protocol deadline or the first arriving datagram —
    /// event-driven, not a fixed-interval sleep.
    pub fn run_for(&mut self, duration: Duration) -> io::Result<()> {
        let end = self.clock.now() + sim_duration(duration);
        while self.clock.now() < end {
            self.poll()?;
            let deadline = self.next_deadline().min(end);
            wait_for_datagram(&self.socket, self.clock.until(deadline))?;
        }
        Ok(())
    }

    /// Endpoint counters.
    pub fn stats(&self) -> UdpStats {
        self.stats
    }
}

/// The subscribing side of an SSTP session over UDP.
pub struct UdpSubscriber {
    socket: UdpSocket,
    peer: SocketAddr,
    receiver: SstpReceiver,
    clock: WallClock,
    bucket: TokenBucket,
    report_interval: SimDuration,
    next_report: SimTime,
    expiry_interval: SimDuration,
    next_expiry: SimTime,
    drop_rng: SimRng,
    ingress_loss: Option<Box<dyn LossModel>>,
    stats: UdpStats,
    buf: Vec<u8>,
}

impl UdpSubscriber {
    /// Binds the subscriber around the given receiver configuration.
    pub fn bind(cfg: &UdpConfig, rcfg: ReceiverConfig) -> io::Result<Self> {
        let seed = cfg.seed;
        let report_interval = sim_duration(cfg.report_interval);
        let expiry_interval = sim_duration(cfg.expiry_interval);
        Ok(UdpSubscriber {
            socket: make_socket(cfg.bind)?,
            peer: cfg.peer,
            receiver: SstpReceiver::new(rcfg, SimRng::new(seed ^ 0x51ed_2701)),
            clock: WallClock::start(),
            bucket: TokenBucket::new(cfg.bandwidth),
            report_interval,
            next_report: SimTime::ZERO + report_interval,
            expiry_interval,
            next_expiry: SimTime::ZERO + expiry_interval,
            drop_rng: SimRng::new(seed ^ 0x1f3d_5b79),
            ingress_loss: ingress_model(cfg.ingress_loss),
            stats: UdpStats::default(),
            buf: vec![0u8; 65_536],
        })
    }

    /// The bound local address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// Re-targets the publisher address.
    pub fn set_peer(&mut self, peer: SocketAddr) {
        self.peer = peer;
    }

    /// The protocol receiver (replica access, stats).
    pub fn receiver(&self) -> &SstpReceiver {
        &self.receiver
    }

    /// Keys expired by the most recent sweeps are returned from `poll`.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    fn send_packet(
        socket: &UdpSocket,
        peer: SocketAddr,
        stats: &mut UdpStats,
        pkt: &Packet,
    ) -> io::Result<()> {
        let mut out = BytesMut::with_capacity(2048);
        pkt.encode(&mut out);
        socket.send_to(&out, peer)?;
        stats.datagrams_tx += 1;
        Ok(())
    }

    /// One poll iteration: ingest data, emit due feedback and reports.
    /// Returns the keys expired by the soft-state sweep this round.
    pub fn poll(&mut self) -> io::Result<Vec<Key>> {
        let now = self.clock.now();
        while let Some(decoded) = recv_packet(&self.socket, &mut self.buf)? {
            match decoded {
                Ok(pkt) => {
                    if let Some(loss) = &mut self.ingress_loss {
                        if loss.is_lost(&mut self.drop_rng) {
                            self.stats.injected_drops += 1;
                            continue;
                        }
                    }
                    self.stats.datagrams_rx += 1;
                    self.receiver.on_packet(now, &pkt);
                }
                Err(_) => self.stats.decode_errors += 1,
            }
        }

        // Due feedback, within budget.
        for pkt in self.receiver.poll_feedback(now) {
            if self.bucket.try_take(now, pkt.wire_len()) {
                Self::send_packet(&self.socket, self.peer, &mut self.stats, &pkt)?;
            } else {
                self.stats.throttled += 1;
            }
        }
        // Periodic receiver report.
        if now >= self.next_report {
            let pkt = self.receiver.make_report();
            if self.bucket.try_take(now, pkt.wire_len()) {
                Self::send_packet(&self.socket, self.peer, &mut self.stats, &pkt)?;
            }
            self.next_report = now + self.report_interval;
        }
        // Periodic expiry sweep.
        let mut expired = Vec::new();
        if now >= self.next_expiry {
            expired = self.receiver.expire(now);
            self.next_expiry = now + self.expiry_interval;
        }
        Ok(expired)
    }

    /// The next instant this endpoint has scheduled work: the pending
    /// report, the expiry sweep, or a feedback backoff expiring.
    fn next_deadline(&self) -> SimTime {
        let mut deadline = self.next_report.min(self.next_expiry);
        if let Some(t) = self.receiver.next_feedback_at() {
            deadline = deadline.min(t);
        }
        deadline
    }

    /// Drives the poll loop for `duration`, blocking on the socket until
    /// the next protocol deadline or the first arriving datagram —
    /// event-driven, not a fixed-interval sleep.
    pub fn run_for(&mut self, duration: Duration) -> io::Result<()> {
        let end = self.clock.now() + sim_duration(duration);
        while self.clock.now() < end {
            self.poll()?;
            let deadline = self.next_deadline().min(end);
            wait_for_datagram(&self.socket, self.clock.until(deadline))?;
        }
        Ok(())
    }

    /// Endpoint counters.
    pub fn stats(&self) -> UdpStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotone() {
        let c = WallClock::start();
        let a = c.now();
        std::thread::sleep(Duration::from_millis(2));
        let b = c.now();
        assert!(b > a);
        // `until` a past instant saturates to zero.
        assert_eq!(c.until(a), Duration::ZERO);
    }

    #[test]
    fn sim_duration_conversion_is_microsecond_exact() {
        assert_eq!(
            sim_duration(Duration::from_millis(200)),
            SimDuration::from_millis(200)
        );
        assert_eq!(sim_duration(Duration::from_micros(7)).as_micros(), 7);
    }

    #[test]
    fn batched_ingress_matches_unbatched_draw_for_draw() {
        // The dedicated-stream contract: on its own stream, the batched
        // model produces the identical drop sequence to the unbatched
        // one, so loopback chaos replays stay comparable with the sim.
        let spec = LossSpec::Bernoulli(0.3);
        let mut batched = ingress_model(spec).expect("lossy spec builds");
        let mut plain = spec.build();
        let mut rng_a = SimRng::new(42);
        let mut rng_b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(batched.is_lost(&mut rng_a), plain.is_lost(&mut rng_b));
        }
        // A lossless spec builds no model (and burns no draws).
        assert!(ingress_model(LossSpec::None).is_none());
    }
}

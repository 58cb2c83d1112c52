//! The small-scope SSTP model the explorer drives.
//!
//! One [`sstp::sender::SstpSender`] multicasts to a handful of
//! [`sstp::receiver::SstpReceiver`]s over per-receiver in-flight packet
//! queues. Every protocol step is an [`Action`] — publish, transmit,
//! deliver, lose, duplicate, reorder, fire feedback, advance time,
//! expire, crash — so an interleaving is just a list of actions, and a
//! counterexample is a replayable script of them. The model owns the
//! adversary's budgets (how many losses, duplicates, crashes, clock
//! ticks the search may spend), which is what keeps the state space
//! finite.
//!
//! All protocol state advances exclusively through the endpoints'
//! `step` seam; the model adds nothing but the wire and the adversary.

use crate::invariants::{self, Violation};
use crate::mutation::MutationSet;
use softstate::Key;
use ss_netsim::{SimDuration, SimRng, SimTime};
use sstp::digest::{Digest, HashAlgorithm};
use sstp::machine::{ReceiverEffect, ReceiverEvent, SenderEffect, SenderEvent, StateHasher};
use sstp::namespace::{MetaTag, NodeId};
use sstp::receiver::{FeedbackTiming, Interest, ReceiverConfig, SstpReceiver};
use sstp::sender::SstpSender;
use sstp::wire::{Packet, WireChildEntry};
use std::collections::VecDeque;
use std::fmt;
use std::str::FromStr;

/// The bounded-scope configuration of one exploration: how many
/// receivers, how much adversary budget, and the protocol timing.
#[derive(Clone, Copy, Debug)]
pub struct Scope {
    /// Number of receivers (the paper's "one sender, a multicast
    /// group"); small scopes of 2–3 suffice for every seeded defect.
    pub receivers: usize,
    /// Simulated payload bytes per ADU (kept under the MTU so ADUs are
    /// single-packet; fragmentation has its own unit tests).
    pub payload: u32,
    /// How many fresh keys the search may publish.
    pub publish_budget: u32,
    /// How many version bumps the search may apply.
    pub update_budget: u32,
    /// How many withdrawals the search may apply.
    pub withdraw_budget: u32,
    /// How many packets (data or feedback) the adversary may lose.
    pub loss_budget: u32,
    /// How many packets the adversary may duplicate.
    pub dup_budget: u32,
    /// How many receiver crash/rejoin events the adversary may inject.
    pub crash_budget: u32,
    /// How many clock ticks the search may spend.
    pub tick_budget: u32,
    /// How many cold-cycle transmissions the search may pull.
    pub cycle_budget: u32,
    /// How many root summaries the search may emit.
    pub summary_budget: u32,
    /// One clock tick.
    pub tick: SimDuration,
    /// Receiver soft-state TTL.
    pub ttl: SimDuration,
    /// Receiver repair backoff (the exponential base).
    pub repair_backoff: SimDuration,
    /// In-flight packets per receiver before emit actions are disabled.
    pub flight_cap: usize,
    /// DFS depth bound.
    pub max_depth: usize,
    /// Repair rounds the quiescent-drain check runs before declaring
    /// non-convergence.
    pub drain_rounds: usize,
}

impl Scope {
    /// The shallow CI scope: wide branching, modest depth. This is the
    /// primary gate — it must visit well over 10^5 distinct states.
    pub fn ci_shallow() -> Self {
        Scope {
            receivers: 2,
            payload: 64,
            publish_budget: 2,
            update_budget: 1,
            withdraw_budget: 1,
            loss_budget: 2,
            dup_budget: 1,
            crash_budget: 1,
            tick_budget: 2,
            cycle_budget: 2,
            summary_budget: 2,
            tick: SimDuration::from_micros(500_000),
            ttl: SimDuration::from_micros(2_000_000),
            repair_backoff: SimDuration::from_micros(500_000),
            flight_cap: 2,
            max_depth: 8,
            drain_rounds: 40,
        }
    }

    /// The deep CI scope: narrower adversary, deeper interleavings, so
    /// long repair conversations (descent → NACK → retransmit → expiry)
    /// fit inside the bound.
    pub fn ci_deep() -> Self {
        Scope {
            publish_budget: 1,
            update_budget: 1,
            withdraw_budget: 0,
            loss_budget: 2,
            dup_budget: 0,
            crash_budget: 1,
            tick_budget: 3,
            cycle_budget: 1,
            summary_budget: 2,
            max_depth: 12,
            ..Scope::ci_shallow()
        }
    }

    /// A tiny scope for unit tests and smoke runs.
    pub fn smoke() -> Self {
        Scope {
            publish_budget: 1,
            update_budget: 1,
            withdraw_budget: 0,
            loss_budget: 1,
            dup_budget: 0,
            crash_budget: 0,
            tick_budget: 1,
            cycle_budget: 1,
            summary_budget: 1,
            max_depth: 6,
            ..Scope::ci_shallow()
        }
    }

    /// The generous scope directed mutation scripts run under: budgets
    /// are sized so no script ever starves, and the timing matches the
    /// scripts' tick arithmetic (tick = backoff = 500 ms, TTL = 4
    /// ticks).
    pub fn script() -> Self {
        Scope {
            receivers: 2,
            payload: 64,
            publish_budget: 8,
            update_budget: 8,
            withdraw_budget: 4,
            loss_budget: 32,
            dup_budget: 8,
            crash_budget: 2,
            tick_budget: 160,
            cycle_budget: 8,
            summary_budget: 16,
            tick: SimDuration::from_micros(500_000),
            ttl: SimDuration::from_micros(2_000_000),
            repair_backoff: SimDuration::from_micros(500_000),
            flight_cap: 8,
            max_depth: 64,
            drain_rounds: 40,
        }
    }
}

/// One atomic step of the model: a protocol move or an adversary move.
///
/// `rx` indexes a receiver; `idx` indexes the sender's live keys in
/// ascending key order. Actions print as (and parse from) one-word
/// script lines — a counterexample is just a sequence of these.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Publish a fresh ADU under the root.
    Publish,
    /// Bump the version of the `idx`-th live key.
    Update {
        /// Index into the ascending live-key list.
        idx: u8,
    },
    /// Withdraw the `idx`-th live key.
    Withdraw {
        /// Index into the ascending live-key list.
        idx: u8,
    },
    /// Pull the next hot (foreground) packet and broadcast it.
    EmitHot,
    /// Pull the next cold-cycle packet and broadcast it.
    EmitCycle,
    /// Emit the periodic root summary and broadcast it.
    EmitSummary,
    /// Deliver the oldest in-flight packet to receiver `rx`.
    DeliverData {
        /// Receiver index.
        rx: u8,
    },
    /// Deliver the *newest* in-flight packet to receiver `rx` (reorder).
    DeliverDataLast {
        /// Receiver index.
        rx: u8,
    },
    /// Duplicate the oldest in-flight packet for receiver `rx`.
    DupData {
        /// Receiver index.
        rx: u8,
    },
    /// Lose the oldest in-flight packet for receiver `rx`.
    DropData {
        /// Receiver index.
        rx: u8,
    },
    /// Script-only: discard everything in flight toward receiver `rx`
    /// without spending loss budget (used to keep a bystander receiver
    /// out of a directed scenario).
    ClearData {
        /// Receiver index.
        rx: u8,
    },
    /// Fire receiver `rx`'s due feedback into the feedback channel.
    PollFeedback {
        /// Receiver index.
        rx: u8,
    },
    /// Deliver receiver `rx`'s oldest feedback packet to the sender.
    DeliverFeedback {
        /// Receiver index.
        rx: u8,
    },
    /// Lose receiver `rx`'s oldest feedback packet.
    DropFeedback {
        /// Receiver index.
        rx: u8,
    },
    /// Run receiver `rx`'s soft-state expiry sweep.
    Expire {
        /// Receiver index.
        rx: u8,
    },
    /// Advance the shared clock by one tick.
    Tick,
    /// Crash receiver `rx` and rejoin it with empty state.
    Crash {
        /// Receiver index.
        rx: u8,
    },
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Publish => write!(f, "publish"),
            Action::Update { idx } => write!(f, "update {idx}"),
            Action::Withdraw { idx } => write!(f, "withdraw {idx}"),
            Action::EmitHot => write!(f, "emit-hot"),
            Action::EmitCycle => write!(f, "emit-cycle"),
            Action::EmitSummary => write!(f, "emit-summary"),
            Action::DeliverData { rx } => write!(f, "deliver-data {rx}"),
            Action::DeliverDataLast { rx } => write!(f, "deliver-data-last {rx}"),
            Action::DupData { rx } => write!(f, "dup-data {rx}"),
            Action::DropData { rx } => write!(f, "drop-data {rx}"),
            Action::ClearData { rx } => write!(f, "clear-data {rx}"),
            Action::PollFeedback { rx } => write!(f, "poll-feedback {rx}"),
            Action::DeliverFeedback { rx } => write!(f, "deliver-feedback {rx}"),
            Action::DropFeedback { rx } => write!(f, "drop-feedback {rx}"),
            Action::Expire { rx } => write!(f, "expire {rx}"),
            Action::Tick => write!(f, "tick"),
            Action::Crash { rx } => write!(f, "crash {rx}"),
        }
    }
}

impl FromStr for Action {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split_whitespace();
        let word = parts.next().ok_or_else(|| "empty action".to_string())?;
        let arg = |parts: &mut std::str::SplitWhitespace| -> Result<u8, String> {
            parts
                .next()
                .ok_or_else(|| format!("`{word}` needs an index"))?
                .parse::<u8>()
                .map_err(|e| format!("bad index for `{word}`: {e}"))
        };
        let act = match word {
            "publish" => Action::Publish,
            "update" => Action::Update {
                idx: arg(&mut parts)?,
            },
            "withdraw" => Action::Withdraw {
                idx: arg(&mut parts)?,
            },
            "emit-hot" => Action::EmitHot,
            "emit-cycle" => Action::EmitCycle,
            "emit-summary" => Action::EmitSummary,
            "deliver-data" => Action::DeliverData {
                rx: arg(&mut parts)?,
            },
            "deliver-data-last" => Action::DeliverDataLast {
                rx: arg(&mut parts)?,
            },
            "dup-data" => Action::DupData {
                rx: arg(&mut parts)?,
            },
            "drop-data" => Action::DropData {
                rx: arg(&mut parts)?,
            },
            "clear-data" => Action::ClearData {
                rx: arg(&mut parts)?,
            },
            "poll-feedback" => Action::PollFeedback {
                rx: arg(&mut parts)?,
            },
            "deliver-feedback" => Action::DeliverFeedback {
                rx: arg(&mut parts)?,
            },
            "drop-feedback" => Action::DropFeedback {
                rx: arg(&mut parts)?,
            },
            "expire" => Action::Expire {
                rx: arg(&mut parts)?,
            },
            "tick" => Action::Tick,
            "crash" => Action::Crash {
                rx: arg(&mut parts)?,
            },
            other => return Err(format!("unknown action `{other}`")),
        };
        if parts.next().is_some() {
            return Err(format!("trailing tokens after `{word}`"));
        }
        Ok(act)
    }
}

/// Parses a whole replay script: one action per line, `#` comments and
/// blank lines ignored.
pub fn parse_script(src: &str) -> Result<Vec<Action>, String> {
    let mut out = Vec::new();
    for (i, line) in src.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        out.push(
            line.parse::<Action>()
                .map_err(|e| format!("line {}: {e}", i + 1))?,
        );
    }
    Ok(out)
}

/// The explorable system state: endpoints, wire, clock, and the
/// adversary's remaining budgets.
#[derive(Clone)]
pub struct Model {
    pub(crate) scope: Scope,
    pub(crate) muts: MutationSet,
    pub(crate) sender: SstpSender,
    pub(crate) receivers: Vec<SstpReceiver>,
    /// In-flight data-channel packets, per receiver (the multicast tree
    /// delivers an independent copy to each).
    pub(crate) data_flights: Vec<VecDeque<Packet>>,
    /// In-flight feedback packets, per receiver.
    pub(crate) fb_flights: Vec<VecDeque<Packet>>,
    pub(crate) now: SimTime,
    root: NodeId,
    publishes_left: u32,
    updates_left: u32,
    withdraws_left: u32,
    losses_left: u32,
    dups_left: u32,
    crashes_left: u32,
    ticks_left: u32,
    cycles_left: u32,
    summaries_left: u32,
    /// Highest data-channel sequence seen leaving the sender, for the
    /// monotone-sequence invariant.
    last_data_seq: Option<u64>,
    /// Bumps the rejoin RNG seed so a crashed receiver's replacement is
    /// distinguishable from the original.
    crash_gen: u64,
}

fn fresh_receiver(scope: &Scope, id: u32, gen: u64, muts: &MutationSet) -> SstpReceiver {
    let cfg = ReceiverConfig {
        id,
        ttl: scope.ttl,
        algo: HashAlgorithm::Fnv64,
        interest: Interest::All,
        feedback: true,
        repair_backoff: scope.repair_backoff,
        timing: FeedbackTiming::Immediate,
    };
    SstpReceiver::new(cfg, SimRng::new(0x5EED_0000 + u64::from(id) * 1000 + gen))
        .with_mutations(muts.rx)
}

impl Model {
    /// Builds the initial state: empty endpoints, empty wire, time zero.
    pub fn new(scope: Scope, muts: MutationSet) -> Self {
        let sender = SstpSender::new(HashAlgorithm::Fnv64, scope.payload).with_mutations(muts.tx);
        let root = sender.root();
        let receivers = (0..scope.receivers)
            .map(|i| fresh_receiver(&scope, i as u32, 0, &muts))
            .collect();
        Model {
            muts,
            sender,
            receivers,
            data_flights: vec![VecDeque::new(); scope.receivers],
            fb_flights: vec![VecDeque::new(); scope.receivers],
            now: SimTime::ZERO,
            root,
            publishes_left: scope.publish_budget,
            updates_left: scope.update_budget,
            withdraws_left: scope.withdraw_budget,
            losses_left: scope.loss_budget,
            dups_left: scope.dup_budget,
            crashes_left: scope.crash_budget,
            ticks_left: scope.tick_budget,
            cycles_left: scope.cycle_budget,
            summaries_left: scope.summary_budget,
            last_data_seq: None,
            crash_gen: 0,
            scope,
        }
    }

    /// The scope this model was built with.
    pub fn scope(&self) -> &Scope {
        &self.scope
    }

    /// The sender's live keys in ascending order (the `idx` namespace
    /// for [`Action::Update`] / [`Action::Withdraw`]).
    pub fn live_keys(&self) -> Vec<Key> {
        self.sender.table().live().map(|r| r.key).collect()
    }

    /// Every action currently enabled, in a fixed deterministic order.
    /// Budget-exhausted and no-op moves are excluded, which is what
    /// keeps the branching factor honest.
    pub fn enabled(&self) -> Vec<Action> {
        let mut acts = Vec::with_capacity(16);
        let room = self
            .data_flights
            .iter()
            .all(|f| f.len() < self.scope.flight_cap);
        if self.publishes_left > 0 {
            acts.push(Action::Publish);
        }
        let keys = self.live_keys();
        for idx in 0..keys.len().min(4) {
            if self.updates_left > 0 {
                acts.push(Action::Update { idx: idx as u8 });
            }
            if self.withdraws_left > 0 {
                acts.push(Action::Withdraw { idx: idx as u8 });
            }
        }
        if room && self.sender.hot_backlog() > 0 {
            acts.push(Action::EmitHot);
        }
        if room && self.cycles_left > 0 && self.sender.table().live_count() > 0 {
            acts.push(Action::EmitCycle);
        }
        if room && self.summaries_left > 0 {
            acts.push(Action::EmitSummary);
        }
        for rx in 0..self.receivers.len() {
            let r = rx as u8;
            let flight = &self.data_flights[rx];
            if !flight.is_empty() {
                acts.push(Action::DeliverData { rx: r });
            }
            if flight.len() >= 2 {
                acts.push(Action::DeliverDataLast { rx: r });
            }
            if !flight.is_empty() && self.dups_left > 0 && flight.len() < self.scope.flight_cap {
                acts.push(Action::DupData { rx: r });
            }
            if !flight.is_empty() && self.losses_left > 0 {
                acts.push(Action::DropData { rx: r });
            }
            if self.receivers[rx]
                .next_feedback_at()
                .is_some_and(|t| t <= self.now)
            {
                acts.push(Action::PollFeedback { rx: r });
            }
            if !self.fb_flights[rx].is_empty() {
                acts.push(Action::DeliverFeedback { rx: r });
                if self.losses_left > 0 {
                    acts.push(Action::DropFeedback { rx: r });
                }
            }
            if !self.receivers[rx].replica().is_empty() {
                acts.push(Action::Expire { rx: r });
            }
            if self.crashes_left > 0 {
                acts.push(Action::Crash { rx: r });
            }
        }
        if self.ticks_left > 0 {
            acts.push(Action::Tick);
        }
        acts
    }

    /// Applies one action, running every per-step invariant check.
    /// Actions on empty flights are no-ops (replay scripts may
    /// over-approximate); budget bookkeeping saturates.
    pub fn apply(&mut self, act: Action) -> Result<(), Violation> {
        match act {
            Action::Publish => {
                let ev = SenderEvent::Publish {
                    now: self.now,
                    parent: self.root,
                    tag: MetaTag(0),
                    payload_len: None,
                };
                let _ = self.sender.step(ev);
                self.publishes_left = self.publishes_left.saturating_sub(1);
            }
            Action::Update { idx } => {
                if let Some(&key) = self.live_keys().get(idx as usize) {
                    let _ = self.sender.step(SenderEvent::Update(key));
                    self.updates_left = self.updates_left.saturating_sub(1);
                }
            }
            Action::Withdraw { idx } => {
                if let Some(&key) = self.live_keys().get(idx as usize) {
                    let _ = self.sender.step(SenderEvent::Withdraw(key));
                    self.withdraws_left = self.withdraws_left.saturating_sub(1);
                }
            }
            Action::EmitHot => {
                self.emit(SenderEvent::PollHot)?;
            }
            Action::EmitCycle => {
                if self.emit(SenderEvent::PollCycle)? {
                    self.cycles_left = self.cycles_left.saturating_sub(1);
                }
            }
            Action::EmitSummary => {
                if self.emit(SenderEvent::PollSummary)? {
                    self.summaries_left = self.summaries_left.saturating_sub(1);
                }
            }
            Action::DeliverData { rx } => {
                let rx = rx as usize;
                if let Some(pkt) = self.data_flights[rx].pop_front() {
                    self.deliver_data(rx, pkt)?;
                }
            }
            Action::DeliverDataLast { rx } => {
                let rx = rx as usize;
                if let Some(pkt) = self.data_flights[rx].pop_back() {
                    self.deliver_data(rx, pkt)?;
                }
            }
            Action::DupData { rx } => {
                let rx = rx as usize;
                if let Some(pkt) = self.data_flights[rx].front().cloned() {
                    self.data_flights[rx].push_back(pkt);
                    self.dups_left = self.dups_left.saturating_sub(1);
                }
            }
            Action::DropData { rx } => {
                if self.data_flights[rx as usize].pop_front().is_some() {
                    self.losses_left = self.losses_left.saturating_sub(1);
                }
            }
            Action::ClearData { rx } => {
                self.data_flights[rx as usize].clear();
            }
            Action::PollFeedback { rx } => {
                self.poll_feedback(rx as usize)?;
            }
            Action::DeliverFeedback { rx } => {
                let rx = rx as usize;
                if let Some(pkt) = self.fb_flights[rx].pop_front() {
                    self.deliver_feedback(pkt)?;
                }
            }
            Action::DropFeedback { rx } => {
                if self.fb_flights[rx as usize].pop_front().is_some() {
                    self.losses_left = self.losses_left.saturating_sub(1);
                }
            }
            Action::Expire { rx } => {
                self.expire(rx as usize)?;
            }
            Action::Tick => {
                self.now += self.scope.tick;
                self.ticks_left = self.ticks_left.saturating_sub(1);
            }
            Action::Crash { rx } => {
                let rx = rx as usize;
                self.crash_gen += 1;
                self.receivers[rx] =
                    fresh_receiver(&self.scope, rx as u32, self.crash_gen, &self.muts);
                self.data_flights[rx].clear();
                self.fb_flights[rx].clear();
                self.crashes_left = self.crashes_left.saturating_sub(1);
            }
        }
        invariants::post_checks(self)
    }

    /// Pulls one packet from the sender and broadcasts a copy to every
    /// receiver's flight. Returns whether a packet was produced.
    pub(crate) fn emit(&mut self, ev: SenderEvent) -> Result<bool, Violation> {
        let pkt = match self.sender.step(ev) {
            SenderEffect::Transmit(p) => p,
            _ => None,
        };
        let Some(pkt) = pkt else {
            return Ok(false);
        };
        invariants::check_monotone_seq(&mut self.last_data_seq, &pkt)?;
        for flight in &mut self.data_flights {
            flight.push_back(pkt.clone());
        }
        Ok(true)
    }

    /// Applies the wire mutations to a data-channel packet.
    fn mangle_data(&self, mut pkt: Packet) -> Packet {
        match &mut pkt {
            Packet::Data(d) if self.muts.wire.version_clamp => d.version = 1,
            Packet::RootSummary(rs) if self.muts.wire.corrupt_root_digest => {
                rs.digest = Digest::from_u64(0xBAD_5EED);
            }
            Packet::NodeSummary(ns) if self.muts.wire.strip_tombstones => {
                ns.entries
                    .retain(|e| !matches!(e, WireChildEntry::Dead { .. }));
            }
            _ => {}
        }
        pkt
    }

    /// Delivers one data-channel packet to receiver `rx`, checking the
    /// no-regression and no-pending-NACK-after-install invariants
    /// around the step.
    pub(crate) fn deliver_data(&mut self, rx: usize, pkt: Packet) -> Result<(), Violation> {
        let pkt = self.mangle_data(pkt);
        let data = match &pkt {
            Packet::Data(d) => Some((d.key, d.is_whole(), d.version)),
            _ => None,
        };
        let before = data.and_then(|(key, _, _)| {
            self.receivers[rx]
                .replica()
                .get(key)
                .map(|e| e.value.version)
        });
        let _ = self.receivers[rx].step(ReceiverEvent::Packet {
            now: self.now,
            pkt: &pkt,
        });
        if let Some((key, whole, _)) = data {
            let after = self.receivers[rx]
                .replica()
                .get(key)
                .map(|e| e.value.version);
            invariants::check_no_version_regression(rx, key, before, after)?;
            if whole && after.is_some() {
                invariants::check_no_pending_nack_after_install(&self.receivers[rx], rx, key)?;
            }
        }
        invariants::post_checks(self)
    }

    /// Fires receiver `rx`'s due feedback into the feedback channel.
    pub(crate) fn poll_feedback(&mut self, rx: usize) -> Result<(), Violation> {
        let eff = self.receivers[rx].step(ReceiverEvent::PollFeedback { now: self.now });
        if let ReceiverEffect::Feedback(pkts) = eff {
            self.fb_flights[rx].extend(pkts);
        }
        invariants::post_checks(self)
    }

    /// Delivers one feedback packet to the sender, applying the wire
    /// mutations (a dropped query simply vanishes).
    pub(crate) fn deliver_feedback(&mut self, mut pkt: Packet) -> Result<(), Violation> {
        match &mut pkt {
            Packet::Nack(n) if self.muts.wire.drop_nack_keys => n.keys.clear(),
            Packet::RepairQuery(_) if self.muts.wire.drop_queries => return Ok(()),
            _ => {}
        }
        let _ = self.sender.step(SenderEvent::Feedback(&pkt));
        invariants::post_checks(self)
    }

    /// Runs receiver `rx`'s expiry sweep, checking that nothing whose
    /// deadline is still in the future dies.
    pub(crate) fn expire(&mut self, rx: usize) -> Result<(), Violation> {
        let replica = self.receivers[rx].replica();
        let safe: Vec<Key> = replica
            .entries()
            .filter(|(_, e)| replica.deadline_of(e) > self.now)
            .map(|(k, _)| *k)
            .collect();
        let _ = self.receivers[rx].step(ReceiverEvent::Expire { now: self.now });
        invariants::check_ttl_respected(&self.receivers[rx], rx, self.now, &safe)?;
        invariants::post_checks(self)
    }

    /// Whether the wire is empty (nothing in flight in either
    /// direction) — the states where the quiescent-drain convergence
    /// check runs.
    pub fn is_quiescent(&self) -> bool {
        self.data_flights.iter().all(VecDeque::is_empty)
            && self.fb_flights.iter().all(VecDeque::is_empty)
    }

    /// A fingerprint of the full model state for the visited set:
    /// endpoint fingerprints, in-flight packets (minus their sequence
    /// numbers, which are monotone bookkeeping, not protocol state),
    /// the clock, and the remaining budgets.
    pub fn fingerprint(&mut self) -> u64 {
        let mut h = StateHasher::new();
        h.write_u64(self.sender.fingerprint());
        for rx in &mut self.receivers {
            h.write_u64(rx.fingerprint());
        }
        for flight in self.data_flights.iter().chain(self.fb_flights.iter()) {
            h.write_u64(flight.len() as u64);
            for pkt in flight {
                hash_packet(&mut h, pkt);
            }
        }
        h.write_u64(self.now.as_micros());
        for b in [
            self.publishes_left,
            self.updates_left,
            self.withdraws_left,
            self.losses_left,
            self.dups_left,
            self.crashes_left,
            self.ticks_left,
            self.cycles_left,
            self.summaries_left,
        ] {
            h.write_u64(u64::from(b));
        }
        h.write_u64(self.crash_gen);
        h.finish()
    }
}

/// Hashes a packet's semantic content, excluding the data-channel
/// sequence number (two states differing only in how many packets the
/// sender has ever sent are the same protocol state).
fn hash_packet(h: &mut StateHasher, pkt: &Packet) {
    match pkt {
        Packet::Data(d) => {
            h.write_u64(1);
            h.write_u64(d.key.0);
            h.write_u64(d.version);
            h.write_u64(u64::from(d.slot));
            h.write_u64(u64::from(d.tag.0));
            h.write_u64(u64::from(d.offset));
            h.write_u64(u64::from(d.payload_len));
            h.write_u64(u64::from(d.total_len));
            for &c in &d.parent_path {
                h.write_u64(u64::from(c));
            }
        }
        Packet::RootSummary(p) => {
            h.write_u64(2);
            h.write_bytes(p.digest.as_bytes());
            h.write_u64(u64::from(p.live_adus));
        }
        Packet::NodeSummary(p) => {
            h.write_u64(3);
            for &c in &p.path {
                h.write_u64(u64::from(c));
            }
            h.write_u64(p.entries.len() as u64);
            for e in &p.entries {
                match e {
                    WireChildEntry::Dead { slot } => {
                        h.write_u64(10);
                        h.write_u64(u64::from(*slot));
                    }
                    WireChildEntry::Interior { slot, digest, tag } => {
                        h.write_u64(11);
                        h.write_u64(u64::from(*slot));
                        h.write_bytes(digest.as_bytes());
                        h.write_u64(u64::from(tag.0));
                    }
                    WireChildEntry::Leaf {
                        slot,
                        key,
                        digest,
                        tag,
                    } => {
                        h.write_u64(12);
                        h.write_u64(u64::from(*slot));
                        h.write_u64(key.0);
                        h.write_bytes(digest.as_bytes());
                        h.write_u64(u64::from(tag.0));
                    }
                }
            }
        }
        Packet::RepairQuery(p) => {
            h.write_u64(4);
            for &c in &p.path {
                h.write_u64(u64::from(c));
            }
        }
        Packet::Nack(p) => {
            h.write_u64(5);
            for k in &p.keys {
                h.write_u64(k.0);
            }
        }
        Packet::ReceiverReport(p) => {
            h.write_u64(6);
            h.write_u64(u64::from(p.receiver_id));
        }
    }
}

//! The metric tables (`BENCHMARK.json` lists the same names) and the
//! result a run prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, reported by every workload with tracing off.
/// README.md defines what each means on each workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("cpu_us_per_work", "us"),
    ("wait_p50_us", "us"),
    ("wait_tail_us", "us"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by the traced run. A layer a workload
/// never enters reports 0 work.
pub const PER_LAYER: &[(&str, &str)] = &[
    // netsim
    ("netsim.engine.events", "count"),
    ("netsim.wheel.cycle_ns.pop3", "ns"),
    ("netsim.wheel.cycle_ns.pop64", "ns"),
    ("netsim.wheel.advance_share", "ratio"),
    ("netsim.rng.next_u64_ns", "ns"),
    ("netsim.rng.exp_duration_ns", "ns"),
    ("netsim.loss.batched_draw_ns", "ns"),
    ("netsim.loss.gilbert_draw_ns", "ns"),
    ("netsim.metrics.counter_add_ns", "ns"),
    ("netsim.metrics.sketch_observe_ns", "ns"),
    // sched
    ("sched.pick_ns.lottery", "ns"),
    ("sched.pick_ns.stride", "ns"),
    ("sched.pick_ns.sfq", "ns"),
    ("sched.pick_ns.drr", "ns"),
    // core
    ("core.open_loop.events_per_s", "1/s"),
    ("core.two_queue.events_per_s", "1/s"),
    ("core.feedback.events_per_s", "1/s"),
    ("core.open_loop.model_error", "ratio"),
    // sstp.wire
    ("sstp.wire.encode_ns.data", "ns"),
    ("sstp.wire.decode_ns.data", "ns"),
    ("sstp.wire.encode_ns.node_summary", "ns"),
    ("sstp.wire.decode_ns.node_summary", "ns"),
    ("sstp.wire.encode_ns.nack", "ns"),
    ("sstp.wire.decode_ns.nack", "ns"),
    ("sstp.wire.decode_allocs.data", "count"),
    // sstp.digest
    ("sstp.digest.fnv_ns_per_64b", "ns"),
    ("sstp.digest.md5_ns_per_64b", "ns"),
    // sstp.namespace
    ("sstp.namespace.update_root_ns.l1k", "ns"),
    ("sstp.namespace.update_root_ns.l100k", "ns"),
    ("sstp.namespace.update_root_ns.l1k_md5", "ns"),
    ("sstp.namespace.update_root_allocs.l1k", "count"),
    ("sstp.namespace.mirror_adu_ns.l1k", "ns"),
    ("sstp.namespace.summary_entries_ns", "ns"),
    ("sstp.namespace.build_ns_per_leaf", "ns"),
    // sstp.sender
    ("sstp.sender.update_hot_ns", "ns"),
    ("sstp.sender.summary_packet_ns", "ns"),
    ("sstp.sender.cycle_packet_ns", "ns"),
    ("sstp.sender.on_nack_ns", "ns"),
    // sstp.receiver
    ("sstp.receiver.on_data_ns", "ns"),
    ("sstp.receiver.on_data_allocs", "count"),
    ("sstp.receiver.on_root_summary_match_ns", "ns"),
    ("sstp.receiver.on_root_summary_miss_ns", "ns"),
    ("sstp.receiver.on_node_summary_ns", "ns"),
    ("sstp.receiver.poll_feedback_idle_ns", "ns"),
    ("sstp.receiver.expire_ns_per_entry", "ns"),
    ("sstp.receiver.nacks_per_heal", "count"),
    ("sstp.receiver.queries_per_heal", "count"),
    // sstp.session
    ("sstp.session.mcast.events_per_s", "1/s"),
    ("sstp.session.churn.events_per_s", "1/s"),
    ("sstp.session.rejoin.events_per_s", "1/s"),
    ("sstp.session.share.data_arrive", "ratio"),
    ("sstp.session.share.cold_free", "ratio"),
    ("sstp.session.share.measure_tick", "ratio"),
    ("sstp.session.share.feedback", "ratio"),
    // sstp.runtime.mux
    ("sstp.runtime.mux.frame_encode_ns", "ns"),
    ("sstp.runtime.mux.frame_decode_ns", "ns"),
    ("sstp.runtime.mux.send_recv_ns", "ns"),
    ("sstp.runtime.mux.datagrams_per_update", "count"),
    ("sstp.runtime.mux.io_calls_per_datagram", "count"),
    ("sstp.runtime.mux.kernel_drop_share", "ratio"),
    ("sstp.runtime.mux.backpressure_drops", "count"),
    ("sstp.runtime.mux.decode_errors", "count"),
    ("sstp.runtime.mux.inbox_high_water", "count"),
    // sstp.runtime.shed
    ("sstp.runtime.shed.push_pop_ns", "ns"),
    ("sstp.runtime.shed.cold", "count"),
    ("sstp.runtime.shed.hot", "count"),
    ("sstp.runtime.shed.outbox_high_water", "count"),
    // sstp.runtime.pacing
    ("sstp.runtime.pacing.try_take_ns", "ns"),
    ("sstp.runtime.pacing.throttled", "count"),
    ("sstp.runtime.pacing.cold_rate_min", "1/s"),
    // sstp.runtime.supervisor
    ("sstp.runtime.supervisor.heard_ns", "ns"),
    ("sstp.runtime.supervisor.due_probes_ns.n1000", "ns"),
    ("sstp.runtime.supervisor.probes_per_heal", "count"),
    ("sstp.runtime.supervisor.heals", "count"),
    ("sstp.runtime.supervisor.mttr_sketch_p50_ms", "ms"),
    // sstp.runtime poll loop
    ("sstp.runtime.poll.count", "count"),
    ("sstp.runtime.poll.pub_us", "us"),
    ("sstp.runtime.poll.sub_us", "us"),
    ("sstp.runtime.poll.idle_us.n1000", "us"),
    ("sstp.runtime.poll.pub_share", "ratio"),
    ("sstp.runtime.poll.sub_share", "ratio"),
    ("sstp.runtime.wait.share", "ratio"),
    ("sstp.runtime.cpu_user_share", "ratio"),
    ("sstp.runtime.cpu_sys_share", "ratio"),
    ("sstp.runtime.cpu_ms_per_session_s", "ms"),
    ("sstp.runtime.recovery.cpu_ms_per_heal", "ms"),
    ("sstp.runtime.recovery.datagrams_per_heal", "count"),
    ("sstp.runtime.recovery.mttr_p50_ms.f10", "ms"),
    ("sstp.runtime.recovery.mttr_p50_ms.f50", "ms"),
    ("sstp.runtime.recovery.stale_key_s_per_heal", "s"),
    // bench (the harness itself)
    ("bench.gen_late_p99_us", "us"),
    ("bench.publish_share", "ratio"),
    ("bench.probe_share", "ratio"),
    ("bench.trace_overhead_share", "ratio"),
    ("bench.spans", "count"),
];

/// The end-to-end numbers of one window. `peak_rss_mib` is added when
/// the result is printed, so it covers the whole process.
#[derive(Clone, Copy, Debug, Default)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub work_per_s: f64,
    pub cpu_us_per_work: f64,
    pub wait_p50_us: f64,
    pub wait_tail_us: f64,
}

/// Per-layer values by name; unset names print as 0.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        // Checked in release too: a misspelt name would otherwise print
        // as a silent 0 under the right name.
        assert!(
            PER_LAYER.iter().any(|&(n, _)| n == name),
            "{name} is not in the per-layer table"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the window (simulation calls, updates,
    /// session heals).
    pub attempted: u64,
    /// Of those, how many failed (see README.md for each workload's rule).
    pub failed: u64,
    /// Broken correctness checks; any entry makes the run incorrect.
    pub violations: Vec<String>,
    /// Free-form lines for the human-readable part (sample counts, the
    /// work unit, the transport).
    pub notes: Vec<String>,
    pub e2e: EndToEnd,
    pub layers: Layers,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// The metrics a run prints: the end-to-end set untraced, the per-layer
/// set traced.
pub fn reported(
    outcome: &Outcome,
    trace: bool,
    peak_rss_mib: f64,
) -> Vec<(&'static str, &'static str, f64)> {
    if trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, outcome.layers.get(name)))
            .collect()
    } else {
        let e = &outcome.e2e;
        let values = [
            e.setup_s,
            e.work_per_s,
            e.cpu_us_per_work,
            e.wait_p50_us,
            e.wait_tail_us,
            peak_rss_mib,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect()
    }
}

/// The contract's last line: one JSON object with exactly `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, &'static str, f64)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `{}` on f64 prints the shortest digits that round-trip: the
        // value as measured, never padded or truncated.
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name": "<x>"` value in `text`, in order.
    fn names_in(text: &str) -> Vec<String> {
        text.split("\"name\":")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).unwrap().to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let (head, per_layer) = json.split_once("\"per_layer\"").unwrap();
        let (_, e2e) = head.split_once("\"end_to_end\"").unwrap();
        let table = |t: &[(&str, &str)]| t.iter().map(|&(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(names_in(e2e), table(END_TO_END));
        assert_eq!(names_in(per_layer), table(PER_LAYER));
        for w in crate::args::Workload::ALL {
            assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok_name(name), "{name}");
            assert!(ok_unit(unit), "{unit}");
            assert!(seen.insert(name), "{name} listed twice");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let line = result_json(true, 10, 0, &[("setup_s", "s", 0.8127), ("x", "ms", 1e-7)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"x\": {\"value\": 0.0000001, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn unset_layers_read_zero() {
        let mut l = Layers::default();
        l.set("bench.spans", 3.0);
        assert_eq!(l.get("bench.spans"), 3.0);
        assert_eq!(l.get("sstp.runtime.poll.count"), 0.0);
    }
}

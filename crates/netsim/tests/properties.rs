//! Property-based tests of the simulation substrate's invariants.

use proptest::prelude::*;
use ss_netsim::prelude::*;

proptest! {
    /// Events always pop in nondecreasing time order with FIFO ties,
    /// regardless of insertion order.
    #[test]
    fn event_queue_pops_sorted(times in prop::collection::vec(0u64..1_000, 1..200)) {
        let mut q: EventQueue<usize> = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        let mut popped = 0;
        while let Some((t, idx)) = q.pop() {
            popped += 1;
            prop_assert_eq!(SimTime::from_micros(times[idx]), t, "payload/time pairing");
            if let Some((lt, lidx)) = last {
                prop_assert!(t >= lt, "time order");
                if t == lt {
                    prop_assert!(idx > lidx, "FIFO tie-break");
                }
            }
            last = Some((t, idx));
        }
        prop_assert_eq!(popped, times.len());
    }

    /// The time-weighted mean always lies within the range of observed
    /// values and matches a brute-force integral.
    #[test]
    fn time_weighted_mean_matches_bruteforce(
        steps in prop::collection::vec((1u64..1_000, 0.0f64..1.0), 1..50),
        tail in 1u64..1_000,
    ) {
        let mut m = WindowedTimeAverage::new(SimTime::ZERO, 0.0);
        let mut t = 0u64;
        let mut integral = 0.0;
        let mut prev_v = 0.0;
        for &(dt, v) in &steps {
            integral += prev_v * dt as f64;
            t += dt;
            m.update(SimTime::from_micros(t), v);
            prev_v = v;
        }
        integral += prev_v * tail as f64;
        let end = t + tail;
        let want = integral / end as f64;
        let got = m.mean_until(SimTime::from_micros(end));
        prop_assert!((got - want).abs() < 1e-9, "got {got}, want {want}");
        prop_assert!((0.0..=1.0).contains(&got));
    }

    /// Histogram quantiles are monotone, bounded by min/max, and the mean
    /// is exact.
    #[test]
    fn histogram_invariants(samples in prop::collection::vec(0u64..10_000_000, 1..300)) {
        let mut h = DurationHistogram::new();
        for &us in &samples {
            h.record(SimDuration::from_micros(us));
        }
        let true_mean = samples.iter().sum::<u64>() / samples.len() as u64;
        prop_assert_eq!(h.mean().as_micros(), true_mean);
        prop_assert_eq!(h.min().as_micros(), *samples.iter().min().unwrap());
        prop_assert_eq!(h.max().as_micros(), *samples.iter().max().unwrap());
        let mut last = SimDuration::ZERO;
        for i in 0..=10 {
            let q = h.quantile(i as f64 / 10.0);
            prop_assert!(q >= last, "quantiles monotone");
            prop_assert!(q >= h.min() && q <= h.max());
            last = q;
        }
        // Bucketed median is within 10% (relative) of the exact median.
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let exact = sorted[(sorted.len() - 1) / 2] as f64;
        let approx = h.quantile(0.5).as_micros() as f64;
        prop_assert!(
            (approx - exact).abs() <= exact.max(10.0) * 0.10 + 1.0,
            "median {approx} vs exact {exact}"
        );
    }

    /// A server that serializes packets back to back at `rate` never
    /// outruns it: the summed transmit times cover the exact
    /// `sum(bits) / rate`, and overshoot it by less than the one
    /// microsecond of rounding each packet may add.
    #[test]
    fn transmit_time_conserves_capacity(
        sizes in prop::collection::vec(1usize..10_000, 1..100),
        bps in 1_000u64..100_000_000,
    ) {
        let rate = Bandwidth::from_bps(bps);
        let busy_us: u128 = sizes
            .iter()
            .map(|&s| u128::from(rate.transmit_time(s).as_micros()))
            .sum();
        let bits: u128 = sizes.iter().map(|&s| s as u128 * 8).sum();
        let exact_us = bits * 1_000_000;
        let rate_bps = u128::from(bps);
        prop_assert!(busy_us * rate_bps >= exact_us, "outran the rate");
        prop_assert!(
            (busy_us - sizes.len() as u128) * rate_bps < exact_us,
            "more than 1 us of rounding per packet"
        );
    }

    /// Derived RNG streams are reproducible and label-disjoint.
    #[test]
    fn rng_derivation_properties(seed in any::<u64>(), label in "[a-z]{1,12}") {
        let root = SimRng::new(seed);
        let mut a = root.derive(&label);
        let mut b = root.derive(&label);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = root.derive(&format!("{label}x"));
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        prop_assert_ne!(va, vc);
    }

    /// Gilbert–Elliott's configured mean matches its long-run empirical
    /// loss rate for any feasible (mean, burst) pair.
    #[test]
    fn gilbert_elliott_mean_is_truthful(
        mean in 0.02f64..0.7,
        burst in 1.0f64..10.0,
        seed in any::<u64>(),
    ) {
        // Skip infeasible combos (p_gb would exceed 1).
        prop_assume!(mean * (1.0 / burst) / (1.0 - mean) <= 1.0);
        let mut ge = GilbertElliott::bursty(mean, burst);
        prop_assert!((ge.mean_loss_rate() - mean).abs() < 1e-9);
        let mut rng = SimRng::new(seed);
        let n = 60_000;
        let lost = (0..n).filter(|_| ge.is_lost(&mut rng)).count();
        let emp = lost as f64 / n as f64;
        prop_assert!((emp - mean).abs() < 0.05, "empirical {emp} vs {mean}");
    }
}

/// One step of a randomized schedule driven against the queue and its
/// model at once.
#[derive(Debug, Clone)]
enum QueueOp {
    /// Schedule an event this many microseconds after the current clock
    /// (0 = at `now`, behind whatever is still pending for this tick).
    Schedule(u64),
    /// Schedule this many events for one and the same future tick.
    Burst(u64, usize),
    /// Schedule an event at `SimTime::MAX`, the "never" sentinel.
    Sentinel,
    /// Pop one event and compare against the model.
    Pop,
}

/// Delays from 1 µs to 2^44 µs (≈ 200 days, far past any run's
/// horizon), a heavy dose of zero/near-zero delays and same-tick bursts
/// to force ties — including scheduling at `now` while a burst for that
/// tick is still draining — and pops interleaved throughout.
fn queue_op() -> impl Strategy<Value = QueueOp> {
    prop_oneof![
        (0u32..44, 0u64..64).prop_map(|(shift, off)| QueueOp::Schedule((1u64 << shift) + off)),
        (0u64..4).prop_map(QueueOp::Schedule),
        (0u64..3, 2usize..6).prop_map(|(d, n)| QueueOp::Burst(d, n)),
        Just(QueueOp::Sentinel),
        Just(QueueOp::Pop),
        Just(QueueOp::Pop),
    ]
}

/// The model: pending events in a `Vec` kept **stably sorted by time**.
/// A new event goes behind every event whose time is not later, so
/// insertion order breaks ties — FIFO by definition, with no sequence
/// number and no heap anywhere in the model.
#[derive(Default)]
struct SortedModel(Vec<(SimTime, u32)>);

impl SortedModel {
    fn schedule(&mut self, at: SimTime, payload: u32) {
        let behind = self.0.partition_point(|&(t, _)| t <= at);
        self.0.insert(behind, (at, payload));
    }

    fn pop(&mut self) -> Option<(SimTime, u32)> {
        (!self.0.is_empty()).then(|| self.0.remove(0))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.0.first().map(|&(t, _)| t)
    }
}

proptest! {
    /// `EventQueue` dequeues in *exactly* the order of the sorted-`Vec`
    /// model — ascending time, FIFO within a tick — across random
    /// interleavings of scheduling and popping, and agrees with it on
    /// `peek_time` and `len` after every step. This is the whole
    /// contract the simulators rely on (DESIGN.md §14); the model shares
    /// no structure with the queue's heap, so agreement is not a
    /// tautology.
    #[test]
    fn event_queue_matches_sorted_vec_model(ops in prop::collection::vec(queue_op(), 1..500)) {
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut model = SortedModel::default();
        let mut next = 0u32;
        for op in ops {
            let after = |d: u64| q.now().saturating_add(SimDuration::from_micros(d));
            // What the step schedules: `n` events for the tick `at`.
            let (at, n) = match op {
                QueueOp::Schedule(d) => (after(d), 1),
                QueueOp::Burst(d, n) => (after(d), n),
                QueueOp::Sentinel => (SimTime::MAX, 1),
                QueueOp::Pop => {
                    let got = q.pop();
                    prop_assert_eq!(got, model.pop());
                    if let Some((t, _)) = got {
                        prop_assert_eq!(q.now(), t, "the clock follows the popped event");
                    }
                    (q.now(), 0) // a pop schedules nothing
                }
            };
            for _ in 0..n {
                q.schedule(at, next);
                model.schedule(at, next);
                next += 1;
            }
            prop_assert_eq!(q.peek_time(), model.peek_time());
            prop_assert_eq!(q.len(), model.0.len());
        }
        // Drain both to the end: the tails must agree too.
        loop {
            let got = q.pop();
            prop_assert_eq!(got, model.pop());
            prop_assert_eq!(q.peek_time(), model.peek_time());
            prop_assert_eq!(q.len(), model.0.len());
            if got.is_none() {
                break;
            }
        }
        prop_assert_eq!(q.dispatched(), u64::from(next));
        prop_assert_eq!(q.scheduled(), u64::from(next));
    }
}

/// Adversarial sample sets for the sketch properties: heavy tails,
/// near-boundary powers of two, dense clusters, and extremes — the
/// shapes most likely to expose bucketing or merge bugs.
fn adversarial_samples() -> impl Strategy<Value = Vec<u64>> {
    let any_shape = prop_oneof![
        // Uniform small values (exact sub-linear buckets).
        prop::collection::vec(0u64..64, 1..300),
        // Heavy tail: exponents spread across the full u64 range.
        prop::collection::vec(
            (0u32..63, 0u64..1_000).prop_map(|(e, o)| (1u64 << e) | o),
            1..300
        ),
        // Bucket boundaries and their neighbors.
        prop::collection::vec(
            (5u32..63, prop_oneof![Just(-1i64), Just(0), Just(1)])
                .prop_map(|(e, d)| (1u64 << e).wrapping_add_signed(d)),
            1..300
        ),
        // Dense cluster around one magnitude.
        (10u64..1 << 40, prop::collection::vec(0u64..100, 1..300))
            .prop_map(|(base, ds)| ds.into_iter().map(|d| base + d).collect::<Vec<_>>()),
        // Extremes, including u64::MAX.
        prop::collection::vec(prop_oneof![Just(0u64), Just(1), Just(u64::MAX)], 1..100),
    ];
    any_shape
}

proptest! {
    /// Merging per-worker shards in **any order** yields byte-identical
    /// serialized state — the property the parallel sweep's determinism
    /// rests on (sketches from workers merge in whatever order the
    /// reassembly loop visits them).
    #[test]
    fn sketch_merge_is_order_independent(
        samples in adversarial_samples(),
        shards in 1usize..8,
        perm_seed in 0u64..1_000,
    ) {
        // Bulk reference: every sample recorded into one sketch.
        let mut bulk = QuantileSketch::new();
        for &v in &samples {
            bulk.record(v);
        }
        // Shard round-robin, then merge in a permuted order.
        let mut parts = vec![QuantileSketch::new(); shards];
        for (i, &v) in samples.iter().enumerate() {
            parts[i % shards].record(v);
        }
        let mut order: Vec<usize> = (0..shards).collect();
        // Deterministic Fisher-Yates driven by the seed parameter.
        let mut state = perm_seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        for i in (1..order.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let mut merged = QuantileSketch::new();
        for &s in &order {
            merged.merge(&parts[s]);
        }
        prop_assert_eq!(merged.serialize(), bulk.serialize());
        prop_assert_eq!(merged.count(), samples.len() as u64);
    }

    /// Sketch quantiles agree with exact rank-based quantiles within the
    /// documented relative error (doubled: one bucket width of slack on
    /// each side of the rank walk) on adversarial distributions.
    #[test]
    fn sketch_quantiles_match_exact_within_relative_error(samples in adversarial_samples()) {
        let mut sk = QuantileSketch::new();
        for &v in &samples {
            sk.record(v);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let got = sk.quantile(q) as f64;
            // Same rank convention as the sketch: the ceil(q*n)-th
            // smallest sample, 1-indexed, clamped to [1, n].
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1] as f64;
            let tol = 2.0 * QuantileSketch::RELATIVE_ERROR * exact + 1.0;
            prop_assert!(
                (got - exact).abs() <= tol,
                "q={q}: got {got}, exact {exact}, tol {tol}"
            );
            prop_assert!(got >= sk.min() as f64 && got <= sk.max() as f64);
        }
        // Memory stays bounded regardless of the distribution (the 2x
        // slack covers Vec's amortized capacity-doubling growth; same
        // bound the sketch's own memory_stays_bounded test pins).
        prop_assert!(sk.heap_bytes() <= 2 * QuantileSketch::MAX_BUCKETS * 8);
    }
}

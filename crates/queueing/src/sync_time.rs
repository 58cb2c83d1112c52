//! Convergence-time analysis for announce/listen over a static store.
//!
//! §2.1 defines *eventual consistency* (`c(k) → 1`) but the paper never
//! quantifies how long "eventually" takes. For the canonical catch-up
//! scenario — a late joiner or crashed receiver recovering a static
//! table of `n` records from round-robin announcements at rate `μ` over
//! a channel with loss `p` — the time is a max-of-geometrics problem:
//!
//! * Each record needs `G_i ~ Geometric(1−p)` announcement cycles (the
//!   cycle in which its copy first survives the channel).
//! * Full synchronization takes `max_i G_i` cycles of length `n/μ` each.
//! * By inclusion–exclusion,
//!   `E[max G] = Σ_{k≥0} (1 − (1−p^k)^n)` — the coupon-collector-like
//!   sum implemented here.
//!
//! These forms are validated against the open-loop simulation's bulk
//! workload (every record immortal, measure the last first-delivery).

/// Expected number of announcement *cycles* until all `n` records of a
/// static store have been received at least once, with per-announcement
/// loss `p`. (`E[max of n iid Geometric(1−p)]`, support starting at 1.)
pub fn expected_cycles_to_sync(n: u64, p_loss: f64) -> f64 {
    assert!(n > 0, "empty store");
    assert!(
        (0.0..1.0).contains(&p_loss),
        "loss {p_loss} must be in [0,1)"
    );
    if p_loss == 0.0 {
        return 1.0;
    }
    // E[max] = sum_{k>=0} P[max > k] = sum_{k>=0} 1 - (1 - p^k)^n.
    let mut total = 0.0;
    let mut p_k: f64 = 1.0; // p^0
    loop {
        let term = 1.0 - (1.0 - p_k).powf(n as f64);
        total += term;
        if term < 1e-12 {
            break;
        }
        p_k *= p_loss;
    }
    total
}

/// Expected time (seconds) for a late joiner to fully synchronize a
/// static store of `n` records announced round-robin at `mu` records/s
/// with loss `p`. One cycle takes `n/mu` seconds; the joiner needs
/// [`expected_cycles_to_sync`] cycles. (First-order: ignores sub-cycle
/// position effects, which contribute at most one cycle.)
pub fn expected_sync_time(n: u64, mu: f64, p_loss: f64) -> f64 {
    assert!(mu > 0.0, "rate must be positive");
    expected_cycles_to_sync(n, p_loss) * n as f64 / mu
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_takes_one_cycle() {
        assert_eq!(expected_cycles_to_sync(100, 0.0), 1.0);
    }

    #[test]
    fn single_record_is_plain_geometric() {
        // E[Geometric(1-p)] = 1/(1-p).
        for p in [0.1, 0.5, 0.9] {
            let e = expected_cycles_to_sync(1, p);
            let want = 1.0 / (1.0 - p);
            assert!((e - want).abs() < 1e-9, "p={p}: {e} vs {want}");
        }
    }

    #[test]
    fn grows_logarithmically_with_store_size() {
        // E[max of n geometrics] ~ log_{1/p}(n); doubling n adds about
        // log_{1/p}(2) cycles.
        let p: f64 = 0.5;
        let e1 = expected_cycles_to_sync(64, p);
        let e2 = expected_cycles_to_sync(128, p);
        let increment = e2 - e1;
        let want = 2.0f64.ln() / (1.0 / p).ln(); // = 1 for p = 0.5
        assert!(
            (increment - want).abs() < 0.1,
            "increment {increment} vs {want}"
        );
    }

    #[test]
    fn monotone_in_loss_and_size() {
        let mut last = 0.0;
        for p in [0.0, 0.2, 0.4, 0.6, 0.8] {
            let e = expected_cycles_to_sync(32, p);
            assert!(e >= last);
            last = e;
        }
        let mut last = 0.0;
        for n in [1, 4, 16, 64, 256] {
            let e = expected_cycles_to_sync(n, 0.3);
            assert!(e >= last);
            last = e;
        }
    }

    #[test]
    fn sync_time_scales_with_cycle_length() {
        // 100 records at 10/s = 10 s cycles; at 30% loss ~4.3 cycles.
        let t = expected_sync_time(100, 10.0, 0.3);
        let cycles = expected_cycles_to_sync(100, 0.3);
        assert!((t - cycles * 10.0).abs() < 1e-9);
        assert!(t > 10.0 && t < 120.0, "t = {t}");
    }
}

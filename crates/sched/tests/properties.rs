//! Property-based tests of the scheduler contracts: work conservation
//! and weight-proportional sharing for arbitrary weight vectors, backlog
//! sets, packet sizes and mid-run reweighting.

use proptest::prelude::*;
use ss_netsim::SimRng;
use ss_sched::{Drr, Lottery, Scheduler, Sfq, StrictPriority, Stride};

const ROUNDS: usize = 20_000;

/// Sets `weights` and the backlog flags, runs `rounds` picks charging
/// class `c` a cost of `costs[c]` each time, and returns each class's
/// share of the cost served.
fn served_shares(
    s: &mut dyn Scheduler,
    weights: &[u64],
    backlogged: &[bool],
    costs: &[u64],
    rounds: usize,
) -> Vec<f64> {
    for (c, (&w, &b)) in weights.iter().zip(backlogged).enumerate() {
        s.set_weight(c, w);
        s.set_backlogged(c, b);
    }
    let mut rng = SimRng::new(7);
    let mut served = vec![0u64; weights.len()];
    for _ in 0..rounds {
        let c = s.pick(&mut rng).expect("work conservation");
        served[c] += costs[c];
        s.charge(c, costs[c]);
    }
    let total: u64 = served.iter().sum();
    served.iter().map(|&b| b as f64 / total as f64).collect()
}

/// Backlogged classes split the served cost in proportion to their
/// weights; idle classes get nothing.
fn check_shares(
    s: &mut dyn Scheduler,
    weights: &[u64],
    backlogged: &[bool],
    costs: &[u64],
    tol: f64,
) -> Result<(), TestCaseError> {
    let shares = served_shares(s, weights, backlogged, costs, ROUNDS);
    let wtotal: u64 = weights
        .iter()
        .zip(backlogged)
        .filter(|&(_, &b)| b)
        .map(|(&w, _)| w)
        .sum();
    for (c, (&got, (&w, &b))) in shares
        .iter()
        .zip(weights.iter().zip(backlogged))
        .enumerate()
    {
        let want = if b { w as f64 / wtotal as f64 } else { 0.0 };
        prop_assert!(
            (got - want).abs() <= tol,
            "class {c}: share {got:.4} vs weight share {want:.4} ({})",
            s.name()
        );
    }
    Ok(())
}

fn check_proportional(
    s: &mut dyn Scheduler,
    weights: &[u64],
    tol: f64,
) -> Result<(), TestCaseError> {
    let n = weights.len();
    check_shares(s, weights, &vec![true; n], &vec![1; n], tol)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Deterministic proportional-share policies track arbitrary weight
    /// vectors tightly.
    #[test]
    fn deterministic_policies_are_proportional(
        weights in prop::collection::vec(1u64..50, 2..8),
    ) {
        check_proportional(&mut Stride::new(), &weights, 0.01)?;
        check_proportional(&mut Sfq::new(), &weights, 0.01)?;
        check_proportional(&mut Drr::new(1), &weights, 0.02)?;
    }

    /// Lottery tracks weights statistically.
    #[test]
    fn lottery_is_proportional(weights in prop::collection::vec(1u64..50, 2..6)) {
        check_proportional(&mut Lottery::new(), &weights, 0.03)?;
    }

    /// Work conservation: as long as any class is backlogged with a
    /// positive weight, every policy picks something; with none, nothing.
    #[test]
    fn work_conservation(
        weights in prop::collection::vec(0u64..5, 1..8),
        backlog in prop::collection::vec(any::<bool>(), 1..8),
    ) {
        let n = weights.len().min(backlog.len());
        let eligible = (0..n).any(|c| weights[c] > 0 && backlog[c]);
        let mut rng = SimRng::new(3);
        let policies: Vec<Box<dyn Scheduler>> = vec![
            Box::new(Lottery::new()),
            Box::new(Stride::new()),
            Box::new(Sfq::new()),
            Box::new(Drr::new(1)),
            Box::new(StrictPriority::new()),
        ];
        for mut s in policies {
            for c in 0..n {
                s.set_weight(c, weights[c]);
                s.set_backlogged(c, backlog[c]);
            }
            let picked = s.pick(&mut rng);
            prop_assert_eq!(
                picked.is_some(),
                eligible,
                "{}: eligible={} picked={:?}",
                s.name(),
                eligible,
                picked
            );
            if let Some(c) = picked {
                prop_assert!(weights[c] > 0 && backlog[c], "{} picked ineligible", s.name());
            }
        }
    }

    /// §4: "Unused excess hot bandwidth is consumed by transmissions from
    /// the cold queue." Idle classes get nothing, and their share goes
    /// to the backlogged ones in proportion to the weights among them.
    #[test]
    fn idle_share_goes_to_the_backlogged_in_proportion(
        classes in prop::collection::vec((1u64..50, any::<bool>()), 2..8),
    ) {
        let weights: Vec<u64> = classes.iter().map(|&(w, _)| w).collect();
        let mut backlogged: Vec<bool> = classes.iter().map(|&(_, b)| b).collect();
        backlogged[0] = true;
        let ones = vec![1; weights.len()];
        check_shares(&mut Stride::new(), &weights, &backlogged, &ones, 0.01)?;
        check_shares(&mut Sfq::new(), &weights, &backlogged, &ones, 0.01)?;
        check_shares(&mut Drr::new(1), &weights, &backlogged, &ones, 0.02)?;
        check_shares(&mut Lottery::new(), &weights, &backlogged, &ones, 0.03)?;
    }

    /// The cost-charging policies split *bytes*, not picks, in proportion
    /// to the weights, whatever each class's packet size.
    #[test]
    fn byte_shares_track_weights_despite_size_mix(
        classes in prop::collection::vec((1u64..10, 64u64..1500), 2..5),
    ) {
        let weights: Vec<u64> = classes.iter().map(|&(w, _)| w).collect();
        let sizes: Vec<u64> = classes.iter().map(|&(_, len)| len).collect();
        let all = vec![true; weights.len()];
        check_shares(&mut Stride::new(), &weights, &all, &sizes, 0.01)?;
        check_shares(&mut Sfq::new(), &weights, &all, &sizes, 0.01)?;
        check_shares(&mut Drr::new(64), &weights, &all, &sizes, 0.01)?;
    }

    /// A weight change mid-run governs the service that follows it.
    #[test]
    fn reweighting_mid_run_applies(
        before in prop::collection::vec(1u64..50, 2..6),
        after_seed in prop::collection::vec(1u64..50, 6..7),
    ) {
        let after = &after_seed[..before.len()];
        let all = vec![true; before.len()];
        let ones = vec![1; before.len()];
        let policies: [(Box<dyn Scheduler>, f64); 4] = [
            (Box::new(Stride::new()), 0.01),
            (Box::new(Sfq::new()), 0.01),
            (Box::new(Drr::new(1)), 0.02),
            (Box::new(Lottery::new()), 0.03),
        ];
        for (mut s, tol) in policies {
            served_shares(&mut s, &before, &all, &ones, 5_000);
            check_shares(&mut s, after, &all, &ones, tol)?;
        }
    }

    /// A class that wakes after a long idle stretch gets its weight
    /// share from then on, not a burst of credit for the time it was
    /// away.
    #[test]
    fn waking_class_gets_no_back_credit(
        w0 in 1u64..10,
        w1 in 1u64..10,
        alone in 1_000usize..5_000,
    ) {
        let window = 20 * (w0 + w1) as usize;
        let want = (window as u64 * w1 / (w0 + w1)) as i64;
        let slack = w0.max(w1) as i64 + 2;
        let policies: [Box<dyn Scheduler>; 3] =
            [Box::new(Stride::new()), Box::new(Sfq::new()), Box::new(Drr::new(1))];
        for mut s in policies {
            served_shares(&mut s, &[w0, w1], &[true, false], &[1, 1], alone);
            s.set_backlogged(1, true);
            let mut rng = SimRng::new(11);
            let mut got = 0i64;
            for _ in 0..window {
                let c = s.pick(&mut rng).expect("work conservation");
                got += i64::from(c == 1);
                s.charge(c, 1);
            }
            prop_assert!(
                (got - want).abs() <= slack,
                "{}: woken class took {got} of {window} picks, weight share {want}",
                s.name()
            );
        }
    }
}

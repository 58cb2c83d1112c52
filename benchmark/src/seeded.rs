//! Seeded input generation shared by the workloads.

use ss_netsim::SimRng;

/// Fisher–Yates shuffle driven by `rng`: call order, key order and crash
/// sets are inputs, so they come from the run's seed.
pub fn shuffle<T>(rng: &mut SimRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_permutes_and_repeats_per_seed() {
        let shuffled = |seed| {
            let mut v: Vec<u32> = (0..100).collect();
            shuffle(&mut SimRng::new(seed), &mut v);
            v
        };
        let (a, b) = (shuffled(1), shuffled(2));
        assert_eq!(a, shuffled(1));
        assert_ne!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }
}

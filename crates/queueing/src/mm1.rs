//! M/M/1 queue formulas.
//!
//! The paper leans on two M/M/1 facts: the product-form occupancy
//! distribution behind the §3 consistency derivation, and the sojourn
//! time `E[T] = 1/(μ − λ)` that explains the ≈300 ms receive latency
//! observed in Figure 6 when cold-queue bandwidth is near zero
//! ("approximating the system as a single-server single-queue system").
//!
//! Rates are unit-agnostic: any consistent pair (packets/s, jobs/s, ...)
//! works, since only ratios and differences enter the formulas.

/// A stationary M/M/1 queue with Poisson arrivals at `lambda` and
/// exponential service at `mu` (same units).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Mm1 {
    /// Arrival rate λ.
    pub lambda: f64,
    /// Service rate μ.
    pub mu: f64,
}

impl Mm1 {
    /// Builds the queue; requires positive finite rates.
    pub fn new(lambda: f64, mu: f64) -> Self {
        assert!(lambda >= 0.0 && lambda.is_finite(), "bad lambda {lambda}");
        assert!(mu > 0.0 && mu.is_finite(), "bad mu {mu}");
        Mm1 { lambda, mu }
    }

    /// Utilization `ρ = λ/μ`.
    pub fn rho(&self) -> f64 {
        self.lambda / self.mu
    }

    /// True when the queue is stable (`ρ < 1`).
    pub fn is_stable(&self) -> bool {
        self.rho() < 1.0
    }

    /// Stationary probability of exactly `n` jobs: `(1−ρ)ρⁿ`.
    /// Panics when unstable (no stationary distribution exists).
    pub fn p_n(&self, n: u32) -> f64 {
        assert!(self.is_stable(), "no stationary distribution at rho >= 1");
        let rho = self.rho();
        (1.0 - rho) * rho.powi(n as i32)
    }

    /// Mean number in system `E[N] = ρ/(1−ρ)`. Panics when unstable.
    pub fn mean_jobs(&self) -> f64 {
        assert!(self.is_stable(), "unstable queue");
        let rho = self.rho();
        rho / (1.0 - rho)
    }

    /// Mean sojourn time `E[T] = 1/(μ−λ)` — the latency anchor the paper
    /// uses for Figure 6. Panics when unstable.
    pub fn mean_sojourn(&self) -> f64 {
        assert!(self.is_stable(), "unstable queue");
        1.0 / (self.mu - self.lambda)
    }

    /// Mean waiting time (excluding service) `E[W] = ρ/(μ−λ)`.
    pub fn mean_wait(&self) -> f64 {
        assert!(self.is_stable(), "unstable queue");
        self.rho() / (self.mu - self.lambda)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn textbook_values() {
        let q = Mm1::new(2.0, 5.0);
        assert!((q.rho() - 0.4).abs() < 1e-12);
        assert!(q.is_stable());
        assert!((q.mean_jobs() - 2.0 / 3.0).abs() < 1e-12);
        assert!((q.mean_sojourn() - 1.0 / 3.0).abs() < 1e-12);
        assert!((q.mean_wait() - 0.4 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn little_law_consistency() {
        // E[N] = λ E[T] must hold identically.
        for (l, m) in [(1.0, 3.0), (0.5, 0.9), (7.0, 8.0)] {
            let q = Mm1::new(l, m);
            assert!((q.mean_jobs() - l * q.mean_sojourn()).abs() < 1e-9);
        }
    }

    #[test]
    fn occupancy_sums_to_one() {
        let q = Mm1::new(3.0, 4.0);
        let total: f64 = (0..500).map(|n| q.p_n(n)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fig6_anchor_300ms() {
        // μ_data = 45 kbps, λ = 15 kbps, 1000-byte ADUs:
        // μ = 5.625 pkt/s, λ = 1.875 pkt/s, E[T] = 1/3.75 ≈ 267 ms —
        // the paper reports "the 300 ms latency".
        let q = Mm1::new(15_000.0 / 8_000.0, 45_000.0 / 8_000.0);
        let t = q.mean_sojourn();
        assert!((t - 0.2667).abs() < 0.001, "E[T] = {t}");
    }

    #[test]
    #[should_panic(expected = "unstable")]
    fn unstable_panics() {
        let _ = Mm1::new(5.0, 4.0).mean_jobs();
    }
}

//! Fault injection, in the smoltcp idiom.
//!
//! smoltcp's examples expose `--drop-chance` and `--corrupt-chance` on
//! every device; we provide the same two knobs as a wrapper that the
//! network consults for each operation. The Encore
//! experiments use this to (a) stress-test measurement soundness under
//! adverse conditions and (b) emulate the "high client system load,
//! transient DNS failure, WiFi unreliability" failure causes of §5.3.

use serde::{Deserialize, Serialize};
use sim_core::SimRng;

/// What the injector decided about one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultDecision {
    /// Operation proceeds untouched.
    Pass,
    /// Operation's traffic is silently dropped (→ timeout).
    Drop,
    /// Operation's payload is corrupted (→ invalid body / parse error).
    Corrupt,
}

/// Configurable fault injector.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultInjector {
    /// Probability an operation is dropped.
    pub drop_chance: f64,
    /// Probability an operation's payload is corrupted.
    pub corrupt_chance: f64,
}

impl FaultInjector {
    /// An injector that never interferes.
    pub fn none() -> FaultInjector {
        FaultInjector::default()
    }

    /// smoltcp's suggested stress configuration: 15% drop, 15% corrupt.
    pub fn stress() -> FaultInjector {
        FaultInjector {
            drop_chance: 0.15,
            corrupt_chance: 0.15,
        }
    }

    /// Builder: set drop chance.
    pub fn with_drop_chance(mut self, p: f64) -> FaultInjector {
        self.drop_chance = p.clamp(0.0, 1.0);
        self
    }

    /// Builder: set corrupt chance.
    pub fn with_corrupt_chance(mut self, p: f64) -> FaultInjector {
        self.corrupt_chance = p.clamp(0.0, 1.0);
        self
    }

    /// Decide the fate of one operation.
    pub fn decide(&self, rng: &mut SimRng) -> FaultDecision {
        if rng.chance(self.drop_chance) {
            return FaultDecision::Drop;
        }
        if rng.chance(self.corrupt_chance) {
            return FaultDecision::Corrupt;
        }
        FaultDecision::Pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_always_passes() {
        let f = FaultInjector::none();
        let mut rng = SimRng::new(1);
        for _ in 0..100 {
            assert_eq!(f.decide(&mut rng), FaultDecision::Pass);
        }
    }

    #[test]
    fn full_drop_always_drops() {
        let f = FaultInjector::none().with_drop_chance(1.0);
        let mut rng = SimRng::new(1);
        assert_eq!(f.decide(&mut rng), FaultDecision::Drop);
    }

    #[test]
    fn corrupt_chance_applies_after_drop() {
        let f = FaultInjector::none().with_corrupt_chance(1.0);
        let mut rng = SimRng::new(1);
        assert_eq!(f.decide(&mut rng), FaultDecision::Corrupt);
    }

    #[test]
    fn stress_rates_observed() {
        let f = FaultInjector::stress();
        let mut rng = SimRng::new(7);
        let mut drops = 0;
        let mut corrupts = 0;
        let n = 10_000;
        for _ in 0..n {
            match f.decide(&mut rng) {
                FaultDecision::Drop => drops += 1,
                FaultDecision::Corrupt => corrupts += 1,
                _ => {}
            }
        }
        // Drop ~15%, corrupt ~12.75% (15% of the remaining 85%).
        assert!((1_300..1_700).contains(&drops), "drops = {drops}");
        assert!((1_050..1_500).contains(&corrupts), "corrupts = {corrupts}");
    }

    #[test]
    fn builders_clamp_probabilities() {
        let f = FaultInjector::none()
            .with_drop_chance(1.7)
            .with_corrupt_chance(-0.2);
        assert_eq!(f.drop_chance, 1.0);
        assert_eq!(f.corrupt_chance, 0.0);
    }
}

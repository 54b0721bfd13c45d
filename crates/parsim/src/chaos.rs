//! Deterministic machine heterogeneity.
//!
//! The paper's machine model is perfectly homogeneous, so the balancer is
//! only ever exercised by *mesh*-induced imbalance. This module adds the
//! harder regime — *machine*-induced inhomogeneity — as one seeded, fully
//! reproducible description, [`Perturbation`]: per-rank compute-rate
//! multipliers (a rank with multiplier 2.0 pays twice the `t_flop` cost
//! for the same work) plus per-link latency jitter drawn from a seeded
//! splittable RNG ([`ChaosRng`]), so two runs with the same seed produce
//! bit-identical virtual times regardless of rank interleaving.
//!
//! A perturbation touches only *virtual time* (arrival stamps, clock
//! charges); it never reorders or alters message payloads, so algorithmic
//! results are invariant under any perturbation seed (tested in
//! `proptests.rs`).

/// splitmix64 finalizer: a high-quality 64-bit mixing function.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A splittable splitmix64 RNG.
///
/// [`ChaosRng::split`] derives an independent stream keyed by an arbitrary
/// 64-bit label; splitting is a pure function of (state, label), so draws
/// are reproducible no matter which thread makes them or in what order
/// streams are split off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosRng {
    state: u64,
}

impl ChaosRng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        ChaosRng { state: mix(seed) }
    }

    /// Derive an independent stream keyed by `label`. Does not advance
    /// `self`.
    pub fn split(&self, label: u64) -> Self {
        ChaosRng {
            state: mix(self.state ^ mix(label ^ 0xa076_1d64_78bd_642f)),
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.state)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A perturbed machine: per-rank compute-rate multipliers plus per-link
/// latency jitter.
///
/// `link_jitter` is a relative amplitude `a`: each message's startup and
/// wire time is scaled by an independent factor in `[1-a, 1+a]`, drawn from
/// `seed` split by (sender, receiver, per-link message index) — so the draw
/// depends only on the communication pattern, never on thread timing.
#[derive(Debug, Clone, PartialEq)]
pub struct Perturbation {
    /// Compute multiplier of each rank: rank `r` pays `profile[r]` times
    /// the nominal `t_flop` cost for the same work (1.0 = nominal, 2.0 =
    /// half speed). [`Session::with_chaos`](crate::Session::with_chaos)
    /// requires each to be finite and positive.
    pub profile: Vec<f64>,
    /// Relative link-latency jitter amplitude in `[0, 1)`. Zero disables.
    pub link_jitter: f64,
    /// Seed for all jitter draws.
    pub seed: u64,
}

impl Perturbation {
    /// No perturbation: homogeneous ranks, no jitter. A session built with
    /// this reproduces the unperturbed machine bit-exactly.
    pub fn none(nranks: usize) -> Self {
        Perturbation {
            profile: vec![1.0; nranks],
            link_jitter: 0.0,
            seed: 0,
        }
    }

    /// Homogeneous except `rank`, which computes `factor` (≥ 1.0) times
    /// slower.
    pub fn slowdown(nranks: usize, rank: usize, factor: f64) -> Self {
        assert!(rank < nranks, "slowdown of rank {rank} of {nranks}");
        assert!(factor >= 1.0, "slowdown factor must be ≥ 1.0");
        let mut p = Self::none(nranks);
        p.profile[rank] = factor;
        p
    }

    /// True when this perturbation cannot change any virtual time.
    pub fn is_none(&self) -> bool {
        self.link_jitter == 0.0 && self.profile.iter().all(|&m| m == 1.0)
    }
}

/// The per-message jitter factor for link `src → dst`, message index `k`.
pub(crate) fn jitter_factor(seed: u64, src: usize, dst: usize, k: u64, amplitude: f64) -> f64 {
    let u = ChaosRng::new(seed)
        .split(src as u64)
        .split(dst as u64)
        .split(k)
        .next_f64();
    1.0 + amplitude * (2.0 * u - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_streams_are_deterministic_and_independent() {
        let root = ChaosRng::new(42);
        let mut a1 = root.split(1);
        let mut a2 = root.split(1);
        let mut b = root.split(2);
        let xs: Vec<u64> = (0..8).map(|_| a1.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| a2.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys, "same label replays the same stream");
        assert_ne!(xs, zs, "different labels diverge");
    }

    #[test]
    fn f64_draws_are_in_unit_interval() {
        let mut rng = ChaosRng::new(7);
        for _ in 0..1000 {
            let u = rng.next_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn jitter_factor_is_bounded_and_reproducible() {
        for k in 0..100 {
            let f = jitter_factor(9, 3, 5, k, 0.25);
            assert!((0.75..=1.25).contains(&f));
            assert_eq!(f, jitter_factor(9, 3, 5, k, 0.25));
        }
        assert_ne!(
            jitter_factor(9, 3, 5, 0, 0.25),
            jitter_factor(9, 5, 3, 0, 0.25),
            "links are independent streams"
        );
    }

    #[test]
    fn profiles_report_uniformity() {
        assert!(Perturbation::none(8).profile.iter().all(|&m| m == 1.0));
        let p = crate::proptests::seeded_profile(8, 11, 3.0);
        assert_eq!(p, crate::proptests::seeded_profile(8, 11, 3.0));
        assert!(p.iter().all(|m| (1.0..=3.0).contains(m)));
        assert!(p.iter().any(|&m| m != p[0]));
    }

    #[test]
    fn slowdown_marks_one_rank() {
        let p = Perturbation::slowdown(4, 2, 2.0);
        assert!(!p.is_none());
        assert_eq!(p.profile, vec![1.0, 1.0, 2.0, 1.0]);
    }

    #[test]
    fn perturbation_none_is_none() {
        assert!(Perturbation::none(4).is_none());
        let mut p = Perturbation::none(4);
        p.link_jitter = 0.1;
        assert!(!p.is_none());
    }
}

//! Bandwidth-Aware Bypass (Section 4).
//!
//! Probabilistic Bypass (PB) skips a fraction `P` of miss fills to free
//! DRAM-cache bandwidth; naive PB can crater the hit rate of reuse-friendly
//! workloads, so BAB wraps PB in *set dueling*: two sampled set monitors run
//! the baseline (always-fill) and PB policies respectively, each with a
//! 16-bit miss counter and a 16-bit access counter, and a single mode bit
//! steers the follower sets to PB only while PB's hit rate stays within
//! Δ = 1/16 of the baseline's.

use bear_sim::rng::SimRng;

/// Which dueling group a set belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetGroup {
    /// Sampled monitor that always fills (baseline policy).
    BaselineMonitor,
    /// Sampled monitor that always applies probabilistic bypass.
    BypassMonitor,
    /// Follower set steered by the mode bit.
    Follower,
}

/// Fill-or-bypass policy engine.
///
/// Three operating modes cover the paper's designs:
/// - [`BypassPolicy::always_fill`]: the baseline (PB with P = 0).
/// - [`BypassPolicy::probabilistic`]: plain PB at a fixed probability
///   (Figure 5's P = 50 % / 90 % studies).
/// - [`BypassPolicy::bandwidth_aware`]: full BAB with set dueling
///   (Figure 7 onward).
#[derive(Debug, Clone)]
pub struct BypassPolicy {
    bypass_prob: f64,
    dueling: bool,
    /// log2 of the sampling stride: one set in `2^k` belongs to each
    /// monitor (the paper samples 512 K of 16 M sets → 1 in 32).
    sample_shift: u32,
    /// Counters: [baseline misses, baseline accesses, PB misses, PB accesses].
    counters: [u16; 4],
    /// Access-counter level at which the duel is evaluated and counters
    /// halve. The paper evaluates at 16-bit saturation over 1 B-instruction
    /// runs; scaled simulation windows use a proportionally lower level.
    duel_threshold: u16,
    /// Tolerated hit-rate loss is `2^-delta_shift` (Section 4.2's Δ).
    delta_shift: u32,
    /// Mode bit: `true` → followers bypass.
    use_pb: bool,
    rng: SimRng,
    /// Fills bypassed (stats).
    pub bypassed: u64,
    /// Fills performed (stats).
    pub filled: u64,
    /// Mode-bit flips (stats).
    pub mode_changes: u64,
}

/// Default hit-rate slack BAB tolerates: PB stays enabled while
/// `hit_pb ≥ hit_base × (1 − 2^-DELTA_SHIFT)`; the paper found Δ = 1/16
/// best (Section 4.2).
const DELTA_SHIFT: u32 = 4;

impl BypassPolicy {
    /// Baseline policy: every miss fills.
    pub fn always_fill() -> Self {
        Self::raw(0.0, false, 5)
    }

    /// Plain probabilistic bypass at probability `p` (no dueling).
    pub fn probabilistic(p: f64) -> Self {
        Self::raw(p, false, 5)
    }

    /// Full Bandwidth-Aware Bypass: PB at probability `p` guarded by set
    /// dueling with 1-in-`2^sample_shift` sampled monitor sets.
    pub fn bandwidth_aware(p: f64, sample_shift: u32) -> Self {
        Self::raw(p, true, sample_shift)
    }

    /// The paper's configuration: P = 90 %, 1-in-32 sampling.
    pub fn paper_bab() -> Self {
        Self::bandwidth_aware(0.9, 5)
    }

    fn raw(p: f64, dueling: bool, sample_shift: u32) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        BypassPolicy {
            bypass_prob: p,
            dueling,
            sample_shift,
            counters: [0; 4],
            duel_threshold: 512,
            delta_shift: DELTA_SHIFT,
            use_pb: true,
            rng: SimRng::new(0x0BAB_5EED),
            bypassed: 0,
            filled: 0,
            mode_changes: 0,
        }
    }

    /// Dueling group of `set` (all sets are followers without dueling).
    pub fn group(&self, set: u64) -> SetGroup {
        if !self.dueling {
            return SetGroup::Follower;
        }
        // Constituency sampling: use high-entropy middle bits so monitor
        // sets spread across rows and banks.
        let h = (set ^ (set >> self.sample_shift)).wrapping_mul(0x9E37_79B9);
        match h % (1u64 << self.sample_shift) {
            0 => SetGroup::BaselineMonitor,
            1 => SetGroup::BypassMonitor,
            _ => SetGroup::Follower,
        }
    }

    /// Whether the followers currently use PB.
    pub fn follower_uses_pb(&self) -> bool {
        !self.dueling || self.use_pb
    }

    /// Current duel counters `[baseline misses, baseline accesses,
    /// PB misses, PB accesses]` (telemetry snapshot; all zero without
    /// dueling).
    pub fn duel_counters(&self) -> [u16; 4] {
        self.counters
    }

    /// Records the outcome of a demand lookup on `set` (dueling bookkeeping).
    pub fn record_access(&mut self, set: u64, hit: bool) {
        if !self.dueling {
            return;
        }
        let base = match self.group(set) {
            SetGroup::BaselineMonitor => 0,
            SetGroup::BypassMonitor => 2,
            SetGroup::Follower => return,
        };
        if !hit {
            self.counters[base] = self.counters[base].saturating_add(1);
        }
        let acc = &mut self.counters[base + 1];
        *acc = acc.saturating_add(1);
        if *acc >= self.duel_threshold {
            self.update_mode();
            for c in self.counters.iter_mut() {
                *c >>= 1;
            }
        }
    }

    /// Overrides the tolerated hit-rate loss to `2^-shift` (the paper's Δ
    /// sensitivity study, Section 4.2).
    ///
    /// # Panics
    ///
    /// Panics if `shift` is zero or over 15.
    pub fn set_delta_shift(&mut self, shift: u32) {
        assert!((1..=15).contains(&shift), "delta shift out of range");
        self.delta_shift = shift;
    }

    fn update_mode(&mut self) {
        let [m_base, a_base, m_pb, a_pb] = self.counters.map(u64::from);
        if a_base == 0 || a_pb == 0 {
            return;
        }
        // hit_pb / a_pb >= (hit_base / a_base) * (1 - 2^-delta_shift),
        // evaluated in integers: h_pb * a_base * 2^k >= h_base * a_pb * (2^k - 1).
        let h_base = a_base - m_base.min(a_base);
        let h_pb = a_pb - m_pb.min(a_pb);
        let lhs = h_pb * a_base * (1u64 << self.delta_shift);
        let rhs = h_base * a_pb * ((1u64 << self.delta_shift) - 1);
        let new_mode = lhs >= rhs;
        if new_mode != self.use_pb {
            self.use_pb = new_mode;
            self.mode_changes += 1;
        }
    }

    /// Decides whether the miss fill for `set` should be bypassed, and
    /// records the decision.
    pub fn should_bypass(&mut self, set: u64) -> bool {
        let policy_is_pb = match self.group(set) {
            SetGroup::BaselineMonitor => false,
            SetGroup::BypassMonitor => true,
            SetGroup::Follower => self.follower_uses_pb(),
        };
        let bypass = policy_is_pb && self.rng.chance(self.bypass_prob);
        if bypass {
            self.bypassed += 1;
        } else {
            self.filled += 1;
        }
        bypass
    }

    /// Resets decision statistics (not the duel state).
    pub fn reset_stats(&mut self) {
        self.bypassed = 0;
        self.filled = 0;
        self.mode_changes = 0;
    }

    /// Storage cost in bytes: four 16-bit counters + mode bit, per the
    /// paper's "8 bytes per thread" Table 5 entry.
    pub fn storage_bytes(&self) -> u64 {
        if self.dueling {
            8
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_fill_never_bypasses() {
        let mut p = BypassPolicy::always_fill();
        for set in 0..1000 {
            assert!(!p.should_bypass(set));
        }
        assert_eq!(p.bypassed, 0);
        assert_eq!(p.filled, 1000);
    }

    #[test]
    fn probabilistic_rate_tracks_p() {
        let mut p = BypassPolicy::probabilistic(0.9);
        for set in 0..20_000 {
            p.should_bypass(set);
        }
        let rate = p.bypassed as f64 / (p.bypassed + p.filled) as f64;
        assert!((rate - 0.9).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn monitor_groups_partition_sets() {
        let p = BypassPolicy::paper_bab();
        let mut counts = [0u64; 3];
        let n = 1 << 20;
        for set in 0..n {
            match p.group(set) {
                SetGroup::BaselineMonitor => counts[0] += 1,
                SetGroup::BypassMonitor => counts[1] += 1,
                SetGroup::Follower => counts[2] += 1,
            }
        }
        let frac0 = counts[0] as f64 / n as f64;
        let frac1 = counts[1] as f64 / n as f64;
        assert!((frac0 - 1.0 / 32.0).abs() < 0.01, "baseline frac {frac0}");
        assert!((frac1 - 1.0 / 32.0).abs() < 0.01, "bypass frac {frac1}");
        assert!(counts[2] > counts[0] + counts[1]);
    }

    #[test]
    fn baseline_monitor_sets_always_fill() {
        let mut p = BypassPolicy::paper_bab();
        let set = (0..1u64 << 20)
            .find(|&s| p.group(s) == SetGroup::BaselineMonitor)
            .unwrap();
        for _ in 0..100 {
            assert!(!p.should_bypass(set));
        }
    }

    #[test]
    fn duel_disables_pb_when_it_hurts() {
        let mut p = BypassPolicy::paper_bab();
        assert!(p.follower_uses_pb(), "PB starts enabled");
        let base_set = (0..1u64 << 22)
            .find(|&s| p.group(s) == SetGroup::BaselineMonitor)
            .unwrap();
        let pb_set = (0..1u64 << 22)
            .find(|&s| p.group(s) == SetGroup::BypassMonitor)
            .unwrap();
        // Baseline hits everything; PB misses everything → PB must turn off.
        for _ in 0..2048 {
            p.record_access(base_set, true);
            p.record_access(pb_set, false);
        }
        assert!(!p.follower_uses_pb());
        assert!(p.mode_changes >= 1);
    }

    #[test]
    fn duel_keeps_pb_when_miss_rates_similar() {
        let mut p = BypassPolicy::paper_bab();
        let base_set = (0..1u64 << 22)
            .find(|&s| p.group(s) == SetGroup::BaselineMonitor)
            .unwrap();
        let pb_set = (0..1u64 << 22)
            .find(|&s| p.group(s) == SetGroup::BypassMonitor)
            .unwrap();
        // Both monitors miss ~40%: PB hit rate within 15/16 of baseline.
        let mut rng = SimRng::new(1);
        for _ in 0..8192 {
            p.record_access(base_set, rng.chance(0.6));
            p.record_access(pb_set, rng.chance(0.59));
        }
        assert!(p.follower_uses_pb());
    }

    #[test]
    fn duel_tolerates_small_hit_rate_loss() {
        // Within the 15/16 boundary with margin for sampling noise:
        // hit_base = 0.64 → tolerated floor 0.60; hit_pb = 0.63.
        let mut p = BypassPolicy::paper_bab();
        let base_set = (0..1u64 << 22)
            .find(|&s| p.group(s) == SetGroup::BaselineMonitor)
            .unwrap();
        let pb_set = (0..1u64 << 22)
            .find(|&s| p.group(s) == SetGroup::BypassMonitor)
            .unwrap();
        let mut rng = SimRng::new(2);
        for _ in 0..8192 {
            p.record_access(base_set, rng.chance(0.64));
            p.record_access(pb_set, rng.chance(0.63));
        }
        assert!(p.follower_uses_pb(), "2% absolute loss is within Δ");
    }

    /// Builds a paper-config policy, runs a crafted duel-set trace with
    /// `h_pb` PB-monitor hits out of 511, all 512 baseline accesses
    /// hitting, and returns the resulting mode bit. The final baseline
    /// access drives `a_base` to the 512 duel threshold, so the duel is
    /// evaluated exactly once, with counters (m_base=0, a_base=512,
    /// m_pb=511-h_pb, a_pb=511) — no sampling noise anywhere.
    fn mode_after_crafted_duel(h_pb: u64) -> bool {
        let mut p = BypassPolicy::paper_bab();
        assert!(p.follower_uses_pb(), "PB starts enabled");
        let base_set = (0..1u64 << 22)
            .find(|&s| p.group(s) == SetGroup::BaselineMonitor)
            .unwrap();
        let pb_set = (0..1u64 << 22)
            .find(|&s| p.group(s) == SetGroup::BypassMonitor)
            .unwrap();
        for i in 0..511 {
            p.record_access(base_set, true);
            p.record_access(pb_set, i < h_pb);
        }
        p.record_access(base_set, true);
        p.follower_uses_pb()
    }

    #[test]
    fn duel_disengages_exactly_at_delta_one_sixteenth() {
        // The Δ = 1/16 boundary, pinned to the exact integer comparison
        // h_pb · a_base · 16 ≥ h_base · a_pb · 15 with h_base = a_base =
        // 512 and a_pb = 511: PB survives iff h_pb ≥ ⌈511 · 15/16⌉ = 480.
        assert!(
            mode_after_crafted_duel(480),
            "h_pb = 480 (hit-rate loss just inside Δ) must keep PB on"
        );
        assert!(
            !mode_after_crafted_duel(479),
            "h_pb = 479 (loss just beyond Δ) must disengage PB"
        );
        // Far side sanity: a heavy loss also disengages.
        assert!(!mode_after_crafted_duel(300));
    }

    #[test]
    fn counters_halve_on_threshold() {
        let mut p = BypassPolicy::paper_bab();
        let base_set = (0..1u64 << 22)
            .find(|&s| p.group(s) == SetGroup::BaselineMonitor)
            .unwrap();
        for _ in 0..512 {
            p.record_access(base_set, false);
        }
        // After the duel evaluation everything shifted right once.
        assert!(p.counters[1] <= 256);
    }

    #[test]
    fn storage_matches_table5() {
        assert_eq!(BypassPolicy::paper_bab().storage_bytes(), 8);
        assert_eq!(BypassPolicy::probabilistic(0.9).storage_bytes(), 0);
    }

    #[test]
    fn reset_stats_clears_decisions_only() {
        let mut p = BypassPolicy::probabilistic(1.0);
        p.should_bypass(3);
        p.reset_stats();
        assert_eq!(p.bypassed + p.filled, 0);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_probability_panics() {
        BypassPolicy::probabilistic(1.5);
    }
}

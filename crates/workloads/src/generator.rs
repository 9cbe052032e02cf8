//! Synthetic trace generation.
//!
//! [`TraceGenerator`] turns a [`BenchmarkProfile`] into an infinite,
//! deterministic stream of [`TraceEvent`]s. The model is a two-region
//! mixture with sequential runs:
//!
//! - each *run* targets the hot region (probability `hot_prob`) or the cold
//!   region, starting at a random line within the region;
//! - the run covers a geometric number of consecutive lines (mean
//!   `seq_mean`), capturing spatial locality (row-buffer hits, NTC wins);
//! - accesses are stores with probability `write_frac`;
//! - `inst_gap` spaces accesses so that L3 accesses arrive at the profile's
//!   APKI.
//!
//! The hot/cold split produces temporal reuse skew: the hot region is small
//! enough to be retained by the DRAM cache (and partially by the L3), so
//! hit-rate-sensitive behaviour (GemsFDTD, zeusmp in Figure 5) emerges from
//! the profile knobs rather than being hard-coded.
//!
//! A third ingredient models *short-term* recency: with probability
//! `1 - mpki/apki` an access revisits one of the last few hundred lines
//! touched. Those accesses hit the on-chip L3, which is how the generator
//! realizes the profile's L3 MPKI from its APKI.

use crate::profile::BenchmarkProfile;
use bear_sim::rng::SimRng;

/// Lines remembered for short-term reuse. Small enough that revisits land
/// within an L3-sized reuse distance even at the smallest scaled L3.
const RECENT_RING: usize = 96;

/// One synthetic reference reaching the L3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Instructions retired since the previous event (≥ 1).
    pub inst_gap: u32,
    /// Byte address (64 B aligned).
    pub addr: u64,
    /// Store (may dirty the L3 line) vs. load.
    pub is_store: bool,
    /// Synthetic program counter of the instruction (for MAP-I).
    pub pc: u64,
}

/// An infinite source of trace events.
///
/// Implemented by [`TraceGenerator`]; kept as a trait so tests and examples
/// can inject scripted traces.
pub trait TraceSource {
    /// Produces the next event. Never exhausts.
    fn next_event(&mut self) -> TraceEvent;

    /// Name for reporting.
    fn name(&self) -> &str;
}

/// Deterministic synthetic trace generator for one benchmark instance.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    profile: BenchmarkProfile,
    base_addr: u64,
    footprint_lines: u64,
    hot_lines: u64,
    rng: SimRng,
    /// Current position (line index within footprint).
    pos: u64,
    /// Remaining lines in the current sequential run.
    run_left: u64,
    /// Whether the current run is in the hot region.
    in_hot: bool,
    /// Current run's synthetic PC.
    pc: u64,
    /// Carry for fractional instruction gaps.
    gap_carry: f64,
    /// Recently touched lines (short-term reuse pool).
    recent: Vec<u64>,
    /// Next slot to overwrite in `recent`.
    recent_at: usize,
    /// Probability an access revisits a recent line (≈ 1 − MPKI/APKI).
    reuse_prob: f64,
}

impl TraceGenerator {
    /// Creates a generator for `profile`.
    ///
    /// `base_addr` offsets the whole footprint (distinct per core so mixes
    /// never collide, mirroring the paper's virtual-memory setup);
    /// `scale_shift` jointly scales the footprint with the rest of the
    /// system; `seed` selects the deterministic stream.
    pub fn new(profile: BenchmarkProfile, base_addr: u64, scale_shift: u32, seed: u64) -> Self {
        let footprint_lines = profile.scaled_footprint_lines(scale_shift);
        let hot_lines = ((footprint_lines as f64 * profile.hot_frac) as u64).max(64);
        let reuse_prob = (1.0 - profile.mpki / profile.apki).clamp(0.0, 0.9);
        TraceGenerator {
            profile,
            base_addr,
            footprint_lines,
            hot_lines: hot_lines.min(footprint_lines),
            rng: SimRng::new(seed ^ 0xBEA2_2015),
            pos: 0,
            run_left: 0,
            in_hot: false,
            pc: 0,
            gap_carry: 0.0,
            recent: Vec::with_capacity(RECENT_RING),
            recent_at: 0,
            reuse_prob,
        }
    }

    fn remember(&mut self, line: u64) {
        if self.recent.len() < RECENT_RING {
            self.recent.push(line);
        } else {
            self.recent[self.recent_at] = line;
            self.recent_at = (self.recent_at + 1) % RECENT_RING;
        }
    }

    /// The profile driving this generator.
    pub fn profile(&self) -> &BenchmarkProfile {
        &self.profile
    }

    fn start_run(&mut self) {
        self.in_hot = self.rng.chance(self.profile.hot_prob);
        let (lo, len) = if self.in_hot {
            (0, self.hot_lines)
        } else {
            (
                self.hot_lines,
                (self.footprint_lines - self.hot_lines).max(1),
            )
        };
        self.pos = lo + self.rng.next_below(len);
        self.run_left = self.rng.geometric(self.profile.seq_mean);
        // PC correlates with the region and a coarse position bucket so that
        // MAP-I sees stable per-PC behaviour.
        let bucket = self.pos >> 6;
        let h = bucket
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(17)
            .wrapping_add(self.in_hot as u64);
        self.pc = 0x40_0000 + (h % self.profile.pc_count as u64) * 4;
    }
}

impl TraceSource for TraceGenerator {
    fn next_event(&mut self) -> TraceEvent {
        // Short-term reuse: revisit a recent line (lands in the L3).
        let reuse = !self.recent.is_empty() && self.rng.chance(self.reuse_prob);
        let line = if reuse {
            self.recent[self.rng.next_below(self.recent.len() as u64) as usize]
        } else {
            if self.run_left == 0 {
                self.start_run();
            }
            let line = self.pos % self.footprint_lines;
            self.pos = (self.pos + 1) % self.footprint_lines;
            self.run_left -= 1;
            self.remember(line);
            line
        };

        // Instruction gap with deterministic fractional carry.
        let mean_gap = self.profile.inst_per_access();
        let jitter = 0.5 + self.rng.next_f64(); // uniform in [0.5, 1.5)
        let gap_f = mean_gap * jitter + self.gap_carry;
        let gap = gap_f.floor().max(1.0);
        self.gap_carry = gap_f - gap;

        TraceEvent {
            inst_gap: gap as u32,
            addr: self.base_addr + line * 64,
            is_store: self.rng.chance(self.profile.write_frac),
            pc: self.pc,
        }
    }

    fn name(&self) -> &str {
        self.profile.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::BenchmarkProfile;

    fn generator(name: &str, seed: u64) -> TraceGenerator {
        TraceGenerator::new(BenchmarkProfile::by_name(name).unwrap(), 0, 3, seed)
    }

    #[test]
    fn determinism() {
        let mut a = generator("mcf", 1);
        let mut b = generator("mcf", 1);
        for _ in 0..1000 {
            assert_eq!(a.next_event(), b.next_event());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = generator("mcf", 1);
        let mut b = generator("mcf", 2);
        let same = (0..100)
            .filter(|_| a.next_event().addr == b.next_event().addr)
            .count();
        assert!(same < 10);
    }

    #[test]
    fn addresses_stay_in_scaled_footprint() {
        let mut g = generator("sphinx3", 3);
        let bound = g.footprint_lines * 64;
        for _ in 0..10_000 {
            let e = g.next_event();
            assert!(e.addr < bound);
            assert_eq!(e.addr % 64, 0);
        }
    }

    #[test]
    fn base_address_offsets_everything() {
        let p = BenchmarkProfile::by_name("gcc").unwrap();
        let mut g = TraceGenerator::new(p, 1 << 40, 3, 5);
        for _ in 0..1000 {
            assert!(g.next_event().addr >= 1 << 40);
        }
    }

    #[test]
    fn store_fraction_tracks_profile() {
        let mut g = generator("lbm", 9);
        let expect = g.profile().write_frac;
        let n = 50_000;
        let stores = (0..n).filter(|_| g.next_event().is_store).count();
        let frac = stores as f64 / n as f64;
        assert!(
            (frac - expect).abs() < 0.02,
            "store frac {frac} vs {expect}"
        );
    }

    #[test]
    fn mean_gap_tracks_apki() {
        let mut g = generator("mcf", 11); // apki 110 → mean gap ≈ 9.09
        let n = 50_000;
        let total: u64 = (0..n).map(|_| g.next_event().inst_gap as u64).sum();
        let mean = total as f64 / n as f64;
        let expect = 1000.0 / 110.0;
        assert!((mean - expect).abs() < 0.8, "mean gap {mean} vs {expect}");
    }

    #[test]
    fn streaming_profiles_have_long_runs() {
        let mut g = generator("libquantum", 13); // seq_mean = 24
        let mut seq = 0usize;
        let mut prev = None;
        let n = 20_000;
        for _ in 0..n {
            let a = g.next_event().addr;
            if let Some(p) = prev {
                if a == p + 64 {
                    seq += 1;
                }
            }
            prev = Some(a);
        }
        let frac = seq as f64 / n as f64;
        // Short-term reuse revisits interleave with the streams, so the
        // observed fraction is the run fraction times (1 - reuse)^2-ish.
        assert!(frac > 0.45, "sequential fraction {frac}");
    }

    #[test]
    fn pointer_chasing_profiles_have_short_runs() {
        let mut g = generator("mcf", 13); // seq_mean = 1.2
        let mut seq = 0usize;
        let mut prev = None;
        let n = 20_000;
        for _ in 0..n {
            let a = g.next_event().addr;
            if let Some(p) = prev {
                if a == p + 64 {
                    seq += 1;
                }
            }
            prev = Some(a);
        }
        let frac = seq as f64 / n as f64;
        assert!(frac < 0.4, "sequential fraction {frac}");
    }

    #[test]
    fn hot_region_receives_its_share() {
        let mut g = generator("GemsFDTD", 21);
        let hot_prob = g.profile().hot_prob;
        let hot_bound = g.hot_lines * 64;
        let n = 50_000;
        let hot = (0..n).filter(|_| g.next_event().addr < hot_bound).count();
        let frac = hot as f64 / n as f64;
        // Reuse revisits sample past accesses, which preserves the hot/cold
        // mixture in expectation.
        assert!(
            (frac - hot_prob).abs() < 0.05,
            "hot frac {frac} vs {hot_prob}"
        );
    }

    #[test]
    fn pcs_are_bounded_and_aligned() {
        let mut g = generator("gcc", 3);
        let pcs: std::collections::HashSet<u64> = (0..10_000).map(|_| g.next_event().pc).collect();
        assert!(pcs.len() <= 96);
        assert!(pcs.iter().all(|pc| pc % 4 == 0 && *pc >= 0x40_0000));
    }

    #[test]
    fn name_reports_profile() {
        assert_eq!(generator("wrf", 0).name(), "wrf");
    }
}

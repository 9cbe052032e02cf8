//! MAP-I: instruction-based DRAM-cache hit/miss prediction.
//!
//! The Alloy Cache pairs its serialized tags-in-DRAM lookup with a *Memory
//! Access Predictor* so that predicted misses launch the off-chip memory
//! access in parallel with the cache probe (hiding the probe latency) while
//! predicted hits access only the cache (saving memory bandwidth). MAP-I
//! indexes a small table of saturating counters with a hash of the
//! miss-causing instruction's PC, one table per core.

/// Predictor organization (both from the Alloy Cache paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PredictorKind {
    /// Instruction-indexed: a per-core table of counters hashed by PC
    /// (the paper's baseline choice).
    #[default]
    MapI,
    /// Global: one counter per core, tracking overall hit/miss bias —
    /// cheaper but blind to per-instruction behaviour.
    MapG,
}

/// Per-core table of 3-bit saturating counters indexed by PC hash (MAP-I),
/// degenerating to a single global counter per core in MAP-G mode.
#[derive(Debug, Clone)]
pub struct MapIPredictor {
    tables: Vec<Vec<u8>>,
    entries_per_core: usize,
    kind: PredictorKind,
    /// Predictions that later proved correct.
    pub correct: u64,
    /// Predictions that later proved wrong.
    pub wrong: u64,
}

/// Counter ceiling (3-bit).
const MAX: u8 = 7;
/// Threshold at or above which a hit is predicted.
const HIT_THRESHOLD: u8 = 4;

impl MapIPredictor {
    /// Creates predictor state for `cores` cores with `entries_per_core`
    /// counters each (the Alloy paper uses 256 entries of 3 bits per core).
    ///
    /// Counters start at `MAX` (predict hit), matching a cold cache being
    /// warmed optimistically — mispredictions quickly train them down.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(cores: usize, entries_per_core: usize) -> Self {
        Self::with_kind(cores, entries_per_core, PredictorKind::MapI)
    }

    /// Creates predictor state with an explicit organization; MAP-G forces
    /// one entry per core.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn with_kind(cores: usize, entries_per_core: usize, kind: PredictorKind) -> Self {
        assert!(cores > 0 && entries_per_core > 0);
        let entries = match kind {
            PredictorKind::MapI => entries_per_core,
            PredictorKind::MapG => 1,
        };
        MapIPredictor {
            tables: vec![vec![MAX; entries]; cores],
            entries_per_core: entries,
            kind,
            correct: 0,
            wrong: 0,
        }
    }

    /// The predictor organization in force.
    pub fn kind(&self) -> PredictorKind {
        self.kind
    }

    #[inline]
    fn index(&self, pc: u64) -> usize {
        match self.kind {
            // Fibonacci hash of the PC, folded into the table.
            PredictorKind::MapI => {
                ((pc.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize) % self.entries_per_core
            }
            PredictorKind::MapG => 0,
        }
    }

    /// Predicts whether the access by instruction `pc` on `core` will hit
    /// in the DRAM cache.
    pub fn predict_hit(&self, core: u32, pc: u64) -> bool {
        let idx = self.index(pc);
        self.tables[core as usize][idx] >= HIT_THRESHOLD
    }

    /// Trains the predictor with the observed outcome and updates accuracy
    /// accounting.
    pub fn train(&mut self, core: u32, pc: u64, was_hit: bool) {
        let idx = self.index(pc);
        let ctr = &mut self.tables[core as usize][idx];
        let predicted_hit = *ctr >= HIT_THRESHOLD;
        if predicted_hit == was_hit {
            self.correct += 1;
        } else {
            self.wrong += 1;
        }
        if was_hit {
            if *ctr < MAX {
                *ctr += 1;
            }
        } else if *ctr > 0 {
            *ctr -= 1;
        }
    }

    /// Resets accuracy accounting (not the learned counters).
    pub fn reset_stats(&mut self) {
        self.correct = 0;
        self.wrong = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fraction of trained outcomes that were predicted correctly.
    fn accuracy(p: &MapIPredictor) -> f64 {
        let total = p.correct + p.wrong;
        if total == 0 {
            1.0
        } else {
            p.correct as f64 / total as f64
        }
    }

    #[test]
    fn starts_predicting_hit() {
        let p = MapIPredictor::new(2, 64);
        assert!(p.predict_hit(0, 0x400000));
        assert!(p.predict_hit(1, 0x400700));
    }

    #[test]
    fn trains_toward_misses_and_back() {
        let mut p = MapIPredictor::new(1, 64);
        let pc = 0x400040;
        for _ in 0..8 {
            p.train(0, pc, false);
        }
        assert!(!p.predict_hit(0, pc));
        for _ in 0..8 {
            p.train(0, pc, true);
        }
        assert!(p.predict_hit(0, pc));
    }

    #[test]
    fn counters_saturate() {
        let mut p = MapIPredictor::new(1, 4);
        let pc = 0x1234;
        for _ in 0..100 {
            p.train(0, pc, false);
        }
        // One hit must not flip an deeply-trained miss prediction.
        p.train(0, pc, true);
        assert!(!p.predict_hit(0, pc));
    }

    #[test]
    fn per_core_tables_are_independent() {
        let mut p = MapIPredictor::new(2, 64);
        let pc = 0x400100;
        for _ in 0..8 {
            p.train(0, pc, false);
        }
        assert!(!p.predict_hit(0, pc));
        assert!(p.predict_hit(1, pc), "core 1 untouched");
    }

    #[test]
    fn stable_behaviour_is_predicted_accurately() {
        let mut p = MapIPredictor::new(1, 256);
        // PC A always hits, PC B always misses.
        for _ in 0..1000 {
            let pred_a = p.predict_hit(0, 0xA000);
            p.train(0, 0xA000, true);
            let pred_b = p.predict_hit(0, 0xB000);
            p.train(0, 0xB000, false);
            let _ = (pred_a, pred_b);
        }
        assert!(accuracy(&p) > 0.95, "accuracy {}", accuracy(&p));
    }

    #[test]
    fn accuracy_reset() {
        let mut p = MapIPredictor::new(1, 16);
        p.train(0, 1, true);
        p.reset_stats();
        assert_eq!(p.correct + p.wrong, 0);
        assert_eq!(accuracy(&p), 1.0);
    }

    #[test]
    fn storage_cost_matches_shape() {
        // MAP-I: 8 cores × 256 three-bit counters.
        let p = MapIPredictor::new(8, 256);
        assert_eq!(p.tables.len() * p.entries_per_core * 3, 8 * 256 * 3);
    }

    #[test]
    #[should_panic]
    fn zero_shape_panics() {
        MapIPredictor::new(0, 16);
    }

    #[test]
    fn mapg_shares_one_counter_per_core() {
        let mut p = MapIPredictor::with_kind(1, 256, PredictorKind::MapG);
        assert_eq!(p.kind(), PredictorKind::MapG);
        assert_eq!(p.tables.len() * p.entries_per_core, 1);
        // Training one PC flips the prediction for every PC.
        for _ in 0..8 {
            p.train(0, 0xAAAA, false);
        }
        assert!(!p.predict_hit(0, 0xBBBB));
    }

    #[test]
    fn mapg_cannot_separate_mixed_pcs() {
        // PC A always hits, PC B always misses: MAP-I learns both, MAP-G
        // cannot do better than the majority.
        let mut map_i = MapIPredictor::with_kind(1, 256, PredictorKind::MapI);
        let mut map_g = MapIPredictor::with_kind(1, 256, PredictorKind::MapG);
        for _ in 0..2000 {
            for (pc, hit) in [(0xA000u64, true), (0xB000, false)] {
                let _ = map_i.predict_hit(0, pc);
                map_i.train(0, pc, hit);
                let _ = map_g.predict_hit(0, pc);
                map_g.train(0, pc, hit);
            }
        }
        assert!(
            accuracy(&map_i) > accuracy(&map_g) + 0.2,
            "MAP-I {} should clearly beat MAP-G {}",
            accuracy(&map_i),
            accuracy(&map_g)
        );
    }
}

//! System configuration.
//!
//! [`SystemConfig`] captures Table 1 of the paper plus the knobs the
//! evaluation sweeps: the DRAM-cache design, BEAR feature set, cache
//! bandwidth and capacity, bank count, and the joint scale factor that
//! shrinks capacity-like quantities for tractable simulation (DESIGN.md §2).

use crate::bab::BypassPolicy;
use crate::predictor::PredictorKind;
use bear_cpu::CoreConfig;
use bear_dram::config::DramConfig;
use bear_sim::error::SimError;

/// Which DRAM-cache organization the system uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DesignKind {
    /// No DRAM cache: all LLC misses go to commodity memory (the Figure 17
    /// normalization baseline).
    NoCache,
    /// The direct-mapped Alloy Cache with MAP-I (the paper's baseline).
    Alloy,
    /// Alloy with the inclusion property (Section 7.5's Incl-Alloy).
    InclusiveAlloy,
    /// The idealized Bandwidth-Optimized cache: secondary operations are
    /// performed logically but consume no cache bandwidth.
    BwOpt,
    /// Loh-Hill: 29-way sets in a row, MissMap with 24-cycle latency.
    LohHill,
    /// Mostly-Clean: Loh-Hill with zero-latency perfect hit/miss dispatch.
    MostlyClean,
    /// Tags-in-SRAM: idealized 32-way on-chip tag store (Section 8).
    TagsInSram,
    /// Sector Cache: 4 KB sectors, on-chip sector tags (Section 8).
    SectorCache,
}

impl DesignKind {
    /// Every design, in catalogue order.
    pub const ALL: [DesignKind; 8] = [
        DesignKind::NoCache,
        DesignKind::Alloy,
        DesignKind::InclusiveAlloy,
        DesignKind::BwOpt,
        DesignKind::LohHill,
        DesignKind::MostlyClean,
        DesignKind::TagsInSram,
        DesignKind::SectorCache,
    ];

    /// The design whose [`label`](DesignKind::label) is `label`.
    pub fn from_label(label: &str) -> Option<DesignKind> {
        DesignKind::ALL.into_iter().find(|d| d.label() == label)
    }

    /// Display name used by the harness.
    pub fn label(self) -> &'static str {
        match self {
            DesignKind::NoCache => "NoL4",
            DesignKind::Alloy => "Alloy",
            DesignKind::InclusiveAlloy => "Incl-Alloy",
            DesignKind::BwOpt => "BW-Opt",
            DesignKind::LohHill => "LH",
            DesignKind::MostlyClean => "MC",
            DesignKind::TagsInSram => "TIS",
            DesignKind::SectorCache => "SC",
        }
    }
}

/// Which bypass policy an Alloy-family cache uses for miss fills.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FillPolicy {
    /// Always fill (the baseline).
    AlwaysFill,
    /// Plain probabilistic bypass at the given probability (Figure 5).
    Probabilistic(f64),
    /// Bandwidth-Aware Bypass at the given probability (Section 4.2).
    BandwidthAware(f64),
}

impl FillPolicy {
    /// Builds the runtime policy engine.
    pub fn build(self) -> BypassPolicy {
        match self {
            FillPolicy::AlwaysFill => BypassPolicy::always_fill(),
            FillPolicy::Probabilistic(p) => BypassPolicy::probabilistic(p),
            FillPolicy::BandwidthAware(p) => BypassPolicy::bandwidth_aware(p, 5),
        }
    }
}

/// The three BEAR component techniques (only meaningful for the Alloy
/// family).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BearFeatures {
    /// Miss-fill policy (BAB is the first BEAR component).
    pub fill_policy: FillPolicy,
    /// DRAM Cache Presence bit in the L3 (second component).
    pub dcp: bool,
    /// Neighboring Tag Cache (third component).
    pub ntc: bool,
    /// Extension (paper §9.4): additionally cache the *demanded* set's own
    /// tag in the NTC — a temporal tag cache layered on the spatial one.
    /// The paper notes the two are orthogonal and combinable.
    pub ntc_temporal: bool,
}

impl BearFeatures {
    /// Baseline Alloy: no BEAR techniques.
    pub fn none() -> Self {
        BearFeatures {
            fill_policy: FillPolicy::AlwaysFill,
            dcp: false,
            ntc: false,
            ntc_temporal: false,
        }
    }

    /// BAB only (Figure 7).
    pub fn bab() -> Self {
        BearFeatures {
            fill_policy: FillPolicy::BandwidthAware(0.9),
            ..Self::none()
        }
    }

    /// BAB + DCP (Figure 9).
    pub fn bab_dcp() -> Self {
        BearFeatures {
            dcp: true,
            ..Self::bab()
        }
    }

    /// Full BEAR: BAB + DCP + NTC (Figure 11 onward).
    pub fn full() -> Self {
        BearFeatures {
            ntc: true,
            ..Self::bab_dcp()
        }
    }

    /// BEAR plus the §9.4 temporal-tag extension.
    pub fn full_with_temporal_ntc() -> Self {
        BearFeatures {
            ntc_temporal: true,
            ..Self::full()
        }
    }
}

/// Joint capacity/budget scale presets (`--scale {1/512,1/64,1/8,1}`).
///
/// The paper evaluates a 1 GB L4; development campaigns run
/// shrunken-but-proportional systems instead. A preset couples the two
/// halves of that shrink: the capacity shift (L4/L3 sizes and therefore
/// set counts, via [`SystemConfig::scale_shift`]) and the instruction
/// budget (warmup/measure windows must grow with capacity or the larger
/// cache never warms). This replaces the ad-hoc fixed 2 MB default the
/// experiment harness used to hardcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ScalePreset {
    /// 1/512 of full scale: 2 MB L4, 1× cycle budget (the historical
    /// harness default).
    #[default]
    Half512,
    /// 1/64 of full scale: 16 MB L4, 2× cycle budget.
    Half64,
    /// 1/8 of full scale: 128 MB L4, 4× cycle budget.
    Half8,
    /// Full scale: 1 GB L4, 8× cycle budget (the gigascale demo point).
    Full,
}

impl ScalePreset {
    /// Every preset, smallest first.
    pub const ALL: [ScalePreset; 4] = [
        ScalePreset::Half512,
        ScalePreset::Half64,
        ScalePreset::Half8,
        ScalePreset::Full,
    ];

    /// Parses the CLI spelling (`1/512`, `1/64`, `1/8`, `1`).
    ///
    /// # Errors
    ///
    /// Returns a [`SimError::Config`] listing the accepted spellings.
    pub fn parse(raw: &str) -> Result<Self, SimError> {
        match raw.trim() {
            "1/512" => Ok(ScalePreset::Half512),
            "1/64" => Ok(ScalePreset::Half64),
            "1/8" => Ok(ScalePreset::Half8),
            "1" => Ok(ScalePreset::Full),
            other => Err(SimError::config(
                "--scale",
                format!("unknown preset {other:?} (expected 1/512, 1/64, 1/8, or 1)"),
            )),
        }
    }

    /// The CLI spelling.
    pub fn label(self) -> &'static str {
        match self {
            ScalePreset::Half512 => "1/512",
            ScalePreset::Half64 => "1/64",
            ScalePreset::Half8 => "1/8",
            ScalePreset::Full => "1",
        }
    }

    /// Capacity scale shift: capacities shrink by `2^shift`.
    pub fn shift(self) -> u32 {
        match self {
            ScalePreset::Half512 => 9,
            ScalePreset::Half64 => 6,
            ScalePreset::Half8 => 3,
            ScalePreset::Full => 0,
        }
    }

    /// Cycle-budget multiplier: larger caches need proportionally longer
    /// warmup and measurement windows to reach steady state.
    pub fn budget_factor(self) -> u64 {
        match self {
            ScalePreset::Half512 => 1,
            ScalePreset::Half64 => 2,
            ScalePreset::Half8 => 4,
            ScalePreset::Full => 8,
        }
    }

    /// Applies the preset's capacity half to a configuration (the budget
    /// half lives in the experiment plan, which owns the cycle windows).
    pub fn apply(self, cfg: &mut SystemConfig) {
        cfg.scale_shift = self.shift();
    }
}

/// Complete system configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// DRAM-cache organization.
    pub design: DesignKind,
    /// BEAR feature set (Alloy family only).
    pub bear: BearFeatures,
    /// Joint scale: capacities and footprints shrink by `2^scale_shift`
    /// (DESIGN.md §2). 0 reproduces the paper's full-size system.
    pub scale_shift: u32,
    /// DRAM-cache capacity at full scale, in bytes (1 GB baseline).
    pub l4_capacity_full: u64,
    /// L3 capacity at full scale, in bytes (8 MB baseline).
    pub l3_capacity_full: u64,
    /// L3 associativity (16 ways).
    pub l3_ways: u32,
    /// L3 access latency in CPU cycles (24).
    pub l3_latency: u64,
    /// Stacked-DRAM device configuration.
    pub cache_dram: DramConfig,
    /// Commodity-memory device configuration.
    pub mem_dram: DramConfig,
    /// Core parameters.
    pub core: CoreConfig,
    /// Whether writeback misses allocate in the DRAM cache.
    pub writeback_allocate: bool,
    /// BAB duel slack: tolerated hit-rate loss is `2^-bab_delta_shift`
    /// (the paper's Δ, Section 4.2; default 4 → Δ = 1/16).
    pub bab_delta_shift: u32,
    /// Hit/miss predictor organization (the Alloy paper's MAP-I baseline
    /// or the cheaper global MAP-G).
    pub predictor: PredictorKind,
    /// Deterministic seed for workload generation.
    pub seed: u64,
    /// Default warmup cycles before statistics reset.
    pub warmup_cycles: u64,
    /// Default measured cycles after warmup.
    pub measure_cycles: u64,
    /// Forward-progress watchdog window in cycles: if no core retires a
    /// single instruction for this many consecutive cycles,
    /// [`crate::system::System::run_monitored`] aborts with a typed
    /// `Stalled` outcome instead of spinning forever. `0` disables the
    /// watchdog.
    pub watchdog_window: u64,
}

impl SystemConfig {
    /// The paper's Table 1 system around the given design, at the default
    /// reduced scale (1/32: a 32 MB L4 and proportionally scaled L3 and
    /// footprints) that makes the full 54-workload evaluation tractable.
    pub fn paper_baseline(design: DesignKind) -> Self {
        SystemConfig {
            design,
            bear: BearFeatures::none(),
            scale_shift: 5,
            l4_capacity_full: 1 << 30,
            l3_capacity_full: 8 << 20,
            l3_ways: 16,
            l3_latency: 24,
            cache_dram: DramConfig::stacked_cache_8x(),
            mem_dram: DramConfig::commodity_memory(),
            core: CoreConfig::default(),
            writeback_allocate: true,
            bab_delta_shift: 4,
            predictor: PredictorKind::MapI,
            seed: 0x0BEA_2015,
            warmup_cycles: 2_000_000,
            measure_cycles: 4_000_000,
            watchdog_window: 1_000_000,
        }
    }

    /// Full BEAR on Alloy (the headline configuration).
    pub fn bear() -> Self {
        SystemConfig {
            bear: BearFeatures::full(),
            ..Self::paper_baseline(DesignKind::Alloy)
        }
    }

    /// Scaled DRAM-cache capacity in bytes.
    pub fn l4_capacity(&self) -> u64 {
        (self.l4_capacity_full >> self.scale_shift).max(1 << 20)
    }

    /// Scaled L3 capacity in bytes.
    pub fn l3_capacity(&self) -> u64 {
        (self.l3_capacity_full >> self.scale_shift).max(64 << 10)
    }

    /// DRAM-cache lines (= direct-mapped sets) at the scaled capacity.
    pub fn l4_lines(&self) -> u64 {
        self.l4_capacity() / 64
    }

    /// Validates cross-field consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError::Config`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), SimError> {
        self.cache_dram
            .validate()
            .map_err(|e| e.in_context("cache_dram"))?;
        self.mem_dram
            .validate()
            .map_err(|e| e.in_context("mem_dram"))?;
        if self.l3_capacity() >= self.l4_capacity() {
            return Err(SimError::config(
                "system",
                "L3 must be smaller than the DRAM cache",
            ));
        }
        if self.l3_latency == 0 {
            return Err(SimError::config("system", "L3 latency must be non-zero"));
        }
        if matches!(self.design, DesignKind::InclusiveAlloy)
            && !matches!(self.bear.fill_policy, FillPolicy::AlwaysFill)
        {
            return Err(SimError::config(
                "system",
                "inclusive caches cannot bypass fills (Section 5.1)",
            ));
        }
        Ok(())
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::paper_baseline(DesignKind::Alloy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table1_shape() {
        let c = SystemConfig::paper_baseline(DesignKind::Alloy);
        assert_eq!(c.l4_capacity_full, 1 << 30);
        assert_eq!(c.l3_capacity_full, 8 << 20);
        assert_eq!(c.l3_ways, 16);
        assert_eq!(c.l3_latency, 24);
        assert_eq!(c.cache_dram.topology.channels, 4);
        assert_eq!(c.mem_dram.topology.channels, 2);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn scaling_shrinks_jointly() {
        let c = SystemConfig::paper_baseline(DesignKind::Alloy);
        assert_eq!(c.l4_capacity(), 32 << 20);
        assert_eq!(c.l3_capacity(), 256 << 10);
        assert_eq!(c.l4_lines(), (32 << 20) / 64);
        let mut full = c.clone();
        full.scale_shift = 0;
        assert_eq!(full.l4_capacity(), 1 << 30);
    }

    #[test]
    fn scale_floors_apply() {
        let mut c = SystemConfig::paper_baseline(DesignKind::Alloy);
        c.scale_shift = 30;
        assert_eq!(c.l4_capacity(), 1 << 20);
        assert_eq!(c.l3_capacity(), 64 << 10);
    }

    #[test]
    fn scale_presets_round_trip_and_scale_jointly() {
        for preset in ScalePreset::ALL {
            assert_eq!(ScalePreset::parse(preset.label()).unwrap(), preset);
        }
        // Capacity shrink and budget growth move together: halving the
        // shift by 3 doubles the budget.
        assert_eq!(ScalePreset::Half512.shift(), 9);
        assert_eq!(ScalePreset::Full.shift(), 0);
        assert_eq!(ScalePreset::Half512.budget_factor(), 1);
        assert_eq!(ScalePreset::Full.budget_factor(), 8);
        let mut cfg = SystemConfig::paper_baseline(DesignKind::Alloy);
        ScalePreset::Half64.apply(&mut cfg);
        assert_eq!(cfg.l4_capacity(), 16 << 20);
        ScalePreset::Full.apply(&mut cfg);
        assert_eq!(cfg.l4_capacity(), 1 << 30);
    }

    #[test]
    fn scale_preset_rejects_unknown_spellings() {
        for bad in ["", "1/2", "0.5", "512", "full", "1 / 8"] {
            let err = ScalePreset::parse(bad).unwrap_err();
            assert_eq!(err.kind(), "config", "{bad:?} should be a config error");
            assert!(
                format!("{err}").contains("--scale"),
                "error should name the flag: {err}"
            );
        }
    }

    #[test]
    fn bear_config_enables_all_components() {
        let c = SystemConfig::bear();
        assert!(c.bear.dcp && c.bear.ntc);
        assert!(matches!(
            c.bear.fill_policy,
            FillPolicy::BandwidthAware(p) if (p - 0.9).abs() < 1e-12
        ));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn inclusive_rejects_bypass() {
        let mut c = SystemConfig::paper_baseline(DesignKind::InclusiveAlloy);
        assert!(c.validate().is_ok());
        c.bear.fill_policy = FillPolicy::Probabilistic(0.9);
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_catches_inverted_hierarchy() {
        let mut c = SystemConfig::paper_baseline(DesignKind::Alloy);
        c.l3_capacity_full = c.l4_capacity_full * 2;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_errors_carry_device_context() {
        let mut c = SystemConfig::paper_baseline(DesignKind::Alloy);
        c.mem_dram.sched_window = 0;
        let err = c.validate().unwrap_err();
        assert_eq!(err.kind(), "config");
        assert!(
            format!("{err}").contains("mem_dram"),
            "error should name the failing device: {err}"
        );
    }

    #[test]
    fn feature_presets_nest() {
        assert!(!BearFeatures::none().dcp);
        assert!(!BearFeatures::bab().dcp);
        assert!(BearFeatures::bab_dcp().dcp && !BearFeatures::bab_dcp().ntc);
        let full = BearFeatures::full();
        assert!(full.dcp && full.ntc);
    }

    #[test]
    fn design_labels_unique() {
        let kinds = DesignKind::ALL;
        let labels: std::collections::HashSet<_> = kinds.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), kinds.len());
        for kind in kinds {
            assert_eq!(DesignKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(DesignKind::from_label("alloy"), None);
    }

    #[test]
    fn fill_policy_builds_matching_engines() {
        assert_eq!(FillPolicy::AlwaysFill.build().storage_bytes(), 0);
        assert_eq!(FillPolicy::BandwidthAware(0.9).build().storage_bytes(), 8);
    }
}

//! The composable BEAR technique stack.
//!
//! The paper's central claim is that BAB, DCP, and NTC are *add-ons*
//! layered over an existing organization, and its ablation grid (B, BD,
//! BDN) switches them on independently. [`TechniqueStack`] owns all four
//! mechanisms (BAB, DCP, NTC, and the MAP-I predictor that NTC interacts
//! with) behind explicit hook points, so a controller never touches a
//! technique directly:
//!
//! - [`on_read_lookup`](TechniqueStack::on_read_lookup) — NTC consult +
//!   MAP-I prediction → a [`ReadPlan`] saying which legs to issue;
//! - [`on_fill_decision`](TechniqueStack::on_fill_decision) — BAB's
//!   fill-or-bypass verdict for a miss;
//! - [`on_writeback_probe`](TechniqueStack::on_writeback_probe) — DCP's
//!   may-skip-the-probe verdict for a writeback;
//! - [`on_tad_transfer`](TechniqueStack::on_tad_transfer) — neighbor-tag
//!   streaming into the NTC whenever a TAD crosses the bus;
//! - [`on_eviction`](TechniqueStack::on_eviction) — NTC coherence refresh
//!   whenever a set's contents change (fill, eviction, dirty update).
//!
//! The Alloy family calls every hook, reading its direct-mapped
//! [`DirectStore`] for the NTC; the other organizations call only
//! [`on_fill_decision`](TechniqueStack::on_fill_decision). The B/BD/BDN
//! ablations fall out of [`TechniqueStack::from_config`] rather than
//! special-cased controller code.

use crate::bab::BypassPolicy;
use crate::config::{DesignKind, FillPolicy, SystemConfig};
use crate::contents::DirectStore;
use crate::l4::placement::SetPlacement;
use crate::l4::ControllerProbe;
use crate::ntc::{NeighboringTagCache, NtcAnswer};
use crate::predictor::MapIPredictor;
use bear_sim::invariants::InvariantSink;
use bear_sim::time::Cycle;

/// What [`TechniqueStack::on_read_lookup`] decided for a demand read.
#[derive(Debug, Clone, Copy)]
pub struct ReadPlan {
    /// Issue the cache tag probe; without one the read is a known miss.
    pub issue_probe: bool,
    /// Issue the memory access at submit (in parallel with any probe).
    pub issue_parallel_mem: bool,
    /// The NTC's answer, for observation (`None` when no NTC is fitted).
    pub ntc_answer: Option<NtcAnswer>,
    /// MAP-I's prediction for this access.
    pub predicted_hit: bool,
}

impl ReadPlan {
    /// The plan for a read whose outcome is already `hit` (BW-Opt's
    /// perfect knowledge): probe a hit, send a miss straight to memory.
    pub fn known(hit: bool) -> Self {
        ReadPlan {
            issue_probe: hit,
            issue_parallel_mem: !hit,
            ntc_answer: None,
            predicted_hit: hit,
        }
    }

    /// Whether an issued probe should be classified as a Hit transfer at
    /// issue time: the NTC guaranteed presence, or MAP-I predicted a hit.
    /// (Issue-time classification follows the prediction; the aggregate
    /// split is corrected in metrics via actual hit/miss counts when
    /// exact attribution matters.)
    pub fn probe_class_is_hit(&self) -> bool {
        matches!(self.ntc_answer, Some(NtcAnswer::Present)) || self.predicted_hit
    }

    /// NTC squashed the parallel access the predictor wanted.
    pub fn squashed_parallel(&self) -> bool {
        matches!(self.ntc_answer, Some(NtcAnswer::Present)) && !self.predicted_hit
    }

    /// NTC guaranteed a miss over a clean victim, so no probe is issued.
    pub fn probe_avoided(&self) -> bool {
        matches!(self.ntc_answer, Some(NtcAnswer::AbsentClean))
    }
}

/// Which techniques a stack has enabled (for ablation-grid assertions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TechniqueSet {
    /// BAB set dueling is active.
    pub bab: bool,
    /// DCP presence hints are honored.
    pub dcp: bool,
    /// An NTC is fitted.
    pub ntc: bool,
    /// The §9.4 temporal-tag NTC extension is active.
    pub ntc_temporal: bool,
}

/// The BEAR techniques plus the MAP-I predictor, composed behind hooks.
#[derive(Debug)]
pub struct TechniqueStack {
    bypass: BypassPolicy,
    predictor: MapIPredictor,
    ntc: Option<NeighboringTagCache>,
    /// §9.4 extension: record the demanded set's own tag too.
    ntc_temporal: bool,
    dcp_enabled: bool,
}

impl TechniqueStack {
    /// Builds the stack `cfg` asks for, with `banks` NTC banks (one per
    /// DRAM bank of the organization's placement).
    ///
    /// Inclusive caches cannot bypass fills and the idealized BW-Opt
    /// models no-bypass contents, so both force the always-fill policy;
    /// every other design takes `cfg.bear.fill_policy` as configured.
    pub fn from_config(cfg: &SystemConfig, banks: usize) -> Self {
        let bypass = match cfg.design {
            DesignKind::InclusiveAlloy | DesignKind::BwOpt => BypassPolicy::always_fill(),
            _ => {
                let mut b = cfg.bear.fill_policy.build();
                if matches!(cfg.bear.fill_policy, FillPolicy::BandwidthAware(_)) {
                    b.set_delta_shift(cfg.bab_delta_shift);
                }
                b
            }
        };
        TechniqueStack {
            bypass,
            predictor: MapIPredictor::with_kind(8, 256, cfg.predictor),
            ntc: cfg
                .bear
                .ntc
                .then(|| NeighboringTagCache::new(banks.max(1), 8)),
            ntc_temporal: cfg.bear.ntc_temporal,
            dcp_enabled: cfg.bear.dcp,
        }
    }

    /// Which techniques are switched on.
    pub fn techniques(&self) -> TechniqueSet {
        TechniqueSet {
            bab: self.bypass.storage_bytes() > 0,
            dcp: self.dcp_enabled,
            ntc: self.ntc.is_some(),
            ntc_temporal: self.ntc_temporal,
        }
    }

    /// Hook: a demand read for (`set`, `tag`) arrives from `core` at `pc`.
    ///
    /// Consults the NTC first (Section 6.1), then MAP-I, and resolves the
    /// probe/parallel-memory decision matrix. The NTC lookup updates its
    /// hit/unknown statistics; the prediction itself is side-effect free.
    pub fn on_read_lookup(
        &mut self,
        placement: &SetPlacement,
        set: u64,
        tag: u64,
        core: u32,
        pc: u64,
    ) -> ReadPlan {
        let ntc_answer = self
            .ntc
            .as_mut()
            .map(|ntc| ntc.lookup(placement.global_bank(set), set, tag));
        let predicted_hit = self.predictor.predict_hit(core, pc);
        let (issue_probe, issue_parallel_mem) = match ntc_answer {
            // Guaranteed hit: probe only; squash any parallel access the
            // predictor would have issued.
            Some(NtcAnswer::Present) => (true, false),
            // Guaranteed miss over a clean victim: skip the probe.
            Some(NtcAnswer::AbsentClean) => (false, true),
            Some(NtcAnswer::AbsentDirty) | Some(NtcAnswer::Unknown) | None => {
                (true, !predicted_hit)
            }
        };
        ReadPlan {
            issue_probe,
            issue_parallel_mem,
            ntc_answer,
            predicted_hit,
        }
    }

    /// Hook: a demand miss resolved; should the line fill (`true`) or
    /// bypass (`false`)? Consumes one BAB decision (including its RNG
    /// draw), so call exactly once per resolved miss.
    pub fn on_fill_decision(&mut self, set: u64) -> bool {
        !self.bypass.should_bypass(set)
    }

    /// Hook: a writeback arrived with `dcp_hint`; may the probe be
    /// skipped? `always_present` carries the organization's own guarantee
    /// (e.g. inclusion).
    pub fn on_writeback_probe(&self, always_present: bool, dcp_hint: Option<bool>) -> bool {
        always_present || (self.dcp_enabled && dcp_hint == Some(true))
    }

    /// Hook: a TAD transfer of `set` crossed the bus. Streams the
    /// neighbor tag it carried into the NTC and, in temporal mode (§9.4),
    /// caches the demanded set's own tag as well.
    pub fn on_tad_transfer(&mut self, placement: &SetPlacement, store: &DirectStore, set: u64) {
        let temporal = self.ntc_temporal;
        let Some(ntc) = self.ntc.as_mut() else { return };
        if placement.has_neighbor(set, store.sets()) {
            let nset = set + 1;
            ntc.record_occupant(
                placement.global_bank(nset),
                nset,
                store.occupant(nset).as_ref(),
            );
        }
        if temporal {
            ntc.record_occupant(
                placement.global_bank(set),
                set,
                store.occupant(set).as_ref(),
            );
        }
    }

    /// Hook: the contents of `set` changed (fill, eviction, or dirty
    /// update). Refreshes an existing NTC entry for the set; the NTC
    /// inserts solely from neighbor-tag streaming, so absent entries stay
    /// absent.
    pub fn on_eviction(&mut self, placement: &SetPlacement, store: &DirectStore, set: u64) {
        let Some(ntc) = self.ntc.as_mut() else { return };
        let bank = placement.global_bank(set);
        if ntc.lookup_silent(bank, set) {
            ntc.record_occupant(bank, set, store.occupant(set).as_ref());
        }
    }

    /// Trains MAP-I and records the BAB duel access for a resolved demand
    /// lookup (probe completion, or submit time on an NTC-guaranteed
    /// miss).
    pub fn train(&mut self, core: u32, pc: u64, set: u64, hit: bool) {
        self.predictor.train(core, pc, hit);
        self.bypass.record_access(set, hit);
    }

    /// Records a BAB duel access without training the predictor (the
    /// idealized designs classify without a prediction).
    pub fn record_access(&mut self, set: u64, hit: bool) {
        self.bypass.record_access(set, hit);
    }

    /// Trains only the predictor (test scaffolding for steering MAP-I).
    pub fn train_predictor(&mut self, core: u32, pc: u64, hit: bool) {
        self.predictor.train(core, pc, hit);
    }

    /// Resets technique statistics (not learned state).
    pub fn reset_stats(&mut self) {
        self.bypass.reset_stats();
        self.predictor.reset_stats();
        if let Some(ntc) = self.ntc.as_mut() {
            ntc.reset_stats();
        }
    }

    /// Copies the technique-owned fields into a telemetry `probe`.
    pub fn fill_probe(&self, probe: &mut ControllerProbe) {
        probe.bab_psel = self.bypass.duel_counters();
        probe.bab_engaged = self.bypass.follower_uses_pb();
        probe.bab_bypassed = self.bypass.bypassed;
        probe.bab_filled = self.bypass.filled;
        probe.predictor_correct = self.predictor.correct;
        probe.predictor_wrong = self.predictor.wrong;
        if let Some(ntc) = &self.ntc {
            probe.ntc_hits_present = ntc.hits_present;
            probe.ntc_hits_absent = ntc.hits_absent;
            probe.ntc_unknowns = ntc.unknowns;
        }
    }

    /// NTC-mirror invariant: every NTC entry must agree with the
    /// organization's occupant for its set. [`on_eviction`] refreshes
    /// entries on every content change, so at tick boundaries the mirror
    /// is exact.
    ///
    /// [`on_eviction`]: TechniqueStack::on_eviction
    pub fn check_ntc_mirror(&self, store: &DirectStore, now: Cycle, sink: &mut InvariantSink) {
        let Some(ntc) = self.ntc.as_ref() else { return };
        for (bank, set, recorded) in ntc.entries() {
            let actual = store.occupant(set).map(|o| (o.tag, o.dirty));
            if recorded != actual {
                sink.report("ntc-mirror", now.0, || {
                    format!(
                        "NTC bank {bank} set {set} records {recorded:?} \
                         but the tag store holds {actual:?}"
                    )
                });
            }
        }
    }

    /// A set the NTC currently mirrors as occupied (fault-injection
    /// target selection: corrupting the store under such a set makes the
    /// desync observable).
    pub fn first_mirrored_set(&self) -> Option<u64> {
        self.ntc.as_ref().and_then(|ntc| {
            ntc.entries()
                .find(|(_, _, occupant)| occupant.is_some())
                .map(|(_, set, _)| set)
        })
    }

    /// Corrupts the first NTC entry (fault injection); returns whether a
    /// target existed.
    pub fn corrupt_ntc(&mut self) -> bool {
        self.ntc
            .as_mut()
            .is_some_and(NeighboringTagCache::corrupt_first_entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BearFeatures;
    use bear_dram::config::DramConfig;

    fn placement() -> SetPlacement {
        SetPlacement::alloy(DramConfig::stacked_cache_8x().topology)
    }

    fn stack(bear: BearFeatures) -> TechniqueStack {
        let mut cfg = SystemConfig::paper_baseline(DesignKind::Alloy);
        cfg.bear = bear;
        TechniqueStack::from_config(&cfg, placement().total_banks())
    }

    #[test]
    fn ablation_grid_differs_only_in_techniques() {
        let base = stack(BearFeatures::none()).techniques();
        let b = stack(BearFeatures::bab()).techniques();
        let bd = stack(BearFeatures::bab_dcp()).techniques();
        let bdn = stack(BearFeatures::full()).techniques();
        assert_eq!(
            base,
            TechniqueSet {
                bab: false,
                dcp: false,
                ntc: false,
                ntc_temporal: false
            }
        );
        assert!(b.bab && !b.dcp && !b.ntc);
        assert!(bd.bab && bd.dcp && !bd.ntc);
        assert!(bdn.bab && bdn.dcp && bdn.ntc && !bdn.ntc_temporal);
        assert!(
            stack(BearFeatures::full_with_temporal_ntc())
                .techniques()
                .ntc_temporal
        );
    }

    #[test]
    fn every_design_builds_a_stack() {
        for design in DesignKind::ALL {
            let cfg = SystemConfig::paper_baseline(design);
            let stack = TechniqueStack::from_config(&cfg, placement().total_banks());
            let t = stack.techniques();
            assert!(!t.dcp && !t.ntc, "{design:?} paper default has no BEAR");
        }
    }

    #[test]
    fn inclusive_and_ideal_force_always_fill() {
        for design in [DesignKind::InclusiveAlloy, DesignKind::BwOpt] {
            let mut cfg = SystemConfig::paper_baseline(design);
            cfg.bear.fill_policy = FillPolicy::BandwidthAware(0.9);
            // Inclusive-with-bypass fails validation; the stack guards
            // regardless of what the config says.
            let mut s = TechniqueStack::from_config(&cfg, 64);
            assert!(!s.techniques().bab);
            for set in 0..256 {
                assert!(s.on_fill_decision(set), "{design:?} must always fill");
            }
        }
    }

    #[test]
    fn read_plan_matrix_matches_section6() {
        let mut s = stack(BearFeatures::full());
        let p = placement();
        let mut store = DirectStore::new(1 << 10);

        // Unknown set → probe + parallel mem iff predicted miss.
        let plan = s.on_read_lookup(&p, 5, 1, 0, 0xA0);
        assert!(plan.issue_probe && !plan.probe_avoided());
        assert_eq!(plan.issue_parallel_mem, !plan.predicted_hit);

        // Stream set 11's (empty) neighbor tag via a TAD transfer of 10.
        s.on_tad_transfer(&p, &store, 10);
        let plan = s.on_read_lookup(&p, 11, 7, 0, 0xA0);
        assert!(plan.probe_avoided() && !plan.issue_probe);
        assert!(plan.issue_parallel_mem);

        // Install the line and refresh: known present squashes parallel.
        store.install(11, false);
        s.on_eviction(&p, &store, 11);
        for _ in 0..8 {
            s.train_predictor(0, 0xB0, false);
        }
        let plan = s.on_read_lookup(&p, 11, 0, 0, 0xB0);
        assert!(plan.issue_probe && !plan.issue_parallel_mem);
        assert!(
            plan.squashed_parallel(),
            "predicted miss over known present"
        );
    }

    #[test]
    fn known_plans_issue_one_leg_and_no_technique_verdict() {
        let hit = ReadPlan::known(true);
        assert!(hit.issue_probe && !hit.issue_parallel_mem && hit.probe_class_is_hit());
        let miss = ReadPlan::known(false);
        assert!(!miss.issue_probe && miss.issue_parallel_mem);
        for plan in [hit, miss] {
            assert!(!plan.probe_avoided() && !plan.squashed_parallel());
        }
    }

    #[test]
    fn writeback_probe_hook_honors_dcp_and_inclusion() {
        let s = stack(BearFeatures::none());
        assert!(!s.on_writeback_probe(false, Some(true)), "DCP off");
        assert!(s.on_writeback_probe(true, None), "inclusion wins");
        let s = stack(BearFeatures::bab_dcp());
        assert!(s.on_writeback_probe(false, Some(true)));
        assert!(!s.on_writeback_probe(false, Some(false)));
        assert!(!s.on_writeback_probe(false, None));
    }

    #[test]
    fn probe_fields_round_trip() {
        let mut s = stack(BearFeatures::full());
        s.train(0, 0xA0, 3, false);
        s.on_fill_decision(3);
        let mut probe = ControllerProbe::default();
        s.fill_probe(&mut probe);
        assert_eq!(probe.predictor_correct + probe.predictor_wrong, 1);
        assert_eq!(probe.bab_bypassed + probe.bab_filled, 1);
    }
}

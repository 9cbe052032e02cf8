//! The untimed shadow hierarchy.
//!
//! [`Shadow`] replays the cycle model's [`ObsEvent`] stream against an
//! obviously-correct functional model of the whole hierarchy — L3
//! membership with dirty and DCP bits, the DRAM-cache contents of every
//! organization, the BAB duel counters, and the per-line bookkeeping that
//! links L3 misses to their deliveries and L3 evictions to their
//! writebacks. Every event is *checked before it is applied*: the shadow
//! recomputes the expected outcome from its own state and reports any
//! disagreement as a [`SimError::Divergence`] carrying both views.
//!
//! What is deliberately **not** modeled (timing is the cycle model's job):
//! latencies and queueing, wasted/squashed parallel memory accesses, the
//! Alloy issue-time Hit/MissProbe classification split, the bypass coin
//! (only bypass *legality* is checked, since P < 1 is a private RNG), and
//! the MAP-I predictor internals (mispredictions change bandwidth, never
//! functional outcomes).

use crate::counts::EventCounts;
use bear_core::config::{DesignKind, FillPolicy, SystemConfig};
use bear_core::events::{FillCause, ObsEvent};
use bear_core::ntc::NtcAnswer;
use bear_sim::error::SimError;
use std::collections::{HashMap, HashSet, VecDeque};

/// Lines per 4 KB sector in the Sector Cache.
const SECTOR_LINES: u64 = 64;

/// Shadow L3 line state.
#[derive(Debug, Clone, Copy)]
struct L3Line {
    dirty: bool,
    dcp: bool,
}

/// One outstanding L3 miss (MSHR mirror).
#[derive(Debug, Clone, Copy, Default)]
struct Pending {
    /// Whether any merged waiter was a store.
    any_store: bool,
    /// The fill decision the controller announced for this line
    /// (`ReadClassified`/`Filled`/`Bypassed`, last wins).
    expected_in_l4: Option<bool>,
}

/// Shadow of the DRAM-cache contents, per organization family.
#[derive(Debug)]
enum ShadowL4 {
    /// Exact direct-mapped replica (Alloy family and BW-Opt): one slot per
    /// set holding `(line, dirty)`.
    Direct {
        sets: u64,
        slots: Vec<Option<(u64, bool)>>,
    },
    /// Membership + dirty bit, maintained from fill/evict events
    /// (Loh-Hill, Mostly-Clean, TIS) — no replacement-policy replication.
    Assoc { members: HashMap<u64, bool> },
    /// Block membership only (Sector Cache). The cycle model enumerates
    /// victim-sector blocks synthetically (`first block + i`), so per-line
    /// dirty attribution is unsound; evictions clear the whole sector.
    Sector { members: HashSet<u64> },
    /// No DRAM cache.
    Absent,
}

impl ShadowL4 {
    fn contains(&self, line: u64) -> bool {
        match self {
            ShadowL4::Direct { sets, slots } => {
                slots[(line % sets) as usize].is_some_and(|(l, _)| l == line)
            }
            ShadowL4::Assoc { members } => members.contains_key(&line),
            ShadowL4::Sector { members } => members.contains(&line),
            ShadowL4::Absent => false,
        }
    }

    fn mark_dirty(&mut self, line: u64) {
        match self {
            ShadowL4::Direct { sets, slots } => {
                let slot = &mut slots[(line % *sets) as usize];
                if let Some((l, dirty)) = slot {
                    if *l == line {
                        *dirty = true;
                    }
                }
            }
            ShadowL4::Assoc { members } => {
                if let Some(d) = members.get_mut(&line) {
                    *d = true;
                }
            }
            ShadowL4::Sector { .. } | ShadowL4::Absent => {}
        }
    }
}

/// Untimed replica of the BAB set-dueling engine (Section 4.2).
///
/// Replicates the counters, the constituency hash, the
/// threshold-and-halve schedule, and the integer Δ comparison exactly;
/// the bypass coin is not replicated (the oracle checks bypass
/// *legality*, not individual coin flips).
#[derive(Debug)]
struct ShadowBab {
    sample_shift: u32,
    /// `[baseline misses, baseline accesses, PB misses, PB accesses]`.
    counters: [u16; 4],
    duel_threshold: u16,
    delta_shift: u32,
    use_pb: bool,
}

/// Dueling group of a set (mirror of the cycle model's taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShadowGroup {
    /// Always-fill monitor.
    BaselineMonitor,
    /// Always-PB monitor.
    BypassMonitor,
    /// Steered by the mode bit.
    Follower,
}

impl ShadowBab {
    /// Builds the replica from the paper parameters the controller uses.
    pub fn new(sample_shift: u32, delta_shift: u32) -> Self {
        ShadowBab {
            sample_shift,
            counters: [0; 4],
            duel_threshold: 512,
            delta_shift,
            use_pb: true,
        }
    }

    /// Constituency of `set` — must match `BypassPolicy::group` bit for
    /// bit.
    pub fn group(&self, set: u64) -> ShadowGroup {
        let h = (set ^ (set >> self.sample_shift)).wrapping_mul(0x9E37_79B9);
        match h % (1u64 << self.sample_shift) {
            0 => ShadowGroup::BaselineMonitor,
            1 => ShadowGroup::BypassMonitor,
            _ => ShadowGroup::Follower,
        }
    }

    /// Whether follower sets may currently bypass.
    pub fn follower_uses_pb(&self) -> bool {
        self.use_pb
    }

    /// Mirrors one demand classification into the duel counters.
    pub fn record_access(&mut self, set: u64, hit: bool) {
        let base = match self.group(set) {
            ShadowGroup::BaselineMonitor => 0,
            ShadowGroup::BypassMonitor => 2,
            ShadowGroup::Follower => return,
        };
        if !hit {
            self.counters[base] = self.counters[base].saturating_add(1);
        }
        let acc = &mut self.counters[base + 1];
        *acc = acc.saturating_add(1);
        if *acc >= self.duel_threshold {
            let [m_base, a_base, m_pb, a_pb] = self.counters.map(u64::from);
            if a_base != 0 && a_pb != 0 {
                let h_base = a_base - m_base.min(a_base);
                let h_pb = a_pb - m_pb.min(a_pb);
                let lhs = h_pb * a_base * (1u64 << self.delta_shift);
                let rhs = h_base * a_pb * ((1u64 << self.delta_shift) - 1);
                self.use_pb = lhs >= rhs;
            }
            for c in self.counters.iter_mut() {
                *c >>= 1;
            }
        }
    }
}

/// The full shadow hierarchy plus its running event tallies.
#[derive(Debug)]
pub struct Shadow {
    design: DesignKind,
    dcp_on: bool,
    writeback_allocate: bool,
    l4_sets: u64,
    l3: HashMap<u64, L3Line>,
    pending: HashMap<u64, Pending>,
    /// DCP bits of dirty L3 victims, queued until their `WbSubmitted`.
    wb_hints: HashMap<u64, VecDeque<bool>>,
    /// Submitted-writeback hints, queued until their `WbResolved`.
    wb_inflight: HashMap<u64, VecDeque<Option<bool>>>,
    l4: ShadowL4,
    bab: Option<ShadowBab>,
    /// `true` while the policy allows unconditional bypass (plain PB
    /// without dueling).
    plain_pb: bool,
    /// Event tallies for the end-of-run audits.
    pub counts: EventCounts,
}

impl Shadow {
    /// Builds the shadow for the hierarchy `cfg` describes.
    pub fn new(cfg: &SystemConfig) -> Self {
        let sets = cfg.l4_lines();
        let l4 = match cfg.design {
            DesignKind::NoCache => ShadowL4::Absent,
            DesignKind::Alloy | DesignKind::InclusiveAlloy | DesignKind::BwOpt => {
                ShadowL4::Direct {
                    sets,
                    slots: vec![None; sets as usize],
                }
            }
            DesignKind::LohHill | DesignKind::MostlyClean | DesignKind::TagsInSram => {
                ShadowL4::Assoc {
                    members: HashMap::new(),
                }
            }
            DesignKind::SectorCache => ShadowL4::Sector {
                members: HashSet::new(),
            },
        };
        // Dueling exists only on plain Alloy with BandwidthAware fills
        // (inclusive and ideal variants force always-fill).
        let (bab, plain_pb) = if cfg.design == DesignKind::Alloy {
            match cfg.bear.fill_policy {
                FillPolicy::BandwidthAware(_) => {
                    (Some(ShadowBab::new(5, cfg.bab_delta_shift)), false)
                }
                FillPolicy::Probabilistic(p) => (None, p > 0.0),
                FillPolicy::AlwaysFill => (None, false),
            }
        } else {
            (None, false)
        };
        Shadow {
            design: cfg.design,
            dcp_on: cfg.bear.dcp,
            writeback_allocate: cfg.writeback_allocate,
            l4_sets: sets,
            l3: HashMap::new(),
            pending: HashMap::new(),
            wb_hints: HashMap::new(),
            wb_inflight: HashMap::new(),
            l4,
            bab,
            plain_pb,
            counts: EventCounts::default(),
        }
    }

    /// Whether the L4 may ever allocate a writeback miss.
    fn wb_allocates(&self) -> bool {
        match self.design {
            DesignKind::NoCache => false,
            DesignKind::Alloy | DesignKind::InclusiveAlloy | DesignKind::BwOpt => {
                self.writeback_allocate
            }
            // SRAM-tag and Loh-Hill organizations always write-allocate.
            _ => true,
        }
    }

    fn diverge(
        cycle: u64,
        check: &str,
        cycle_view: String,
        oracle_view: String,
    ) -> Result<(), SimError> {
        Err(SimError::divergence(cycle, check, cycle_view, oracle_view))
    }

    /// Replays one event: checks it against the shadow state, then folds
    /// it in.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Divergence`] naming the failed check with both
    /// models' views.
    pub fn apply(&mut self, cycle: u64, ev: &ObsEvent) -> Result<(), SimError> {
        match *ev {
            ObsEvent::L3Access {
                line,
                is_store,
                hit,
            } => {
                let expected = self.l3.contains_key(&line);
                if hit != expected {
                    return Self::diverge(
                        cycle,
                        "l3-classification",
                        format!(
                            "line {line:#x} classified {}",
                            if hit { "hit" } else { "miss" }
                        ),
                        format!(
                            "shadow L3 {} the line",
                            if expected { "holds" } else { "does not hold" }
                        ),
                    );
                }
                if hit {
                    if is_store {
                        if let Some(l) = self.l3.get_mut(&line) {
                            l.dirty = true;
                        }
                    }
                } else {
                    let p = self.pending.entry(line).or_default();
                    p.any_store |= is_store;
                }
            }
            ObsEvent::WbSubmitted { line, hint } => {
                let expected = if self.dcp_on {
                    match self.wb_hints.get_mut(&line).and_then(VecDeque::pop_front) {
                        Some(dcp) => Some(dcp),
                        None => {
                            return Self::diverge(
                                cycle,
                                "writeback-provenance",
                                format!("writeback of line {line:#x} submitted"),
                                "shadow saw no dirty L3 eviction of that line".into(),
                            )
                        }
                    }
                } else {
                    None
                };
                if self.dcp_on && hint != expected {
                    return Self::diverge(
                        cycle,
                        "dcp-hint",
                        format!("writeback of line {line:#x} carries hint {hint:?}"),
                        format!("shadow DCP bit at eviction was {expected:?}"),
                    );
                }
                self.wb_inflight.entry(line).or_default().push_back(hint);
            }
            ObsEvent::L3Evicted { line, dirty, dcp } => {
                let Some(shadow) = self.l3.remove(&line) else {
                    return Self::diverge(
                        cycle,
                        "l3-eviction",
                        format!("L3 evicted line {line:#x}"),
                        "shadow L3 does not hold the line".into(),
                    );
                };
                if dirty != shadow.dirty {
                    return Self::diverge(
                        cycle,
                        "l3-eviction-dirty",
                        format!("victim {line:#x} evicted {}", dirty_word(dirty)),
                        format!("shadow holds it {}", dirty_word(shadow.dirty)),
                    );
                }
                if dcp != shadow.dcp {
                    return Self::diverge(
                        cycle,
                        "dcp-at-eviction",
                        format!("victim {line:#x} evicted with DCP={dcp}"),
                        format!("shadow DCP bit is {}", shadow.dcp),
                    );
                }
                if dirty {
                    self.wb_hints.entry(line).or_default().push_back(dcp);
                }
            }
            ObsEvent::Delivered {
                line,
                l4_hit: _,
                in_l4,
                filled_l3,
                dirty,
            } => {
                let Some(p) = self.pending.remove(&line) else {
                    return Self::diverge(
                        cycle,
                        "delivery-provenance",
                        format!("line {line:#x} delivered"),
                        "shadow has no outstanding miss for it".into(),
                    );
                };
                if dirty != p.any_store {
                    return Self::diverge(
                        cycle,
                        "delivery-dirty",
                        format!("delivery of {line:#x} fills the L3 {}", dirty_word(dirty)),
                        format!("shadow merged waiters say {}", dirty_word(p.any_store)),
                    );
                }
                let expect_fill = !self.l3.contains_key(&line);
                if filled_l3 != expect_fill {
                    return Self::diverge(
                        cycle,
                        "l3-fill",
                        format!("delivery of {line:#x} filled_l3={filled_l3}"),
                        format!("shadow L3 containment implies filled_l3={expect_fill}"),
                    );
                }
                if let Some(expected) = p.expected_in_l4 {
                    if in_l4 != expected {
                        return Self::diverge(
                            cycle,
                            "presence-after-delivery",
                            format!("delivery of {line:#x} reports in_l4={in_l4}"),
                            format!("controller's own fill decision implies {expected}"),
                        );
                    }
                }
                if filled_l3 {
                    self.l3.insert(line, L3Line { dirty, dcp: in_l4 });
                }
            }
            ObsEvent::L3BackInvalidate { line, dirty } => match self.l3.remove(&line) {
                Some(shadow) if dirty != shadow.dirty => {
                    return Self::diverge(
                        cycle,
                        "back-invalidate-dirty",
                        format!("back-invalidation of {line:#x} {}", dirty_word(dirty)),
                        format!("shadow holds it {}", dirty_word(shadow.dirty)),
                    );
                }
                Some(_) => {}
                None if dirty => {
                    return Self::diverge(
                        cycle,
                        "back-invalidate-dirty",
                        format!("back-invalidation of {line:#x} claims a dirty line"),
                        "shadow L3 does not hold the line".into(),
                    );
                }
                None => {}
            },
            ObsEvent::DcpCleared { line } => {
                if let Some(l) = self.l3.get_mut(&line) {
                    l.dcp = false;
                }
            }
            ObsEvent::DirectMemWrite { line: _ } => {
                self.counts.direct_mem_writes += 1;
            }
            ObsEvent::ReadClassified { line, hit } => {
                self.counts.reads += 1;
                self.counts.read_hits += u64::from(hit);
                let expected = self.l4.contains(line);
                if hit != expected {
                    return Self::diverge(
                        cycle,
                        "read-classification",
                        format!("demand read of {line:#x} classified {}", hit_word(hit)),
                        format!(
                            "shadow {} {} the line",
                            self.design.label(),
                            if expected { "holds" } else { "does not hold" }
                        ),
                    );
                }
                if let Some(p) = self.pending.get_mut(&line) {
                    p.expected_in_l4 = Some(hit);
                }
                if let Some(bab) = self.bab.as_mut() {
                    bab.record_access(line % self.l4_sets, hit);
                }
            }
            ObsEvent::NtcConsulted { line, answer } => {
                self.counts.ntc_absent_clean += u64::from(answer == NtcAnswer::AbsentClean);
                self.check_ntc(cycle, line, answer)?;
            }
            ObsEvent::Filled { line, dirty, cause } => {
                match cause {
                    FillCause::Demand => self.counts.filled_demand += 1,
                    FillCause::Writeback => self.counts.filled_writeback += 1,
                }
                match &mut self.l4 {
                    ShadowL4::Direct { sets, slots } => {
                        let slot = &mut slots[(line % *sets) as usize];
                        if let Some((occupant, _)) = *slot {
                            if occupant != line {
                                return Self::diverge(
                                    cycle,
                                    "fill-over-occupied",
                                    format!("fill of {line:#x} with no preceding eviction"),
                                    format!("shadow set still holds {occupant:#x}"),
                                );
                            }
                        }
                        *slot = Some((line, dirty));
                    }
                    ShadowL4::Assoc { members } => {
                        members.insert(line, dirty);
                    }
                    ShadowL4::Sector { members } => {
                        members.insert(line);
                    }
                    ShadowL4::Absent => {
                        return Self::diverge(
                            cycle,
                            "fill-without-cache",
                            format!("fill of {line:#x}"),
                            "the no-cache design has nowhere to fill".into(),
                        );
                    }
                }
                if let Some(p) = self.pending.get_mut(&line) {
                    if cause == FillCause::Demand {
                        p.expected_in_l4 = Some(true);
                    }
                }
            }
            ObsEvent::Bypassed { line } => {
                self.counts.bypassed += 1;
                let legal = match self.bab.as_ref() {
                    Some(bab) => match bab.group(line % self.l4_sets) {
                        ShadowGroup::BypassMonitor => true,
                        ShadowGroup::Follower => bab.follower_uses_pb(),
                        ShadowGroup::BaselineMonitor => false,
                    },
                    None => self.plain_pb,
                };
                if !legal {
                    return Self::diverge(
                        cycle,
                        "bypass-legality",
                        format!("miss fill of {line:#x} bypassed"),
                        "shadow duel state forbids bypass for this set".into(),
                    );
                }
                if let Some(p) = self.pending.get_mut(&line) {
                    p.expected_in_l4 = Some(false);
                }
            }
            ObsEvent::Evicted { line, dirty } => {
                self.counts.evictions += 1;
                self.counts.evicted_dirty += u64::from(dirty);
                match &mut self.l4 {
                    ShadowL4::Direct { sets, slots } => {
                        let slot = &mut slots[(line % *sets) as usize];
                        match *slot {
                            Some((occupant, shadow_dirty)) if occupant == line => {
                                if dirty != shadow_dirty {
                                    return Self::diverge(
                                        cycle,
                                        "eviction-dirty",
                                        format!("victim {line:#x} evicted {}", dirty_word(dirty)),
                                        format!("shadow holds it {}", dirty_word(shadow_dirty)),
                                    );
                                }
                                *slot = None;
                            }
                            other => {
                                return Self::diverge(
                                    cycle,
                                    "eviction-membership",
                                    format!("eviction of {line:#x}"),
                                    format!("shadow set holds {other:?}"),
                                );
                            }
                        }
                    }
                    ShadowL4::Assoc { members } => match members.remove(&line) {
                        Some(shadow_dirty) => {
                            if dirty != shadow_dirty {
                                return Self::diverge(
                                    cycle,
                                    "eviction-dirty",
                                    format!("victim {line:#x} evicted {}", dirty_word(dirty)),
                                    format!("shadow holds it {}", dirty_word(shadow_dirty)),
                                );
                            }
                        }
                        None => {
                            return Self::diverge(
                                cycle,
                                "eviction-membership",
                                format!("eviction of {line:#x}"),
                                "shadow does not hold the line".into(),
                            );
                        }
                    },
                    // Sector victim blocks are enumerated synthetically
                    // (`first block + i`), so neither membership nor dirty
                    // state of an individual reported block is meaningful;
                    // drop the whole victim sector instead.
                    ShadowL4::Sector { members } => {
                        let first = line & !(SECTOR_LINES - 1);
                        for l in first..first + SECTOR_LINES {
                            members.remove(&l);
                        }
                    }
                    ShadowL4::Absent => {
                        return Self::diverge(
                            cycle,
                            "eviction-without-cache",
                            format!("eviction of {line:#x}"),
                            "the no-cache design holds nothing to evict".into(),
                        );
                    }
                }
            }
            ObsEvent::WbResolved {
                line,
                hit,
                probe_skipped,
                allocated,
            } => {
                self.counts.wb_resolved += 1;
                self.counts.wb_hits += u64::from(hit);
                self.counts.wb_miss_allocated += u64::from(!hit && allocated);
                self.counts.wb_miss_unallocated += u64::from(!hit && !allocated);
                self.counts.wb_probes += u64::from(!probe_skipped);
                let hint = self
                    .wb_inflight
                    .get_mut(&line)
                    .and_then(VecDeque::pop_front)
                    .flatten();
                let expected = self.l4.contains(line);
                if hit != expected {
                    return Self::diverge(
                        cycle,
                        "writeback-classification",
                        format!("writeback of {line:#x} resolved as {}", hit_word(hit)),
                        format!(
                            "shadow {} {} the line",
                            self.design.label(),
                            if expected { "holds" } else { "does not hold" }
                        ),
                    );
                }
                let expect_alloc = !hit && self.wb_allocates();
                if allocated != expect_alloc {
                    return Self::diverge(
                        cycle,
                        "writeback-allocate",
                        format!("writeback of {line:#x} allocated={allocated}"),
                        format!("design policy implies allocated={expect_alloc}"),
                    );
                }
                self.check_probe_skip(cycle, line, hit, probe_skipped, hint)?;
                if hit {
                    self.l4.mark_dirty(line);
                }
            }
        }
        Ok(())
    }

    /// NTC answers must be sound with respect to the actual direct-mapped
    /// contents: `Present` guarantees a hit, the `Absent*` answers
    /// guarantee a miss and describe the occupant's dirty state
    /// (`Unknown` promises nothing).
    fn check_ntc(&self, cycle: u64, line: u64, answer: NtcAnswer) -> Result<(), SimError> {
        let ShadowL4::Direct { sets, slots } = &self.l4 else {
            return Self::diverge(
                cycle,
                "ntc-scope",
                format!("NTC consulted for {line:#x}"),
                format!("{} has no NTC", self.design.label()),
            );
        };
        let occupant = slots[(line % sets) as usize];
        let holds = occupant.is_some_and(|(l, _)| l == line);
        let sound = match answer {
            NtcAnswer::Present => holds,
            NtcAnswer::AbsentClean => !holds && occupant.is_none_or(|(_, dirty)| !dirty),
            NtcAnswer::AbsentDirty => !holds && occupant.is_some_and(|(_, dirty)| dirty),
            NtcAnswer::Unknown => true,
        };
        if !sound {
            return Self::diverge(
                cycle,
                "ntc-soundness",
                format!("NTC answered {answer:?} for {line:#x}"),
                format!("shadow set occupant is {occupant:?}"),
            );
        }
        Ok(())
    }

    /// A skipped Writeback Probe needs a guarantee of presence: on-chip
    /// tags (LH/MC/TIS/SC and the ideal BW-Opt resolve presence for
    /// free), a no-cache design (nothing to probe), the inclusion
    /// property, or a DCP hint saying present.
    ///
    /// Plain Alloy is checked both ways: a `Some(true)` hint must skip
    /// (DCP coherence guarantees the line is present, so a fall-through
    /// means the hint was stale), and a skip must both carry that hint
    /// and hit. Inclusive Alloy is checked one way only — an L4 eviction
    /// racing the L3 eviction can legitimately force the probe path — but
    /// a skip must still hit.
    fn check_probe_skip(
        &self,
        cycle: u64,
        line: u64,
        hit: bool,
        probe_skipped: bool,
        hint: Option<bool>,
    ) -> Result<(), SimError> {
        match self.design {
            DesignKind::Alloy => {
                let expected = self.dcp_on && hint == Some(true);
                if probe_skipped != expected {
                    return Self::diverge(
                        cycle,
                        "probe-skip",
                        format!("writeback of {line:#x} probe_skipped={probe_skipped}"),
                        format!("DCP hint {hint:?} implies probe_skipped={expected}"),
                    );
                }
                if probe_skipped && !hit {
                    return Self::diverge(
                        cycle,
                        "probe-skip",
                        format!("writeback of {line:#x} skipped its probe yet missed"),
                        "a DCP-justified skip guarantees presence".into(),
                    );
                }
            }
            DesignKind::InclusiveAlloy => {
                if probe_skipped && !hit {
                    return Self::diverge(
                        cycle,
                        "probe-skip",
                        format!("writeback of {line:#x} skipped its probe yet missed"),
                        "an inclusion-justified skip guarantees presence".into(),
                    );
                }
            }
            _ => {
                if !probe_skipped {
                    return Self::diverge(
                        cycle,
                        "probe-skip",
                        format!("writeback of {line:#x} took the probe path"),
                        format!(
                            "{} resolves writeback presence without a probe",
                            self.design.label()
                        ),
                    );
                }
            }
        }
        Ok(())
    }
}

fn dirty_word(dirty: bool) -> &'static str {
    if dirty {
        "dirty"
    } else {
        "clean"
    }
}

fn hit_word(hit: bool) -> &'static str {
    if hit {
        "hit"
    } else {
        "miss"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bear_core::config::BearFeatures;

    fn cfg(design: DesignKind) -> SystemConfig {
        SystemConfig {
            design,
            scale_shift: 12,
            ..SystemConfig::paper_baseline(design)
        }
    }

    #[test]
    fn l3_classification_divergence_carries_both_views() {
        let mut s = Shadow::new(&cfg(DesignKind::Alloy));
        let err = s
            .apply(
                7,
                &ObsEvent::L3Access {
                    line: 0x40,
                    is_store: false,
                    hit: true,
                },
            )
            .unwrap_err();
        assert_eq!(err.kind(), "divergence");
        let msg = err.to_string();
        assert!(msg.contains("l3-classification"), "{msg}");
        assert!(msg.contains("cycle 7"), "{msg}");
    }

    #[test]
    fn fill_evict_roundtrip_direct() {
        let mut s = Shadow::new(&cfg(DesignKind::Alloy));
        s.apply(
            1,
            &ObsEvent::Filled {
                line: 5,
                dirty: false,
                cause: FillCause::Demand,
            },
        )
        .unwrap();
        s.apply(2, &ObsEvent::ReadClassified { line: 5, hit: true })
            .unwrap();
        // Wrong classification after an eviction the shadow saw.
        s.apply(
            3,
            &ObsEvent::Evicted {
                line: 5,
                dirty: false,
            },
        )
        .unwrap();
        let err = s
            .apply(4, &ObsEvent::ReadClassified { line: 5, hit: true })
            .unwrap_err();
        assert!(err.to_string().contains("read-classification"));
    }

    #[test]
    fn eviction_dirty_mismatch_diverges() {
        let mut s = Shadow::new(&cfg(DesignKind::LohHill));
        s.apply(
            1,
            &ObsEvent::Filled {
                line: 9,
                dirty: false,
                cause: FillCause::Demand,
            },
        )
        .unwrap();
        let err = s
            .apply(
                2,
                &ObsEvent::Evicted {
                    line: 9,
                    dirty: true,
                },
            )
            .unwrap_err();
        assert!(err.to_string().contains("eviction-dirty"));
    }

    #[test]
    fn wb_hit_marks_dirty_for_later_eviction() {
        let mut s = Shadow::new(&cfg(DesignKind::TagsInSram));
        s.apply(
            1,
            &ObsEvent::Filled {
                line: 3,
                dirty: false,
                cause: FillCause::Demand,
            },
        )
        .unwrap();
        s.apply(
            2,
            &ObsEvent::WbResolved {
                line: 3,
                hit: true,
                probe_skipped: true,
                allocated: false,
            },
        )
        .unwrap();
        s.apply(
            3,
            &ObsEvent::Evicted {
                line: 3,
                dirty: true,
            },
        )
        .unwrap();
    }

    #[test]
    fn sector_evictions_clear_whole_sector_without_dirty_checks() {
        let mut s = Shadow::new(&cfg(DesignKind::SectorCache));
        for l in [64u64, 65, 200] {
            s.apply(
                1,
                &ObsEvent::Filled {
                    line: l,
                    dirty: false,
                    cause: FillCause::Demand,
                },
            )
            .unwrap();
        }
        // Synthetic victim enumeration: dirty flag and membership of the
        // reported block are not checked, the sector empties as a whole.
        s.apply(
            2,
            &ObsEvent::Evicted {
                line: 64,
                dirty: true,
            },
        )
        .unwrap();
        s.apply(
            3,
            &ObsEvent::ReadClassified {
                line: 65,
                hit: false,
            },
        )
        .unwrap();
        s.apply(
            4,
            &ObsEvent::ReadClassified {
                line: 200,
                hit: true,
            },
        )
        .unwrap();
    }

    #[test]
    fn bypass_legality_follows_shadow_duel() {
        let mut c = cfg(DesignKind::Alloy);
        c.bear = BearFeatures::bab();
        let mut s = Shadow::new(&c);
        let sets = c.l4_lines();
        let bab = s.bab.as_ref().unwrap();
        let baseline_set = (0..sets)
            .find(|&set| bab.group(set) == ShadowGroup::BaselineMonitor)
            .unwrap();
        let err = s
            .apply(5, &ObsEvent::Bypassed { line: baseline_set })
            .unwrap_err();
        assert!(err.to_string().contains("bypass-legality"));
        let pb_set = (0..sets)
            .find(|&set| s.bab.as_ref().unwrap().group(set) == ShadowGroup::BypassMonitor)
            .unwrap();
        s.apply(6, &ObsEvent::Bypassed { line: pb_set }).unwrap();
    }

    #[test]
    fn dcp_hint_checked_against_shadow_bit() {
        let mut c = cfg(DesignKind::Alloy);
        c.bear = BearFeatures::bab_dcp();
        let mut s = Shadow::new(&c);
        // Miss, deliver with in_l4=true, then evict dirty: DCP travels.
        s.apply(
            1,
            &ObsEvent::L3Access {
                line: 11,
                is_store: true,
                hit: false,
            },
        )
        .unwrap();
        s.apply(
            2,
            &ObsEvent::Filled {
                line: 11,
                dirty: false,
                cause: FillCause::Demand,
            },
        )
        .unwrap();
        s.apply(
            3,
            &ObsEvent::Delivered {
                line: 11,
                l4_hit: false,
                in_l4: true,
                filled_l3: true,
                dirty: true,
            },
        )
        .unwrap();
        s.apply(
            4,
            &ObsEvent::L3Evicted {
                line: 11,
                dirty: true,
                dcp: true,
            },
        )
        .unwrap();
        // Cycle model shipping the wrong hint is a divergence.
        let err = s
            .apply(
                5,
                &ObsEvent::WbSubmitted {
                    line: 11,
                    hint: Some(false),
                },
            )
            .unwrap_err();
        assert!(err.to_string().contains("dcp-hint"));
    }
}

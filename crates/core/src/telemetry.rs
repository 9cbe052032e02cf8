//! Simulator-side telemetry state.
//!
//! The dependency-free shapes — [`Sample`], ring buffer, Chrome trace
//! builder, self-profiler — live in `bear-telemetry`; this module owns
//! the glue that fills them from live simulator state. It costs nothing
//! unless a run arms it via [`crate::system::System::set_telemetry`].
//! Armed, it rides the same event-driven loop: each live tick drains its
//! events into the ring, and sample-window ends are next-event stops at
//! which the run loop closes the window, on exactly the cycles per-cycle
//! polling would.
//!
//! Sampling model: at the warmup→measure boundary a cumulative
//! `CounterSnapshot` is taken as the base; every `sample_window`
//! cycles the current snapshot is diffed against the base to produce
//! one [`Sample`] of window *deltas* (plus point-in-time state: L4
//! occupancy, BAB duel counters, bank queue depths), and the base
//! advances. The final partial window is flushed at measure end, so
//! summing any delta field across a run's samples reproduces the
//! end-of-run aggregate exactly — a property the bench guard tests pin.

use crate::events::ObsEvent;
use crate::l3::L3Cache;
use crate::l4::L4Cache;
use crate::traffic::BloatCategory;
use bear_cpu::Core;
use bear_dram::channel::TransferRecord;
use bear_telemetry::{LiveSink, RingBuffer, Sample, SelfProfiler, TelemetryOptions};
use std::time::Instant;

/// Cumulative counter values at one instant; windows are diffs of two.
#[derive(Debug, Clone, Default)]
pub(crate) struct CounterSnapshot {
    insts: u64,
    l3_hits: u64,
    l3_misses: u64,
    read_lookups: u64,
    read_hits: u64,
    wb_lookups: u64,
    wb_hits: u64,
    fills: u64,
    bypasses: u64,
    evictions: u64,
    useful_lines: u64,
    miss_probes_avoided: u64,
    wb_probes_avoided: u64,
    parallel_squashed: u64,
    wasted_parallel: u64,
    cache_bytes: [u64; 8],
    attr_bytes: [u64; 8],
    mem_bytes: u64,
    bab_bypassed: u64,
    bab_filled: u64,
    ntc_hits_present: u64,
    ntc_hits_absent: u64,
    ntc_unknowns: u64,
    predictor_correct: u64,
    predictor_wrong: u64,
}

/// Reads every cumulative counter the sampler tracks.
fn counter_snapshot(cores: &[Core], l3: &L3Cache, l4: &dyn L4Cache) -> CounterSnapshot {
    let stats = l4.stats();
    let probe = l4.telemetry_probe().unwrap_or_default();
    let mut cache_bytes = [0u64; 8];
    for (slot, cat) in cache_bytes.iter_mut().zip(BloatCategory::ALL) {
        *slot = l4.harness().cache.bytes_in_class(cat.class());
    }
    let attr_bytes = l4.harness().ledger().cache_bytes();
    CounterSnapshot {
        insts: cores.iter().map(|c| c.retired_insts()).sum(),
        l3_hits: l3.hits(),
        l3_misses: l3.misses(),
        read_lookups: stats.read_lookups,
        read_hits: stats.read_hits,
        wb_lookups: stats.wb_lookups,
        wb_hits: stats.wb_hits,
        fills: stats.fills,
        bypasses: stats.bypasses,
        evictions: stats.evictions,
        useful_lines: stats.useful_lines,
        miss_probes_avoided: stats.miss_probes_avoided,
        wb_probes_avoided: stats.wb_probes_avoided,
        parallel_squashed: stats.parallel_squashed,
        wasted_parallel: stats.wasted_parallel,
        cache_bytes,
        attr_bytes,
        mem_bytes: l4.harness().mem.total_bytes(),
        bab_bypassed: probe.bab_bypassed,
        bab_filled: probe.bab_filled,
        ntc_hits_present: probe.ntc_hits_present,
        ntc_hits_absent: probe.ntc_hits_absent,
        ntc_unknowns: probe.ntc_unknowns,
        predictor_correct: probe.predictor_correct,
        predictor_wrong: probe.predictor_wrong,
    }
}

/// Everything a telemetry-armed run produced, handed out by
/// [`crate::system::System::take_telemetry`].
#[derive(Debug, Default)]
pub struct TelemetryReport {
    /// Time-series samples, in window order.
    pub samples: Vec<Sample>,
    /// The newest `(cycle, event)` pairs from the observation ring buffer
    /// (bounded by `ring_capacity`; empty unless tracing was armed).
    pub events: Vec<(u64, ObsEvent)>,
    /// DRAM-cache data-bus bursts captured for trace export (empty unless
    /// tracing was armed).
    pub transfers: Vec<TransferRecord>,
    /// Host wall-clock totals per run-loop step (`tick`/`skip`/`span`)
    /// and window close (`telemetry`); empty unless profiling was armed.
    pub profile: SelfProfiler,
}

/// Live telemetry state owned by the system while armed.
#[derive(Debug)]
pub(crate) struct TelemetryState {
    opts: TelemetryOptions,
    /// Sampling runs only inside the measurement phase.
    in_measure: bool,
    window_start: u64,
    window_index: u64,
    base: CounterSnapshot,
    samples: Vec<Sample>,
    /// When set, every closed window is also streamed out immediately
    /// (job-scoped: the daemon forwards it over the client's socket).
    live: Option<LiveSink>,
    ring: RingBuffer<(u64, ObsEvent)>,
    profiler: SelfProfiler,
}

impl TelemetryState {
    pub(crate) fn new(opts: TelemetryOptions) -> Self {
        assert!(opts.sample_window > 0, "sample window must be positive");
        let ring_capacity = if opts.trace { opts.ring_capacity } else { 0 };
        TelemetryState {
            opts,
            in_measure: false,
            window_start: 0,
            window_index: 0,
            base: CounterSnapshot::default(),
            samples: Vec::new(),
            live: None,
            ring: RingBuffer::new(ring_capacity),
            profiler: SelfProfiler::new(),
        }
    }

    /// Arms live streaming: every subsequently closed window is also
    /// sent through `sink` as it happens.
    pub(crate) fn set_live(&mut self, sink: LiveSink) {
        self.live = Some(sink);
    }

    pub(crate) fn trace_armed(&self) -> bool {
        self.opts.trace
    }

    /// Starts a run-loop lap timer when profiling is armed.
    pub(crate) fn start_lap(&self) -> Option<Instant> {
        self.opts.profile.then(Instant::now)
    }

    /// Charges the host time since `*lap` to `phase` and restarts the lap
    /// (no-op while `lap` is `None`).
    pub(crate) fn lap(&mut self, lap: &mut Option<Instant>, phase: &'static str) {
        if let Some(prev) = lap {
            let now = Instant::now();
            let ns = now.duration_since(*prev).as_nanos() as u64;
            self.profiler.record(phase, ns);
            *prev = now;
        }
    }

    /// Starts windowing at the warmup→measure boundary. Counters were just
    /// reset, so the base snapshot is all-zero deltas from here on.
    pub(crate) fn begin_measure(
        &mut self,
        now: u64,
        cores: &[Core],
        l3: &L3Cache,
        l4: &dyn L4Cache,
    ) {
        self.base = counter_snapshot(cores, l3, l4);
        self.in_measure = true;
        self.window_start = now;
        self.window_index = 0;
    }

    /// End cycle of the open sample window; `Some` only while measuring.
    pub(crate) fn next_window_end(&self) -> Option<u64> {
        self.in_measure
            .then_some(self.window_start + self.opts.sample_window)
    }

    /// Per-live-tick hook, called with the *post-increment* clock. Drains
    /// this tick's observation events into the ring, stamped with the
    /// cycle they happened on.
    pub(crate) fn after_tick(&mut self, clock: u64, events: &mut Vec<ObsEvent>) {
        if self.opts.trace && !events.is_empty() {
            let at = clock - 1;
            for ev in events.drain(..) {
                self.ring.push((at, ev));
            }
        }
    }

    /// Flushes the final (possibly partial) window at measure end.
    pub(crate) fn end_measure(&mut self, now: u64, cores: &[Core], l3: &L3Cache, l4: &dyn L4Cache) {
        if self.in_measure && now > self.window_start {
            self.close_window(now, cores, l3, l4);
        }
        self.in_measure = false;
    }

    /// Closes the open window at cycle `at` and opens the next one.
    pub(crate) fn close_window(&mut self, at: u64, cores: &[Core], l3: &L3Cache, l4: &dyn L4Cache) {
        let cur = counter_snapshot(cores, l3, l4);
        let probe = l4.telemetry_probe().unwrap_or_default();
        let bank_queue_depths = l4.harness().cache.bank_queue_depths();
        let b = &self.base;
        let mut cache_bytes_by_class = [0u64; 8];
        for (slot, (now_b, base_b)) in cache_bytes_by_class
            .iter_mut()
            .zip(cur.cache_bytes.iter().zip(b.cache_bytes))
        {
            *slot = now_b - base_b;
        }
        let mut attributed_bytes_by_class = [0u64; 8];
        for (slot, (now_b, base_b)) in attributed_bytes_by_class
            .iter_mut()
            .zip(cur.attr_bytes.iter().zip(b.attr_bytes))
        {
            *slot = now_b - base_b;
        }
        let useful_bytes = (cur.useful_lines - b.useful_lines) * 64;
        let cache_bytes: u64 = cache_bytes_by_class.iter().sum();
        let bloat_factor = if useful_bytes == 0 {
            0.0
        } else {
            cache_bytes as f64 / useful_bytes as f64
        };
        self.samples.push(Sample {
            window: self.window_index,
            start_cycle: self.window_start,
            end_cycle: at,
            insts_retired: cur.insts - b.insts,
            l3_hits: cur.l3_hits - b.l3_hits,
            l3_misses: cur.l3_misses - b.l3_misses,
            read_lookups: cur.read_lookups - b.read_lookups,
            read_hits: cur.read_hits - b.read_hits,
            wb_lookups: cur.wb_lookups - b.wb_lookups,
            wb_hits: cur.wb_hits - b.wb_hits,
            fills: cur.fills - b.fills,
            bypasses: cur.bypasses - b.bypasses,
            evictions: cur.evictions - b.evictions,
            useful_lines: cur.useful_lines - b.useful_lines,
            miss_probes_avoided: cur.miss_probes_avoided - b.miss_probes_avoided,
            wb_probes_avoided: cur.wb_probes_avoided - b.wb_probes_avoided,
            parallel_squashed: cur.parallel_squashed - b.parallel_squashed,
            wasted_parallel: cur.wasted_parallel - b.wasted_parallel,
            cache_bytes_by_class,
            mem_bytes: cur.mem_bytes - b.mem_bytes,
            attributed_bytes_by_class,
            bloat_factor,
            occupied_lines: probe.occupied_lines,
            dirty_lines: probe.dirty_lines,
            capacity_lines: probe.capacity_lines,
            bab_psel: probe.bab_psel.map(u64::from),
            bab_engaged: probe.bab_engaged,
            bab_bypassed: cur.bab_bypassed - b.bab_bypassed,
            bab_filled: cur.bab_filled - b.bab_filled,
            ntc_hits_present: cur.ntc_hits_present - b.ntc_hits_present,
            ntc_hits_absent: cur.ntc_hits_absent - b.ntc_hits_absent,
            ntc_unknowns: cur.ntc_unknowns - b.ntc_unknowns,
            predictor_correct: cur.predictor_correct - b.predictor_correct,
            predictor_wrong: cur.predictor_wrong - b.predictor_wrong,
            bank_queue_depths,
        });
        if let Some(sink) = &self.live {
            sink.send(self.samples.last().expect("just pushed").clone());
        }
        self.base = cur;
        self.window_start = at;
        self.window_index += 1;
    }

    pub(crate) fn into_report(self, transfers: Vec<TransferRecord>) -> TelemetryReport {
        TelemetryReport {
            samples: self.samples,
            events: self.ring.into_vec(),
            transfers,
            profile: self.profiler,
        }
    }
}

#[cfg(test)]
mod tests {
    use bear_telemetry::CACHE_BYTE_KEYS;

    use crate::traffic::BloatCategory;

    /// `CACHE_BYTE_KEYS` is documented to mirror `BloatCategory::ALL`; pin
    /// the correspondence so neither side can silently reorder.
    #[test]
    fn cache_byte_keys_track_bloat_categories() {
        assert_eq!(CACHE_BYTE_KEYS.len(), BloatCategory::ALL.len());
        let expect = [
            (BloatCategory::Hit, "hit"),
            (BloatCategory::MissProbe, "miss_probe"),
            (BloatCategory::MissFill, "miss_fill"),
            (BloatCategory::WritebackProbe, "wb_probe"),
            (BloatCategory::WritebackUpdate, "wb_update"),
            (BloatCategory::WritebackFill, "wb_fill"),
            (BloatCategory::VictimRead, "victim_read"),
            (BloatCategory::LruUpdate, "lru_update"),
        ];
        for ((cat, key), (all_cat, all_key)) in expect
            .iter()
            .zip(BloatCategory::ALL.iter().zip(CACHE_BYTE_KEYS))
        {
            assert_eq!(cat, all_cat);
            assert_eq!(*key, all_key);
        }
    }
}

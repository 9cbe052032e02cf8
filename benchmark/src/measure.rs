//! The production path: whole-system samples timed around `System`'s
//! public calls, the checks that every simulated result stays identical,
//! and the exact counters read after a run.

use crate::registry::{Budget, Cell, Workload};
use crate::spans::{SpanId, Spans};
use bear_core::metrics::RunStats;
use bear_core::system::System;
use bear_sim::error::SimError;
use bear_workloads::{BenchmarkProfile, Workload as Programs};
use std::time::Instant;

/// Cycle budget for draining a system after its last sample.
const DRAIN_BUDGET: u64 = 4_000_000;

/// FNV-1a over 64-bit words: the identity of a run's simulated results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds in the integer fields of one cell's statistics.
    pub fn add(&mut self, s: &RunStats) {
        self.word(s.cycles);
        for &i in &s.insts_per_core {
            self.word(i);
        }
        let l4 = &s.l4;
        for w in [
            l4.read_lookups,
            l4.read_hits,
            l4.fills,
            l4.bypasses,
            l4.miss_probes_avoided,
            l4.wb_probes_avoided,
            l4.parallel_squashed,
        ] {
            self.word(w);
        }
        for &b in &s.bloat.bytes {
            self.word(b);
        }
        self.word(s.bloat.useful_lines);
        self.word(s.mem_bytes);
    }

    /// Sixteen lowercase hex digits.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The SPEC profile every core of `cell` runs.
pub fn profile(cell: &Cell) -> BenchmarkProfile {
    BenchmarkProfile::by_name(cell.bench)
        .unwrap_or_else(|| panic!("registry names unknown benchmark {}", cell.bench))
}

/// Builds the system of `cell` with the workload's span pool.
fn build(w: &Workload, cell: &Cell, seed: u64, budget: Budget) -> Result<System, SimError> {
    let cfg = w.config(cell, seed, budget);
    let programs = Programs::rate(profile(cell));
    let mut sys = System::try_build(&cfg, &programs)?;
    sys.set_sim_threads(w.threads);
    Ok(sys)
}

/// Host seconds to build every cell's system once (dropping excluded).
///
/// # Errors
///
/// A configuration error from `try_build`.
pub fn setup(w: &Workload, seed: u64, budget: Budget) -> Result<f64, SimError> {
    let mut secs = 0.0;
    for cell in w.cells {
        let t0 = Instant::now();
        let sys = build(w, cell, seed, budget)?;
        secs += t0.elapsed().as_secs_f64();
        drop(sys);
    }
    Ok(secs)
}

/// One production sample: every cell of the workload built and run once.
pub struct Sample {
    /// `run_monitored` wall time, summed over cells.
    pub run_s: f64,
    /// Digest over every cell's statistics, in cell order.
    pub digest: Digest,
    /// The systems after their run, in cell order.
    pub systems: Vec<System>,
    /// Each cell's statistics.
    pub stats: Vec<RunStats>,
}

/// Builds and runs every cell of `w` once, timing only the calls into
/// `System`.
///
/// # Errors
///
/// A configuration error from `try_build` or a watchdog stall from
/// `run_monitored`.
pub fn sample(
    w: &Workload,
    seed: u64,
    budget: Budget,
    spans: &mut Spans,
    parent: Option<SpanId>,
) -> Result<Sample, SimError> {
    let mut out = Sample {
        run_s: 0.0,
        digest: Digest::default(),
        systems: Vec::with_capacity(w.cells.len()),
        stats: Vec::with_capacity(w.cells.len()),
    };
    for cell in w.cells {
        let span = spans.begin(&format!("cell {}x{}", cell.label, cell.bench), parent);
        let s = spans.begin("try_build", Some(span));
        let mut sys = build(w, cell, seed, budget)?;
        spans.end(s);

        let s = spans.begin("run_monitored", Some(span));
        let t0 = Instant::now();
        let stats = sys.run_monitored(budget.warmup, budget.measure)?;
        out.run_s += t0.elapsed().as_secs_f64();
        spans.end(s);
        spans.end(span);

        out.digest.add(&stats);
        out.systems.push(sys);
        out.stats.push(stats);
    }
    Ok(out)
}

/// Check 3: a short prefix of every cell gives the same results with
/// per-cycle polling as with the event-driven loop.
///
/// # Errors
///
/// Any simulation error, or a description of the first cell that
/// diverged.
pub fn prefix_check(
    w: &Workload,
    seed: u64,
    budget: Budget,
    spans: &mut Spans,
) -> Result<(), String> {
    let span = spans.begin("prefix_check", None);
    for cell in w.cells {
        let mut digests = [Digest::default(); 2];
        for (digest, event_driven) in digests.iter_mut().zip([true, false]) {
            let mut sys = build(w, cell, seed, budget).map_err(|e| e.to_string())?;
            sys.set_event_driven(event_driven);
            let stats = sys
                .run_monitored(budget.prefix_half, budget.prefix_half)
                .map_err(|e| e.to_string())?;
            digest.add(&stats);
        }
        if digests[0] != digests[1] {
            return Err(format!(
                "{}x{}: event-driven digest {} != polled digest {}",
                cell.label,
                cell.bench,
                digests[0].hex(),
                digests[1].hex()
            ));
        }
    }
    spans.end(span);
    Ok(())
}

/// Check 4: every system drains, and its bandwidth-attribution ledger
/// then matches the device meters exactly.
///
/// # Errors
///
/// A description of the first system that failed to drain or audit.
pub fn drain_and_audit(systems: &mut [System], spans: &mut Spans) -> Result<(), String> {
    let span = spans.begin("drain_audit", None);
    for sys in systems.iter_mut() {
        if !sys.quiesce(DRAIN_BUDGET) {
            return Err(format!("{sys:?} did not drain in {DRAIN_BUDGET} cycles"));
        }
        bear_oracle::audit::audit_ledger(sys.l4_cache()).map_err(|e| e.to_string())?;
    }
    spans.end(span);
    Ok(())
}

/// Exact counters of one sample, pooled over its cells. Every count
/// covers the measure window except the run-loop counters, which cover
/// warmup and measure.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Exact {
    /// Warmup + measure cycles.
    pub cycles: u64,
    /// Measured cycles.
    pub measure: u64,
    /// Live `System::tick` calls.
    pub live_ticks: u64,
    /// Cycles fast-forwarded by idle skips.
    pub skipped: u64,
    /// Cycles covered by span advances.
    pub span_cycles: u64,
    /// Instructions retired, all cores.
    pub insts: u64,
    /// L3 demand hits.
    pub l3_hits: u64,
    /// L3 demand misses.
    pub l3_misses: u64,
    /// L4 demand reads.
    pub l4_reads: u64,
    /// L4 writebacks.
    pub l4_writebacks: u64,
    /// Miss and writeback probes the BEAR techniques avoided.
    pub probes_avoided: u64,
    /// DRAM-cache bus bytes.
    pub cache_bytes: u64,
    /// Useful bytes delivered from the DRAM cache.
    pub useful_bytes: u64,
    /// DRAM reads completed, both devices.
    pub dram_reads: u64,
    /// DRAM writes completed, both devices.
    pub dram_writes: u64,
    /// Write-drain episodes, both devices.
    pub drains: u64,
    /// DRAM-cache data-bus busy cycles, summed over channels.
    pub cache_bus_busy: u64,
    /// DRAM-cache channel-cycles in the measure window.
    pub cache_channel_cycles: u64,
    /// DRAM-cache read queueing latency, summed over reads.
    pub cache_read_queue_sum: u64,
    /// DRAM-cache reads completed.
    pub cache_reads: u64,
}

impl Exact {
    /// Pools the counters of every cell of `sample`.
    pub fn of(sample: &Sample, budget: Budget) -> Self {
        let mut e = Exact::default();
        for (sys, stats) in sample.systems.iter().zip(&sample.stats) {
            let (skipped, live) = sys.loop_counters();
            e.cycles += budget.warmup + budget.measure;
            e.measure += budget.measure;
            e.live_ticks += live;
            e.skipped += skipped;
            e.span_cycles += sys.span_cycles();
            e.insts += stats.insts_per_core.iter().sum::<u64>();
            e.l3_hits += sys.l3().hits();
            e.l3_misses += sys.l3().misses();
            let l4 = sys.l4_stats();
            e.l4_reads += l4.read_lookups;
            e.l4_writebacks += l4.wb_lookups;
            e.probes_avoided += l4.miss_probes_avoided + l4.wb_probes_avoided;
            e.cache_bytes += stats.bloat.total_bytes();
            e.useful_bytes += stats.bloat.useful_bytes();
            let harness = sys.l4_cache().harness();
            for ch in harness
                .cache
                .channel_stats()
                .chain(harness.mem.channel_stats())
            {
                e.dram_reads += ch.reads_completed;
                e.dram_writes += ch.writes_completed;
                e.drains += ch.drain_episodes;
            }
            for ch in harness.cache.channel_stats() {
                e.cache_bus_busy += ch.bus_busy_cycles;
                e.cache_channel_cycles += budget.measure;
                e.cache_read_queue_sum += ch.read_queue_latency_sum;
                e.cache_reads += ch.reads_completed;
            }
        }
        e
    }
}

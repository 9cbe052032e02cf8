//! Per-layer drives: host time spent in a loop of calls into one module's
//! public functions, with inputs generated from the workload's own
//! profiles and seed. Each drive reports the median of `REPS` repetitions;
//! a workload's value pools its cells (total time over total work).
//! Input streams are built before the clock starts, so each drive times
//! only its own layer.

use crate::measure::profile;
use crate::registry::{Budget, Workload};
use crate::spans::{SpanId, Spans};
use crate::stats::median;
use bear_core::config::SystemConfig;
use bear_core::l3::{L3Cache, L3Result};
use bear_core::l4::{build_controller, L4Outputs};
use bear_core::system::translate;
use bear_cpu::{Core, LoadToken};
use bear_dram::mapping::{AddressMapper, Interleave};
use bear_dram::{DramDevice, DramRequest, TrafficClass};
use bear_sim::time::Cycle;
use bear_workloads::suites::CORES;
use bear_workloads::{BenchmarkProfile, TraceGenerator, TraceSource};
use std::collections::{HashSet, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// Repetitions per drive (the drive reports their median).
const REPS: usize = 3;
/// Trace events generated per repetition of the workloads drive.
const EVENTS: usize = 400_000;
/// Simulated core cycles per repetition of the cpu drive.
const CPU_CYCLES: u64 = 2_000_000;
/// Fixed latency after which the cpu drive completes every access.
const LOAD_LATENCY: u64 = 100;
/// L3 accesses per repetition of the l3 drive (and the source of the l4
/// and dram inputs).
const L3_ACCESSES: usize = 400_000;
/// Upper bound on L4 operations per repetition of the l4 drive.
const L4_OPS: usize = 40_000;
/// Demand reads the l4 drive keeps outstanding, like the cores' MSHRs.
const MAX_READS: usize = 64;
/// Simulated-cycle limit of one l4 or dram repetition (a stall guard).
const CYCLE_LIMIT: u64 = 1 << 32;

/// One L3 access of the drive inputs.
#[derive(Debug, Clone, Copy)]
struct Access {
    line: u64,
    is_store: bool,
    pc: u64,
    core: u32,
}

/// One operation reaching the L4: an L3 demand miss or a dirty victim.
#[derive(Debug, Clone, Copy)]
enum L4Op {
    Read { line: u64, pc: u64, core: u32 },
    Writeback { line: u64 },
}

/// Pooled drive results of a workload: host seconds and work done.
#[derive(Debug, Clone, Default)]
pub struct Drives {
    event_s: f64,
    events: u64,
    cpu_s: f64,
    cpu_cycles: u64,
    l3_s: f64,
    l3_accesses: u64,
    l4_s: f64,
    l4_ops: u64,
    l4_dram_reqs: u64,
    dram_s: f64,
    dram_reqs: u64,
}

impl Drives {
    /// `(metric name, value)` for every drive metric.
    pub fn metrics(&self) -> [(&'static str, f64); 6] {
        let per = |s: f64, n: u64| s * 1e9 / n.max(1) as f64;
        [
            ("workloads.ns_per_event", per(self.event_s, self.events)),
            ("cpu.ns_per_kcycle", per(self.cpu_s, self.cpu_cycles) * 1e3),
            ("l3.ns_per_access", per(self.l3_s, self.l3_accesses)),
            ("l4.ns_per_op", per(self.l4_s, self.l4_ops)),
            (
                "l4.dram_reqs_per_op",
                self.l4_dram_reqs as f64 / self.l4_ops.max(1) as f64,
            ),
            ("dram.ns_per_req", per(self.dram_s, self.dram_reqs)),
        ]
    }
}

/// The eight trace generators of a cell's cores, seeded exactly as
/// `System::try_build` seeds them.
fn generators(cfg: &SystemConfig, prof: BenchmarkProfile) -> Vec<TraceGenerator> {
    (0..CORES as u64)
        .map(|i| {
            TraceGenerator::new(
                prof,
                i << 40,
                cfg.scale_shift,
                cfg.seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            )
        })
        .collect()
}

/// Runs `rep` `REPS` times under one span each, returning the median
/// host seconds and the last repetition's by-product.
fn reps<T>(
    spans: &mut Spans,
    name: &str,
    parent: SpanId,
    mut rep: impl FnMut() -> Result<(f64, T), String>,
) -> Result<(f64, T), String> {
    let span = spans.begin(name, Some(parent));
    let mut secs = Vec::with_capacity(REPS);
    let mut last = None;
    for i in 0..REPS {
        let s = spans.begin(&format!("{name} rep {i}"), Some(span));
        let (t, out) = rep()?;
        spans.end(s);
        secs.push(t);
        last = Some(out);
    }
    spans.end(span);
    Ok((median(&secs), last.expect("REPS > 0")))
}

/// Runs every drive on every cell of `w`.
///
/// # Errors
///
/// A description of the first drive that failed to finish.
pub fn run(w: &Workload, seed: u64, budget: Budget, spans: &mut Spans) -> Result<Drives, String> {
    let root = spans.begin("drives", None);
    let div = budget.drive_divisor;
    let (events, cpu_cycles) = (EVENTS / div, CPU_CYCLES / div as u64);
    let mut d = Drives::default();
    for cell in w.cells {
        let cfg = w.config(cell, seed, budget);
        let prof = profile(cell);
        let span = spans.begin(&format!("cell {}x{}", cell.label, cell.bench), Some(root));

        let (s, ()) = reps(spans, "workloads", span, || {
            let mut gens = generators(&cfg, prof);
            let t0 = Instant::now();
            for k in 0..events {
                black_box(gens[k % CORES].next_event());
            }
            Ok((t0.elapsed().as_secs_f64(), ()))
        })?;
        d.event_s += s;
        d.events += events as u64;

        let (s, ()) = reps(spans, "cpu", span, || {
            let gen = generators(&cfg, prof).swap_remove(0);
            let core = Core::new(0, Box::new(gen), cfg.core);
            Ok((drive_core(core, cpu_cycles), ()))
        })?;
        d.cpu_s += s;
        d.cpu_cycles += cpu_cycles;

        let accesses = accesses(&cfg, prof, L3_ACCESSES / div);
        let (s, ()) = reps(spans, "l3", span, || {
            let mut l3 = L3Cache::new(cfg.l3_capacity(), cfg.l3_ways);
            let t0 = Instant::now();
            for a in &accesses {
                if l3.access(a.line, a.is_store) == L3Result::Miss {
                    black_box(l3.fill(a.line, a.is_store, false));
                }
            }
            Ok((t0.elapsed().as_secs_f64(), ()))
        })?;
        d.l3_s += s;
        d.l3_accesses += accesses.len() as u64;

        let ops = l4_ops(&cfg, &accesses, L4_OPS / div);
        let (s, (done, reqs)) = reps(spans, "l4", span, || drive_l4(&cfg, &ops))?;
        d.l4_s += s;
        d.l4_ops += done;
        d.l4_dram_reqs += reqs;

        let (s, ()) = reps(spans, "dram", span, || Ok((drive_dram(&cfg, &ops)?, ())))?;
        d.dram_s += s;
        d.dram_reqs += ops.len() as u64;
        spans.end(span);
    }
    spans.end(root);
    Ok(d)
}

/// Ticks one core for `cycles`, skipping quiet stretches the way the
/// system loop does and completing every access `LOAD_LATENCY` cycles
/// after issue. Returns host seconds.
fn drive_core(mut core: Core, cycles: u64) -> f64 {
    let mut due: VecDeque<(u64, LoadToken)> = VecDeque::new();
    let mut now = 0u64;
    let t0 = Instant::now();
    while now < cycles {
        while let Some(&(at, token)) = due.front() {
            if at > now {
                break;
            }
            core.complete_load(token);
            due.pop_front();
        }
        let next_due = due.front().map_or(u64::MAX, |&(at, _)| at);
        let quiet = core.quiet_cycles().min(next_due - now).min(cycles - now);
        if quiet > 0 {
            core.skip_quiet(quiet);
            now += quiet;
            continue;
        }
        if let Some(req) = core.tick(Cycle(now)) {
            due.push_back((now + LOAD_LATENCY, req.token));
        }
        now += 1;
    }
    black_box(core.retired_insts());
    t0.elapsed().as_secs_f64()
}

/// The first `n` L3 accesses of a cell: its cores' trace events,
/// round-robin, translated to physical lines as the system translates
/// them.
fn accesses(cfg: &SystemConfig, prof: BenchmarkProfile, n: usize) -> Vec<Access> {
    let mut gens = generators(cfg, prof);
    (0..n)
        .map(|k| {
            let core = k % CORES;
            let ev = gens[core].next_event();
            Access {
                line: translate(ev.addr) / 64,
                is_store: ev.is_store,
                pc: ev.pc,
                core: core as u32,
            }
        })
        .collect()
}

/// The L4 operations `accesses` cause: misses of a cold L3 and its dirty
/// victims, at most `limit` of them.
fn l4_ops(cfg: &SystemConfig, accesses: &[Access], limit: usize) -> Vec<L4Op> {
    let mut l3 = L3Cache::new(cfg.l3_capacity(), cfg.l3_ways);
    let mut ops = Vec::with_capacity(limit);
    for a in accesses {
        if ops.len() >= limit {
            break;
        }
        if l3.access(a.line, a.is_store) == L3Result::Hit {
            continue;
        }
        ops.push(L4Op::Read {
            line: a.line,
            pc: a.pc,
            core: a.core,
        });
        if let Some(v) = l3.fill(a.line, a.is_store, false) {
            if v.dirty {
                ops.push(L4Op::Writeback { line: v.line });
            }
        }
    }
    ops
}

/// Feeds `ops` to a fresh controller, at most `MAX_READS` demand reads
/// outstanding, ticking only when `next_busy_cycle` says a tick can act,
/// until every transaction and DRAM request has finished. An operation on
/// a line whose read is still in flight is dropped, as the system's miss
/// merging would. Returns host seconds and `(operations submitted, DRAM
/// requests completed)`.
fn drive_l4(cfg: &SystemConfig, ops: &[L4Op]) -> Result<(f64, (u64, u64)), String> {
    let mut ctrl = build_controller(cfg);
    ctrl.harness_mut().set_event_gating(true);
    // The controller confirms presence itself before skipping a probe, so
    // an always-set hint behaves like an exactly maintained DCP bit.
    let hint = cfg.bear.dcp.then_some(true);
    let mut out = L4Outputs::default();
    let mut inflight: HashSet<u64> = HashSet::with_capacity(MAX_READS);
    let mut submitted = 0u64;
    let mut i = 0;
    let mut now = Cycle(0);
    let t0 = Instant::now();
    loop {
        while i < ops.len() && inflight.len() < MAX_READS {
            match ops[i] {
                L4Op::Read { line, pc, core } => {
                    if inflight.insert(line) {
                        ctrl.submit_read(line, pc, core, now);
                        submitted += 1;
                    }
                }
                L4Op::Writeback { line } => {
                    if !inflight.contains(&line) {
                        ctrl.submit_writeback(line, hint, now);
                        submitted += 1;
                    }
                }
            }
            i += 1;
        }
        if ctrl.next_busy_cycle(now) <= now {
            out.clear();
            ctrl.tick(now, &mut out);
            for d in &out.deliveries {
                inflight.remove(&d.line);
            }
        }
        if i == ops.len()
            && inflight.is_empty()
            && ctrl.pending_txns() == 0
            && ctrl.harness().pending() == 0
        {
            break;
        }
        // Submission stopped on the read limit or the end of `ops`, so
        // nothing changes before the controller's next busy cycle.
        let next = now + 1;
        now = ctrl.next_busy_cycle(next).max(next);
        if now.0 > CYCLE_LIMIT {
            return Err(format!(
                "l4 drive stalled ({} txns pending)",
                ctrl.pending_txns()
            ));
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    let h = ctrl.harness();
    let reqs = h
        .cache
        .channel_stats()
        .chain(h.mem.channel_stats())
        .map(|c| c.reads_completed + c.writes_completed)
        .sum();
    Ok((secs, (submitted, reqs)))
}

/// Pushes `ops` through a fresh main-memory device as line reads and
/// writes mapped the way the device harness maps them, enqueueing until
/// backpressure and ticking only busy cycles, until the device drains.
/// Returns host seconds.
fn drive_dram(cfg: &SystemConfig, ops: &[L4Op]) -> Result<f64, String> {
    let mut dev = DramDevice::try_new(cfg.mem_dram).map_err(|e| e.to_string())?;
    let topology = cfg.mem_dram.topology;
    let mapper = AddressMapper::new(topology, Interleave::ChannelFirst);
    let beats = topology.beats_for(64);
    let mut done = Vec::new();
    let mut i = 0;
    let mut now = Cycle(0);
    let t0 = Instant::now();
    loop {
        while let Some(op) = ops.get(i) {
            let id = i as u64;
            let req = match *op {
                L4Op::Read { line, .. } => {
                    DramRequest::read(id, mapper.map(line * 64), beats, TrafficClass(0), now)
                }
                L4Op::Writeback { line } => {
                    DramRequest::write(id, mapper.map(line * 64), beats, TrafficClass(1), now)
                }
            };
            if dev.try_enqueue(req).is_err() {
                break;
            }
            i += 1;
        }
        if dev.next_busy_cycle(now) <= now {
            dev.tick_gated(now, &mut done);
            done.clear();
        }
        if i == ops.len() && dev.pending() == 0 {
            break;
        }
        let next = now + 1;
        now = dev.next_busy_cycle(next).max(next);
        if now.0 > CYCLE_LIMIT {
            return Err(format!("dram drive stalled ({} pending)", dev.pending()));
        }
    }
    Ok(t0.elapsed().as_secs_f64())
}

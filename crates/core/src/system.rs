//! The full-system simulator: cores → L3 → L4 controller → DRAM devices.
//!
//! [`System`] wires eight trace-driven cores to the shared L3, routes L3
//! misses and dirty evictions to the configured DRAM-cache controller, and
//! plumbs the BEAR notifications back (DCP bit set on fill, cleared on L4
//! eviction; inclusive back-invalidations). The run loop is a single
//! CPU-cycle tick. Latency-staged events wait in one FIFO per fixed delay,
//! so each FIFO is in due order and its front is its earliest event.
//! The event-driven mode (the default) skips every cycle at which nothing
//! outside the DRAM channels can happen; quiet cores and the DRAM devices
//! keep their own clocks and replay what they owe when next touched.

use crate::config::{DesignKind, SystemConfig};
use crate::events::ObsEvent;
use crate::l3::{L3Cache, L3Result};
use crate::l4::{build_controller, L4Cache, L4Outputs};
use crate::metrics::{BloatBreakdown, L4StatsSnapshot, RunStats};
use bear_cpu::{Core, LoadToken};
use bear_sim::error::SimError;
use bear_sim::faultinject::{FaultKind, FaultPlan};
use bear_sim::invariants::{CheckMode, InvariantSink, Violation};
use bear_sim::time::Cycle;
use bear_workloads::{TraceGenerator, TraceSource, Workload};
use std::collections::{HashMap, VecDeque};

/// Address-space stride separating per-core footprints (mirrors the
/// paper's virtual-memory guarantee that mixes never collide).
const CORE_ADDR_STRIDE: u64 = 1 << 40;

/// Page-space width of the modeled physical address space.
const PAGE_BITS: u64 = 52;

/// Per-channel capacity of the DRAM-cache transfer log while telemetry
/// tracing is armed (newest records win; trace export is windowed anyway).
const TRANSFER_LOG_CAPACITY: usize = 1 << 16;

/// Virtual-to-physical translation: a deterministic page-granular
/// permutation built from bijective steps on the 52-bit page domain
/// (xorshift, then multiply by an odd constant, then xorshift). The
/// xorshift stages fold the high page bits — which differ between cores —
/// into the low bits that select DRAM-cache sets, so distinct programs
/// scatter across the physical space rather than aliasing; the paper's
/// virtual memory system provides the same property. Spatial locality
/// within each 4 KB page is preserved.
#[inline]
pub fn translate(addr: u64) -> u64 {
    const MASK: u64 = (1 << PAGE_BITS) - 1;
    let mut page = (addr >> 12) & MASK;
    let offset = addr & 0xFFF;
    page ^= page >> 26;
    page = page.wrapping_mul(0x9E37_79B9_7F4A_7C15) & MASK;
    page ^= page >> 26;
    (page << 12) | offset
}

/// An event staged for the L3 latency.
#[derive(Debug, Clone, Copy)]
enum Staged {
    /// A core load/store completes (L3 hit or fill finished).
    Complete { core: u32, token: LoadToken },
    /// An L3 miss reaches the L4 controller after the L3 lookup latency.
    SubmitRead { line: u64, pc: u64, core: u32 },
}

#[derive(Debug, Clone, Copy)]
struct Waiter {
    core: u32,
    token: LoadToken,
    is_store: bool,
}

/// What one run-loop step did: a live tick, or a skip (only the clock
/// moved).
#[derive(Clone, Copy)]
enum Step {
    Tick,
    Skip,
}

impl Step {
    /// Self-profiler row the step's host time is charged to.
    fn label(self) -> &'static str {
        match self {
            Step::Tick => "tick",
            Step::Skip => "skip",
        }
    }
}

/// Deferred-tick bookkeeping for one core. A live tick only ticks the
/// cores whose wake cycle has come; every other core owes the quiet ticks
/// in `[synced, now)`, which [`System::catch_up`] applies in closed form
/// before anything reads or changes the core.
#[derive(Debug, Clone, Copy, Default)]
struct CoreClock {
    /// First cycle whose tick has not been applied to the core.
    synced: u64,
    /// First cycle at which the core must tick live: `synced` plus its
    /// [`Core::quiet_cycles`], saturating (a blocked core waits at
    /// `u64::MAX` for a completion).
    wake: u64,
}

/// The assembled system.
pub struct System {
    cfg: SystemConfig,
    cores: Vec<Core>,
    /// Per-core deferral state, parallel to `cores`.
    core_clocks: Vec<CoreClock>,
    l3: L3Cache,
    l4: Box<dyn L4Cache>,
    /// Events staged for the L3 latency as `(due, event)`, pushed only
    /// while the cores tick, hence in due order.
    l3_staged: VecDeque<(u64, Staged)>,
    /// Dirty L3 evictions as `(due, line, dcp)`, due at the L4 the cycle
    /// after the fill that displaced them: pushed only while L4 outputs
    /// apply, hence in due order.
    writebacks: VecDeque<(u64, u64, bool)>,
    /// MSHR-style merge table: line → waiters of the in-flight fetch.
    pending_lines: HashMap<u64, Vec<Waiter>>,
    clock: Cycle,
    outputs: L4Outputs,
    /// Runtime invariant checker (panics in debug builds by default).
    sink: InvariantSink,
    /// Scheduled state corruptions (testing only; empty otherwise).
    faults: FaultPlan,
    /// Oracle observation: when armed, the system and the L4 controller
    /// emit [`ObsEvent`]s describing every functional decision.
    observe: bool,
    /// Events accumulated since the last [`System::drain_events`] call,
    /// in decision order.
    events: Vec<ObsEvent>,
    /// When set, cores stop issuing new accesses (drain/quiesce support).
    cores_halted: bool,
    /// When set (the default), the run loop skips provably idle cycles
    /// instead of ticking through them (see `System::step`). Disable via
    /// [`System::set_event_driven`] to force per-cycle polling — the
    /// equivalence guard tests pin both modes to identical results.
    event_driven: bool,
    /// Cycles skipped since construction (diagnostic; not part of
    /// simulated state).
    skipped_cycles: u64,
    /// Live [`System::tick`] calls since construction (diagnostic).
    live_ticks: u64,
    /// Core ticks executed live since construction (diagnostic).
    core_ticks: u64,
    /// Telemetry state while armed (`None` when disarmed, which costs one
    /// pointer check per tick and loop step).
    telemetry: Option<Box<crate::telemetry::TelemetryState>>,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("design", &self.cfg.design)
            .field("clock", &self.clock)
            .field("pending_lines", &self.pending_lines.len())
            .field("wheel_depth", &self.staged_len())
            .field("cores_halted", &self.cores_halted)
            .finish()
    }
}

impl System {
    /// Builds the system for `cfg` running `workload`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation; use
    /// [`System::try_build`] for a recoverable error.
    pub fn build(cfg: &SystemConfig, workload: &Workload) -> Self {
        match Self::try_build(cfg, workload) {
            Ok(sys) => sys,
            Err(e) => panic!("invalid system configuration: {e}"),
        }
    }

    /// Builds the system for `cfg` running `workload`, reporting
    /// configuration problems as a typed error.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] when `cfg` fails validation.
    pub fn try_build(cfg: &SystemConfig, workload: &Workload) -> Result<Self, SimError> {
        cfg.validate()?;
        let cores = workload
            .benchmarks
            .iter()
            .enumerate()
            .map(|(i, profile)| {
                let trace = TraceGenerator::new(
                    *profile,
                    i as u64 * CORE_ADDR_STRIDE,
                    cfg.scale_shift,
                    cfg.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                Core::new(i as u32, Box::new(trace), cfg.core)
            })
            .collect();
        Ok(Self::assemble(cfg, cores))
    }

    /// Builds the system from explicit trace sources, one core per source.
    ///
    /// This is the oracle/fuzzer entry point: adversarial traces are not
    /// benchmark profiles, so they cannot ride through [`Workload`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] when `cfg` fails validation.
    pub fn build_with_sources(
        cfg: &SystemConfig,
        sources: Vec<Box<dyn TraceSource>>,
    ) -> Result<Self, SimError> {
        cfg.validate()?;
        let cores = sources
            .into_iter()
            .enumerate()
            .map(|(i, src)| Core::new(i as u32, src, cfg.core))
            .collect();
        Ok(Self::assemble(cfg, cores))
    }

    fn assemble(cfg: &SystemConfig, cores: Vec<Core>) -> Self {
        let mut sys = System {
            core_clocks: vec![CoreClock::default(); cores.len()],
            cores,
            l3: L3Cache::new(cfg.l3_capacity(), cfg.l3_ways),
            l4: build_controller(cfg),
            l3_staged: VecDeque::new(),
            writebacks: VecDeque::new(),
            pending_lines: HashMap::new(),
            clock: Cycle::ZERO,
            outputs: L4Outputs::default(),
            sink: InvariantSink::default(),
            faults: FaultPlan::none(),
            observe: false,
            events: Vec::new(),
            cores_halted: false,
            event_driven: true,
            skipped_cycles: 0,
            live_ticks: 0,
            core_ticks: 0,
            telemetry: None,
            cfg: cfg.clone(),
        };
        sys.sync_gating();
        sys
    }

    /// Convenience constructor with a rate-mode single-benchmark workload.
    pub fn build_rate(cfg: &SystemConfig, benchmark: &str) -> Self {
        let profile = bear_workloads::BenchmarkProfile::by_name(benchmark)
            .unwrap_or_else(|| panic!("unknown benchmark {benchmark}"));
        Self::build(cfg, &Workload::rate(profile))
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Current simulated time.
    pub fn now(&self) -> Cycle {
        self.clock
    }

    /// L4 controller statistics (live view).
    pub fn l4_stats(&self) -> &crate::l4::L4Stats {
        self.l4.stats()
    }

    /// L3 view (for DCP assertions in tests).
    pub fn l3(&self) -> &L3Cache {
        &self.l3
    }

    /// Sets the invariant-check policy. The default follows the build:
    /// panic in debug builds, off in release builds.
    pub fn set_check_mode(&mut self, mode: CheckMode) {
        self.sink = InvariantSink::new(mode);
    }

    /// The active invariant-check policy.
    pub fn check_mode(&self) -> CheckMode {
        self.sink.mode()
    }

    /// Schedules deterministic state corruptions (fault-injection testing).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// Invariant violations recorded so far ([`CheckMode::Record`]).
    pub fn violations(&self) -> &[Violation] {
        self.sink.violations()
    }

    /// Arms (or disarms) oracle observation on the system and the L4
    /// controller. While armed, every functional decision appends an
    /// [`ObsEvent`]; drain them each tick with [`System::drain_events`].
    pub fn set_observe(&mut self, on: bool) {
        self.observe = on;
        self.l4.set_observe(on);
        if !on {
            self.events.clear();
        }
    }

    /// Takes the events accumulated since the previous call, in decision
    /// order. Empty unless observation is armed.
    pub fn drain_events(&mut self) -> Vec<ObsEvent> {
        std::mem::take(&mut self.events)
    }

    /// Stops the cores from issuing further memory accesses, so in-flight
    /// traffic can drain (see [`System::quiesce`]).
    pub fn halt_cores(&mut self) {
        self.sync();
        self.cores_halted = true;
    }

    /// Whether every queue in the memory system is empty.
    pub fn is_drained(&self) -> bool {
        self.staged_len() == 0
            && self.pending_lines.is_empty()
            && self.l4.pending_txns() == 0
            && self.l4.harness().pending() == 0
    }

    /// Enables or disables idle skips and component tick elision in
    /// [`System::run`] / [`System::run_monitored`] / [`System::quiesce`],
    /// telemetry armed or not. On by default; both modes produce
    /// bit-identical results and telemetry (elided cycles are provably
    /// no-ops or replayed exactly), so this only trades speed for
    /// simplicity.
    pub fn set_event_driven(&mut self, on: bool) {
        self.sync();
        let now = self.clock.0;
        for c in &mut self.core_clocks {
            c.wake = now;
        }
        self.event_driven = on;
        self.sync_gating();
    }

    /// Propagates [`System::event_driven`] into the device harness, which
    /// elides idle channels only while it is set (telemetry has no say).
    fn sync_gating(&mut self) {
        self.l4.harness_mut().set_event_gating(self.event_driven);
    }

    /// Applies core `i`'s deferred quiet ticks for the cycles
    /// `[synced, to)` in one [`Core::skip_quiet`]. While the cores are
    /// halted no tick applies, so only the bookkeeping moves.
    fn catch_up(&mut self, i: usize, to: u64) {
        let c = &mut self.core_clocks[i];
        if c.synced >= to {
            return;
        }
        if !self.cores_halted {
            debug_assert!(to <= c.wake, "core {i} caught up past its wake cycle");
            self.cores[i].skip_quiet(to - c.synced);
        }
        c.synced = to;
    }

    /// Recomputes core `i`'s wake cycle after its state changed. Polled
    /// mode wakes every core every cycle, so the reference loop still
    /// ticks each core each cycle.
    fn rewake(&mut self, i: usize) {
        let c = &mut self.core_clocks[i];
        c.wake = if self.event_driven {
            c.synced.saturating_add(self.cores[i].quiet_cycles())
        } else {
            c.synced
        };
    }

    /// Catches every core and both DRAM devices up to the clock: the sync
    /// point before anything outside the live tick reads core or device
    /// state.
    fn sync(&mut self) {
        let now = self.clock.0;
        for i in 0..self.cores.len() {
            self.catch_up(i, now);
        }
        self.l4.harness_mut().catch_up(self.clock);
    }

    /// Delivers a load/store completion to `core` during the live tick:
    /// its deferred tick at the current cycle is quiet (cores tick before
    /// completions arrive), so it is applied first.
    fn complete(&mut self, core: u32, token: LoadToken) {
        let i = core as usize;
        self.catch_up(i, self.clock.0 + 1);
        self.cores[i].complete_load(token);
        self.rewake(i);
    }

    /// Core ticks executed live since construction (diagnostic). Polled
    /// mode ticks every core on every live tick; the event-driven loop
    /// ticks only the cores whose wake cycle has come.
    pub fn core_ticks(&self) -> u64 {
        self.core_ticks
    }

    /// Ticks until the first non-device wake-up, capped at `limit`: the
    /// next core issue, fault or staged event. Zero means one of them is
    /// due now, so the next tick must run live.
    fn quiet_bound(&self, limit: u64) -> u64 {
        let now = self.clock.0;
        let mut bound = limit;
        // Cores first: a core ready to issue is the common busy case, and
        // its check is cheaper than walking every channel. A core's wake
        // cycle is exact: its quiet cycles shrink one per deferred tick.
        if !self.cores_halted {
            let wake = self
                .core_clocks
                .iter()
                .map(|c| c.wake)
                .min()
                .unwrap_or(u64::MAX);
            if wake <= now {
                return 0;
            }
            bound = bound.min(wake - now);
        }
        if let Some(at) = self.faults.next_at() {
            if at <= now {
                return 0;
            }
            bound = bound.min(at - now);
        }
        // Staged events: the earlier of the two FIFO fronts.
        let l3 = self.l3_staged.front().map_or(u64::MAX, |&(due, _)| due);
        let due = l3.min(self.writebacks.front().map_or(u64::MAX, |&(due, ..)| due));
        if due <= now {
            return 0;
        }
        bound.min(due - now)
    }

    /// Events staged in both FIFOs.
    fn staged_len(&self) -> usize {
        self.l3_staged.len() + self.writebacks.len()
    }

    /// Diagnostic run-loop counters: `(skipped_cycles, live_ticks)` since
    /// construction; they sum to [`System::now`]. Skipped cycles are the
    /// ones the event-driven loop jumped over: no core, staged event or
    /// fault was due, and the L4 hint proved them free of external work.
    pub fn loop_counters(&self) -> (u64, u64) {
        (self.skipped_cycles, self.live_ticks)
    }

    /// Always 0. Spans merged into skips once the DRAM devices replay
    /// their own deferred ticks; the name stays only for the repository
    /// benchmark (`benchmark/`), which still calls it.
    pub fn span_cycles(&self) -> u64 {
        0
    }

    /// Does nothing. `BEAR_SIM_THREADS` is no longer read; the name stays
    /// only for the repository benchmark (`benchmark/`), which still calls
    /// it.
    pub fn set_sim_threads(&mut self, _threads: usize) {}

    /// One run-loop step of at most `limit` cycles. In the event-driven
    /// mode, when no core, staged event or fault is due now
    /// ([`System::quiet_bound`]) and the L4 hint
    /// ([`L4Cache::next_busy_cycle`]: controller work, a retiring
    /// completion or a drainable retry head) lies past `now`, the clock
    /// jumps to the first of those, capped at `limit`: a skip. The
    /// channels' internal ticks inside it are replayed when the devices
    /// are next touched, and the cores' quiet ticks stay deferred (see
    /// [`System::catch_up`]). Otherwise a live [`System::tick`].
    fn step(&mut self, limit: u64) -> Step {
        if self.event_driven {
            let bound = self.quiet_bound(limit);
            let now = self.clock;
            if bound > 0 {
                let busy = self.l4.next_busy_cycle(now);
                if busy > now {
                    let span = bound.min(busy - now);
                    self.skipped_cycles += span;
                    self.clock = now + span;
                    return Step::Skip;
                }
            }
        }
        self.tick();
        Step::Tick
    }

    /// Halts the cores and ticks until the memory system drains, up to
    /// `budget` cycles. Returns whether it fully drained — exact
    /// end-of-run audits (byte accounting, counter totals) are only
    /// meaningful on a drained system.
    pub fn quiesce(&mut self, budget: u64) -> bool {
        self.halt_cores();
        let end = self.clock + budget;
        while self.clock < end && !self.is_drained() {
            self.step(end - self.clock);
        }
        self.sync();
        self.is_drained()
    }

    /// Read-only view of the L4 controller (oracle audits read stats and
    /// device byte counters through this).
    pub fn l4_cache(&self) -> &dyn L4Cache {
        self.l4.as_ref()
    }

    /// Arms or disarms telemetry (disarmed by default:
    /// [`bear_telemetry::TelemetryConfig::Off`]).
    ///
    /// Arming with tracing also arms oracle observation (the event stream
    /// feeds the telemetry ring buffer, which drains it every tick) and
    /// the DRAM-cache transfer log; any previously armed state is torn
    /// down first. Telemetry is purely passive: it reads counters the
    /// simulator maintains anyway and never feeds anything back, so armed
    /// and disarmed runs retire identical instruction streams and report
    /// identical statistics (a bench guard test pins this).
    pub fn set_telemetry(&mut self, cfg: bear_telemetry::TelemetryConfig) {
        // Bursts before arming must replay before the log opens.
        self.sync();
        if self.telemetry.take().is_some_and(|t| t.trace_armed()) {
            self.disarm_trace();
        }
        if let bear_telemetry::TelemetryConfig::On(opts) = cfg {
            if opts.trace {
                self.set_observe(true);
                self.l4
                    .harness_mut()
                    .cache
                    .set_transfer_log(Some(TRANSFER_LOG_CAPACITY));
            }
            self.telemetry = Some(Box::new(crate::telemetry::TelemetryState::new(opts)));
        }
    }

    /// Disarms what trace-armed telemetry armed (observation and the
    /// transfer log), returning the transfer records captured so far.
    fn disarm_trace(&mut self) -> Vec<bear_dram::channel::TransferRecord> {
        self.set_observe(false);
        let cache = &mut self.l4.harness_mut().cache;
        let records = cache.take_transfer_records();
        cache.set_transfer_log(None);
        records
    }

    /// Streams every closed sample window through `sink` as it happens,
    /// in addition to collecting it for the end-of-run report. No-op
    /// unless telemetry is armed ([`System::set_telemetry`] first) —
    /// live streaming is a *view* on sampling, not a second sampler.
    pub fn set_telemetry_live(&mut self, sink: bear_telemetry::LiveSink) {
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.set_live(sink);
        }
    }

    /// Hands out everything armed telemetry collected, disarming it.
    /// `None` when telemetry was never armed.
    pub fn take_telemetry(&mut self) -> Option<crate::telemetry::TelemetryReport> {
        self.sync();
        let state = self.telemetry.take()?;
        let transfers = if state.trace_armed() {
            self.disarm_trace()
        } else {
            Vec::new()
        };
        Some(state.into_report(transfers))
    }

    /// Cycles left in the open sample window (`u64::MAX` when none is
    /// open): the run loop stops there as on any next-event boundary.
    fn telemetry_window_left(&self) -> u64 {
        let end = self.telemetry.as_ref().and_then(|t| t.next_window_end());
        end.map_or(u64::MAX, |end| end - self.clock.0)
    }

    /// Loop-boundary telemetry hook after every run-loop step: charges
    /// the step to the self-profiler and closes the sample window whose
    /// end the clock reached (charged to `"telemetry"`).
    fn telemetry_after_step(&mut self, step: Step, lap: &mut Option<std::time::Instant>) {
        let Some(t) = self.telemetry.as_deref_mut() else {
            return;
        };
        t.lap(lap, step.label());
        if t.next_window_end().is_some_and(|end| self.clock.0 >= end) {
            self.sync();
            let t = self.telemetry.as_deref_mut().expect("telemetry armed");
            t.close_window(self.clock.0, &self.cores, &self.l3, self.l4.as_ref());
            t.lap(lap, "telemetry");
        }
    }

    /// Starts sample windowing at the warmup→measure boundary (counters
    /// were just reset, so the base snapshot is zero).
    fn telemetry_begin_measure(&mut self) {
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.begin_measure(self.clock.0, &self.cores, &self.l3, self.l4.as_ref());
        }
    }

    /// Flushes the final (partial) sample window at measure end.
    fn telemetry_end_measure(&mut self) {
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.end_measure(self.clock.0, &self.cores, &self.l3, self.l4.as_ref());
        }
    }

    fn emit(&mut self, ev: ObsEvent) {
        if self.observe {
            self.events.push(ev);
        }
    }

    /// Routes one core request through the L3.
    fn l3_access(&mut self, core: u32, token: LoadToken, addr: u64, is_store: bool, pc: u64) {
        let line = translate(addr) / 64;
        let due = self.clock.0 + self.cfg.l3_latency;
        let result = self.l3.access(line, is_store);
        self.emit(ObsEvent::L3Access {
            line,
            is_store,
            hit: matches!(result, L3Result::Hit),
        });
        match result {
            L3Result::Hit => {
                self.l3_staged
                    .push_back((due, Staged::Complete { core, token }));
            }
            L3Result::Miss => {
                let waiter = Waiter {
                    core,
                    token,
                    is_store,
                };
                match self.pending_lines.get_mut(&line) {
                    Some(waiters) => waiters.push(waiter),
                    None => {
                        self.pending_lines.insert(line, vec![waiter]);
                        self.l3_staged
                            .push_back((due, Staged::SubmitRead { line, pc, core }));
                    }
                }
            }
        }
    }

    /// Applies one delivery from the L4: fill the L3, wake waiters, emit
    /// the displaced writeback.
    fn apply_delivery(&mut self, delivery: crate::l4::Delivery) {
        let waiters = self
            .pending_lines
            .remove(&delivery.line)
            .unwrap_or_default();
        let any_store = waiters.iter().any(|w| w.is_store);
        let dcp_bit = delivery.in_l4;
        let fills_l3 = !self.l3.contains(delivery.line);
        self.emit(ObsEvent::Delivered {
            line: delivery.line,
            l4_hit: delivery.l4_hit,
            in_l4: delivery.in_l4,
            filled_l3: fills_l3,
            dirty: any_store,
        });
        if fills_l3 {
            if let Some(victim) = self.l3.fill(delivery.line, any_store, dcp_bit) {
                self.emit(ObsEvent::L3Evicted {
                    line: victim.line,
                    dirty: victim.dirty,
                    dcp: victim.dcp,
                });
                if victim.dirty {
                    self.check_dcp_at_eviction(victim.line, victim.dcp);
                    let due = self.clock.0 + 1;
                    self.writebacks.push_back((due, victim.line, victim.dcp));
                }
            }
        }
        for w in waiters {
            self.complete(w.core, w.token);
        }
    }

    /// Point-of-eviction DCP agreement check: the presence bit shipped
    /// with a dirty L3 eviction must not claim "present" for a line the
    /// DRAM cache can prove absent — a stale bit here silently skips a
    /// required writeback probe. Checked at the eviction instant (not the
    /// periodic sweep) so the report carries the exact cycle the bad hint
    /// was generated. Only Alloy-with-DCP maintains the bit exactly.
    fn check_dcp_at_eviction(&mut self, line: u64, dcp: bool) {
        if !self.sink.enabled() || self.cfg.design != DesignKind::Alloy || !self.cfg.bear.dcp {
            return;
        }
        if dcp && !self.l4.contains_line(line) {
            self.sink.report("dcp-at-eviction", self.clock.0, || {
                format!(
                    "dirty L3 eviction of line {line:#x} carries DCP=present \
                     but the DRAM cache holds no such line"
                )
            });
        }
    }

    /// Applies one L4 eviction notification.
    fn apply_eviction(&mut self, line: u64) {
        match self.cfg.design {
            DesignKind::InclusiveAlloy => match self.l3.back_invalidate(line) {
                Some(wb) => {
                    self.emit(ObsEvent::L3BackInvalidate { line, dirty: true });
                    self.emit(ObsEvent::DirectMemWrite { line: wb.line });
                    // The dirty on-chip copy can no longer write back into
                    // the DRAM cache: it goes straight to memory.
                    self.l4.submit_direct_mem_write(wb.line, self.clock);
                }
                None => self.emit(ObsEvent::L3BackInvalidate { line, dirty: false }),
            },
            _ => {
                if self.cfg.bear.dcp {
                    self.emit(ObsEvent::DcpCleared { line });
                    self.l3.clear_dcp(line);
                }
            }
        }
    }

    /// Applies one injected corruption; returns whether a target existed.
    fn apply_fault(&mut self, kind: FaultKind) -> bool {
        match kind {
            // Set a resident L3 line's DCP bit even though the line is
            // absent from the L4 — the corruption DCP coherence guards
            // against (a stale bit would skip a required writeback probe).
            FaultKind::PresenceFlip => {
                let target = self
                    .l3
                    .resident_lines()
                    .find(|&(line, dcp)| !dcp && !self.l4.contains_line(line))
                    .map(|(line, _)| line);
                match target {
                    Some(line) => self.l3.force_dcp(line, true),
                    None => false,
                }
            }
            other => self.l4.inject_fault(other),
        }
    }

    /// Runs all invariant checks against the current (tick-boundary)
    /// state.
    fn run_invariant_checks(&mut self) {
        if !self.sink.enabled() {
            return;
        }
        self.sync();
        let now = self.clock;
        self.l4.self_check(now, &mut self.sink);
        self.l4
            .harness()
            .check_byte_conservation(now, &mut self.sink);
        self.l4.harness().check_attribution(now, &mut self.sink);
        // DCP coherence: a set presence bit must imply the line is in the
        // DRAM cache. Only Alloy-with-DCP maintains the bit exactly
        // (InclusiveAlloy back-invalidates instead of clearing; with DCP
        // disabled the bit is never consulted and may go stale).
        if self.cfg.design == DesignKind::Alloy && self.cfg.bear.dcp {
            for (line, dcp) in self.l3.resident_lines() {
                if dcp && !self.l4.contains_line(line) {
                    self.sink.report("dcp-coherence", now.0, || {
                        format!(
                            "L3 line {line:#x} has its DCP bit set but is absent \
                             from the DRAM cache"
                        )
                    });
                }
            }
        }
    }

    /// Advances the system by one CPU cycle.
    pub fn tick(&mut self) {
        let now = self.clock;
        self.live_ticks += 1;

        // 0. Fault injection (testing): corrupt state at the tick boundary
        //    and re-check immediately, so every applied fault is observed
        //    before natural churn can repair it. A fault with no target
        //    yet (e.g. an empty NTC) is re-armed for the next cycle.
        if let Some(fault) = self.faults.next_due(now.0) {
            if self.apply_fault(fault.kind) {
                self.run_invariant_checks();
            } else {
                self.faults.retry(fault);
            }
        }

        // 1. Cores issue at most one memory access each (unless halted for
        //    a drain). Only cores whose wake cycle has come tick; the
        //    others' ticks are quiet and stay deferred. Index order keeps
        //    the L3 access order of per-cycle polling.
        if !self.cores_halted {
            for i in 0..self.cores.len() {
                if self.core_clocks[i].wake > now.0 {
                    continue;
                }
                self.catch_up(i, now.0);
                self.core_ticks += 1;
                let req = self.cores[i].tick(now);
                self.core_clocks[i].synced = now.0 + 1;
                self.rewake(i);
                if let Some(req) = req {
                    self.l3_access(req.core, req.token, req.addr, req.is_store, req.pc);
                }
            }
        }

        // 2. Staged events due now, L3-latency events first: they were
        //    staged before any writeback due now (on an earlier cycle, or,
        //    at a one-cycle latency, by the cores before the L4 outputs
        //    applied). Handling them stages nothing.
        while let Some((_, ev)) = self.l3_staged.pop_front_if(|e| e.0 <= now.0) {
            match ev {
                Staged::Complete { core, token } => self.complete(core, token),
                Staged::SubmitRead { line, pc, core } => {
                    self.l4.submit_read(line, pc, core, now);
                }
            }
        }
        while let Some((_, line, dcp)) = self.writebacks.pop_front_if(|w| w.0 <= now.0) {
            let hint = self.cfg.bear.dcp.then_some(dcp);
            self.emit(ObsEvent::WbSubmitted { line, hint });
            self.l4.submit_writeback(line, hint, now);
        }

        // 3. Memory system. Controller events merge in before the
        //    delivery/eviction processing that reacts to them, keeping the
        //    per-line decision order intact for the oracle. Eviction
        //    notifications apply before deliveries: the L4 state change
        //    they describe already happened inside `tick`, and a same-tick
        //    delivery may displace an L3 line whose DCP bit this batch is
        //    about to clear — the clear must win, or the victim's
        //    writeback ships a stale probe-skip hint.
        //
        //    In the event-driven mode the whole step is elided when the
        //    controller's busy hint proves it has no external effect: no
        //    controller work, no retiring completion, no drainable retry
        //    head. The channels' internal ticks it would have run are
        //    replayed at the next device touch. The check runs after
        //    steps 1–2 so any submission they made is visible (a fresh
        //    submission lands in the harness retry queues, which report
        //    busy as soon as their head can drain).
        if !self.event_driven || self.l4.next_busy_cycle(now) <= now {
            let mut outputs = std::mem::take(&mut self.outputs);
            outputs.clear();
            self.l4.tick(now, &mut outputs);
            if self.observe {
                self.events.append(&mut outputs.events);
            }
            for line in outputs.evictions.drain(..) {
                self.apply_eviction(line);
            }
            for d in outputs.deliveries.drain(..) {
                self.apply_delivery(d);
            }
            self.outputs = outputs;
        }

        self.clock += 1;
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.after_tick(self.clock.0, &mut self.events);
        }
    }

    /// Queue-occupancy snapshot attached to `Stalled` errors.
    fn stall_snapshot(&self) -> String {
        format!(
            "wheel events {}, pending lines {}, l4 txns {}, device pending {}, retry depth {}",
            self.staged_len(),
            self.pending_lines.len(),
            self.l4.pending_txns(),
            self.l4.harness().pending(),
            self.l4.harness().retry_depth()
        )
    }

    /// Ticks `cycles` times with periodic invariant checks and a
    /// forward-progress watchdog: if the summed retired-instruction count
    /// stops advancing for `watchdog_window` cycles, the run aborts with
    /// [`SimError::Stalled`] instead of spinning forever.
    fn run_phase(&mut self, cycles: u64) -> Result<(), SimError> {
        /// Cycles between invariant checks and heartbeat samples
        /// (power of two; checks happen at tick boundaries).
        const CHECK_STRIDE: u64 = 4096;
        let window = self.cfg.watchdog_window;
        self.sync();
        let mut last_insts: u64 = self.cores.iter().map(|c| c.retired_insts()).sum();
        let mut last_progress = self.clock;
        let end = self.clock + cycles;
        let mut lap = self.telemetry.as_ref().and_then(|t| t.start_lap());
        while self.clock < end {
            // Skip provably idle cycles, stopping exactly on check
            // boundaries and sample-window ends so invariant checks, the
            // watchdog and telemetry observe the same clock values (and
            // states) as per-cycle polling would.
            let to_boundary = CHECK_STRIDE - (self.clock.0 % CHECK_STRIDE);
            let limit = (end - self.clock)
                .min(to_boundary)
                .min(self.telemetry_window_left());
            let step = self.step(limit);
            self.telemetry_after_step(step, &mut lap);
            if self.clock.0.is_multiple_of(CHECK_STRIDE) {
                self.run_invariant_checks();
                if window > 0 {
                    self.sync();
                    let insts: u64 = self.cores.iter().map(|c| c.retired_insts()).sum();
                    if insts != last_insts {
                        last_insts = insts;
                        last_progress = self.clock;
                    } else if self.clock - last_progress >= window {
                        return Err(SimError::Stalled {
                            cycle: self.clock.0,
                            snapshot: self.stall_snapshot(),
                        });
                    }
                }
            }
        }
        self.sync();
        Ok(())
    }

    /// Runs `warmup` cycles, resets statistics, runs `measure` cycles, and
    /// reports.
    ///
    /// # Panics
    ///
    /// Panics if the run stalls (watchdog); use [`System::run_monitored`]
    /// for a recoverable error.
    pub fn run(&mut self, warmup: u64, measure: u64) -> RunStats {
        match self.run_monitored(warmup, measure) {
            Ok(stats) => stats,
            Err(e) => panic!("simulation failed: {e}"),
        }
    }

    /// Monitored variant of [`System::run`]: the watchdog converts hangs
    /// into typed [`SimError::Stalled`] outcomes, and invariant checks run
    /// every few thousand cycles (per the configured [`CheckMode`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Stalled`] when no core retires an instruction
    /// for `watchdog_window` consecutive cycles.
    pub fn run_monitored(&mut self, warmup: u64, measure: u64) -> Result<RunStats, SimError> {
        self.run_phase(warmup)?;
        self.reset_stats();
        self.telemetry_begin_measure();
        let inst_base: Vec<u64> = self.cores.iter().map(|c| c.retired_insts()).collect();
        let start = self.clock;
        self.run_phase(measure)?;
        self.telemetry_end_measure();
        let elapsed = self.clock - start;
        let insts_per_core: Vec<u64> = self
            .cores
            .iter()
            .zip(&inst_base)
            .map(|(c, base)| c.retired_insts() - base)
            .collect();
        let ipc_per_core = insts_per_core
            .iter()
            .map(|&i| i as f64 / elapsed as f64)
            .collect();

        let l4_stats = self.l4.stats();
        Ok(RunStats {
            workload: self
                .cores
                .first()
                .map(|c| c.workload_name().to_string())
                .unwrap_or_default(),
            design: self.cfg.design.label().to_string(),
            cycles: elapsed,
            insts_per_core,
            ipc_per_core,
            l4: L4StatsSnapshot::from_stats(l4_stats),
            bloat: BloatBreakdown::collect(&self.l4.harness().cache, l4_stats),
            l3_hit_rate: self.l3.hit_rate(),
            cache_read_queue_latency: self.l4.harness().cache.mean_read_queue_latency(),
            mem_bytes: self.l4.harness().mem.total_bytes(),
        })
    }

    /// Resets measurement statistics while preserving all architectural
    /// state (cache contents, predictor training, duel counters).
    pub fn reset_stats(&mut self) {
        self.sync();
        self.l4.reset_stats();
        self.l3.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BearFeatures;
    use bear_workloads::rate_workloads;

    fn quick_cfg(design: DesignKind) -> SystemConfig {
        let mut cfg = SystemConfig::paper_baseline(design);
        // Tiny fast configuration for unit tests: footprints bottom out at
        // the 1024-line floor (sphinx3 and friends), so the 1 MB L4 can
        // warm within the window.
        cfg.scale_shift = 14;
        cfg.warmup_cycles = 120_000;
        cfg.measure_cycles = 80_000;
        cfg
    }

    fn run_quick(design: DesignKind, bear: BearFeatures, bench: &str) -> RunStats {
        let mut cfg = quick_cfg(design);
        if matches!(design, DesignKind::Alloy) {
            cfg.bear = bear;
        }
        let mut sys = System::build_rate(&cfg, bench);
        sys.run(cfg.warmup_cycles, cfg.measure_cycles)
    }

    #[test]
    fn alloy_system_makes_progress_and_hits() {
        let stats = run_quick(DesignKind::Alloy, BearFeatures::none(), "sphinx3");
        assert!(stats.total_ipc() > 0.1, "ipc {}", stats.total_ipc());
        assert!(stats.l4.read_lookups > 100);
        assert!(stats.l4.hit_rate > 0.05, "hit rate {}", stats.l4.hit_rate);
        assert!(stats.bloat.factor() > 1.0, "bloat {}", stats.bloat.factor());
        assert_eq!(stats.design, "Alloy");
        assert_eq!(stats.workload, "sphinx3");
    }

    #[test]
    fn bwopt_bloat_is_one() {
        let stats = run_quick(DesignKind::BwOpt, BearFeatures::none(), "sphinx3");
        // Transfers in flight across the stats-reset boundary can skew the
        // ratio by a fraction of one transfer; 1 % tolerance.
        assert!(
            (stats.bloat.factor() - 1.0).abs() < 0.01,
            "BW-Opt bloat must be ~1, got {}",
            stats.bloat.factor()
        );
    }

    #[test]
    fn alloy_bloat_exceeds_bwopt_and_hit_latency_ordering() {
        let alloy = run_quick(DesignKind::Alloy, BearFeatures::none(), "gcc");
        let opt = run_quick(DesignKind::BwOpt, BearFeatures::none(), "gcc");
        assert!(alloy.bloat.factor() > 1.5);
        assert!(
            alloy.l4.hit_latency > opt.l4.hit_latency,
            "alloy {} vs opt {}",
            alloy.l4.hit_latency,
            opt.l4.hit_latency
        );
    }

    #[test]
    fn no_cache_design_runs() {
        let stats = run_quick(DesignKind::NoCache, BearFeatures::none(), "sphinx3");
        assert!(stats.total_ipc() > 0.01);
        assert_eq!(stats.l4.read_hits, 0);
        assert_eq!(stats.bloat.total_bytes(), 0);
    }

    #[test]
    fn bear_reduces_bloat_vs_alloy() {
        let alloy = run_quick(DesignKind::Alloy, BearFeatures::none(), "gcc");
        let bear = run_quick(DesignKind::Alloy, BearFeatures::full(), "gcc");
        assert!(
            bear.bloat.factor() < alloy.bloat.factor(),
            "bear {} vs alloy {}",
            bear.bloat.factor(),
            alloy.bloat.factor()
        );
    }

    #[test]
    fn dcp_avoids_writeback_probes() {
        let bear = run_quick(DesignKind::Alloy, BearFeatures::bab_dcp(), "omnetpp");
        assert!(
            bear.l4.wb_probes_avoided > 0,
            "DCP should skip some writeback probes"
        );
    }

    #[test]
    fn ntc_avoids_miss_probes_or_squashes() {
        let bear = run_quick(DesignKind::Alloy, BearFeatures::full(), "mcf");
        assert!(
            bear.l4.miss_probes_avoided + bear.l4.parallel_squashed > 0,
            "NTC should contribute on a miss-heavy workload"
        );
    }

    #[test]
    fn deterministic_runs() {
        let a = run_quick(DesignKind::Alloy, BearFeatures::none(), "wrf");
        let b = run_quick(DesignKind::Alloy, BearFeatures::none(), "wrf");
        assert_eq!(a.insts_per_core, b.insts_per_core);
        assert_eq!(a.bloat.total_bytes(), b.bloat.total_bytes());
        assert_eq!(a.l4.read_lookups, b.l4.read_lookups);
    }

    /// The tentpole guarantee of the event-driven loop: skipping provably
    /// idle cycles is invisible to the simulation. Every design family
    /// must report bit-identical results between the skipping run loop
    /// and naive per-cycle polling.
    #[test]
    fn event_driven_matches_polling_across_designs() {
        for (design, bench) in [
            (DesignKind::NoCache, "mcf"),
            (DesignKind::Alloy, "sphinx3"),
            (DesignKind::LohHill, "gcc"),
            (DesignKind::TagsInSram, "omnetpp"),
            (DesignKind::SectorCache, "wrf"),
        ] {
            let mut cfg = quick_cfg(design);
            if design == DesignKind::Alloy {
                cfg.bear = BearFeatures::full();
            }
            let mut fast = System::build_rate(&cfg, bench);
            let mut slow = System::build_rate(&cfg, bench);
            slow.set_event_driven(false);
            let a = fast.run(30_000, 30_000);
            let b = slow.run(30_000, 30_000);
            assert_eq!(a.insts_per_core, b.insts_per_core, "{design:?} insts");
            assert_eq!(a.cycles, b.cycles, "{design:?} cycles");
            assert_eq!(a.l4.read_lookups, b.l4.read_lookups, "{design:?} lookups");
            assert_eq!(a.l4.read_hits, b.l4.read_hits, "{design:?} hits");
            assert_eq!(a.l4.fills, b.l4.fills, "{design:?} fills");
            assert_eq!(a.l4.bypasses, b.l4.bypasses, "{design:?} bypasses");
            assert_eq!(
                a.bloat.total_bytes(),
                b.bloat.total_bytes(),
                "{design:?} cache bytes"
            );
            assert_eq!(a.mem_bytes, b.mem_bytes, "{design:?} mem bytes");
            assert_eq!(fast.now(), slow.now(), "{design:?} clock");
            // Stall accounting is replayed in closed form by the skipper;
            // it must agree exactly with the polled run.
            for (cf, cs) in fast.cores.iter().zip(&slow.cores) {
                assert_eq!(cf.stall_cycles, cs.stall_cycles, "{design:?} stalls");
                assert_eq!(cf.loads_issued, cs.loads_issued, "{design:?} loads");
            }
        }
    }

    /// Refresh is clocked on absolute time, the one place where a careless
    /// skip would change simulated behavior; pin equivalence explicitly.
    #[test]
    fn event_driven_matches_polling_with_refresh() {
        let mut cfg = quick_cfg(DesignKind::Alloy);
        cfg.cache_dram.timings = bear_dram::DramTimings::table1_with_refresh();
        cfg.mem_dram.timings = bear_dram::DramTimings::table1_with_refresh();
        let mut fast = System::build_rate(&cfg, "sphinx3");
        let mut slow = System::build_rate(&cfg, "sphinx3");
        slow.set_event_driven(false);
        let a = fast.run(30_000, 30_000);
        let b = slow.run(30_000, 30_000);
        assert_eq!(a.insts_per_core, b.insts_per_core);
        assert_eq!(a.bloat.total_bytes(), b.bloat.total_bytes());
        assert_eq!(a.mem_bytes, b.mem_bytes);
    }

    /// Drain matrix: every design quiesces to a fully empty memory system
    /// with exact byte conservation, under the event-driven loop.
    #[test]
    fn every_design_quiesces_to_empty() {
        for design in [
            DesignKind::NoCache,
            DesignKind::Alloy,
            DesignKind::InclusiveAlloy,
            DesignKind::BwOpt,
            DesignKind::LohHill,
            DesignKind::MostlyClean,
            DesignKind::TagsInSram,
            DesignKind::SectorCache,
        ] {
            let cfg = quick_cfg(design);
            let mut sys = System::build_rate(&cfg, "mcf");
            sys.set_check_mode(bear_sim::invariants::CheckMode::Record);
            sys.run(10_000, 20_000);
            assert!(sys.quiesce(2_000_000), "{design:?} failed to drain");
            assert!(sys.is_drained(), "{design:?} not drained");
            assert_eq!(sys.l4_cache().pending_txns(), 0, "{design:?} txns");
            assert_eq!(sys.l4_cache().harness().pending(), 0, "{design:?} reqs");
            let mut sink = InvariantSink::new(bear_sim::invariants::CheckMode::Record);
            sys.l4_cache()
                .harness()
                .check_byte_conservation(sys.now(), &mut sink);
            sys.l4_cache()
                .harness()
                .check_attribution(sys.now(), &mut sink);
            assert!(
                sink.violations().is_empty(),
                "{design:?} byte/attribution conservation violated at drain: {:?}",
                sink.violations()
            );
            assert!(
                sys.violations().is_empty(),
                "{design:?} invariants violated: {:?}",
                sys.violations()
            );
        }
    }

    #[test]
    fn inclusive_design_runs_and_avoids_wb_probes() {
        let stats = run_quick(DesignKind::InclusiveAlloy, BearFeatures::none(), "gcc");
        assert!(stats.total_ipc() > 0.05);
        assert!(stats.l4.wb_probes_avoided > 0);
    }

    #[test]
    fn all_designs_run_on_a_mix() {
        let workloads = bear_workloads::mix_workloads();
        let mix = &workloads[0];
        for design in [
            DesignKind::Alloy,
            DesignKind::LohHill,
            DesignKind::MostlyClean,
            DesignKind::TagsInSram,
            DesignKind::SectorCache,
        ] {
            let cfg = quick_cfg(design);
            let mut sys = System::build(&cfg, mix);
            let stats = sys.run(10_000, 20_000);
            assert!(
                stats.total_ipc() > 0.01,
                "{design:?} made no progress: {stats:?}"
            );
        }
    }

    #[test]
    fn try_build_reports_config_errors() {
        let mut cfg = quick_cfg(DesignKind::Alloy);
        cfg.cache_dram.sched_window = 0;
        let w = Workload::rate(bear_workloads::BenchmarkProfile::by_name("mcf").unwrap());
        let err = System::try_build(&cfg, &w).unwrap_err();
        assert_eq!(err.kind(), "config");
        assert!(err.to_string().contains("cache_dram"), "{err}");
    }

    #[test]
    fn watchdog_converts_hang_into_stalled_error() {
        let mut cfg = quick_cfg(DesignKind::Alloy);
        // A pathological-but-valid refresh configuration: the first
        // refresh blocks every cache channel for longer than the run, so
        // all cores eventually wedge behind unserviceable probes.
        cfg.cache_dram.timings.t_refi = 100;
        cfg.cache_dram.timings.t_rfc = 10_000_000;
        cfg.watchdog_window = 8192;
        let mut sys = System::build_rate(&cfg, "mcf");
        let err = sys.run_monitored(0, 300_000).unwrap_err();
        assert_eq!(err.kind(), "stalled");
        let msg = err.to_string();
        assert!(msg.contains("retry depth"), "snapshot missing: {msg}");
    }

    #[test]
    fn healthy_run_passes_watchdog_and_invariants() {
        let mut cfg = quick_cfg(DesignKind::Alloy);
        cfg.bear = BearFeatures::full();
        let mut sys = System::build_rate(&cfg, "sphinx3");
        sys.set_check_mode(bear_sim::invariants::CheckMode::Record);
        let stats = sys
            .run_monitored(cfg.warmup_cycles, cfg.measure_cycles)
            .expect("healthy run must not stall");
        assert!(stats.total_ipc() > 0.05);
        assert!(
            sys.violations().is_empty(),
            "clean run reported violations: {:?}",
            sys.violations()
        );
    }

    #[test]
    fn every_injected_fault_class_is_detected() {
        use bear_sim::faultinject::{FaultKind, FaultPlan};
        let expected = [
            (FaultKind::TagFlip, "ntc-mirror"),
            (FaultKind::PresenceFlip, "dcp-coherence"),
            (FaultKind::NtcDesync, "ntc-mirror"),
            (FaultKind::ByteAccounting, "byte-conservation"),
        ];
        for (kind, invariant) in expected {
            let mut cfg = quick_cfg(DesignKind::Alloy);
            cfg.bear = BearFeatures::full();
            let mut sys = System::build_rate(&cfg, "mcf");
            sys.set_check_mode(bear_sim::invariants::CheckMode::Record);
            // Inject mid-warmup, once the NTC/DCP state is populated.
            sys.set_fault_plan(FaultPlan::single(kind, 30_000));
            sys.run_monitored(60_000, 20_000)
                .expect("fault-injected run completes (Record mode)");
            assert!(
                sys.violations().iter().any(|v| v.name == invariant),
                "{kind:?} was not caught by '{invariant}': {:?}",
                sys.violations()
            );
        }
    }

    #[test]
    fn dcp_at_eviction_reports_stale_presence_bit() {
        let mut cfg = quick_cfg(DesignKind::Alloy);
        cfg.bear = BearFeatures::bab_dcp();
        let mut sys = System::build_rate(&cfg, "sphinx3");
        sys.set_check_mode(bear_sim::invariants::CheckMode::Record);
        // A line the DRAM cache has never seen: provably absent.
        let line = 0xDEAD;
        assert!(!sys.l4.contains_line(line));
        // A truthful "absent" hint passes; a stale "present" hint reports.
        sys.check_dcp_at_eviction(line, false);
        assert!(sys.violations().is_empty());
        sys.check_dcp_at_eviction(line, true);
        assert!(
            sys.violations().iter().any(|v| v.name == "dcp-at-eviction"),
            "stale DCP bit at eviction must be reported: {:?}",
            sys.violations()
        );
    }

    #[test]
    fn observation_emits_ordered_events_and_disarms_cleanly() {
        use crate::events::ObsEvent;
        let mut cfg = quick_cfg(DesignKind::Alloy);
        cfg.bear = BearFeatures::full();
        let mut sys = System::build_rate(&cfg, "sphinx3");
        sys.set_observe(true);
        let mut events = Vec::new();
        for _ in 0..30_000 {
            sys.tick();
            events.append(&mut sys.drain_events());
        }
        for probe in [
            events
                .iter()
                .any(|e| matches!(e, ObsEvent::L3Access { .. })),
            events
                .iter()
                .any(|e| matches!(e, ObsEvent::ReadClassified { .. })),
            events
                .iter()
                .any(|e| matches!(e, ObsEvent::Delivered { .. })),
        ] {
            assert!(probe, "expected event class missing from {}", events.len());
        }
        sys.set_observe(false);
        sys.tick();
        assert!(sys.drain_events().is_empty(), "disarmed system still emits");
    }

    #[test]
    fn quiesce_drains_all_queues() {
        let cfg = quick_cfg(DesignKind::Alloy);
        let mut sys = System::build_rate(&cfg, "mcf");
        for _ in 0..20_000 {
            sys.tick();
        }
        assert!(sys.quiesce(500_000), "system failed to drain");
        assert!(sys.is_drained());
    }

    /// Sample-window edge cases (ISSUE 4): windows align to the
    /// warmup→measure boundary, the last partial window is flushed, and
    /// counters reset between windows so per-window sums equal the
    /// end-of-run aggregates.
    #[test]
    fn telemetry_windows_align_flush_and_sum_to_totals() {
        use bear_telemetry::TelemetryConfig;
        let mut cfg = quick_cfg(DesignKind::Alloy);
        cfg.bear = BearFeatures::full();
        let window = 7_000; // Not a divisor of measure: forces a partial tail.
        let mut sys = System::build_rate(&cfg, "gcc");
        sys.set_telemetry(TelemetryConfig::sampling(window));
        let stats = sys.run(cfg.warmup_cycles, cfg.measure_cycles);
        let report = sys.take_telemetry().expect("telemetry was armed");
        let samples = &report.samples;

        // Window geometry: aligned to the measure boundary, contiguous,
        // full-length except the flushed partial tail.
        let expected = cfg.measure_cycles.div_ceil(window) as usize;
        assert_eq!(samples.len(), expected);
        assert_eq!(samples[0].start_cycle, cfg.warmup_cycles);
        let last = samples.last().unwrap();
        assert_eq!(last.end_cycle, cfg.warmup_cycles + cfg.measure_cycles);
        assert_eq!(
            last.end_cycle - last.start_cycle,
            cfg.measure_cycles % window,
            "tail window must be the partial remainder"
        );
        for (i, s) in samples.iter().enumerate() {
            assert_eq!(s.window, i as u64);
            if i + 1 < samples.len() {
                assert_eq!(s.end_cycle - s.start_cycle, window, "window {i} length");
                assert_eq!(s.end_cycle, samples[i + 1].start_cycle, "window {i} gap");
            }
        }

        // Counters reset between windows: sums reproduce run aggregates.
        let sum = |f: fn(&bear_telemetry::Sample) -> u64| samples.iter().map(f).sum::<u64>();
        assert_eq!(sum(|s| s.insts_retired), stats.insts_per_core.iter().sum());
        assert_eq!(sum(|s| s.read_lookups), stats.l4.read_lookups);
        assert_eq!(sum(|s| s.read_hits), stats.l4.read_hits);
        assert_eq!(sum(|s| s.useful_lines), stats.bloat.useful_lines);
        assert_eq!(sum(|s| s.mem_bytes), stats.mem_bytes);
        assert_eq!(
            sum(|s| s.cache_bytes_by_class.iter().sum()),
            stats.bloat.total_bytes()
        );
        // Something actually happened in the middle of the run, not just
        // at the edges.
        assert!(samples[1].read_lookups > 0, "mid-run window saw traffic");
        let probe_carrying = samples.iter().filter(|s| s.capacity_lines > 0).count();
        assert_eq!(probe_carrying, samples.len(), "Alloy exposes a probe");
    }

    /// Telemetry must be invisible to the simulation: stats with sampling,
    /// tracing, and profiling all armed are identical to a disarmed run.
    #[test]
    fn telemetry_off_and_on_report_identical_stats() {
        use bear_telemetry::TelemetryConfig;
        let mut cfg = quick_cfg(DesignKind::Alloy);
        cfg.bear = BearFeatures::full();
        let mut plain = System::build_rate(&cfg, "mcf");
        let plain_stats = plain.run(cfg.warmup_cycles, cfg.measure_cycles);

        let mut armed = System::build_rate(&cfg, "mcf");
        armed.set_telemetry(TelemetryConfig::full(5_000));
        let armed_stats = armed.run(cfg.warmup_cycles, cfg.measure_cycles);
        assert_eq!(plain_stats, armed_stats);
        // Arming must not force per-cycle polling: the armed run takes
        // the same idle skips as the disarmed one.
        assert!(armed.loop_counters().0 > 0, "armed run elided no cycles");

        let report = armed.take_telemetry().expect("armed");
        assert!(!report.samples.is_empty());
        assert!(!report.events.is_empty(), "tracing captured events");
        assert!(!report.transfers.is_empty(), "tracing captured DRAM bursts");
        assert!(!report.profile.is_empty(), "profiling recorded phases");
        assert!(armed.take_telemetry().is_none(), "take disarms");
    }

    /// Armed telemetry rides the event-driven loop: with sampling and
    /// tracing armed, the event loop reproduces per-cycle polling exactly —
    /// stats, per-core counters, sample JSONL, ring events and DRAM
    /// transfer records — while eliding cycles. Window closes are core
    /// sync points, so each sample reads caught-up cores. Window lengths
    /// include non-divisors of the invariant-check stride, so window ends
    /// are stops of their own.
    #[test]
    fn telemetry_armed_event_loop_matches_polling() {
        use bear_telemetry::{TelemetryConfig, TelemetryOptions};
        for (design, bench, window) in [
            (DesignKind::Alloy, "mcf", 7_000),
            (DesignKind::Alloy, "lbm", 3_000),
            (DesignKind::LohHill, "gcc", 10_000),
            (DesignKind::NoCache, "mcf", 4_096),
        ] {
            let mut cfg = quick_cfg(design);
            if design == DesignKind::Alloy {
                cfg.bear = BearFeatures::full();
            }
            let run = |event_driven: bool| {
                let mut sys = System::build_rate(&cfg, bench);
                sys.set_event_driven(event_driven);
                sys.set_telemetry(TelemetryConfig::On(TelemetryOptions {
                    sample_window: window,
                    ring_capacity: 1 << 16,
                    trace: true,
                    profile: false,
                }));
                let stats = sys.run(30_000, 45_000);
                let elided = sys.loop_counters().0;
                let report = sys.take_telemetry().expect("armed");
                let lines: Vec<String> = report.samples.iter().map(|s| s.to_json_line()).collect();
                let cores = core_counters(&sys);
                (stats, cores, lines, report.events, report.transfers, elided)
            };
            let (p_stats, p_cores, p_lines, p_events, p_transfers, p_elided) = run(false);
            let (e_stats, e_cores, e_lines, e_events, e_transfers, e_elided) = run(true);
            let cell = format!("{design:?}x{bench}/{window}");
            assert_eq!(p_stats, e_stats, "{cell}: stats");
            assert_eq!(p_cores, e_cores, "{cell}: core counters");
            assert_eq!(p_lines, e_lines, "{cell}: sample JSONL");
            assert_eq!(p_events, e_events, "{cell}: ring events");
            assert_eq!(p_transfers, e_transfers, "{cell}: transfer records");
            assert!(!p_lines.is_empty(), "{cell}: no windows");
            assert!(!p_events.is_empty(), "{cell}: no events");
            assert_eq!(p_elided, 0, "{cell}: polled run elided cycles");
            assert!(e_elided > 0, "{cell}: event run elided no cycles");
        }
    }

    /// Re-arming over a trace-armed state tears the old state down first:
    /// a sampling-only re-arm leaves neither observation nor the
    /// transfer log running, so no events pile up undrained.
    #[test]
    fn rearming_telemetry_disarms_tracing() {
        use bear_telemetry::TelemetryConfig;
        let mut cfg = quick_cfg(DesignKind::Alloy);
        cfg.bear = BearFeatures::full();
        let mut sys = System::build_rate(&cfg, "mcf");
        sys.set_telemetry(TelemetryConfig::full(5_000));
        sys.set_telemetry(TelemetryConfig::sampling(5_000));
        sys.run(20_000, 20_000);
        assert!(sys.drain_events().is_empty(), "events leaked after re-arm");
        assert!(
            sys.l4
                .harness_mut()
                .cache
                .take_transfer_records()
                .is_empty(),
            "transfer log still armed after re-arm"
        );
        let report = sys.take_telemetry().expect("armed");
        assert!(report.events.is_empty() && report.transfers.is_empty());
        assert!(!report.samples.is_empty());
    }

    /// Per-core counters deferral must reproduce exactly.
    fn core_counters(sys: &System) -> Vec<[u64; 4]> {
        sys.cores
            .iter()
            .map(|c| {
                [
                    c.retired_insts(),
                    c.stall_cycles,
                    c.loads_issued,
                    c.stores_issued,
                ]
            })
            .collect()
    }

    /// Deferred cores are invisible: stopped at awkward points — phase
    /// budgets ending mid-quiet-window, a loop stop off every boundary,
    /// a quiesce after `halt_cores` — the event loop's cores hold the
    /// same counters as polled cores that ticked every cycle.
    #[test]
    fn deferred_cores_match_polling_at_awkward_stops() {
        for (design, bear, bench) in [
            (DesignKind::NoCache, false, "mcf"),
            (DesignKind::Alloy, false, "sphinx3"),
            (DesignKind::Alloy, true, "mcf"),
            (DesignKind::Alloy, true, "lbm"),
            (DesignKind::LohHill, false, "gcc"),
            (DesignKind::TagsInSram, false, "omnetpp"),
        ] {
            let mut cfg = quick_cfg(design);
            if bear {
                cfg.bear = BearFeatures::full();
            }
            let run = |event_driven: bool| {
                let mut sys = System::build_rate(&cfg, bench);
                sys.set_event_driven(event_driven);
                let stats = sys.run(30_001, 17_777);
                let after_run = core_counters(&sys);
                // Step the loop itself to a stop that is no check
                // boundary, leaving quiet cores deferred; `halt_cores`
                // must apply their owed ticks before freezing them.
                let end = sys.clock + 1_234;
                while sys.clock < end {
                    sys.step(end - sys.clock);
                }
                let now = sys.clock.0;
                let deferred = sys.core_clocks.iter().filter(|c| c.synced < now).count();
                sys.halt_cores();
                let halted = core_counters(&sys);
                let drained = sys.quiesce(2_000_000);
                let quiesced = (core_counters(&sys), sys.now(), drained);
                ((stats, after_run, halted, quiesced), deferred)
            };
            let (polled, p_deferred) = run(false);
            let (event, e_deferred) = run(true);
            let cell = format!("{design:?}(bear={bear})x{bench}");
            assert_eq!(polled, event, "{cell}: deferred cores diverged");
            assert!(polled.3 .2, "{cell}: quiesce did not drain");
            assert_eq!(p_deferred, 0, "{cell}: polled mode deferred a core");
            assert!(e_deferred > 0, "{cell}: the stop caught no core deferred");
        }
    }

    /// Pins the deferral itself: on memory-bound BEAR×mcf at 1/512, the
    /// event loop ticks under a quarter of the cores its own live ticks
    /// would tick if every live tick ticked every core, as polling does.
    #[test]
    fn event_loop_ticks_only_due_cores() {
        let mut cfg = SystemConfig::paper_baseline(DesignKind::Alloy);
        crate::config::ScalePreset::Half512.apply(&mut cfg);
        cfg.bear = BearFeatures::full();
        let mut polled = System::build_rate(&cfg, "mcf");
        polled.set_event_driven(false);
        let mut event = System::build_rate(&cfg, "mcf");
        assert_eq!(polled.run(20_000, 40_000), event.run(20_000, 40_000));
        let cores = polled.cores.len() as u64;
        let (_, polled_live) = polled.loop_counters();
        assert_eq!(
            polled.core_ticks(),
            cores * polled_live,
            "polling ticks every core"
        );
        let (_, event_live) = event.loop_counters();
        assert!(
            event.core_ticks() * 4 < cores * event_live,
            "event loop ticked {} cores over {event_live} live ticks",
            event.core_ticks()
        );
    }

    /// FNV-1a 64-bit digest of `text`.
    fn fnv1a64(text: &str) -> u64 {
        text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// At a one-cycle L3 latency both staging queues fall due on the same
    /// cycle: an access a core issues at `t` and a writeback that a fill
    /// displaces at `t` both reach the controller at `t + 1`, the access
    /// first. The event loop matches polling, and the results match
    /// digests pinned when one delay wheel held both kinds in push order.
    #[test]
    fn one_cycle_l3_latency_matches_polling_and_pinned_digests() {
        for (design, bench, digest) in [
            (DesignKind::Alloy, "lbm", 0x1328_319f_6554_d7f4_u64),
            (DesignKind::LohHill, "mcf", 0x6ce2_ccfa_8385_b1ae),
            (DesignKind::NoCache, "lbm", 0x45f3_0d7e_477e_5ea3),
        ] {
            let mut cfg = quick_cfg(design);
            cfg.l3_latency = 1;
            if design == DesignKind::Alloy {
                cfg.bear = BearFeatures::full();
            }
            let run = |event_driven: bool| {
                let mut sys = System::build_rate(&cfg, bench);
                sys.set_event_driven(event_driven);
                sys.run(20_000, 20_000)
            };
            let (polled, event) = (run(false), run(true));
            assert_eq!(polled, event, "{design:?}: event loop diverged");
            let text = format!("{event:?}");
            assert_eq!(fnv1a64(&text), digest, "{design:?}: results moved: {text}");
        }
    }

    /// The `Debug` depth and the stall snapshot count staged events, not
    /// the distinct cycles they fall due on.
    #[test]
    fn staged_depth_counts_events() {
        let cfg = quick_cfg(DesignKind::Alloy);
        let mut sys = System::build_rate(&cfg, "mcf");
        for (token, addr) in [(1, 0x1000), (2, 0x2000)] {
            sys.l3.fill(translate(addr) / 64, false, false);
            sys.l3_access(0, LoadToken(token), addr, false, 0);
        }
        let text = format!("{sys:?}");
        assert!(text.contains("wheel_depth: 2"), "{text}");
        let snapshot = sys.stall_snapshot();
        assert!(snapshot.starts_with("wheel events 2,"), "{snapshot}");
    }

    #[test]
    fn rate_workload_names_flow_through() {
        let w = &rate_workloads()[0];
        let cfg = quick_cfg(DesignKind::Alloy);
        let sys = System::build(&cfg, w);
        assert_eq!(sys.config().design, DesignKind::Alloy);
        assert!(format!("{sys:?}").contains("System"));
    }
}

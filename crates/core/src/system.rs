//! The full-system simulator: cores → L3 → L4 controller → DRAM devices.
//!
//! [`System`] wires eight trace-driven cores to the shared L3, routes L3
//! misses and dirty evictions to the configured DRAM-cache controller, and
//! plumbs the BEAR notifications back (DCP bit set on fill, cleared on L4
//! eviction; inclusive back-invalidations). The run loop is a single
//! CPU-cycle tick with a delay wheel for latency-staged events.

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
use std::collections::{BTreeMap, HashMap};

/// Address-space stride separating per-core footprints (mirrors the
/// paper's virtual-memory guarantee that mixes never collide).
const CORE_ADDR_STRIDE: u64 = 1 << 40;

/// Page-space width of the modeled physical address space.
const PAGE_BITS: u64 = 52;

/// Per-channel capacity of the DRAM-cache transfer log while telemetry
/// tracing is armed (newest records win; trace export is windowed anyway).
#[cfg(feature = "telemetry")]
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

#[derive(Debug, Clone, Copy)]
enum Staged {
    /// A core load/store completes (L3 hit or fill finished).
    Complete { core: u32, token: LoadToken },
    /// An L3 miss reaches the L4 controller after the L3 lookup latency.
    SubmitRead { line: u64, pc: u64, core: u32 },
    /// A dirty L3 eviction reaches the L4 controller.
    SubmitWriteback { line: u64, dcp: bool },
}

#[derive(Debug, Clone, Copy)]
struct Waiter {
    core: u32,
    token: LoadToken,
    is_store: bool,
}

/// The assembled system.
pub struct System {
    cfg: SystemConfig,
    cores: Vec<Core>,
    l3: L3Cache,
    l4: Box<dyn L4Cache>,
    /// Delay wheel keyed by due cycle.
    wheel: BTreeMap<u64, Vec<Staged>>,
    /// Earliest due cycle on the wheel (`u64::MAX` when empty), cached so
    /// the per-tick due check and the idle probe read one integer instead
    /// of walking the tree.
    wheel_next: u64,
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
    /// When set (the default), the run loop fast-forwards provably idle
    /// cycles instead of ticking through them (see [`System::idle_gap`]).
    /// Disable via [`System::set_event_driven`] to force per-cycle
    /// polling — the equivalence guard tests pin both modes to identical
    /// results.
    event_driven: bool,
    /// Clock value before which idle probes are suppressed (probe
    /// throttling; see `System::fast_forward`).
    next_probe: u64,
    /// Current probe back-off stride, doubled on each failed probe up to
    /// [`System::MAX_PROBE_STRIDE`], reset to 1 on success.
    probe_stride: u64,
    /// Cycles fast-forwarded by [`System::skip_idle`] since construction
    /// (diagnostic; not part of simulated state).
    skipped_cycles: u64,
    /// Live [`System::tick`] calls since construction (diagnostic).
    live_ticks: u64,
    /// Cycles covered by span advances (diagnostic).
    span_cycles: u64,
    /// Telemetry state while armed (`None` costs one pointer check per
    /// tick; absent entirely without the `telemetry` feature).
    #[cfg(feature = "telemetry")]
    telemetry: Option<Box<crate::telemetry::TelemetryState>>,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("design", &self.cfg.design)
            .field("clock", &self.clock)
            .field("pending_lines", &self.pending_lines.len())
            .field("wheel_depth", &self.wheel.len())
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
            cores,
            l3: L3Cache::new(cfg.l3_capacity(), cfg.l3_ways),
            l4: build_controller(cfg),
            wheel: BTreeMap::new(),
            wheel_next: u64::MAX,
            pending_lines: HashMap::new(),
            clock: Cycle::ZERO,
            outputs: L4Outputs::default(),
            sink: InvariantSink::default(),
            faults: FaultPlan::none(),
            observe: false,
            events: Vec::new(),
            cores_halted: false,
            event_driven: true,
            next_probe: 0,
            probe_stride: 1,
            skipped_cycles: 0,
            live_ticks: 0,
            span_cycles: 0,
            #[cfg(feature = "telemetry")]
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
        self.cores_halted = true;
    }

    /// Whether every queue in the memory system is empty.
    pub fn is_drained(&self) -> bool {
        self.wheel.is_empty()
            && self.pending_lines.is_empty()
            && self.l4.pending_txns() == 0
            && self.l4.harness().pending() == 0
    }

    /// Enables or disables idle-cycle skipping in [`System::run`] /
    /// [`System::run_monitored`] / [`System::quiesce`]. On by default;
    /// both modes produce bit-identical simulated behavior (skipped
    /// cycles are provably no-ops), so this switch only trades wall-clock
    /// speed for the simplicity of per-cycle polling.
    pub fn set_event_driven(&mut self, on: bool) {
        self.event_driven = on;
        self.sync_gating();
    }

    /// Whether per-component tick elision is active: the event-driven mode
    /// skips provably-no-op component ticks even inside live cycles.
    /// Telemetry forces full polling, exactly like whole-cycle skipping.
    fn component_gating(&self) -> bool {
        #[cfg(feature = "telemetry")]
        if self.telemetry.is_some() {
            return false;
        }
        self.event_driven
    }

    /// Propagates [`System::component_gating`] into the device harness,
    /// which elides idle channels only while gating is armed.
    fn sync_gating(&mut self) {
        let on = self.component_gating();
        self.l4.harness_mut().set_event_gating(on);
    }

    /// Upper bound on upcoming ticks that are provably no-ops, capped at
    /// `limit`. Zero means the next tick must run live. A tick can be
    /// skipped only when nothing can happen in it: no fault is due, no
    /// delay-wheel event matures, the L4 controller and both DRAM devices
    /// report themselves idle, and every core is mid-gap (or blocked)
    /// with no request to issue. Telemetry disables skipping outright —
    /// its per-tick sampling windows observe the clock directly.
    fn idle_gap(&self, limit: u64) -> u64 {
        if !self.event_driven || limit == 0 {
            return 0;
        }
        #[cfg(feature = "telemetry")]
        if self.telemetry.is_some() {
            return 0;
        }
        let now = self.clock.0;
        let mut gap = limit;
        // Cores first: a core ready to issue is the common busy case, and
        // its check is much cheaper than the wheel lookup or walking every
        // channel.
        if !self.cores_halted {
            for core in &self.cores {
                let quiet = core.quiet_cycles();
                if quiet == 0 {
                    return 0;
                }
                gap = gap.min(quiet);
            }
        }
        if let Some(at) = self.faults.next_at() {
            if at <= now {
                return 0;
            }
            gap = gap.min(at - now);
        }
        if self.wheel_next != u64::MAX {
            if self.wheel_next <= now {
                return 0;
            }
            gap = gap.min(self.wheel_next - now);
        }
        let busy = self.l4.next_busy_cycle(self.clock);
        if busy <= self.clock {
            return 0;
        }
        gap.min(busy - self.clock)
    }

    /// Longest interval (in ticks) a failed idle probe can suppress
    /// further probing. Bounds how late a skip opportunity can be noticed;
    /// small enough that a missed window costs a handful of (always
    /// correct) polled ticks.
    const MAX_PROBE_STRIDE: u64 = 16;

    /// Shortest gap worth fast-forwarding: skipping costs a full hint
    /// walk plus per-core closed-form replay, which only pays for itself
    /// when it replaces at least this many ticks. Shorter gaps are simply
    /// polled through (always correct) and count as failed probes so the
    /// back-off engages in fine-grained phases.
    const MIN_SKIP: u64 = 4;

    /// Fast-forwards `n` provably idle ticks (callers must have obtained
    /// `n` from [`System::idle_gap`]): cores replay their retire/stall
    /// arithmetic in closed form and the clock jumps; every other
    /// component is guaranteed untouched by construction.
    fn skip_idle(&mut self, n: u64) {
        if !self.cores_halted {
            for core in &mut self.cores {
                core.skip_quiet(n);
            }
        }
        self.clock += n;
        self.skipped_cycles += n;
    }

    /// Diagnostic run-loop counters: `(skipped_cycles, live_ticks)` since
    /// construction. The ratio shows how much of a run the event-driven
    /// loop fast-forwarded.
    pub fn loop_counters(&self) -> (u64, u64) {
        (self.skipped_cycles, self.live_ticks)
    }

    /// Cycles covered by span advances since construction
    /// (diagnostic; these cycles appear in neither [`System::loop_counters`]
    /// bucket — the devices ticked, the system loop did not).
    pub fn span_cycles(&self) -> u64 {
        self.span_cycles
    }

    /// Does nothing. Spans always advance serially and `BEAR_SIM_THREADS`
    /// is no longer read; the name stays only for the repository
    /// benchmark (`benchmark/`), which still calls it.
    pub fn set_sim_threads(&mut self, _threads: usize) {}

    /// Shortest span worth the span fast path: below this the horizon
    /// walk (a scheduler-window scan per channel) costs more than the
    /// handful of `System::tick` calls it would elide.
    const MIN_SPAN: u64 = 8;

    /// Span fast path. When every non-device component is provably
    /// quiet — cores mid-gap, wheel and fault plan idle, the L4
    /// controller waiting purely on completions, retry queues empty — the
    /// only work in the next cycles happens *inside* the DRAM channels,
    /// and [`DeviceHarness::completion_horizon`] bounds how long that
    /// stays true: no completion (the only signal that can wake the rest
    /// of the system) can retire before it. The span
    /// `[now, min(horizon, first component wake-up))` is then executed by
    /// ticking each busy channel independently and jumping the clock,
    /// which is bit-identical to per-cycle `System::tick` driving because
    /// each of those ticks would have reduced to exactly the per-channel
    /// device tick being replayed.
    /// Returns the cycles advanced (0 = fast path not applicable).
    ///
    /// [`DeviceHarness::completion_horizon`]: crate::harness::DeviceHarness::completion_horizon
    fn try_span_advance(&mut self, limit: u64) -> u64 {
        if limit < Self::MIN_SPAN || !self.component_gating() {
            return 0;
        }
        let now = self.clock;
        let mut span = limit;
        // Same quiet conditions as `idle_gap`, minus the devices.
        if !self.cores_halted {
            for core in &self.cores {
                let quiet = core.quiet_cycles();
                if quiet == 0 {
                    return 0;
                }
                span = span.min(quiet);
            }
        }
        if let Some(at) = self.faults.next_at() {
            if at <= now.0 {
                return 0;
            }
            span = span.min(at - now.0);
        }
        if self.wheel_next != u64::MAX {
            if self.wheel_next <= now.0 {
                return 0;
            }
            span = span.min(self.wheel_next - now.0);
        }
        let ctrl = self.l4.controller_idle_until(now);
        if ctrl <= now {
            return 0;
        }
        if ctrl != Cycle::NEVER {
            span = span.min(ctrl - now);
        }
        let harness = self.l4.harness();
        if harness.retry_depth() > 0 {
            return 0;
        }
        let horizon = harness.completion_horizon(now);
        if horizon <= now || horizon == Cycle::NEVER {
            // Either a completion is due this very cycle (must tick live)
            // or the devices are drained (the plain idle skip covers it).
            return 0;
        }
        span = span.min(horizon - now);
        if span < Self::MIN_SPAN {
            return 0;
        }
        let end = now + span;
        self.l4.harness_mut().advance_span(now, end);
        if !self.cores_halted {
            for core in &mut self.cores {
                core.skip_quiet(span);
            }
        }
        self.clock = end;
        self.span_cycles += span;
        span
    }

    /// One fast-forward attempt: the plain idle skip first, then the
    /// span advance, both behind the shared probe
    /// back-off. Returns whether the clock moved (false = the caller must
    /// run a live [`System::tick`]).
    fn fast_forward(&mut self, limit: u64) -> bool {
        if self.clock.0 < self.next_probe {
            return false;
        }
        let gap = self.idle_gap(limit);
        if gap >= Self::MIN_SKIP.min(limit) {
            self.probe_stride = 1;
            // A skip lands exactly on a busy cycle, so the immediate
            // post-skip probe would always fail: suppress it and resume
            // probing one tick later.
            self.next_probe = self.clock.0 + gap + 1;
            self.skip_idle(gap);
            return true;
        }
        if self.try_span_advance(limit) > 0 {
            // A span lands on a completion cycle: probe again right after
            // the live tick that consumes it, since spans often chain.
            self.probe_stride = 1;
            self.next_probe = self.clock.0 + 1;
            return true;
        }
        self.next_probe = self.clock.0 + self.probe_stride;
        self.probe_stride = (self.probe_stride * 2).min(Self::MAX_PROBE_STRIDE);
        false
    }

    /// Halts the cores and ticks until the memory system drains, up to
    /// `budget` cycles. Returns whether it fully drained — exact
    /// end-of-run audits (byte accounting, counter totals) are only
    /// meaningful on a drained system.
    pub fn quiesce(&mut self, budget: u64) -> bool {
        self.halt_cores();
        let end = self.clock + budget;
        while self.clock < end {
            if self.is_drained() {
                return true;
            }
            if !self.fast_forward(end - self.clock) {
                self.tick();
            }
        }
        self.is_drained()
    }

    /// Read-only view of the L4 controller (oracle audits read stats and
    /// device byte counters through this).
    pub fn l4_cache(&self) -> &dyn L4Cache {
        self.l4.as_ref()
    }

    /// Arms or disarms telemetry (feature `telemetry`).
    ///
    /// Arming with tracing also arms oracle observation (the event stream
    /// feeds the telemetry ring buffer, which drains it every tick) and
    /// the DRAM-cache transfer log. Telemetry is purely passive: it reads
    /// counters the simulator maintains anyway and never feeds anything
    /// back, so armed and disarmed runs retire identical instruction
    /// streams and report identical statistics (a bench guard test pins
    /// this).
    #[cfg(feature = "telemetry")]
    pub fn set_telemetry(&mut self, cfg: bear_telemetry::TelemetryConfig) {
        match cfg {
            bear_telemetry::TelemetryConfig::Off => {
                if self.telemetry.take().is_some_and(|t| t.trace_armed()) {
                    self.set_observe(false);
                    self.l4.harness_mut().cache.set_transfer_log(None);
                }
            }
            bear_telemetry::TelemetryConfig::On(opts) => {
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
        self.sync_gating();
    }

    /// Streams every closed sample window through `sink` as it happens,
    /// in addition to collecting it for the end-of-run report. No-op
    /// unless telemetry is armed ([`System::set_telemetry`] first) —
    /// live streaming is a *view* on sampling, not a second sampler.
    #[cfg(feature = "telemetry")]
    pub fn set_telemetry_live(&mut self, sink: bear_telemetry::LiveSink) {
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.set_live(sink);
        }
    }

    /// Hands out everything armed telemetry collected, disarming it.
    /// `None` when telemetry was never armed.
    #[cfg(feature = "telemetry")]
    pub fn take_telemetry(&mut self) -> Option<crate::telemetry::TelemetryReport> {
        let state = self.telemetry.take()?;
        let transfers = if state.trace_armed() {
            self.set_observe(false);
            let records = self.l4.harness_mut().cache.take_transfer_records();
            self.l4.harness_mut().cache.set_transfer_log(None);
            records
        } else {
            Vec::new()
        };
        self.sync_gating();
        Some(state.into_report(transfers))
    }

    /// Recent `(cycle, event)` pairs from the telemetry ring buffer,
    /// oldest first (divergence context; empty unless tracing is armed).
    #[cfg(feature = "telemetry")]
    pub fn recent_telemetry_events(&self) -> Vec<(u64, ObsEvent)> {
        self.telemetry
            .as_ref()
            .map(|t| t.recent_events())
            .unwrap_or_default()
    }

    /// Starts a tick-phase timer when profiling is armed.
    #[cfg(feature = "telemetry")]
    fn prof_start(&self) -> Option<std::time::Instant> {
        match &self.telemetry {
            Some(t) if t.profile_armed() => Some(std::time::Instant::now()),
            _ => None,
        }
    }

    /// Charges the elapsed phase to `name` and restarts the timer.
    #[cfg(feature = "telemetry")]
    fn prof_lap(&mut self, t0: &mut Option<std::time::Instant>, name: &'static str) {
        if let (Some(prev), Some(t)) = (t0.as_mut(), self.telemetry.as_deref_mut()) {
            let now = std::time::Instant::now();
            t.profiler
                .record(name, now.duration_since(*prev).as_nanos() as u64);
            *prev = now;
        }
    }

    /// Per-tick telemetry hook, called after the clock increment: feeds
    /// the event ring and closes sample windows when due.
    #[cfg(feature = "telemetry")]
    fn telemetry_after_tick(&mut self) {
        if self.telemetry.is_none() {
            return;
        }
        // Take/put the box so the state can borrow the rest of the system.
        let mut t = self.telemetry.take().expect("checked above");
        t.after_tick(
            self.clock.0,
            &mut self.events,
            &self.cores,
            &self.l3,
            self.l4.as_ref(),
        );
        self.telemetry = Some(t);
    }

    /// Starts sample windowing at the warmup→measure boundary (counters
    /// were just reset, so the base snapshot is zero).
    #[cfg(feature = "telemetry")]
    fn telemetry_begin_measure(&mut self) {
        if let Some(mut t) = self.telemetry.take() {
            t.begin_measure(self.clock.0, &self.cores, &self.l3, self.l4.as_ref());
            self.telemetry = Some(t);
        }
    }

    /// Flushes the final (partial) sample window at measure end.
    #[cfg(feature = "telemetry")]
    fn telemetry_end_measure(&mut self) {
        if let Some(mut t) = self.telemetry.take() {
            t.end_measure(self.clock.0, &self.cores, &self.l3, self.l4.as_ref());
            self.telemetry = Some(t);
        }
    }

    fn emit(&mut self, ev: ObsEvent) {
        if self.observe {
            self.events.push(ev);
        }
    }

    fn schedule(&mut self, at: Cycle, ev: Staged) {
        self.wheel_next = self.wheel_next.min(at.0);
        self.wheel.entry(at.0).or_default().push(ev);
    }

    /// Routes one core request through the L3.
    fn l3_access(&mut self, core: u32, token: LoadToken, addr: u64, is_store: bool, pc: u64) {
        let line = translate(addr) / 64;
        let lat = self.cfg.l3_latency;
        let result = self.l3.access(line, is_store);
        self.emit(ObsEvent::L3Access {
            line,
            is_store,
            hit: matches!(result, L3Result::Hit),
        });
        match result {
            L3Result::Hit => {
                self.schedule(self.clock + lat, Staged::Complete { core, token });
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
                        self.schedule(self.clock + lat, Staged::SubmitRead { line, pc, core });
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
                    self.schedule(
                        self.clock + 1,
                        Staged::SubmitWriteback {
                            line: victim.line,
                            dcp: victim.dcp,
                        },
                    );
                }
            }
        }
        for w in waiters {
            self.cores[w.core as usize].complete_load(w.token);
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
        if dcp && self.l4.contains_line(line) == Some(false) {
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
                    .find(|&(line, dcp)| !dcp && self.l4.contains_line(line) == Some(false))
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
                if dcp && self.l4.contains_line(line) == Some(false) {
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
        #[cfg(feature = "telemetry")]
        let mut prof = self.prof_start();

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
        //    a drain).
        if !self.cores_halted {
            for i in 0..self.cores.len() {
                if let Some(req) = self.cores[i].tick(now) {
                    self.l3_access(req.core, req.token, req.addr, req.is_store, req.pc);
                }
            }
        }
        #[cfg(feature = "telemetry")]
        self.prof_lap(&mut prof, "cores+l3");

        // 2. Delay-wheel events due now. The cached minimum makes the
        //    common nothing-due tick a single integer compare.
        if self.wheel_next <= now.0 {
            if let Some(events) = self.wheel.remove(&now.0) {
                for ev in events {
                    match ev {
                        Staged::Complete { core, token } => {
                            self.cores[core as usize].complete_load(token);
                        }
                        Staged::SubmitRead { line, pc, core } => {
                            self.l4.submit_read(line, pc, core, now);
                        }
                        Staged::SubmitWriteback { line, dcp } => {
                            let hint = self.cfg.bear.dcp.then_some(dcp);
                            self.emit(ObsEvent::WbSubmitted { line, hint });
                            self.l4.submit_writeback(line, hint, now);
                        }
                    }
                }
            }
            self.wheel_next = self
                .wheel
                .first_key_value()
                .map_or(u64::MAX, |(&due, _)| due);
        }
        #[cfg(feature = "telemetry")]
        self.prof_lap(&mut prof, "wheel");

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
        //    controller's busy hint proves it a no-op. The check runs
        //    after steps 1–2 so any submission they made is visible (a
        //    fresh submission lands in the harness retry queues, which
        //    report busy immediately).
        if !self.component_gating() || self.l4.next_busy_cycle(now) <= now {
            let mut outputs = std::mem::take(&mut self.outputs);
            outputs.clear();
            self.l4.tick(now, &mut outputs);
            #[cfg(feature = "telemetry")]
            self.prof_lap(&mut prof, "l4+dram");
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
            #[cfg(feature = "telemetry")]
            self.prof_lap(&mut prof, "deliver");
        }

        self.clock += 1;
        #[cfg(feature = "telemetry")]
        {
            self.telemetry_after_tick();
            self.prof_lap(&mut prof, "telemetry");
        }
    }

    /// Queue-occupancy snapshot attached to `Stalled` errors.
    fn stall_snapshot(&self) -> String {
        format!(
            "wheel events {}, pending lines {}, l4 txns {}, device pending {}, retry depth {}",
            self.wheel.len(),
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
        let mut last_insts: u64 = self.cores.iter().map(|c| c.retired_insts()).sum();
        let mut last_progress = self.clock;
        let end = self.clock + cycles;
        while self.clock < end {
            // Fast-forward provably idle cycles, stopping exactly on check
            // boundaries so invariant checks and the watchdog observe the
            // same clock values (and states) as per-cycle polling would.
            let to_boundary = CHECK_STRIDE - (self.clock.0 % CHECK_STRIDE);
            if !self.fast_forward((end - self.clock).min(to_boundary)) {
                self.tick();
            }
            if self.clock.0.is_multiple_of(CHECK_STRIDE) {
                self.run_invariant_checks();
                if window > 0 {
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
        #[cfg(feature = "telemetry")]
        self.telemetry_begin_measure();
        let inst_base: Vec<u64> = self.cores.iter().map(|c| c.retired_insts()).collect();
        let start = self.clock;
        self.run_phase(measure)?;
        #[cfg(feature = "telemetry")]
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
        assert_eq!(sys.l4.contains_line(line), Some(false));
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
    #[cfg(feature = "telemetry")]
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
    #[cfg(feature = "telemetry")]
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

        let report = armed.take_telemetry().expect("armed");
        assert!(!report.samples.is_empty());
        assert!(!report.events.is_empty(), "tracing captured events");
        assert!(!report.transfers.is_empty(), "tracing captured DRAM bursts");
        assert!(!report.profile.is_empty(), "profiling recorded phases");
        assert!(armed.take_telemetry().is_none(), "take disarms");
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

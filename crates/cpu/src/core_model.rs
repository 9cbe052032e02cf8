//! The per-core retire-window model.

use bear_sim::time::Cycle;
use bear_workloads::{TraceEvent, TraceSource};
use std::collections::VecDeque;

/// Core parameters (Table 1: 2-wide out-of-order cores).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Instructions retired per cycle when nothing stalls.
    pub retire_width: u32,
    /// Outstanding load misses the core can sustain (MSHR count).
    pub mshrs: usize,
    /// Instructions the core may run ahead of the oldest incomplete load
    /// (the reorder-buffer depth).
    pub rob_insts: u64,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            retire_width: 2,
            mshrs: 8,
            rob_insts: 192,
        }
    }
}

/// Handle identifying an outstanding load, echoed back on completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LoadToken(pub u64);

/// A memory reference the core wants serviced by the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreRequest {
    /// Issuing core.
    pub core: u32,
    /// 64 B-aligned byte address.
    pub addr: u64,
    /// Store vs. load.
    pub is_store: bool,
    /// Program counter (for MAP-I style predictors).
    pub pc: u64,
    /// Token to pass to [`Core::complete_load`] (loads only).
    pub token: LoadToken,
}

#[derive(Debug, Clone, Copy)]
struct Outstanding {
    token: LoadToken,
    /// Instruction count at which this access entered the window.
    at_inst: u64,
    /// Stores occupy a slot (bounding outstanding traffic) but never gate
    /// retirement — they drain through the store buffer.
    is_store: bool,
    done: bool,
}

/// One trace-driven core.
pub struct Core {
    id: u32,
    cfg: CoreConfig,
    trace: Box<dyn TraceSource>,
    /// Instructions retired so far.
    retired: u64,
    /// Instructions still to retire before the pending event fires.
    gap_left: u64,
    /// The event waiting to be issued (already drawn from the trace).
    pending: Option<TraceEvent>,
    outstanding: VecDeque<Outstanding>,
    next_token: u64,
    /// Cycles in which the core retired nothing while stalled on memory.
    pub stall_cycles: u64,
    /// Loads issued.
    pub loads_issued: u64,
    /// Stores issued.
    pub stores_issued: u64,
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("id", &self.id)
            .field("retired", &self.retired)
            .field("outstanding", &self.outstanding.len())
            .finish()
    }
}

impl Core {
    /// Creates a core fed by `trace`.
    pub fn new(id: u32, trace: Box<dyn TraceSource>, cfg: CoreConfig) -> Self {
        Core {
            id,
            cfg,
            trace,
            retired: 0,
            gap_left: 0,
            pending: None,
            outstanding: VecDeque::with_capacity(cfg.mshrs),
            next_token: 0,
            stall_cycles: 0,
            loads_issued: 0,
            stores_issued: 0,
        }
    }

    /// Core identifier.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Instructions retired so far.
    pub fn retired_insts(&self) -> u64 {
        self.retired
    }

    /// Name of the trace driving this core.
    pub fn workload_name(&self) -> &str {
        self.trace.name()
    }

    /// Instructions per cycle over `elapsed` cycles.
    pub fn ipc(&self, elapsed: u64) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            self.retired as f64 / elapsed as f64
        }
    }

    /// Marks a previously issued load complete.
    ///
    /// Unknown tokens are ignored (the load may belong to a drained phase).
    pub fn complete_load(&mut self, token: LoadToken) {
        if let Some(o) = self.outstanding.iter_mut().find(|o| o.token == token) {
            o.done = true;
        }
        while matches!(self.outstanding.front(), Some(o) if o.done) {
            self.outstanding.pop_front();
        }
    }

    /// Upper bound on retired instructions imposed by the ROB: the core may
    /// not run more than `rob_insts` past the oldest incomplete load.
    /// Stores never gate retirement.
    fn rob_limit(&self) -> u64 {
        match self.outstanding.iter().find(|o| !o.is_store && !o.done) {
            Some(oldest) => oldest.at_inst + self.cfg.rob_insts,
            None => u64::MAX,
        }
    }

    /// How many upcoming [`Core::tick`] calls are guaranteed not to issue a
    /// request nor draw from the trace, assuming no loads complete in the
    /// interim. `u64::MAX` means the core is blocked (ROB or MSHR) and stays
    /// quiet until an external completion arrives. Event-driven drivers may
    /// replace up to this many ticks with one [`Core::skip_quiet`] call.
    pub fn quiet_cycles(&self) -> u64 {
        if self.pending.is_none() {
            return 0; // next tick draws the trace — must run it
        }
        if self.gap_left == 0 {
            // The staged event fires as soon as an MSHR frees up.
            return if self.outstanding.len() < self.cfg.mshrs {
                0
            } else {
                u64::MAX
            };
        }
        let avail = self.rob_limit().saturating_sub(self.retired);
        if avail < self.gap_left {
            // The ROB wall lands mid-gap: the gap never reaches zero
            // without a completion, so the core retires `avail` and stalls.
            return u64::MAX;
        }
        let w = u64::from(self.cfg.retire_width.max(1));
        // The tick that retires the last gap instruction may issue; every
        // tick strictly before it is quiet.
        self.gap_left.div_ceil(w) - 1
    }

    /// Fast-forwards `n` quiet ticks in one step, reproducing exactly the
    /// retire/stall arithmetic `n` calls to [`Core::tick`] would have
    /// performed. Callers must ensure `n <= quiet_cycles()` and that no
    /// completions were due in the skipped span.
    pub fn skip_quiet(&mut self, n: u64) {
        debug_assert!(n <= self.quiet_cycles(), "skip exceeds quiet window");
        if n == 0 || self.pending.is_none() {
            return;
        }
        let avail = self.rob_limit().saturating_sub(self.retired);
        let cap = self.gap_left.min(avail);
        let w = u64::from(self.cfg.retire_width.max(1));
        let full = cap / w;
        let rem = cap % w;
        let retiring_ticks = full + u64::from(rem != 0);
        let retire_now = if n <= full { n * w } else { cap };
        self.retired += retire_now;
        self.gap_left -= retire_now;
        if n > retiring_ticks {
            self.stall_cycles += n - retiring_ticks;
        }
    }

    /// Advances the core by one cycle; returns a memory request if the core
    /// issues one this cycle (at most one per cycle).
    pub fn tick(&mut self, _now: Cycle) -> Option<CoreRequest> {
        // Ensure an event is staged.
        if self.pending.is_none() {
            let ev = self.trace.next_event();
            self.gap_left = ev.inst_gap.max(1) as u64;
            self.pending = Some(ev);
        }

        // Retire up to `retire_width`, bounded by the ROB and the staged
        // event boundary.
        let rob_limit = self.rob_limit();
        let mut retired_this_cycle = 0;
        while retired_this_cycle < self.cfg.retire_width
            && self.gap_left > 0
            && self.retired < rob_limit
        {
            self.retired += 1;
            self.gap_left -= 1;
            retired_this_cycle += 1;
        }
        if retired_this_cycle == 0 {
            self.stall_cycles += 1;
        }

        // Fire the staged event once its gap has fully retired.
        if self.gap_left == 0 {
            let ev = self.pending.expect("event staged");
            if self.outstanding.len() < self.cfg.mshrs {
                self.pending = None;
                if ev.is_store {
                    self.stores_issued += 1;
                } else {
                    self.loads_issued += 1;
                }
                let token = LoadToken(self.next_token);
                self.next_token += 1;
                self.outstanding.push_back(Outstanding {
                    token,
                    at_inst: self.retired,
                    is_store: ev.is_store,
                    done: false,
                });
                return Some(CoreRequest {
                    core: self.id,
                    addr: ev.addr,
                    is_store: ev.is_store,
                    pc: ev.pc,
                    token,
                });
            }
            // MSHRs full: the event stays staged; the core stalls.
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scripted trace for deterministic core tests.
    struct Script {
        events: Vec<TraceEvent>,
        i: usize,
    }

    impl Script {
        fn new(events: Vec<TraceEvent>) -> Self {
            Script { events, i: 0 }
        }
    }

    impl TraceSource for Script {
        fn next_event(&mut self) -> TraceEvent {
            let ev = self.events[self.i % self.events.len()];
            self.i += 1;
            ev
        }
        fn name(&self) -> &str {
            "script"
        }
    }

    fn load(gap: u32, addr: u64) -> TraceEvent {
        TraceEvent {
            inst_gap: gap,
            addr,
            is_store: false,
            pc: 0x400000,
        }
    }

    fn store(gap: u32, addr: u64) -> TraceEvent {
        TraceEvent {
            inst_gap: gap,
            addr,
            is_store: true,
            pc: 0x400004,
        }
    }

    fn drive_one(core: &mut Core, max: u64) -> (CoreRequest, u64) {
        let mut t = Cycle(0);
        loop {
            if let Some(r) = core.tick(t) {
                return (r, t.0);
            }
            t += 1;
            assert!(t.0 < max, "no request within {max} cycles");
        }
    }

    #[test]
    fn event_fires_after_gap_at_retire_width() {
        let mut core = Core::new(
            0,
            Box::new(Script::new(vec![load(10, 0x40)])),
            CoreConfig::default(),
        );
        let (req, at) = drive_one(&mut core, 100);
        assert_eq!(req.addr, 0x40);
        // 10 instructions at 2-wide retire → 5 cycles (fires on cycle 4,
        // 0-indexed).
        assert_eq!(at, 4);
        assert_eq!(core.retired_insts(), 10);
    }

    #[test]
    fn mshr_limit_bounds_outstanding_loads() {
        let cfg = CoreConfig {
            mshrs: 2,
            ..CoreConfig::default()
        };
        let mut core = Core::new(
            0,
            Box::new(Script::new(vec![
                load(1, 0x0),
                load(1, 0x40),
                load(1, 0x80),
            ])),
            cfg,
        );
        let mut reqs = 0;
        for c in 0..1000u64 {
            if core.tick(Cycle(c)).is_some() {
                reqs += 1;
            }
        }
        assert_eq!(reqs, 2, "third load must wait for an MSHR");
        assert_eq!(core.outstanding.len(), 2);
    }

    #[test]
    fn rob_stalls_until_oldest_load_completes() {
        let cfg = CoreConfig {
            rob_insts: 16,
            ..CoreConfig::default()
        };
        let mut core = Core::new(
            0,
            Box::new(Script::new(vec![load(4, 0x0), load(1000, 0x40)])),
            cfg,
        );
        let (first, _) = drive_one(&mut core, 100);
        // Run far: without completion the core can only retire 16 more.
        for c in 10..500u64 {
            core.tick(Cycle(c));
        }
        assert_eq!(core.retired_insts(), 4 + 16);
        assert!(core.stall_cycles > 400);
        core.complete_load(first.token);
        for c in 500..1500u64 {
            core.tick(Cycle(c));
        }
        assert!(core.retired_insts() > 1000);
    }

    #[test]
    fn stores_occupy_slots_but_do_not_gate_retirement() {
        let cfg = CoreConfig {
            mshrs: 2,
            rob_insts: 4,
            ..CoreConfig::default()
        };
        let mut core = Core::new(
            0,
            Box::new(Script::new(vec![
                store(1, 0x0),
                store(1, 0x40),
                store(1, 0x80),
            ])),
            cfg,
        );
        let mut issued = Vec::new();
        for c in 0..100u64 {
            if let Some(r) = core.tick(Cycle(c)) {
                assert!(r.is_store);
                issued.push(r.token);
            }
        }
        // Slot-limited: only 2 stores in flight, third waits for a slot.
        assert_eq!(issued.len(), 2);
        assert_eq!(core.outstanding.len(), 2);
        // Incomplete stores never gate retirement via the ROB: with both
        // slots held by stores the computed ROB limit is unbounded.
        for t in issued {
            core.complete_load(t);
        }
        let mut more = 0;
        for c in 100..200u64 {
            if core.tick(Cycle(c)).is_some() {
                more += 1;
            }
        }
        assert!(more >= 1, "freed slot lets the third store issue");
        assert_eq!(core.stores_issued, 2 + more);
    }

    #[test]
    fn completion_frees_mshr_for_next_load() {
        let cfg = CoreConfig {
            mshrs: 1,
            ..CoreConfig::default()
        };
        let mut core = Core::new(
            0,
            Box::new(Script::new(vec![load(1, 0x0), load(1, 0x40)])),
            cfg,
        );
        let (first, _) = drive_one(&mut core, 100);
        for c in 2..50u64 {
            assert!(core.tick(Cycle(c)).is_none());
        }
        core.complete_load(first.token);
        let mut got = None;
        for c in 50..200u64 {
            if let Some(r) = core.tick(Cycle(c)) {
                got = Some(r);
                break;
            }
        }
        assert_eq!(got.unwrap().addr, 0x40);
    }

    #[test]
    fn out_of_order_completion_retires_in_order() {
        let mut core = Core::new(
            0,
            Box::new(Script::new(vec![load(1, 0x0), load(1, 0x40)])),
            CoreConfig::default(),
        );
        let (a, _) = drive_one(&mut core, 100);
        let (b, _) = drive_one(&mut core, 100);
        assert_eq!(core.outstanding.len(), 2);
        core.complete_load(b.token);
        // Younger finished first: window still holds both (head incomplete).
        assert_eq!(core.outstanding.len(), 2);
        core.complete_load(a.token);
        assert_eq!(core.outstanding.len(), 0);
    }

    #[test]
    fn unknown_token_ignored() {
        let mut core = Core::new(
            0,
            Box::new(Script::new(vec![load(1, 0x0)])),
            CoreConfig::default(),
        );
        core.complete_load(LoadToken(999));
        assert_eq!(core.outstanding.len(), 0);
    }

    /// Clone-free state snapshot for skip-vs-tick equivalence checks.
    fn snapshot(core: &Core) -> (u64, u64, u64, u64, u64) {
        (
            core.retired,
            core.gap_left,
            core.stall_cycles,
            core.loads_issued,
            core.stores_issued,
        )
    }

    /// Drives `a` with per-cycle ticks and `b` with maximal quiet skips;
    /// their observable state must stay identical at every live tick.
    fn assert_skip_matches_tick(events: Vec<TraceEvent>, cfg: CoreConfig, horizon: u64) {
        let mut a = Core::new(0, Box::new(Script::new(events.clone())), cfg);
        let mut b = Core::new(0, Box::new(Script::new(events)), cfg);
        let mut t = 0u64;
        while t < horizon {
            let quiet = b.quiet_cycles();
            let n = quiet.min(horizon - t);
            if n > 0 {
                b.skip_quiet(n);
                for k in 0..n {
                    assert!(a.tick(Cycle(t + k)).is_none(), "quiet tick issued");
                }
                t += n;
                assert_eq!(snapshot(&a), snapshot(&b), "diverged after skip at {t}");
            } else {
                let ra = a.tick(Cycle(t));
                let rb = b.tick(Cycle(t));
                assert_eq!(ra, rb, "requests diverged at {t}");
                t += 1;
                assert_eq!(snapshot(&a), snapshot(&b), "diverged after tick at {t}");
            }
        }
    }

    #[test]
    fn skip_quiet_matches_ticks_for_long_gaps() {
        assert_skip_matches_tick(
            vec![load(100, 0x0), load(7, 0x40), load(1, 0x80)],
            CoreConfig::default(),
            400,
        );
    }

    #[test]
    fn skip_quiet_matches_ticks_when_rob_blocked() {
        // Loads never complete: the ROB wall lands mid-gap and the core
        // stalls indefinitely; skips must accumulate the same stall count.
        assert_skip_matches_tick(
            vec![load(4, 0x0), load(1000, 0x40)],
            CoreConfig {
                rob_insts: 16,
                ..CoreConfig::default()
            },
            600,
        );
    }

    #[test]
    fn skip_quiet_matches_ticks_when_mshr_blocked() {
        assert_skip_matches_tick(
            vec![load(1, 0x0), load(1, 0x40), load(1, 0x80)],
            CoreConfig {
                mshrs: 2,
                ..CoreConfig::default()
            },
            300,
        );
    }

    #[test]
    fn skip_quiet_with_odd_widths() {
        for width in [1u32, 2, 3, 5] {
            assert_skip_matches_tick(
                vec![load(13, 0x0), store(9, 0x40), load(31, 0x80)],
                CoreConfig {
                    retire_width: width,
                    ..CoreConfig::default()
                },
                500,
            );
        }
    }

    #[test]
    fn quiet_cycles_counts_exactly() {
        // Gap 10 at width 2: fires on the 5th tick, so 4 are quiet — but
        // a fresh core has no staged event, so the first tick must run.
        let mut core = Core::new(
            0,
            Box::new(Script::new(vec![load(10, 0x40)])),
            CoreConfig::default(),
        );
        assert_eq!(core.quiet_cycles(), 0, "unstaged event forces a tick");
        assert!(core.tick(Cycle(0)).is_none());
        assert_eq!(core.quiet_cycles(), 3);
        core.skip_quiet(3);
        assert_eq!(core.tick(Cycle(4)).map(|r| r.addr), Some(0x40));
        assert_eq!(core.retired_insts(), 10);
    }

    #[test]
    fn ipc_computation() {
        let mut core = Core::new(
            0,
            Box::new(Script::new(vec![load(100, 0x0)])),
            CoreConfig::default(),
        );
        for c in 0..25u64 {
            core.tick(Cycle(c));
        }
        assert!((core.ipc(25) - 2.0).abs() < 0.1);
        assert_eq!(core.ipc(0), 0.0);
    }

    #[test]
    fn accessors() {
        let core = Core::new(
            3,
            Box::new(Script::new(vec![load(1, 0)])),
            CoreConfig::default(),
        );
        assert_eq!(core.id(), 3);
        assert_eq!(core.workload_name(), "script");
        assert!(format!("{core:?}").contains("Core"));
    }
}

//! Per-channel memory controller: queues, scheduling, and bus arbitration.
//!
//! Each channel owns its banks and its data bus. Scheduling follows the
//! USIMM-style policy the paper describes (Section 3.1): separate read and
//! write queues, reads prioritized over writes, and writes issued in batches
//! — a drain begins when the write queue reaches a high watermark (or the
//! read queue is empty) and continues until a low watermark.
//!
//! Within the active queue the scheduler is FR-FCFS: among the oldest
//! `sched_window` entries it first looks for a *row-buffer hit* whose CAS can
//! issue now, then falls back to advancing the oldest request (ACT or PRE as
//! the bank requires). One command may issue per channel per CPU cycle.
//!
//! A tick has two phases: `retire` hands finished transfers
//! back, and `act` refreshes, flips drain mode and schedules.
//! Scheduling reads no in-flight state, so a tick that only retires leaves
//! the scheduler preview (`Channel::next_schedule_cycle`) valid. Both
//! the FR-FCFS scan and the preview read one dense column per queue, each
//! entry's CAS-ready cycle; only an ACT, PRE or refresh changes it, and
//! only for the entries of the bank it touched.

use crate::bank::{BankAction, Banks};
use crate::config::DramConfig;
use crate::device::Completion;
use crate::request::{DramRequest, RequestQueue, TrafficClass};
use bear_sim::time::Cycle;
use std::cell::Cell;
use std::collections::VecDeque;

/// A data-bus burst captured for trace export (telemetry only).
///
/// Records are produced when a CAS issues, i.e. at the same instant byte
/// accounting happens, so a trace covers exactly the transfers the stats
/// counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferRecord {
    /// Channel index (stamped by [`crate::device::DramDevice`] when the
    /// log is collected; always 0 inside a [`Channel`]).
    pub channel: u32,
    /// Bank within the channel.
    pub bank: u32,
    /// Write (true) or read (false) burst.
    pub is_write: bool,
    /// Traffic class of the request.
    pub class: TrafficClass,
    /// First cycle of the data burst.
    pub start: Cycle,
    /// Cycle the last beat finished transferring.
    pub finish: Cycle,
}

/// Bounded transfer log: keeps the newest `cap` records.
#[derive(Debug)]
struct TransferLog {
    cap: usize,
    buf: VecDeque<TransferRecord>,
}

impl TransferLog {
    fn push(&mut self, rec: TransferRecord) {
        if self.cap == 0 {
            return;
        }
        if self.buf.len() == self.cap {
            self.buf.pop_front();
        }
        self.buf.push_back(rec);
    }
}

/// Per-channel statistics.
#[derive(Debug, Clone, Default)]
pub struct ChannelStats {
    /// Bytes transferred per traffic class.
    pub bytes_by_class: [u64; TrafficClass::COUNT],
    /// Total data-bus busy CPU cycles.
    pub bus_busy_cycles: u64,
    /// Sum of queue latencies (arrival to data start) for reads.
    pub read_queue_latency_sum: u64,
    /// Number of reads completed.
    pub reads_completed: u64,
    /// Number of writes completed.
    pub writes_completed: u64,
    /// Number of write-drain episodes entered.
    pub drain_episodes: u64,
    /// All-bank refreshes performed.
    pub refreshes: u64,
}

impl ChannelStats {
    /// Total bytes moved across all classes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_by_class.iter().sum()
    }

    /// Resets all counters (warmup/measurement boundary).
    pub fn reset(&mut self) {
        *self = ChannelStats::default();
    }
}

/// Host-work counters of the DRAM model since construction (diagnostics,
/// like the run loop's cycle counters): they measure how much the
/// simulator did, not what the simulated hardware did, so they differ
/// between per-cycle and event-driven driving while every simulated result
/// agrees.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramWork {
    /// Channel ticks executed.
    pub channel_ticks: u64,
    /// Channel ticks that changed nothing (no retire, refresh, drain flip
    /// or command).
    pub noop_ticks: u64,
    /// Commands issued (ACT, PRE and CAS).
    pub commands: u64,
    /// Scheduler previews computed (busy-hint rescans).
    pub previews: u64,
    /// Queue-window entries read by the FR-FCFS scan and the previews.
    pub entries_scanned: u64,
    /// Channel ticks a device ran late, replaying cycles its driver
    /// deferred (see [`crate::device::DramDevice::catch_up`]); counted by
    /// the device, included in `channel_ticks`.
    pub replayed_ticks: u64,
}

impl std::ops::AddAssign for DramWork {
    fn add_assign(&mut self, o: DramWork) {
        self.channel_ticks += o.channel_ticks;
        self.noop_ticks += o.noop_ticks;
        self.commands += o.commands;
        self.previews += o.previews;
        self.entries_scanned += o.entries_scanned;
        self.replayed_ticks += o.replayed_ticks;
    }
}

/// Interior-mutable [`DramWork`]: the read-only preview counts its scans
/// too. Its `Debug` prints no values, so the channel's `{:?}` state (which
/// the span-equivalence tests and the gate audit compare) ignores it.
#[derive(Default)]
struct Work(Cell<DramWork>);

impl Work {
    #[inline]
    fn bump(&self, f: impl FnOnce(&mut DramWork)) {
        let mut w = self.0.get();
        f(&mut w);
        self.0.set(w);
    }
}

impl std::fmt::Debug for Work {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Work")
    }
}

/// One DRAM channel: banks + queues + scheduler + data bus.
#[derive(Debug)]
pub struct Channel {
    cfg: DramConfig,
    banks: Banks,
    read_queue: RequestQueue,
    write_queue: RequestQueue,
    /// Data bus is busy until this time.
    bus_free_at: Cycle,
    /// Transfers in flight (data phase scheduled, completion pending at
    /// `finish`), in issue order. Finishes strictly increase along it: a
    /// CAS issues only once its data can start on a free bus and then
    /// holds the bus until its own finish, so the front is the earliest.
    in_flight: VecDeque<Completion>,
    /// Currently draining writes.
    draining: bool,
    /// Next scheduled refresh (NEVER when refresh is disabled).
    next_refresh: Cycle,
    /// Optional bounded capture of data bursts (armed by telemetry).
    transfer_log: Option<TransferLog>,
    /// Statistics.
    pub stats: ChannelStats,
    work: Work,
}

impl Channel {
    /// Creates an idle channel per `cfg`.
    pub fn new(cfg: DramConfig) -> Self {
        let t = cfg.topology;
        Channel {
            banks: Banks::new(t.banks_per_channel(), t.subarrays_per_bank),
            read_queue: RequestQueue::new(cfg.read_queue_capacity, t.banks_per_rank),
            write_queue: RequestQueue::new(cfg.write_queue_capacity, t.banks_per_rank),
            bus_free_at: Cycle::ZERO,
            in_flight: VecDeque::with_capacity(8),
            draining: false,
            next_refresh: if cfg.timings.refresh_enabled() {
                Cycle(cfg.timings.t_refi)
            } else {
                Cycle::NEVER
            },
            transfer_log: None,
            stats: ChannelStats::default(),
            work: Work::default(),
            cfg,
        }
    }

    /// Host-work counters since construction (see [`DramWork`]).
    pub fn work(&self) -> DramWork {
        self.work.0.get()
    }

    /// Arms (`Some(capacity)`) or disarms (`None`) the transfer log. The
    /// log keeps only the newest `capacity` records.
    pub fn set_transfer_log(&mut self, capacity: Option<usize>) {
        self.transfer_log = capacity.map(|cap| TransferLog {
            cap,
            buf: VecDeque::with_capacity(cap.min(1024)),
        });
    }

    /// Drains captured transfer records (oldest first). The log stays
    /// armed.
    pub fn take_transfer_records(&mut self) -> Vec<TransferRecord> {
        match &mut self.transfer_log {
            Some(log) => log.buf.drain(..).collect(),
            None => Vec::new(),
        }
    }

    /// Appends one queue-depth entry per bank (queued plus in-flight
    /// requests) to `out`, in bank order.
    pub fn bank_depths(&self, out: &mut Vec<u32>) {
        let banks = self.cfg.topology.banks_per_channel() as usize;
        let banks_per_rank = self.cfg.topology.banks_per_rank;
        let base = out.len();
        out.resize(base + banks, 0);
        self.read_queue.add_bank_depths(base, out);
        self.write_queue.add_bank_depths(base, out);
        for f in &self.in_flight {
            let bank = f.request.location.bank_in_channel(banks_per_rank) as usize;
            if let Some(slot) = out.get_mut(base + bank) {
                *slot += 1;
            }
        }
    }

    /// Attempts to enqueue a request; hands it back if the queue is full.
    pub fn try_enqueue(&mut self, req: DramRequest) -> Result<(), DramRequest> {
        let queue = if req.is_write {
            &mut self.write_queue
        } else {
            &mut self.read_queue
        };
        let banks = &self.banks;
        queue.push_with_cas_ready(req, |bank, row| banks.cas_ready(bank, row))
    }

    /// Whether a read (`is_write == false`) or write can currently be
    /// accepted.
    pub fn can_accept(&self, is_write: bool) -> bool {
        if is_write {
            !self.write_queue.is_full()
        } else {
            !self.read_queue.is_full()
        }
    }

    /// Number of pending requests (both queues plus in-flight transfers).
    pub fn pending(&self) -> usize {
        self.read_queue.len() + self.write_queue.len() + self.in_flight.len()
    }

    /// Row-buffer hit counts summed over banks (for diagnostics).
    pub fn row_hits(&self) -> u64 {
        self.banks.row_hits
    }

    /// Bytes represented by queued requests that have *not* yet been
    /// counted in [`ChannelStats::bytes_by_class`] (accounting happens at
    /// CAS issue, when a request leaves its queue). Used by the
    /// byte-conservation invariant to balance bytes submitted against
    /// bytes transferred.
    pub fn queued_bytes(&self) -> u64 {
        let beat_bytes = self.cfg.topology.beat_bytes;
        (self.read_queue.total_beats() + self.write_queue.total_beats()) * beat_bytes
    }

    /// [`Channel::queued_bytes`], accumulated per traffic class into
    /// `out` (the attribution-conservation invariant's queued term).
    pub fn add_queued_bytes_by_class(&self, out: &mut [u64; TrafficClass::COUNT]) {
        let beat_bytes = self.cfg.topology.beat_bytes;
        self.read_queue.add_bytes_by_class(beat_bytes, out);
        self.write_queue.add_bytes_by_class(beat_bytes, out);
    }

    /// Advances the channel to CPU cycle `now`: retires finished transfers
    /// into `completions`, then issues at most one command. Returns whether
    /// the channel changed.
    pub fn tick(&mut self, now: Cycle, completions: &mut Vec<Completion>) -> bool {
        self.tick_phases(now, completions, true) != (false, false)
    }

    /// One tick whose act phase runs only when `act` is set (a driver that
    /// knows [`Channel::act`] is a no-op at `now` skips it). Returns
    /// `(retired, acted)`: whether each phase changed the channel.
    pub(crate) fn tick_phases(
        &mut self,
        now: Cycle,
        completions: &mut Vec<Completion>,
        act: bool,
    ) -> (bool, bool) {
        let retired = self.retire(now, completions);
        let acted = act && self.act(now);
        self.work.bump(|w| {
            w.channel_ticks += 1;
            w.noop_ticks += u64::from(!retired && !acted);
        });
        (retired, acted)
    }

    /// Retires the transfers finished by `now` into `completions`, in
    /// finish order. Returns whether any retired.
    pub(crate) fn retire(&mut self, now: Cycle, completions: &mut Vec<Completion>) -> bool {
        let mut retired = false;
        while let Some(f) = self.in_flight.pop_front_if(|f| f.finish <= now) {
            if f.request.is_write {
                self.stats.writes_completed += 1;
            } else {
                self.stats.reads_completed += 1;
            }
            completions.push(f);
            retired = true;
        }
        retired
    }

    /// The earliest in-flight `finish` ([`Cycle::NEVER`] when none).
    #[inline]
    fn first_finish(&self) -> Cycle {
        self.in_flight.front().map_or(Cycle::NEVER, |f| f.finish)
    }

    /// The act phase of a tick at `now`: an all-bank refresh when one is
    /// due, the drain-mode flip, then FR-FCFS issue of at most one
    /// command. Returns whether anything changed.
    pub(crate) fn act(&mut self, now: Cycle) -> bool {
        let mut changed = false;
        // All-bank refresh: close every row and stall the channel tRFC.
        if now >= self.next_refresh {
            let ready = now + self.cfg.timings.t_rfc;
            self.banks.refresh_until(ready);
            self.read_queue.clear_cas_ready();
            self.write_queue.clear_cas_ready();
            self.bus_free_at = self.bus_free_at.max(ready);
            self.next_refresh = now + self.cfg.timings.t_refi;
            self.stats.refreshes += 1;
            changed = true;
        }
        changed |= self.update_drain_mode();
        // Pick the active queue: writes only during a drain (or when no
        // reads are waiting).
        let use_writes =
            self.draining || (self.read_queue.is_empty() && !self.write_queue.is_empty());
        self.schedule_from(use_writes, now) || changed
    }

    /// Whether an all-bank refresh falls due at `now`.
    pub(crate) fn refresh_due(&self, now: Cycle) -> bool {
        now >= self.next_refresh
    }

    /// The earliest cycle at which a tick can change this channel's state:
    /// ticks strictly before the returned cycle are guaranteed no-ops, so
    /// an event-driven driver may skip them wholesale. Queued requests are
    /// previewed through the scheduler's own gating (bank timing windows
    /// and bus occupancy) rather than reported as busy `now`; in-flight
    /// transfers contribute their earliest finish; a pending refresh bounds
    /// everything because the refresh clock reads absolute time and must
    /// not be observed late.
    ///
    /// Exactness relies on the queues being frozen until the returned
    /// cycle — the event-driven driver guarantees this, as it only skips
    /// when no other component can enqueue. [`crate::device::DramDevice`]
    /// keeps this value per channel in its wake table instead of
    /// recomputing it per query.
    pub fn next_busy_cycle(&self, now: Cycle) -> Cycle {
        self.busy_cycle(self.next_schedule_cycle(now)).max(now)
    }

    /// The channel's next busy cycle given its scheduler preview `sched`
    /// (not clamped to any `now`).
    #[inline]
    pub(crate) fn busy_cycle(&self, sched: Cycle) -> Cycle {
        self.first_finish().min(self.next_refresh).min(sched)
    }

    /// Earliest cycle at which [`Channel::act`]'s scheduling passes could
    /// issue a command or mutate a bank, assuming the queues stay frozen
    /// until then. Never later than the true first action (late would break
    /// the no-op guarantee); [`Cycle::NEVER`] when nothing is queued. May
    /// return `now` without finishing the window scan once a command is
    /// provably issuable this cycle — earlier-than-true is always safe.
    ///
    /// A preview taken at an earlier `now'` stays exact, once clamped to
    /// `now`, while the channel is frozen and `now` does not pass the
    /// clamped preview: a preview that returned `now'` (something
    /// issuable) would return `now` today, and the other outcomes only
    /// differ once the front request's ACT/PRE time is in the past. A
    /// preview already `<= now` stays pessimistic ("busy now") until the
    /// act phase it predicts changes the channel.
    pub(crate) fn next_schedule_cycle(&self, now: Cycle) -> Cycle {
        self.work.bump(|w| w.previews += 1);
        // A pending drain-mode flip makes the channel busy immediately:
        // the flip is hysteretic, so its *latch time* is observable — a
        // deferred flip would read a different queue depth and can settle
        // on the opposite mode (e.g. the queue dips to the low mark, then
        // refills past it before the deferred tick runs). Forcing a tick
        // latches the flip at the same cycle per-cycle polling would.
        let wlen = self.write_queue.len();
        let will_flip = if self.draining {
            wlen <= self.cfg.write_drain_low
        } else {
            wlen >= self.cfg.write_drain_high
        };
        if will_flip {
            return now;
        }
        let use_writes = self.draining || (self.read_queue.is_empty() && wlen > 0);
        let queue = if use_writes {
            &self.write_queue
        } else {
            &self.read_queue
        };
        if queue.is_empty() {
            return Cycle::NEVER;
        }
        let bus_free = Cycle(self.bus_free_at.0.saturating_sub(self.cfg.timings.t_cas));
        // Pass-1 preview: the first CAS issues once some windowed row-hit
        // is past its tRCD window AND its data can start on a free bus.
        // Entries whose row is not open read `NEVER` and change nothing.
        let mut ready_cas_min = Cycle::NEVER;
        let mut scanned = 0;
        for &ready in queue.cas_ready_window(self.cfg.sched_window) {
            scanned += 1;
            if ready.max(bus_free) <= now {
                // A CAS is provably issuable this cycle; nothing can be
                // earlier, so skip the rest of the scan.
                self.work.bump(|w| w.entries_scanned += scanned);
                return now;
            }
            ready_cas_min = ready_cas_min.min(ready);
            if ready_cas_min <= bus_free {
                // The issue time is already pinned at the bus bound; later
                // entries can only err the pass-2 comparison toward
                // "earlier", which is safe.
                break;
            }
        }
        self.work.bump(|w| w.entries_scanned += scanned);
        let cas_issue = if ready_cas_min == Cycle::NEVER {
            Cycle::NEVER
        } else {
            ready_cas_min.max(bus_free)
        };
        // Pass-2 preview: the front request's ACT/PRE. Pass 2 only runs
        // while no windowed CAS is ready — a ready-but-bus-blocked CAS
        // returns early without reaching it — so the front's ready time
        // counts only when it precedes every CAS window.
        let front_t = match self.banks.next_action(queue.bank_index(0), queue.row(0)) {
            Some(BankAction::Act(ready) | BankAction::Pre(ready)) => ready,
            _ => Cycle::NEVER,
        };
        if front_t.max(now) < ready_cas_min {
            cas_issue.min(front_t)
        } else {
            cas_issue
        }
    }

    /// A cycle strictly before which this channel can produce **no**
    /// completion, given its scheduler preview `sched` taken at or before
    /// `now` and frozen queues (no enqueues) from `now` on. Two bounds
    /// compose:
    ///
    /// - an in-flight transfer retires no earlier than its scheduled
    ///   finish, and
    /// - any *new* CAS issues at some tick `t ≥ sched` (no command of any
    ///   kind can issue earlier), so its data finishes at
    ///   `t + tCAS + burst ≥ sched + tCAS + 1 beat`.
    ///
    /// Internal activity (ACT/PRE, refresh, CAS issue, drain flips) may
    /// happen freely inside the window — only *completions* are excluded —
    /// so a driver may leave the channel's ticks before it deferred and
    /// have the device replay them later (see
    /// [`crate::device::DramDevice::catch_up`]). [`Cycle::NEVER`] when
    /// the channel is drained.
    pub(crate) fn retire_horizon(&self, sched: Cycle, now: Cycle) -> Cycle {
        let first_new_finish = if sched == Cycle::NEVER {
            Cycle::NEVER
        } else {
            sched.max(now) + self.cfg.timings.t_cas + self.cfg.topology.beat_cpu_cycles
        };
        self.first_finish().min(first_new_finish)
    }

    /// Flips drain mode at the watermarks; returns whether it flipped.
    fn update_drain_mode(&mut self) -> bool {
        let flip = if self.draining {
            self.write_queue.len() <= self.cfg.write_drain_low
        } else {
            self.write_queue.len() >= self.cfg.write_drain_high
        };
        if flip {
            self.draining = !self.draining;
            self.stats.drain_episodes += u64::from(self.draining);
        }
        flip
    }

    /// FR-FCFS over the chosen queue; issues at most one command at `now`.
    /// Returns whether a command issued.
    fn schedule_from(&mut self, writes: bool, now: Cycle) -> bool {
        let queue = if writes {
            &mut self.write_queue
        } else {
            &mut self.read_queue
        };
        if queue.is_empty() {
            return false;
        }

        // Pass 1: oldest row-hit whose CAS can issue now, read off the
        // CAS-ready column alone.
        let window = queue.cas_ready_window(self.cfg.sched_window);
        let hit = window.iter().position(|&ready| ready <= now);
        let scanned = hit.map_or(window.len(), |idx| idx + 1);
        self.work.bump(|w| w.entries_scanned += scanned as u64);

        if let Some(idx) = hit {
            // Data may not start before the bus frees; model the CAS as
            // delayed until the data window fits. While the bus is the
            // bottleneck, issue nothing that could starve this CAS.
            if self.bus_free_at > now + self.cfg.timings.t_cas {
                return false;
            }
            let bank = queue.bank_index(idx);
            let Some(req) = queue.remove(idx) else {
                return false;
            };
            let burst = req.beats * self.cfg.topology.beat_cpu_cycles;
            let data_start = self
                .banks
                .cas(bank, req.location.row, now, burst, &self.cfg.timings);
            let finish = data_start + burst;
            self.bus_free_at = finish;
            self.stats.bus_busy_cycles += burst;
            self.account_bytes(&req);
            if let Some(log) = &mut self.transfer_log {
                log.push(TransferRecord {
                    channel: 0,
                    bank,
                    is_write: req.is_write,
                    class: req.class,
                    start: data_start,
                    finish,
                });
            }
            if !req.is_write {
                self.stats.read_queue_latency_sum += data_start - req.arrival;
            }
            debug_assert!(
                self.in_flight.back().is_none_or(|b| b.finish < finish),
                "CAS at {now:?} finishes at {finish:?}, not after the transfer before it"
            );
            self.in_flight.push_back(Completion {
                request: req,
                finish,
            });
            self.work.bump(|w| w.commands += 1);
            return true;
        }

        // Pass 2: advance the oldest request's bank (ACT or PRE).
        let (bank, row) = (queue.bank_index(0), queue.row(0));
        match self.banks.next_action(bank, row) {
            Some(BankAction::Act(ready)) if ready <= now => {
                self.banks.activate(bank, row, now, &self.cfg.timings);
            }
            Some(BankAction::Pre(ready)) if ready <= now => {
                self.banks.precharge(bank, row, now, &self.cfg.timings);
            }
            // Not yet, or an out-of-range bank that can never be scheduled.
            _ => return false,
        }
        // Only this bank's entries can change CAS readiness.
        let banks = &self.banks;
        self.read_queue
            .refresh_cas_ready(bank, |row| banks.cas_ready(bank, row));
        self.write_queue
            .refresh_cas_ready(bank, |row| banks.cas_ready(bank, row));
        self.work.bump(|w| w.commands += 1);
        true
    }

    fn account_bytes(&mut self, req: &DramRequest) {
        let bytes = req.beats * self.cfg.topology.beat_bytes;
        let class = (req.class.0 as usize).min(TrafficClass::COUNT - 1);
        self.stats.bytes_by_class[class] += bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::DramLocation;

    fn cfg() -> DramConfig {
        DramConfig::stacked_cache_8x()
    }

    fn loc(bank: u32, row: u64) -> DramLocation {
        DramLocation {
            channel: 0,
            rank: 0,
            bank,
            row,
        }
    }

    fn run_until_n_done(ch: &mut Channel, n: usize, max_cycles: u64) -> Vec<Completion> {
        let mut done = Vec::new();
        let mut t = Cycle(0);
        while done.len() < n && t.0 < max_cycles {
            ch.tick(t, &mut done);
            t += 1;
        }
        done
    }

    #[test]
    fn single_read_latency_is_act_cas_burst() {
        let mut ch = Channel::new(cfg());
        let req = DramRequest::read(1, loc(0, 5), 5, TrafficClass(0), Cycle(0));
        ch.try_enqueue(req).unwrap();
        let done = run_until_n_done(&mut ch, 1, 10_000);
        assert_eq!(done.len(), 1);
        // ACT@0, CAS@tRCD=36, data@36+36=72, finish 72+5=77... completion is
        // observed on the tick AFTER finish; allow exact value check:
        assert_eq!(done[0].finish, Cycle(77));
        assert_eq!(ch.stats.reads_completed, 1);
        assert_eq!(ch.stats.total_bytes(), 80);
    }

    #[test]
    fn row_hit_is_faster_than_row_miss() {
        let mut ch = Channel::new(cfg());
        ch.try_enqueue(DramRequest::read(
            1,
            loc(0, 5),
            5,
            TrafficClass(0),
            Cycle(0),
        ))
        .unwrap();
        ch.try_enqueue(DramRequest::read(
            2,
            loc(0, 5),
            5,
            TrafficClass(0),
            Cycle(0),
        ))
        .unwrap();
        let done = run_until_n_done(&mut ch, 2, 10_000);
        let first = done.iter().find(|c| c.request.id == 1).unwrap().finish;
        let second = done.iter().find(|c| c.request.id == 2).unwrap().finish;
        // Second access hits the open row: only tCAS + burst beyond bus.
        assert!(second - first < 77, "row hit gap was {}", second - first);
    }

    #[test]
    fn row_conflict_requires_precharge() {
        let mut ch = Channel::new(cfg());
        ch.try_enqueue(DramRequest::read(
            1,
            loc(0, 5),
            5,
            TrafficClass(0),
            Cycle(0),
        ))
        .unwrap();
        ch.try_enqueue(DramRequest::read(
            2,
            loc(0, 9),
            5,
            TrafficClass(0),
            Cycle(0),
        ))
        .unwrap();
        let done = run_until_n_done(&mut ch, 2, 10_000);
        let first = done.iter().find(|c| c.request.id == 1).unwrap().finish;
        let second = done.iter().find(|c| c.request.id == 2).unwrap().finish;
        // Conflict: wait tRAS, PRE (tRP), ACT (tRCD), CAS (tCAS) + burst.
        assert!(second - first >= 77, "conflict gap was {}", second - first);
    }

    #[test]
    fn banks_overlap_in_time() {
        let mut ch = Channel::new(cfg());
        for b in 0..4 {
            ch.try_enqueue(DramRequest::read(
                b as u64,
                loc(b, 1),
                5,
                TrafficClass(0),
                Cycle(0),
            ))
            .unwrap();
        }
        let done = run_until_n_done(&mut ch, 4, 10_000);
        let last = done.iter().map(|c| c.finish).max().unwrap();
        // Four row misses to four banks finish sooner than 4 fully serial
        // row misses (4 × 77 = 308), but pass 2 of the scheduler advances
        // only the oldest request's bank, so no ACT overlaps the head's
        // tRCD: the schedule is mostly serialized (~188 cycles). USIMM's
        // FR-FCFS issues the oldest *issuable* command and would overlap
        // the ACTs; the bound admits the head-only schedule.
        assert!(last.0 < 200, "last finish was {last}");
    }

    #[test]
    fn reads_prioritized_over_writes() {
        let mut ch = Channel::new(cfg());
        ch.try_enqueue(DramRequest::write(
            100,
            loc(1, 7),
            5,
            TrafficClass(1),
            Cycle(0),
        ))
        .unwrap();
        ch.try_enqueue(DramRequest::read(
            1,
            loc(0, 5),
            5,
            TrafficClass(0),
            Cycle(0),
        ))
        .unwrap();
        let done = run_until_n_done(&mut ch, 2, 100_000);
        let read = done.iter().find(|c| !c.request.is_write).unwrap().finish;
        let write = done.iter().find(|c| c.request.is_write).unwrap().finish;
        assert!(
            read < write,
            "read {read} should finish before write {write}"
        );
    }

    #[test]
    fn write_drain_triggers_at_watermark() {
        let mut c = cfg();
        c.write_drain_high = 4;
        c.write_drain_low = 1;
        let mut ch = Channel::new(c);
        // Keep a steady stream of reads AND exceed the write watermark.
        for i in 0..4 {
            ch.try_enqueue(DramRequest::write(
                100 + i,
                loc(1, i),
                5,
                TrafficClass(1),
                Cycle(0),
            ))
            .unwrap();
        }
        for i in 0..4 {
            ch.try_enqueue(DramRequest::read(
                i,
                loc(0, 5),
                5,
                TrafficClass(0),
                Cycle(0),
            ))
            .unwrap();
        }
        let done = run_until_n_done(&mut ch, 8, 100_000);
        assert_eq!(done.len(), 8);
        assert!(ch.stats.drain_episodes >= 1);
    }

    #[test]
    fn backpressure_when_queue_full() {
        let mut c = cfg();
        c.read_queue_capacity = 2;
        let mut ch = Channel::new(c);
        assert!(ch.can_accept(false));
        for i in 0..2 {
            ch.try_enqueue(DramRequest::read(
                i,
                loc(0, 1),
                5,
                TrafficClass(0),
                Cycle(0),
            ))
            .unwrap();
        }
        assert!(!ch.can_accept(false));
        let rejected = ch.try_enqueue(DramRequest::read(
            9,
            loc(0, 1),
            5,
            TrafficClass(0),
            Cycle(0),
        ));
        assert!(rejected.is_err());
        assert_eq!(rejected.unwrap_err().id, 9);
    }

    #[test]
    fn bus_serializes_row_hits() {
        let mut ch = Channel::new(cfg());
        // Two row hits in different banks still share one data bus.
        ch.try_enqueue(DramRequest::read(
            1,
            loc(0, 1),
            8,
            TrafficClass(0),
            Cycle(0),
        ))
        .unwrap();
        ch.try_enqueue(DramRequest::read(
            2,
            loc(1, 1),
            8,
            TrafficClass(0),
            Cycle(0),
        ))
        .unwrap();
        let done = run_until_n_done(&mut ch, 2, 10_000);
        let a = done.iter().find(|c| c.request.id == 1).unwrap().finish;
        let b = done.iter().find(|c| c.request.id == 2).unwrap().finish;
        let gap = b.0.abs_diff(a.0);
        assert!(gap >= 8, "bursts must not overlap on the bus, gap {gap}");
        assert_eq!(ch.stats.bus_busy_cycles, 16);
    }

    #[test]
    fn queue_latency_accumulates_for_reads_only() {
        let mut ch = Channel::new(cfg());
        ch.try_enqueue(DramRequest::read(
            1,
            loc(0, 1),
            5,
            TrafficClass(0),
            Cycle(0),
        ))
        .unwrap();
        ch.try_enqueue(DramRequest::write(
            2,
            loc(0, 1),
            5,
            TrafficClass(1),
            Cycle(0),
        ))
        .unwrap();
        run_until_n_done(&mut ch, 2, 100_000);
        assert!(ch.stats.read_queue_latency_sum >= 72);
        assert_eq!(ch.stats.reads_completed, 1);
        assert_eq!(ch.stats.writes_completed, 1);
    }

    #[test]
    fn next_busy_cycle_idle_is_never() {
        let ch = Channel::new(cfg());
        assert_eq!(ch.next_busy_cycle(Cycle(5)), Cycle::NEVER);
    }

    #[test]
    fn next_busy_cycle_queued_closed_bank_is_now() {
        let mut ch = Channel::new(cfg());
        ch.try_enqueue(DramRequest::read(
            1,
            loc(0, 1),
            5,
            TrafficClass(0),
            Cycle(0),
        ))
        .unwrap();
        // A closed bank can ACT immediately, so the scheduler acts this
        // very cycle.
        assert_eq!(ch.next_busy_cycle(Cycle(7)), Cycle(7));
    }

    #[test]
    fn next_busy_cycle_previews_bank_timing_windows() {
        let mut ch = Channel::new(cfg());
        let trcd = cfg().timings.t_rcd;
        ch.try_enqueue(DramRequest::read(
            1,
            loc(0, 1),
            5,
            TrafficClass(0),
            Cycle(0),
        ))
        .unwrap();
        let mut done = Vec::new();
        // Tick 0 issues the ACT; the queued CAS is then gated by tRCD.
        // The hint names that exact cycle, so an event-driven driver
        // skips the whole window.
        ch.tick(Cycle(0), &mut done);
        assert_eq!(ch.next_busy_cycle(Cycle(1)), Cycle(trcd));
        ch.tick(Cycle(trcd), &mut done); // CAS issues right on the hint
        assert_eq!(ch.pending(), 1, "transfer should be in flight");
    }

    #[test]
    fn next_busy_cycle_waits_out_a_bus_blocked_row_hit() {
        // A long burst occupies the bus; behind it sit a front request
        // whose ACT window is long past and a row hit whose CAS is ready.
        // Pass 1 finds the ready CAS, sees the bus busy and returns, so
        // pass 2 never issues the front's ACT: nothing can happen until
        // the row hit's data fits on the bus.
        let t = cfg().timings;
        let mut ch = Channel::new(cfg());
        let mut done = Vec::new();
        ch.try_enqueue(DramRequest::read(
            1,
            loc(0, 1),
            40,
            TrafficClass(0),
            Cycle(0),
        ))
        .unwrap();
        ch.tick(Cycle(0), &mut done); // ACT bank 0
        ch.tick(Cycle(t.t_rcd), &mut done); // CAS: the long burst
        let now = Cycle(t.t_rcd + 4);
        for (id, bank) in [(2, 1), (3, 0)] {
            ch.try_enqueue(DramRequest::read(id, loc(bank, 1), 5, TrafficClass(0), now))
                .unwrap();
        }
        let bus_free = Cycle(ch.bus_free_at.0 - t.t_cas);
        assert!(bus_free > now + 1, "the bus must still be busy");
        assert_eq!(ch.next_busy_cycle(now), bus_free);
        // Polling every cycle in between changes nothing; the hinted
        // cycle issues the row hit's CAS.
        let acts = |ch: &Channel| ch.banks.activations;
        let before = acts(&ch);
        for c in now.0..bus_free.0 {
            ch.tick(Cycle(c), &mut done);
        }
        assert_eq!((acts(&ch), ch.read_queue.len()), (before, 2));
        ch.tick(bus_free, &mut done);
        assert_eq!(ch.read_queue.len(), 1, "the row hit issues on the hint");
    }

    #[test]
    fn hinted_skips_match_per_cycle_polling() {
        // The same request mix through two channels: one ticked every
        // cycle, one ticked only at hinted cycles. The no-op guarantee
        // means completions and stats must agree exactly.
        let mix = [
            (0u32, 5u64, false),
            (0, 5, false), // row hit behind the first read
            (0, 9, false), // row conflict: PRE → ACT → CAS
            (1, 3, true),
            (2, 7, false),
        ];
        let mk = || {
            let mut ch = Channel::new(cfg());
            for (i, &(bank, row, write)) in mix.iter().enumerate() {
                let id = i as u64 + 1;
                let req = if write {
                    DramRequest::write(id, loc(bank, row), 5, TrafficClass(0), Cycle(0))
                } else {
                    DramRequest::read(id, loc(bank, row), 5, TrafficClass(0), Cycle(0))
                };
                ch.try_enqueue(req).unwrap();
            }
            ch
        };

        let mut poll = mk();
        let mut poll_done = Vec::new();
        for t in 0..10_000u64 {
            poll.tick(Cycle(t), &mut poll_done);
        }
        assert_eq!(poll_done.len(), mix.len());

        let mut ev = mk();
        let mut ev_done = Vec::new();
        let mut t = Cycle(0);
        let mut live_ticks = 0u64;
        while ev.pending() > 0 {
            ev.tick(t, &mut ev_done);
            live_ticks += 1;
            assert!(live_ticks < 1_000, "hints failed to make progress");
            match ev.next_busy_cycle(t + 1) {
                Cycle::NEVER => break,
                next => t = next,
            }
        }
        let key = |c: &Completion| (c.request.id, c.finish);
        assert_eq!(
            poll_done.iter().map(key).collect::<Vec<_>>(),
            ev_done.iter().map(key).collect::<Vec<_>>(),
        );
        assert_eq!(poll.stats.total_bytes(), ev.stats.total_bytes());
        assert_eq!(poll.row_hits(), ev.row_hits());
        // The hints must actually compress time: far fewer live ticks than
        // the cycles the request mix spans.
        assert!(
            live_ticks * 3 < poll_done.last().unwrap().finish.raw(),
            "only {live_ticks} live ticks expected to cover {} cycles",
            poll_done.last().unwrap().finish.raw()
        );
    }

    #[test]
    fn next_busy_cycle_in_flight_is_finish() {
        let mut ch = Channel::new(cfg());
        ch.try_enqueue(DramRequest::read(
            1,
            loc(0, 1),
            5,
            TrafficClass(0),
            Cycle(0),
        ))
        .unwrap();
        // Follow the hints until the request leaves the queue (CAS issued,
        // transfer in flight); the hint must then point exactly at the
        // finish time.
        let mut completions = Vec::new();
        let mut t = Cycle(0);
        loop {
            ch.tick(t, &mut completions);
            if ch.queued_bytes() == 0 {
                break;
            }
            t = ch.next_busy_cycle(t + 1).max(t + 1);
            assert!(t.raw() < 10_000, "request never scheduled");
        }
        assert!(completions.is_empty());
        assert!(ch.pending() > 0, "transfer should be in flight");
        let busy = ch.next_busy_cycle(t);
        assert!(busy > t, "in-flight hint must be in the future");
        // Skipping straight to the hinted cycle yields the completion.
        ch.tick(busy, &mut completions);
        assert_eq!(completions.len(), 1);
    }
}

#[cfg(test)]
mod refresh_tests {
    use super::*;
    use crate::config::{DramConfig, DramTimings};
    use crate::request::DramLocation;

    fn loc(bank: u32, row: u64) -> DramLocation {
        DramLocation {
            channel: 0,
            rank: 0,
            bank,
            row,
        }
    }

    #[test]
    fn refresh_disabled_by_default() {
        let mut ch = Channel::new(DramConfig::stacked_cache_8x());
        let mut done = Vec::new();
        for t in 0..100_000u64 {
            ch.tick(Cycle(t), &mut done);
        }
        assert_eq!(ch.stats.refreshes, 0);
    }

    #[test]
    fn refresh_fires_every_trefi_and_closes_rows() {
        let mut cfg = DramConfig::stacked_cache_8x();
        cfg.timings = DramTimings::table1_with_refresh();
        let mut ch = Channel::new(cfg);
        ch.try_enqueue(DramRequest::read(
            1,
            loc(0, 5),
            5,
            TrafficClass(0),
            Cycle(0),
        ))
        .unwrap();
        let mut done = Vec::new();
        let horizon = cfg.timings.t_refi * 3 + 100;
        for t in 0..horizon {
            ch.tick(Cycle(t), &mut done);
        }
        assert_eq!(ch.stats.refreshes, 3);
        assert_eq!(done.len(), 1);
    }

    #[test]
    fn refresh_delays_requests_in_its_window() {
        let mut cfg = DramConfig::stacked_cache_8x();
        cfg.timings = DramTimings::table1_with_refresh();
        let trefi = cfg.timings.t_refi;
        let trfc = cfg.timings.t_rfc;
        let mut ch = Channel::new(cfg);
        let mut done = Vec::new();
        // Arrive exactly at the refresh boundary.
        for t in 0..trefi {
            ch.tick(Cycle(t), &mut done);
        }
        ch.try_enqueue(DramRequest::read(
            9,
            loc(0, 5),
            5,
            TrafficClass(0),
            Cycle(trefi),
        ))
        .unwrap();
        for t in trefi..trefi + trfc + 500 {
            ch.tick(Cycle(t), &mut done);
        }
        assert_eq!(done.len(), 1);
        // Finish = refresh end + ACT/CAS/burst (≥ tRFC past arrival).
        assert!(
            done[0].finish.raw() >= trefi + trfc + 77,
            "finish {} too early",
            done[0].finish.raw()
        );
    }

    #[test]
    fn next_busy_cycle_bounded_by_refresh() {
        let mut cfg = DramConfig::stacked_cache_8x();
        cfg.timings = DramTimings::table1_with_refresh();
        let trefi = cfg.timings.t_refi;
        let mut ch = Channel::new(cfg);
        // Idle channel, but the refresh clock still ticks on absolute time:
        // a skipping driver must wake up at the refresh boundary, or the
        // refresh would fire late and shift every later one.
        assert_eq!(ch.next_busy_cycle(Cycle(0)), Cycle(trefi));
        let mut done = Vec::new();
        ch.tick(Cycle(trefi), &mut done);
        assert_eq!(ch.stats.refreshes, 1);
        assert_eq!(ch.next_busy_cycle(Cycle(trefi + 1)), Cycle(2 * trefi));
    }
}

//! Multi-channel DRAM device.
//!
//! [`DramDevice`] bundles the per-channel controllers behind one
//! enqueue/tick interface and aggregates statistics. The two instances used
//! by `bear-core` (stacked cache and commodity memory) differ only in their
//! [`crate::config::DramConfig`]. A device keeps its own clock and replays
//! the busy ticks an event-driven driver deferred when next touched.

use crate::channel::{Channel, ChannelStats, DramWork, TransferRecord};
use crate::config::DramConfig;
use crate::request::{DramLocation, DramRequest, TrafficClass};
use bear_sim::error::SimError;
use bear_sim::time::Cycle;

/// A DRAM transaction whose data transfer is scheduled: in flight inside
/// its channel until `finish`, then reported as completed.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// The original request.
    pub request: DramRequest,
    /// CPU cycle at which the last data beat transferred.
    pub finish: Cycle,
}

/// One channel's row of the device wake table.
#[derive(Debug, Clone, Copy)]
struct Wake {
    /// The channel's scheduler preview ([`Channel::next_schedule_cycle`]),
    /// taken after its last change.
    sched: Cycle,
    /// The channel's next busy cycle, `min(earliest finish, next refresh,
    /// sched)`, unclamped.
    busy: Cycle,
    /// A cycle strictly before which the channel retires nothing
    /// ([`Channel::retire_horizon`] of `sched`, taken with `busy`).
    horizon: Cycle,
    /// An enqueue changed the channel since `sched` was taken; the enqueue
    /// does not know the cycle, so the preview waits for the next
    /// [`DramDevice::tick_gated`] or [`DramDevice::catch_up`], and
    /// read-only queries take it on the fly until then.
    stale: bool,
}

/// A complete DRAM device: several independent channels.
///
/// The device keeps its own clock: `synced`, the first cycle whose tick it
/// has not applied. An event-driven driver need not tick it at every busy
/// cycle; it must only be there when a transfer can retire
/// ([`DramDevice::retire_horizon`]) or a request arrives. The device
/// replays the ticks in between, at exactly the cycles its channels' busy
/// hints name, the next time it is ticked ([`DramDevice::tick_gated`]) or
/// caught up ([`DramDevice::catch_up`]).
///
/// The device also keeps a *wake table*: each channel's next busy cycle,
/// retire horizon and scheduler preview, plus the minimum busy cycle
/// and horizon, updated at the device's own mutation points (enqueue,
/// tick, replay). Its hints and the idle check of
/// [`DramDevice::tick_gated`] are then a few loads, and a gated tick visits
/// only the channels that are due.
#[derive(Debug)]
pub struct DramDevice {
    cfg: DramConfig,
    channels: Vec<Channel>,
    wake: Vec<Wake>,
    /// Minimum `busy` over the channels that are not stale.
    min_busy: Cycle,
    /// Minimum `horizon` over the channels that are not stale.
    min_horizon: Cycle,
    /// Whether any channel is stale.
    any_stale: bool,
    /// First cycle whose tick the device has not applied.
    synced: Cycle,
    /// Channel ticks run by replays (see [`DramWork::replayed_ticks`]).
    replayed: u64,
}

/// Whether `BEAR_GATE_DIAG` is set: every elided channel tick and act phase
/// then runs anyway and must change nothing (slow; CI smoke and bug hunts
/// only). Read once per process.
fn gate_diag() -> bool {
    static DIAG: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *DIAG.get_or_init(|| std::env::var("BEAR_GATE_DIAG").is_ok())
}

impl DramDevice {
    /// Creates an idle device, validating the configuration first.
    ///
    /// # Errors
    ///
    /// Returns the [`SimError::Config`] from [`DramConfig::validate`].
    pub fn try_new(cfg: DramConfig) -> Result<Self, SimError> {
        cfg.validate()?;
        let channels: Vec<Channel> = (0..cfg.topology.channels)
            .map(|_| Channel::new(cfg))
            .collect();
        let wake = channels
            .iter()
            .map(|ch| Wake {
                sched: Cycle::NEVER,
                busy: ch.busy_cycle(Cycle::NEVER),
                horizon: Cycle::NEVER,
                stale: false,
            })
            .collect();
        let mut dev = DramDevice {
            cfg,
            channels,
            wake,
            min_busy: Cycle::NEVER,
            min_horizon: Cycle::NEVER,
            any_stale: false,
            synced: Cycle::ZERO,
            replayed: 0,
        };
        dev.update_mins();
        Ok(dev)
    }

    /// Creates an idle device.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`DramConfig::validate`]; use
    /// [`DramDevice::try_new`] to handle the error instead.
    pub fn new(cfg: DramConfig) -> Self {
        match Self::try_new(cfg) {
            Ok(dev) => dev,
            Err(e) => panic!("invalid DRAM configuration: {e}"),
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Whether `loc` names a channel/rank/bank that exists in this device's
    /// topology. Requests with out-of-range locations are rejected by
    /// [`DramDevice::try_enqueue`].
    fn location_in_range(&self, loc: &DramLocation) -> bool {
        let t = &self.cfg.topology;
        loc.channel < t.channels && loc.rank < t.ranks_per_channel && loc.bank < t.banks_per_rank
    }

    /// Whether the target channel can accept a request in the given
    /// direction right now. Out-of-range channels never accept. On a
    /// device that lags its driver the answer can only err toward "no":
    /// replayed ticks remove queue entries and never add any.
    pub fn can_accept(&self, channel: u32, is_write: bool) -> bool {
        self.channels
            .get(channel as usize)
            .is_some_and(|c| c.can_accept(is_write))
    }

    /// Earliest cycle, from `now` on, at which a request for `channel`
    /// could be enqueued ahead of that cycle's tick: `now` if the channel
    /// accepts it, else the cycle after the channel's next busy cycle,
    /// since only a tick of that channel frees a slot. [`Cycle::NEVER`] for
    /// an out-of-range channel. Exact on a lagging device too (see
    /// [`DramDevice::can_accept`]).
    pub fn accept_cycle(&self, channel: u32, is_write: bool, now: Cycle) -> Cycle {
        let idx = channel as usize;
        match self.channels.get(idx) {
            None => Cycle::NEVER,
            Some(ch) if ch.can_accept(is_write) => now,
            Some(ch) => Cycle(ch.busy_cycle(self.sched_at(idx, now)).0.saturating_add(1)).max(now),
        }
    }

    /// Attempts to enqueue; hands the request back if its channel queue is
    /// full (the caller must retry later — this is the backpressure that
    /// turns bandwidth bloat into stalls) or if its location is outside
    /// the device topology, which no retry fixes.
    ///
    /// The request takes part from the cycle of the next
    /// [`DramDevice::tick_gated`] or [`DramDevice::catch_up`] on, so a
    /// driver enqueues at `now` only into a device whose busy ticks before
    /// `now` have run (caught up, or [`DramDevice::next_busy_cycle`] at or
    /// past `now`).
    pub fn try_enqueue(&mut self, req: DramRequest) -> Result<(), DramRequest> {
        if !self.location_in_range(&req.location) {
            return Err(req);
        }
        let idx = req.location.channel as usize;
        self.channels[idx].try_enqueue(req)?;
        self.wake[idx].stale = true;
        self.any_stale = true;
        Ok(())
    }

    /// Advances all channels to `now`, appending finished transactions to
    /// `completions`: every channel retires, then acts, in index order.
    /// The per-cycle reference: a driver calls it at every cycle.
    pub fn tick(&mut self, now: Cycle, completions: &mut Vec<Completion>) {
        for (ch, w) in self.channels.iter_mut().zip(&mut self.wake) {
            if ch.tick(now, completions) {
                // Taken lazily: a per-cycle driver need not pay for it.
                w.stale = true;
                self.any_stale = true;
            }
        }
        self.synced = now + 1;
    }

    /// [`DramDevice::tick`] for event-driven drivers: replays the ticks
    /// deferred before `now` (see [`DramDevice::catch_up`]), then ticks
    /// only the channels the wake table marks due at `now`; a due channel
    /// whose preview lies past `now` only retires. Every skipped tick or
    /// act phase is a provable no-op, so both tick variants produce
    /// bit-identical channel state and completions.
    ///
    /// # Panics
    ///
    /// As [`DramDevice::catch_up`], if a replayed tick retires a transfer.
    pub fn tick_gated(&mut self, now: Cycle, completions: &mut Vec<Completion>) {
        debug_assert!(self.synced <= now, "device ticked twice at {now:?}");
        self.advance(now, now + 1, completions);
    }

    /// Replays the ticks deferred before `now`: each channel ticks exactly
    /// the cycles in `[synced, now)` its own busy hint names, the cycles a
    /// per-cycle driver would find non-elidable. Channels share no state,
    /// so replaying them one after another lands in the same state as
    /// ticking them in lockstep. A no-op on a device already there.
    ///
    /// # Panics
    ///
    /// Panics if a replayed tick retires a transfer: the driver skipped a
    /// cycle before `now` at which a completion was due (it must tick the
    /// device at every [`DramDevice::retire_horizon`]). The check stays
    /// on in release builds; the buffer it checks allocates only then.
    pub fn catch_up(&mut self, now: Cycle) {
        self.advance(now, now, &mut Vec::new());
    }

    /// Ticks each channel at the busy cycles in `[synced, end)`, where `end`
    /// is `now` (a catch-up) or `now + 1` (a gated tick at `now`). Only the
    /// tick at `now` may retire. A channel enqueued since the last advance
    /// had no busy tick before `now` (see [`DramDevice::try_enqueue`]); it
    /// takes its preview at `now` and starts there.
    fn advance(&mut self, now: Cycle, end: Cycle, completions: &mut Vec<Completion>) {
        let from = self.synced;
        if from >= end {
            return;
        }
        self.synced = end;
        let diag = gate_diag();
        if !self.any_stale && self.min_busy >= end && !diag {
            return;
        }
        let mut replayed = 0;
        for (idx, (ch, w)) in self.channels.iter_mut().zip(&mut self.wake).enumerate() {
            let mut cur = from;
            if w.stale {
                w.sched = ch.next_schedule_cycle(now);
                w.busy = ch.busy_cycle(w.sched).max(now);
                w.horizon = ch.retire_horizon(w.sched, now);
                w.stale = false;
                cur = now;
            }
            loop {
                let t = w.busy.max(cur);
                if diag {
                    for skipped in cur.0..t.0.min(end.0) {
                        Self::audit(ch, Cycle(skipped), "tick", |ch| {
                            let mut scratch = Vec::new();
                            ch.tick(Cycle(skipped), &mut scratch);
                            scratch.is_empty()
                        });
                    }
                }
                if t >= end {
                    break;
                }
                let retired = Self::step(ch, w, t, completions, diag);
                if t < now {
                    replayed += 1;
                    assert!(
                        !retired,
                        "channel {idx} retired a transfer at {t:?} in a replay up to \
                         {now:?}: the driver skipped a retire horizon"
                    );
                }
                cur = t + 1;
            }
        }
        self.any_stale = false;
        self.replayed += replayed;
        self.update_mins();
    }

    /// One due tick of `ch` at `now`, keeping its wake-table row exact.
    /// The act phase runs when the preview or a refresh falls due. The
    /// preview is retaken only when the act phase ran and the channel
    /// changed; a retire-only tick keeps it, since scheduling reads no
    /// in-flight state. Returns whether a transfer retired.
    fn step(
        ch: &mut Channel,
        w: &mut Wake,
        now: Cycle,
        completions: &mut Vec<Completion>,
        diag: bool,
    ) -> bool {
        let act = w.sched <= now || ch.refresh_due(now);
        let (retired, acted) = ch.tick_phases(now, completions, act);
        if act && (retired || acted) {
            w.sched = ch.next_schedule_cycle(now + 1);
        } else if diag && !act {
            Self::audit(ch, now, "act phase", |ch| !ch.act(now));
        }
        w.busy = ch.busy_cycle(w.sched);
        w.horizon = ch.retire_horizon(w.sched, now + 1);
        retired
    }

    /// Gate audit: runs an elided `op` anyway and panics unless it was a
    /// no-op (it returns `true` and leaves the channel's state unchanged).
    fn audit(ch: &mut Channel, now: Cycle, what: &str, op: impl FnOnce(&mut Channel) -> bool) {
        let before = format!("{ch:?}");
        let quiet = op(ch);
        let after = format!("{ch:?}");
        assert!(
            quiet && before == after,
            "hint claimed the {what} idle at {now:?} but it mutated:\nBEFORE {before}\nAFTER {after}"
        );
    }

    fn update_mins(&mut self) {
        let (mut busy, mut horizon) = (Cycle::NEVER, Cycle::NEVER);
        for w in self.wake.iter().filter(|w| !w.stale) {
            busy = busy.min(w.busy);
            horizon = horizon.min(w.horizon);
        }
        self.min_busy = busy;
        self.min_horizon = horizon;
    }

    /// Channel `idx`'s preview as seen at `now`: the wake table's, or one
    /// taken on the fly while the channel is stale.
    fn sched_at(&self, idx: usize, now: Cycle) -> Cycle {
        let w = &self.wake[idx];
        if w.stale {
            self.channels[idx].next_schedule_cycle(now)
        } else {
            w.sched
        }
    }

    /// Total requests somewhere in the device (queued or in flight). Exact
    /// on a lagging device: a replay retires nothing, and a CAS only moves
    /// a request from its queue to the in-flight set.
    pub fn pending(&self) -> usize {
        self.channels.iter().map(|c| c.pending()).sum()
    }

    /// Earliest cycle at which ticking this device can change state: ticks
    /// strictly before it are guaranteed no-ops (see
    /// [`Channel::next_busy_cycle`]). [`Cycle::NEVER`] when every channel is
    /// idle with no refresh pending.
    pub fn next_busy_cycle(&self, now: Cycle) -> Cycle {
        if !self.any_stale {
            return self.min_busy.max(now);
        }
        (0..self.channels.len())
            .map(|idx| self.channels[idx].busy_cycle(self.sched_at(idx, now)))
            .min()
            .unwrap_or(Cycle::NEVER)
            .max(now)
    }

    /// A cycle strictly before which no channel can produce a completion,
    /// provided no new requests are enqueued (min over the channels'
    /// retire horizons). Ticks before it change the channels only
    /// internally, so a driver may defer them to a replay.
    /// [`Cycle::NEVER`] when drained.
    pub fn retire_horizon(&self, now: Cycle) -> Cycle {
        if !self.any_stale {
            return self.min_horizon;
        }
        (0..self.channels.len())
            .map(|idx| self.channels[idx].retire_horizon(self.sched_at(idx, now), now))
            .min()
            .unwrap_or(Cycle::NEVER)
    }

    /// Host-work counters summed over channels (see [`DramWork`]).
    pub fn work(&self) -> DramWork {
        let mut sum = DramWork {
            replayed_ticks: self.replayed,
            ..DramWork::default()
        };
        for ch in &self.channels {
            sum += ch.work();
        }
        sum
    }

    /// Per-channel statistics.
    pub fn channel_stats(&self) -> impl Iterator<Item = &ChannelStats> {
        self.channels.iter().map(|c| &c.stats)
    }

    /// Bytes transferred in `class`, summed over channels.
    pub fn bytes_in_class(&self, class: TrafficClass) -> u64 {
        let idx = (class.0 as usize).min(TrafficClass::COUNT - 1);
        self.channels
            .iter()
            .map(|c| c.stats.bytes_by_class[idx])
            .sum()
    }

    /// Total bytes transferred across all classes and channels.
    pub fn total_bytes(&self) -> u64 {
        self.channels.iter().map(|c| c.stats.total_bytes()).sum()
    }

    /// Bytes sitting in channel queues, not yet counted by
    /// [`DramDevice::total_bytes`] (see [`Channel::queued_bytes`]).
    pub fn queued_bytes(&self) -> u64 {
        self.channels.iter().map(|c| c.queued_bytes()).sum()
    }

    /// [`DramDevice::queued_bytes`], broken down per traffic class.
    pub fn queued_bytes_by_class(&self) -> [u64; TrafficClass::COUNT] {
        let mut out = [0u64; TrafficClass::COUNT];
        for c in &self.channels {
            c.add_queued_bytes_by_class(&mut out);
        }
        out
    }

    /// Total data-bus busy cycles summed over channels.
    pub fn bus_busy_cycles(&self) -> u64 {
        self.channels.iter().map(|c| c.stats.bus_busy_cycles).sum()
    }

    /// Aggregate row-buffer hit count (diagnostics).
    pub fn row_hits(&self) -> u64 {
        self.channels.iter().map(|c| c.row_hits()).sum()
    }

    /// Resets all channel statistics (warmup/measurement boundary).
    /// In-flight requests and bank state are preserved.
    pub fn reset_stats(&mut self) {
        for ch in &mut self.channels {
            ch.stats.reset();
        }
    }

    /// Arms (`Some(per_channel_capacity)`) or disarms (`None`) transfer
    /// logging on every channel (telemetry trace export).
    pub fn set_transfer_log(&mut self, capacity: Option<usize>) {
        for ch in &mut self.channels {
            ch.set_transfer_log(capacity);
        }
    }

    /// Drains every channel's transfer log, stamping each record with its
    /// channel index. Records are sorted by burst start time.
    pub fn take_transfer_records(&mut self) -> Vec<TransferRecord> {
        let mut out = Vec::new();
        for (idx, ch) in self.channels.iter_mut().enumerate() {
            out.extend(ch.take_transfer_records().into_iter().map(|mut r| {
                r.channel = idx as u32;
                r
            }));
        }
        out.sort_by_key(|r| (r.start, r.channel, r.bank));
        out
    }

    /// Snapshot of per-bank queue depth (queued plus in-flight requests),
    /// indexed `channel * banks_per_channel + bank`.
    pub fn bank_queue_depths(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(
            self.channels.len() * self.cfg.topology.banks_per_channel() as usize,
        );
        for ch in &self.channels {
            ch.bank_depths(&mut out);
        }
        out
    }

    /// Mean read queue latency (arrival to first data beat), in CPU cycles.
    pub fn mean_read_queue_latency(&self) -> f64 {
        let (sum, n) = self.channels.iter().fold((0u64, 0u64), |(s, n), c| {
            (
                s + c.stats.read_queue_latency_sum,
                n + c.stats.reads_completed,
            )
        });
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::DramLocation;

    fn drive(dev: &mut DramDevice, want: usize, max: u64) -> Vec<Completion> {
        let mut done = Vec::new();
        let mut t = Cycle(0);
        while done.len() < want && t.0 < max {
            dev.tick(t, &mut done);
            t += 1;
        }
        done
    }

    #[test]
    fn channels_work_independently() {
        let mut dev = DramDevice::new(DramConfig::stacked_cache_8x());
        for ch in 0..4 {
            dev.try_enqueue(DramRequest::read(
                ch as u64,
                DramLocation {
                    channel: ch,
                    rank: 0,
                    bank: 0,
                    row: 1,
                },
                5,
                TrafficClass(0),
                Cycle(0),
            ))
            .unwrap();
        }
        let done = drive(&mut dev, 4, 1_000);
        assert_eq!(done.len(), 4);
        // All four finish at the same time: no cross-channel contention.
        let finishes: Vec<_> = done.iter().map(|c| c.finish).collect();
        assert!(finishes.iter().all(|&f| f == finishes[0]));
        assert_eq!(dev.pending(), 0);
    }

    #[test]
    fn byte_accounting_by_class() {
        let mut dev = DramDevice::new(DramConfig::stacked_cache_8x());
        let loc = DramLocation {
            channel: 0,
            rank: 0,
            bank: 0,
            row: 1,
        };
        dev.try_enqueue(DramRequest::read(1, loc, 5, TrafficClass(2), Cycle(0)))
            .unwrap();
        dev.try_enqueue(DramRequest::write(2, loc, 4, TrafficClass(3), Cycle(0)))
            .unwrap();
        drive(&mut dev, 2, 100_000);
        assert_eq!(dev.bytes_in_class(TrafficClass(2)), 80);
        assert_eq!(dev.bytes_in_class(TrafficClass(3)), 64);
        assert_eq!(dev.total_bytes(), 144);
    }

    #[test]
    fn mean_read_latency_nonzero() {
        let mut dev = DramDevice::new(DramConfig::commodity_memory());
        let loc = DramLocation {
            channel: 1,
            rank: 0,
            bank: 2,
            row: 7,
        };
        dev.try_enqueue(DramRequest::read(1, loc, 8, TrafficClass(0), Cycle(0)))
            .unwrap();
        drive(&mut dev, 1, 100_000);
        assert!(dev.mean_read_queue_latency() >= 72.0);
        assert_eq!(
            DramDevice::new(DramConfig::default()).mean_read_queue_latency(),
            0.0
        );
    }

    #[test]
    fn out_of_range_location_rejected_not_panicking() {
        let mut dev = DramDevice::new(DramConfig::commodity_memory());
        let bad = [
            DramLocation {
                channel: 99,
                rank: 0,
                bank: 0,
                row: 0,
            },
            DramLocation {
                channel: 0,
                rank: 7,
                bank: 0,
                row: 0,
            },
            DramLocation {
                channel: 0,
                rank: 0,
                bank: 64,
                row: 0,
            },
        ];
        for loc in bad {
            assert!(!dev.location_in_range(&loc));
            let rejected = dev.try_enqueue(DramRequest::read(1, loc, 8, TrafficClass(0), Cycle(0)));
            assert!(rejected.is_err(), "{loc:?} must be rejected");
        }
        assert!(!dev.can_accept(99, false));
        assert_eq!(dev.pending(), 0, "rejected requests must not be queued");
    }

    #[test]
    fn try_new_reports_config_error() {
        let mut cfg = DramConfig::commodity_memory();
        cfg.sched_window = 0;
        let err = DramDevice::try_new(cfg).unwrap_err();
        assert_eq!(err.kind(), "config");
        assert!(format!("{err}").contains("sched_window"));
    }

    #[test]
    fn queued_bytes_tracks_unissued_requests() {
        let mut dev = DramDevice::new(DramConfig::stacked_cache_8x());
        let loc = DramLocation {
            channel: 0,
            rank: 0,
            bank: 0,
            row: 1,
        };
        dev.try_enqueue(DramRequest::read(1, loc, 5, TrafficClass(0), Cycle(0)))
            .unwrap();
        dev.try_enqueue(DramRequest::write(2, loc, 4, TrafficClass(1), Cycle(0)))
            .unwrap();
        // Nothing issued yet: all bytes are "queued", none "transferred".
        assert_eq!(dev.queued_bytes(), 80 + 64);
        assert_eq!(dev.total_bytes(), 0);
        drive(&mut dev, 2, 100_000);
        // After completion the bytes have moved to the transferred side.
        assert_eq!(dev.queued_bytes(), 0);
        assert_eq!(dev.total_bytes(), 144);
    }

    #[test]
    fn next_busy_cycle_aggregates() {
        let mut dev = DramDevice::new(DramConfig::stacked_cache_8x());
        assert_eq!(dev.next_busy_cycle(Cycle(10)), Cycle::NEVER);
        dev.try_enqueue(DramRequest::read(
            1,
            DramLocation {
                channel: 2,
                rank: 0,
                bank: 0,
                row: 0,
            },
            5,
            TrafficClass(0),
            Cycle(0),
        ))
        .unwrap();
        // Queued work means the scheduler may act this very cycle.
        assert_eq!(dev.next_busy_cycle(Cycle(10)), Cycle(10));
    }

    #[test]
    fn transfer_log_captures_bursts_when_armed() {
        let mut dev = DramDevice::new(DramConfig::stacked_cache_8x());
        let loc = DramLocation {
            channel: 2,
            rank: 0,
            bank: 3,
            row: 1,
        };
        // Disarmed: nothing captured.
        dev.try_enqueue(DramRequest::read(1, loc, 5, TrafficClass(2), Cycle(0)))
            .unwrap();
        drive(&mut dev, 1, 10_000);
        assert!(dev.take_transfer_records().is_empty());

        dev.set_transfer_log(Some(64));
        dev.try_enqueue(DramRequest::read(2, loc, 5, TrafficClass(2), Cycle(0)))
            .unwrap();
        dev.try_enqueue(DramRequest::write(3, loc, 4, TrafficClass(4), Cycle(0)))
            .unwrap();
        drive(&mut dev, 3, 100_000);
        let recs = dev.take_transfer_records();
        assert_eq!(recs.len(), 2);
        assert!(recs.windows(2).all(|w| w[0].start <= w[1].start));
        let read = recs.iter().find(|r| !r.is_write).unwrap();
        assert_eq!(read.channel, 2);
        assert_eq!(read.bank, 3);
        assert_eq!(read.class, TrafficClass(2));
        assert!(read.finish > read.start);
        // Draining leaves the log armed but empty.
        assert!(dev.take_transfer_records().is_empty());
    }

    #[test]
    fn bank_queue_depths_reflect_pending_requests() {
        let mut dev = DramDevice::new(DramConfig::stacked_cache_8x());
        let banks_per_channel = dev.config().topology.banks_per_channel() as usize;
        let channels = dev.config().topology.channels as usize;
        let idle = dev.bank_queue_depths();
        assert_eq!(idle.len(), channels * banks_per_channel);
        assert!(idle.iter().all(|&d| d == 0));

        let loc = DramLocation {
            channel: 1,
            rank: 0,
            bank: 2,
            row: 7,
        };
        for id in 0..3 {
            dev.try_enqueue(DramRequest::read(id, loc, 5, TrafficClass(0), Cycle(0)))
                .unwrap();
        }
        let depths = dev.bank_queue_depths();
        assert_eq!(depths[banks_per_channel + 2], 3);
        assert_eq!(depths.iter().map(|&d| d as usize).sum::<usize>(), 3);
        drive(&mut dev, 3, 100_000);
        assert!(dev.bank_queue_depths().iter().all(|&d| d == 0));
    }

    fn loaded_device() -> DramDevice {
        let mut dev = DramDevice::new(DramConfig::stacked_cache_8x());
        for ch in 0..dev.config().topology.channels {
            for id in 0..6u64 {
                dev.try_enqueue(DramRequest::read(
                    u64::from(ch) * 100 + id,
                    DramLocation {
                        channel: ch,
                        rank: 0,
                        bank: (id % 4) as u32,
                        row: id * 3 + u64::from(ch),
                    },
                    5,
                    TrafficClass(0),
                    Cycle(0),
                ))
                .unwrap();
            }
        }
        dev
    }

    /// Drive the same load twice: per cycle, and by ticking only at each
    /// retire horizon while the device replays the busy ticks in
    /// between. Every observable (debug state, stats, completions) must
    /// match bit for bit.
    #[test]
    fn deferred_ticks_replay_as_per_cycle_ticking() {
        let mut reference = loaded_device();
        let mut lazy = loaded_device();
        let mut ref_done = Vec::new();
        let mut lazy_done = Vec::new();
        let mut now = Cycle(0);
        let mut visits = 0;
        while lazy.pending() > 0 {
            assert!(now.0 < 100_000, "workload must drain");
            lazy.tick_gated(now, &mut lazy_done);
            visits += 1;
            now = lazy.retire_horizon(now + 1).max(now + 1);
        }
        let end = Cycle(lazy.synced.0 + 100);
        for t in 0..end.0 {
            reference.tick(Cycle(t), &mut ref_done);
        }
        lazy.catch_up(end);
        let replayed = lazy.work().replayed_ticks;
        assert!(replayed > 0, "no tick was deferred");
        assert!(
            visits < end.0 / 4,
            "{visits} visits: the horizon kept the driver busy"
        );
        assert_eq!(
            format!("{:?}", reference.channels),
            format!("{:?}", lazy.channels),
            "channel state diverged"
        );
        let ids = |done: &[Completion]| -> Vec<_> {
            done.iter().map(|c| (c.request.id, c.finish)).collect()
        };
        assert_eq!(ids(&ref_done), ids(&lazy_done), "completions diverged");
    }

    /// A driver that skips a completion trips the replay's release-mode
    /// check instead of handing the completion back late.
    #[test]
    #[should_panic(expected = "skipped a retire horizon")]
    fn replay_past_a_completion_panics() {
        let mut dev = loaded_device();
        dev.tick_gated(Cycle(0), &mut Vec::new());
        let horizon = dev.retire_horizon(Cycle(1));
        dev.catch_up(horizon + 200);
    }

    #[test]
    fn commodity_read_is_slower_than_stacked() {
        // Identical single-read experiment on both devices: same core
        // latency, but the 64B burst takes 16 cycles vs 4 on the wide bus.
        let mut cache = DramDevice::new(DramConfig::stacked_cache_8x());
        let mut mem = DramDevice::new(DramConfig::commodity_memory());
        let loc = DramLocation {
            channel: 0,
            rank: 0,
            bank: 0,
            row: 1,
        };
        cache
            .try_enqueue(DramRequest::read(1, loc, 4, TrafficClass(0), Cycle(0)))
            .unwrap();
        mem.try_enqueue(DramRequest::read(1, loc, 8, TrafficClass(0), Cycle(0)))
            .unwrap();
        let c = drive(&mut cache, 1, 10_000)[0].finish;
        let m = drive(&mut mem, 1, 10_000)[0].finish;
        assert!(m > c, "commodity {m} should exceed stacked {c}");
        assert_eq!(c, Cycle(76)); // 72 + 4 beats
        assert_eq!(m, Cycle(88)); // 72 + 16
    }
}

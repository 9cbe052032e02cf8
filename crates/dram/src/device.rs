//! Multi-channel DRAM device.
//!
//! [`DramDevice`] bundles the per-channel controllers behind one
//! enqueue/tick interface and aggregates statistics. The two instances used
//! by `bear-core` (stacked cache and commodity memory) differ only in their
//! [`crate::config::DramConfig`].

use crate::channel::{Channel, ChannelCompletion, ChannelStats, TransferRecord};
use crate::config::DramConfig;
use crate::request::{DramLocation, DramRequest, TrafficClass};
use bear_sim::error::SimError;
use bear_sim::time::Cycle;

/// A completed DRAM transaction.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// The original request.
    pub request: DramRequest,
    /// CPU cycle at which the last data beat transferred.
    pub finish: Cycle,
}

/// A complete DRAM device: several independent channels.
#[derive(Debug)]
pub struct DramDevice {
    cfg: DramConfig,
    channels: Vec<Channel>,
    scratch: Vec<ChannelCompletion>,
}

impl DramDevice {
    /// Creates an idle device, validating the configuration first.
    ///
    /// # Errors
    ///
    /// Returns the [`SimError::Config`] from [`DramConfig::validate`].
    pub fn try_new(cfg: DramConfig) -> Result<Self, SimError> {
        cfg.validate()?;
        let channels = (0..cfg.topology.channels)
            .map(|_| Channel::new(cfg))
            .collect();
        Ok(DramDevice {
            cfg,
            channels,
            scratch: Vec::with_capacity(16),
        })
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
    pub fn location_in_range(&self, loc: &DramLocation) -> bool {
        let t = &self.cfg.topology;
        loc.channel < t.channels && loc.rank < t.ranks_per_channel && loc.bank < t.banks_per_rank
    }

    /// Whether the target channel can accept a request in the given
    /// direction right now. Out-of-range channels never accept.
    pub fn can_accept(&self, channel: u32, is_write: bool) -> bool {
        self.channels
            .get(channel as usize)
            .is_some_and(|c| c.can_accept(is_write))
    }

    /// Attempts to enqueue; hands the request back if its channel queue is
    /// full (the caller must retry later — this is the backpressure that
    /// turns bandwidth bloat into stalls) or if its location is outside
    /// the device topology (use [`DramDevice::location_in_range`] to tell
    /// the two apart).
    pub fn try_enqueue(&mut self, req: DramRequest) -> Result<(), DramRequest> {
        if !self.location_in_range(&req.location) {
            return Err(req);
        }
        self.channels[req.location.channel as usize].try_enqueue(req)
    }

    /// Advances all channels to `now`, appending finished transactions to
    /// `completions`.
    pub fn tick(&mut self, now: Cycle, completions: &mut Vec<Completion>) {
        for ch in &mut self.channels {
            self.scratch.clear();
            ch.tick(now, &mut self.scratch);
            completions.extend(self.scratch.iter().map(|c| Completion {
                request: c.request,
                finish: c.finish,
            }));
        }
    }

    /// [`DramDevice::tick`] for event-driven drivers: channels whose
    /// [`Channel::next_busy_cycle`] proves this cycle a no-op are not
    /// ticked at all. The hint is memoized per channel and every mutation
    /// point invalidates it, so the elision is exact — both tick variants
    /// produce bit-identical channel state and completions.
    pub fn tick_gated(&mut self, now: Cycle, completions: &mut Vec<Completion>) {
        // `BEAR_GATE_DIAG=1` cross-checks every elision by running the
        // tick anyway and asserting it changed nothing (slow; CI smoke
        // and bug hunts only). The flag is read once per process.
        static DIAG: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        let diag = *DIAG.get_or_init(|| std::env::var("BEAR_GATE_DIAG").is_ok());
        for ch in &mut self.channels {
            if ch.next_busy_cycle(now) > now {
                if diag {
                    let before = format!("{ch:?}");
                    let mut scratch = Vec::new();
                    ch.tick(now, &mut scratch);
                    let after = format!("{ch:?}");
                    assert!(
                        scratch.is_empty() && before == after,
                        "hint claimed idle at {now:?} but tick mutated:\nBEFORE {before}\nAFTER {after}\ncompletions {scratch:?}"
                    );
                }
                continue;
            }
            self.scratch.clear();
            ch.tick(now, &mut self.scratch);
            completions.extend(self.scratch.iter().map(|c| Completion {
                request: c.request,
                finish: c.finish,
            }));
        }
    }

    /// Total requests somewhere in the device (queued or in flight).
    pub fn pending(&self) -> usize {
        self.channels.iter().map(|c| c.pending()).sum()
    }

    /// Earliest time any channel might make progress ([`Cycle::NEVER`] when
    /// idle); drivers may fast-forward to this.
    pub fn next_event_hint(&self, now: Cycle) -> Cycle {
        self.channels
            .iter()
            .map(|c| c.next_event_hint(now))
            .min()
            .unwrap_or(Cycle::NEVER)
    }

    /// Earliest cycle at which ticking this device can change state: ticks
    /// strictly before it are guaranteed no-ops (see
    /// [`Channel::next_busy_cycle`]). [`Cycle::NEVER`] when every channel is
    /// idle with no refresh pending.
    pub fn next_busy_cycle(&self, now: Cycle) -> Cycle {
        let mut best = Cycle::NEVER;
        for c in &self.channels {
            let b = c.next_busy_cycle(now);
            if b <= now {
                // One busy channel settles the device; skip the rest.
                return b;
            }
            best = best.min(b);
        }
        best
    }

    /// A cycle strictly before which no channel can produce a completion,
    /// provided no new requests are enqueued (min over
    /// [`Channel::completion_horizon`]). [`Cycle::NEVER`] when drained.
    pub fn completion_horizon(&self, now: Cycle) -> Cycle {
        self.channels
            .iter()
            .map(|c| c.completion_horizon(now))
            .min()
            .unwrap_or(Cycle::NEVER)
    }

    /// Advances every channel from `now` to `horizon` in one call, replaying
    /// each channel's busy ticks exactly as per-cycle driving would (see
    /// [`Channel::advance_to`]). The caller must pass
    /// `horizon <= self.completion_horizon(now)` and must not enqueue
    /// during the span. Channels share no state, so advancing them one
    /// after another lands in the same state as ticking them in lockstep.
    ///
    /// # Panics
    ///
    /// Panics if a completion retires inside the span, i.e. the caller
    /// broke the completion-horizon contract. The check stays on in
    /// release builds.
    pub fn advance_span(&mut self, now: Cycle, horizon: Cycle) {
        self.scratch.clear();
        for (idx, ch) in self.channels.iter_mut().enumerate() {
            // Returns at once when the channel's busy hint is past `horizon`.
            ch.advance_to(now, horizon, &mut self.scratch);
            assert!(
                self.scratch.is_empty(),
                "channel {idx} retired a completion inside the span \
                 [{now:?}, {horizon:?}): completion_horizon contract violated"
            );
        }
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
    fn next_event_hint_aggregates() {
        let mut dev = DramDevice::new(DramConfig::stacked_cache_8x());
        assert_eq!(dev.next_event_hint(Cycle(10)), Cycle::NEVER);
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
        assert_eq!(dev.next_event_hint(Cycle(10)), Cycle(11));
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

    /// Drive the same load twice: per cycle, and by jumping to each
    /// completion horizon with `advance_span`. Every observable (debug
    /// state, stats, completions) must match bit for bit.
    #[test]
    fn advance_span_matches_per_cycle_ticking() {
        let mut reference = loaded_device();
        let mut spanned = loaded_device();
        let mut now = Cycle(0);
        let mut ref_done = Vec::new();
        let mut span_done = Vec::new();
        let mut spans = 0;
        // Alternate span advances with dense ticking until drained.
        while spanned.pending() > 0 && now.0 < 100_000 {
            let horizon = spanned.completion_horizon(now);
            if horizon > now + 1 && horizon != Cycle::NEVER {
                spanned.advance_span(now, horizon);
                while now < horizon {
                    reference.tick(now, &mut ref_done);
                    now += 1;
                }
                spans += 1;
            } else {
                reference.tick(now, &mut ref_done);
                spanned.tick(now, &mut span_done);
                now += 1;
            }
        }
        assert_eq!(spanned.pending(), 0, "workload must drain");
        assert!(spans > 0, "no span was taken");
        assert_eq!(
            format!("{:?}", reference.channels),
            format!("{:?}", spanned.channels),
            "channel state diverged"
        );
        let ids = |done: &[Completion]| -> Vec<_> {
            done.iter().map(|c| (c.request.id, c.finish)).collect()
        };
        assert_eq!(ids(&ref_done), ids(&span_done), "completions diverged");
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

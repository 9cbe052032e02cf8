//! DRAM request types.
//!
//! A [`DramRequest`] is a located, sized, categorized transfer. The size is
//! expressed in data-bus *beats* so that every transfer unit in the paper is
//! first class: an 80 B Alloy TAD (5 beats on the 16 B-per-beat stacked bus),
//! a 64 B line (4 beats), a 192 B Loh-Hill tag group (12 beats), or an 8 B
//! tag-only writeback update (1 beat).

use bear_sim::time::Cycle;

/// Unique identifier assigned by the issuer of a request.
pub type RequestId = u64;

/// Where in the device a request lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramLocation {
    /// Channel index.
    pub channel: u32,
    /// Rank index within the channel.
    pub rank: u32,
    /// Bank index within the rank.
    pub bank: u32,
    /// Row index within the bank.
    pub row: u64,
}

impl DramLocation {
    /// Flat bank index within the owning channel.
    pub fn bank_in_channel(&self, banks_per_rank: u32) -> u32 {
        self.rank * banks_per_rank + self.bank
    }
}

/// Opaque traffic category used for byte accounting.
///
/// `bear-core` maps the paper's six bloat sources (Hit Probe, Miss Probe,
/// Miss Fill, Writeback Probe, Writeback Update, Writeback Fill) plus victim
/// traffic onto these tags; the DRAM model itself only accumulates bytes per
/// tag, keeping the substrate independent of the paper's taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TrafficClass(pub u8);

impl TrafficClass {
    /// Number of distinguishable classes tracked by the device stats.
    pub const COUNT: usize = 16;
}

/// One DRAM transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramRequest {
    /// Issuer-assigned identifier, echoed back in the completion.
    pub id: RequestId,
    /// Target location.
    pub location: DramLocation,
    /// Transfer length in data-bus beats (must be non-zero).
    pub beats: u64,
    /// Write (data flows to the device) vs. read.
    pub is_write: bool,
    /// Accounting category.
    pub class: TrafficClass,
    /// Time the request entered the controller queue.
    pub arrival: Cycle,
}

impl DramRequest {
    /// Creates a read request.
    pub fn read(
        id: RequestId,
        location: DramLocation,
        beats: u64,
        class: TrafficClass,
        arrival: Cycle,
    ) -> Self {
        debug_assert!(beats > 0);
        DramRequest {
            id,
            location,
            beats,
            is_write: false,
            class,
            arrival,
        }
    }

    /// Creates a write request.
    pub fn write(
        id: RequestId,
        location: DramLocation,
        beats: u64,
        class: TrafficClass,
        arrival: Cycle,
    ) -> Self {
        debug_assert!(beats > 0);
        DramRequest {
            id,
            location,
            beats,
            is_write: true,
            class,
            arrival,
        }
    }
}

/// A bounded FIFO of [`DramRequest`]s in structure-of-arrays layout.
///
/// The channel scheduler's hot loops (the FR-FCFS window scan and the
/// `next_busy_cycle` preview) touch only a request's row and flat bank
/// index; packing those into their own dense arrays keeps the per-tick
/// working set to a few cache lines instead of a stride of full
/// [`DramRequest`] structs. The flat bank index is precomputed at push
/// time so the scan does no arithmetic at all.
///
/// It behaves as a capped FIFO: pushes past the capacity hand the
/// rejected request back unchanged, and removal at an arbitrary index
/// preserves the order of the rest (FR-FCFS picks row hits out of order).
/// `tests/proptests.rs` checks this against a `VecDeque` model, with the
/// scan columns kept aligned under out-of-order removal.
#[derive(Debug, Clone)]
pub struct RequestQueue {
    cap: usize,
    banks_per_rank: u32,
    // Hot scan columns.
    rows: Vec<u64>,
    bank_idx: Vec<u32>,
    // Cold columns, touched only on push/remove/accounting.
    ids: Vec<RequestId>,
    channels: Vec<u32>,
    ranks: Vec<u32>,
    banks: Vec<u32>,
    beats: Vec<u64>,
    writes: Vec<bool>,
    classes: Vec<TrafficClass>,
    arrivals: Vec<Cycle>,
}

impl RequestQueue {
    /// Creates a queue holding at most `capacity` requests.
    /// `banks_per_rank` is captured to precompute each request's flat
    /// bank-in-channel index at push time.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, banks_per_rank: u32) -> Self {
        assert!(capacity > 0, "queue capacity must be non-zero");
        RequestQueue {
            cap: capacity,
            banks_per_rank,
            rows: Vec::with_capacity(capacity),
            bank_idx: Vec::with_capacity(capacity),
            ids: Vec::with_capacity(capacity),
            channels: Vec::with_capacity(capacity),
            ranks: Vec::with_capacity(capacity),
            banks: Vec::with_capacity(capacity),
            beats: Vec::with_capacity(capacity),
            writes: Vec::with_capacity(capacity),
            classes: Vec::with_capacity(capacity),
            arrivals: Vec::with_capacity(capacity),
        }
    }

    /// Attempts to enqueue; hands the request back if there is no room.
    pub fn try_push(&mut self, req: DramRequest) -> Result<(), DramRequest> {
        if self.rows.len() >= self.cap {
            return Err(req);
        }
        self.rows.push(req.location.row);
        self.bank_idx
            .push(req.location.bank_in_channel(self.banks_per_rank));
        self.ids.push(req.id);
        self.channels.push(req.location.channel);
        self.ranks.push(req.location.rank);
        self.banks.push(req.location.bank);
        self.beats.push(req.beats);
        self.writes.push(req.is_write);
        self.classes.push(req.class);
        self.arrivals.push(req.arrival);
        Ok(())
    }

    /// Number of queued requests.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Whether the queue is at capacity.
    pub fn is_full(&self) -> bool {
        self.rows.len() >= self.cap
    }

    /// Maximum number of requests.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Row of the request at `index` (0 = oldest).
    #[inline]
    pub fn row(&self, index: usize) -> u64 {
        self.rows[index]
    }

    /// Precomputed flat bank-in-channel index of the request at `index`.
    #[inline]
    pub fn bank_index(&self, index: usize) -> u32 {
        self.bank_idx[index]
    }

    /// Reconstructs the full request at `index` from the columns.
    pub fn get(&self, index: usize) -> Option<DramRequest> {
        if index >= self.rows.len() {
            return None;
        }
        Some(DramRequest {
            id: self.ids[index],
            location: DramLocation {
                channel: self.channels[index],
                rank: self.ranks[index],
                bank: self.banks[index],
                row: self.rows[index],
            },
            beats: self.beats[index],
            is_write: self.writes[index],
            class: self.classes[index],
            arrival: self.arrivals[index],
        })
    }

    /// Removes and returns the request at `index` (0 = oldest),
    /// preserving the order of the remainder.
    pub fn remove(&mut self, index: usize) -> Option<DramRequest> {
        let req = self.get(index)?;
        self.rows.remove(index);
        self.bank_idx.remove(index);
        self.ids.remove(index);
        self.channels.remove(index);
        self.ranks.remove(index);
        self.banks.remove(index);
        self.beats.remove(index);
        self.writes.remove(index);
        self.classes.remove(index);
        self.arrivals.remove(index);
        Some(req)
    }

    /// Sum of queued transfer lengths in beats (byte accounting).
    pub fn total_beats(&self) -> u64 {
        self.beats.iter().sum()
    }

    /// Accumulates queued bytes per traffic class into `out`.
    pub fn add_bytes_by_class(&self, beat_bytes: u64, out: &mut [u64; TrafficClass::COUNT]) {
        for (class, beats) in self.classes.iter().zip(&self.beats) {
            out[(class.0 as usize).min(TrafficClass::COUNT - 1)] += beats * beat_bytes;
        }
    }

    /// Appends one count per queued request's flat bank index into
    /// `depths[base + bank_index]` (queue-depth snapshots).
    pub fn add_bank_depths(&self, base: usize, depths: &mut [u32]) {
        for &bank in &self.bank_idx {
            if let Some(slot) = depths.get_mut(base + bank as usize) {
                *slot += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_direction() {
        let loc = DramLocation {
            channel: 1,
            rank: 0,
            bank: 3,
            row: 9,
        };
        let r = DramRequest::read(7, loc, 5, TrafficClass(2), Cycle(11));
        assert!(!r.is_write);
        assert_eq!(r.beats, 5);
        assert_eq!(r.class, TrafficClass(2));
        let w = DramRequest::write(8, loc, 4, TrafficClass(3), Cycle(12));
        assert!(w.is_write);
        assert_eq!(w.arrival, Cycle(12));
    }

    #[test]
    fn bank_in_channel_flattening() {
        let loc = DramLocation {
            channel: 0,
            rank: 2,
            bank: 3,
            row: 0,
        };
        assert_eq!(loc.bank_in_channel(8), 19);
        assert_eq!(loc.bank_in_channel(16), 35);
    }

    fn req(id: u64, bank: u32, row: u64) -> DramRequest {
        DramRequest::read(
            id,
            DramLocation {
                channel: 0,
                rank: 1,
                bank,
                row,
            },
            5,
            TrafficClass(2),
            Cycle(id),
        )
    }

    #[test]
    fn soa_queue_round_trips_requests() {
        let mut q = RequestQueue::new(4, 8);
        for i in 0..4 {
            q.try_push(req(i, i as u32, 10 + i)).unwrap();
        }
        assert!(q.is_full());
        assert_eq!(q.try_push(req(9, 0, 0)).unwrap_err().id, 9);
        for i in 0..4usize {
            assert_eq!(q.get(i).unwrap(), req(i as u64, i as u32, 10 + i as u64));
            assert_eq!(q.row(i), 10 + i as u64);
            // rank 1 × banks_per_rank 8 + bank.
            assert_eq!(q.bank_index(i), 8 + i as u32);
        }
        assert_eq!(q.get(4), None);
    }

    #[test]
    fn soa_queue_removal_preserves_order() {
        let mut q = RequestQueue::new(4, 8);
        for i in 0..4 {
            q.try_push(req(i, 0, i)).unwrap();
        }
        assert_eq!(q.remove(2).unwrap().id, 2);
        assert_eq!(q.len(), 3);
        let ids: Vec<_> = (0..3).map(|i| q.get(i).unwrap().id).collect();
        assert_eq!(ids, vec![0, 1, 3]);
        assert_eq!(q.remove(10), None);
        assert_eq!(q.total_beats(), 15);
    }

    #[test]
    fn soa_queue_accounting_helpers() {
        let mut q = RequestQueue::new(4, 8);
        q.try_push(req(1, 2, 0)).unwrap();
        q.try_push(req(2, 2, 1)).unwrap();
        let mut by_class = [0u64; TrafficClass::COUNT];
        q.add_bytes_by_class(16, &mut by_class);
        assert_eq!(by_class[2], 2 * 5 * 16);
        let mut depths = vec![0u32; 32];
        q.add_bank_depths(16, &mut depths);
        assert_eq!(depths[16 + 8 + 2], 2);
    }

    #[test]
    #[should_panic(expected = "capacity must be non-zero")]
    fn soa_queue_zero_capacity_panics() {
        RequestQueue::new(0, 8);
    }
}

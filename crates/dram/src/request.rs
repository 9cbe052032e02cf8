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

/// A bounded FIFO of [`DramRequest`]s with its scheduler columns split out.
///
/// The channel scheduler's hot loops (the FR-FCFS window scan and the
/// busy-hint preview) read one dense column: each entry's *CAS-ready*
/// cycle, the earliest cycle its bank could take its CAS
/// ([`Cycle::NEVER`] unless its row is open). The queue does not know the
/// banks, so the owning channel maintains that column: it sets an entry's
/// value at push time and recomputes the entries of a bank whenever an
/// ACT, PRE or refresh changes that bank ([`RequestQueue::refresh_cas_ready`]).
/// A request's row and flat bank index sit in their own columns too, the
/// bank index precomputed at push time, so that recompute touches no full
/// request. The requests themselves live in one `Vec`, so a removal moves
/// four arrays.
///
/// It behaves as a capped FIFO: pushes past the capacity hand the
/// rejected request back unchanged, and removal at an arbitrary index
/// preserves the order of the rest (FR-FCFS picks row hits out of order).
/// `tests/proptests.rs` checks this against a `VecDeque` model, with the
/// columns kept aligned under out-of-order removal.
#[derive(Debug, Clone)]
pub struct RequestQueue {
    cap: usize,
    banks_per_rank: u32,
    rows: Vec<u64>,
    bank_idx: Vec<u32>,
    cas_ready: Vec<Cycle>,
    reqs: Vec<DramRequest>,
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
            cas_ready: Vec::with_capacity(capacity),
            reqs: Vec::with_capacity(capacity),
        }
    }

    /// Attempts to enqueue; hands the request back if there is no room.
    /// The entry's CAS-ready cycle starts at [`Cycle::NEVER`] (see
    /// [`RequestQueue::push_with_cas_ready`]).
    pub fn try_push(&mut self, req: DramRequest) -> Result<(), DramRequest> {
        self.push_with_cas_ready(req, |_, _| Cycle::NEVER)
    }

    /// [`RequestQueue::try_push`], setting the new entry's CAS-ready cycle
    /// to `cas_ready(bank_index, row)`, evaluated only when the request is
    /// accepted.
    pub fn push_with_cas_ready(
        &mut self,
        req: DramRequest,
        cas_ready: impl FnOnce(u32, u64) -> Cycle,
    ) -> Result<(), DramRequest> {
        if self.reqs.len() >= self.cap {
            return Err(req);
        }
        let bank = req.location.bank_in_channel(self.banks_per_rank);
        let row = req.location.row;
        self.rows.push(row);
        self.bank_idx.push(bank);
        self.cas_ready.push(cas_ready(bank, row));
        self.reqs.push(req);
        Ok(())
    }

    /// Number of queued requests.
    pub fn len(&self) -> usize {
        self.reqs.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.reqs.is_empty()
    }

    /// Whether the queue is at capacity.
    pub fn is_full(&self) -> bool {
        self.reqs.len() >= self.cap
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

    /// The CAS-ready column of the oldest `n` entries (fewer when the
    /// queue is shorter).
    #[inline]
    pub fn cas_ready_window(&self, n: usize) -> &[Cycle] {
        &self.cas_ready[..n.min(self.cas_ready.len())]
    }

    /// Recomputes the CAS-ready cycle of every entry in flat bank `bank`
    /// as `cas_ready(row)`.
    pub fn refresh_cas_ready(&mut self, bank: u32, cas_ready: impl Fn(u64) -> Cycle) {
        for (i, &b) in self.bank_idx.iter().enumerate() {
            if b == bank {
                self.cas_ready[i] = cas_ready(self.rows[i]);
            }
        }
    }

    /// Sets every entry's CAS-ready cycle to [`Cycle::NEVER`] (an
    /// all-bank refresh closed every row).
    pub fn clear_cas_ready(&mut self) {
        self.cas_ready.fill(Cycle::NEVER);
    }

    /// The request at `index` (0 = oldest).
    pub fn get(&self, index: usize) -> Option<DramRequest> {
        self.reqs.get(index).copied()
    }

    /// Removes and returns the request at `index` (0 = oldest),
    /// preserving the order of the remainder.
    pub fn remove(&mut self, index: usize) -> Option<DramRequest> {
        if index >= self.reqs.len() {
            return None;
        }
        self.rows.remove(index);
        self.bank_idx.remove(index);
        self.cas_ready.remove(index);
        Some(self.reqs.remove(index))
    }

    /// Sum of queued transfer lengths in beats (byte accounting).
    pub fn total_beats(&self) -> u64 {
        self.reqs.iter().map(|r| r.beats).sum()
    }

    /// Accumulates queued bytes per traffic class into `out`.
    pub fn add_bytes_by_class(&self, beat_bytes: u64, out: &mut [u64; TrafficClass::COUNT]) {
        for r in &self.reqs {
            out[(r.class.0 as usize).min(TrafficClass::COUNT - 1)] += r.beats * beat_bytes;
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

//! Per-bank row-buffer state machines.
//!
//! Each bank enforces the DRAM core timing windows: ACT→CAS (tRCD),
//! CAS→data (tCAS), ACT→PRE (tRAS), and PRE→ACT (tRP). The controller uses
//! an open-page policy: a row stays open after an access until a conflicting
//! request forces a precharge.
//!
//! Banks may be split into *subarrays* (rows striped by
//! `row % subarrays`): each subarray keeps its own open row and its own
//! ACT/PRE/CAS timing windows, so activates and precharges of distinct
//! subarrays overlap and a CAS may hit the open row of any of them. With
//! several rows activated at once this is the MASA variant of
//! subarray-level parallelism (Kim et al., ISCA 2012), not SALP-1 or
//! SALP-2. Data transfers still serialize on the channel's shared bus
//! (modeled in [`crate::channel::Channel`]), which is the dominant
//! constraint. With one subarray the bank degenerates to the conventional
//! single-row-buffer model, bit for bit.

use crate::config::DramTimings;
use bear_sim::time::Cycle;

/// What a bank can do for a given row at a given time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankAction {
    /// Row already open: a CAS may issue at (or after) the given time.
    Cas(Cycle),
    /// Target subarray is closed: an ACT may issue at (or after) the given
    /// time.
    Act(Cycle),
    /// A different row is open in the target subarray: a PRE may issue at
    /// (or after) the given time.
    Pre(Cycle),
}

/// Row-buffer state for one subarray.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Subarray {
    open_row: Option<u64>,
    /// Earliest time the next ACT may issue (enforces tRP).
    ready_act: Cycle,
    /// Earliest time the next CAS may issue (enforces tRCD).
    ready_cas: Cycle,
    /// Earliest time the next PRE may issue (enforces tRAS and CAS drain).
    ready_pre: Cycle,
}

impl Subarray {
    const CLOSED: Subarray = Subarray {
        open_row: None,
        ready_act: Cycle::ZERO,
        ready_cas: Cycle::NEVER,
        ready_pre: Cycle::ZERO,
    };
}

/// Row-buffer state machines for every bank of one channel, stored flat:
/// one `Subarray` record per (bank, subarray) pair, bank-major. Banks are
/// addressed by their flat bank-in-channel index
/// ([`crate::request::DramLocation::bank_in_channel`]); an index past the
/// last bank names no state and never becomes schedulable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Banks {
    subarrays_per_bank: u64,
    state: Vec<Subarray>,
    /// Statistics: row-buffer hits (CAS commands).
    pub row_hits: u64,
    /// Number of row activations performed.
    pub activations: u64,
    /// Number of precharges performed.
    pub precharges: u64,
}

impl Banks {
    /// Creates `banks` closed, idle banks, each split into `subarrays`
    /// MASA subarrays (1 = the conventional single-row-buffer model).
    ///
    /// # Panics
    ///
    /// Panics if `subarrays` is zero.
    pub fn new(banks: u32, subarrays: u32) -> Self {
        assert!(subarrays > 0, "a bank needs at least one subarray");
        Banks {
            subarrays_per_bank: u64::from(subarrays),
            state: vec![Subarray::CLOSED; banks as usize * subarrays as usize],
            row_hits: 0,
            activations: 0,
            precharges: 0,
        }
    }

    /// Number of banks.
    pub fn len(&self) -> usize {
        self.state.len() / self.subarrays_per_bank as usize
    }

    /// Whether there are no banks at all.
    pub fn is_empty(&self) -> bool {
        self.state.is_empty()
    }

    /// Subarray index within a bank serving `row`. Power-of-two counts
    /// (including the single-subarray default) mask instead of dividing.
    #[inline]
    fn sub_of(&self, row: u64) -> u64 {
        let n = self.subarrays_per_bank;
        if n.is_power_of_two() {
            row & (n - 1)
        } else {
            row % n
        }
    }

    /// Flat state index of the subarray of `bank` serving `row`, or `None`
    /// when `bank` is out of range.
    #[inline]
    fn slot(&self, bank: u32, row: u64) -> Option<usize> {
        let idx = (u64::from(bank) * self.subarrays_per_bank + self.sub_of(row)) as usize;
        (idx < self.state.len()).then_some(idx)
    }

    /// Determines the next command required to service `row` in `bank`,
    /// and the earliest time it can issue (`None` for an out-of-range
    /// bank). Only the subarray serving `row` is consulted: rows striped to
    /// other subarrays neither conflict with nor gate this request.
    #[inline]
    pub fn next_action(&self, bank: u32, row: u64) -> Option<BankAction> {
        let s = &self.state[self.slot(bank, row)?];
        Some(match s.open_row {
            Some(open) if open == row => BankAction::Cas(s.ready_cas),
            Some(_) => BankAction::Pre(s.ready_pre),
            None => BankAction::Act(s.ready_act),
        })
    }

    /// The earliest cycle a CAS for `row` may issue in `bank`:
    /// [`Cycle::NEVER`] unless `row` is open in its subarray. This is the
    /// value a request queue caches per entry (its CAS-ready column).
    #[inline]
    pub fn cas_ready(&self, bank: u32, row: u64) -> Cycle {
        match self.next_action(bank, row) {
            Some(BankAction::Cas(ready)) => ready,
            _ => Cycle::NEVER,
        }
    }

    /// Issues an ACT for `row` in `bank` at time `now`.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range, and (debug) if the target
    /// subarray is not closed or `now` violates tRP.
    pub fn activate(&mut self, bank: u32, row: u64, now: Cycle, t: &DramTimings) {
        let idx = self.slot(bank, row).expect("ACT on an out-of-range bank");
        let s = &mut self.state[idx];
        debug_assert!(s.open_row.is_none(), "ACT on open bank");
        debug_assert!(now >= s.ready_act, "ACT violates tRP window");
        s.open_row = Some(row);
        s.ready_cas = now + t.t_rcd;
        s.ready_pre = now + t.t_ras;
        self.activations += 1;
    }

    /// Issues a CAS (read or write) at `now` for `row` (open in its
    /// subarray of `bank`); returns the time the first data beat appears on
    /// the bus (`now + tCAS`). A CAS changes no request's CAS readiness.
    ///
    /// `burst_cycles` is the bus occupancy of the transfer; the subarray
    /// cannot be precharged until the burst has drained.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range, and (debug) if `row` is not the
    /// open row of its subarray or `now` violates tRCD.
    pub fn cas(
        &mut self,
        bank: u32,
        row: u64,
        now: Cycle,
        burst_cycles: u64,
        t: &DramTimings,
    ) -> Cycle {
        let idx = self.slot(bank, row).expect("CAS on an out-of-range bank");
        let s = &mut self.state[idx];
        debug_assert!(s.open_row == Some(row), "CAS on closed bank");
        debug_assert!(now >= s.ready_cas, "CAS violates tRCD window");
        let data_start = now + t.t_cas;
        // The row must stay open until the burst completes.
        s.ready_pre = s.ready_pre.max(data_start + burst_cycles);
        self.row_hits += 1;
        data_start
    }

    /// Issues a PRE at `now`, closing the subarray of `bank` serving `row`.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range, and (debug) if the subarray is
    /// closed or `now` violates tRAS.
    pub fn precharge(&mut self, bank: u32, row: u64, now: Cycle, t: &DramTimings) {
        let idx = self.slot(bank, row).expect("PRE on an out-of-range bank");
        let s = &mut self.state[idx];
        debug_assert!(s.open_row.is_some(), "PRE on closed bank");
        debug_assert!(now >= s.ready_pre, "PRE violates tRAS window");
        s.open_row = None;
        s.ready_act = now + t.t_rp;
        s.ready_cas = Cycle::NEVER;
        self.precharges += 1;
    }

    /// Forcibly closes every bank for an all-bank refresh ending at
    /// `ready`: all open rows are lost and no command may issue before
    /// `ready`.
    pub fn refresh_until(&mut self, ready: Cycle) {
        for s in &mut self.state {
            s.open_row = None;
            s.ready_act = s.ready_act.max(ready);
            s.ready_cas = Cycle::NEVER;
            s.ready_pre = Cycle::ZERO;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> DramTimings {
        DramTimings::table1()
    }

    /// The open row of bank 0's subarray serving `row`, if any.
    fn open_row_for(b: &Banks, row: u64) -> Option<u64> {
        b.state[b.slot(0, row).unwrap()].open_row
    }

    #[test]
    fn closed_bank_wants_act() {
        let b = Banks::new(1, 1);
        assert_eq!(b.next_action(0, 5).unwrap(), BankAction::Act(Cycle::ZERO));
        assert_eq!(open_row_for(&b, 0), None);
    }

    #[test]
    fn act_then_cas_respects_trcd_tcas() {
        let mut b = Banks::new(1, 1);
        b.activate(0, 5, Cycle(100), &t());
        assert_eq!(open_row_for(&b, 0), Some(5));
        match b.next_action(0, 5).unwrap() {
            BankAction::Cas(ready) => assert_eq!(ready, Cycle(136)), // +tRCD
            other => panic!("expected CAS, got {other:?}"),
        }
        let data = b.cas(0, 5, Cycle(136), 5, &t());
        assert_eq!(data, Cycle(172)); // +tCAS
    }

    #[test]
    fn conflicting_row_wants_pre_after_tras() {
        let mut b = Banks::new(1, 1);
        b.activate(0, 5, Cycle(0), &t());
        match b.next_action(0, 9).unwrap() {
            BankAction::Pre(ready) => assert_eq!(ready, Cycle(144)), // tRAS
            other => panic!("expected PRE, got {other:?}"),
        }
    }

    #[test]
    fn pre_then_act_respects_trp() {
        let mut b = Banks::new(1, 1);
        b.activate(0, 1, Cycle(0), &t());
        b.cas(0, 1, Cycle(36), 4, &t());
        b.precharge(0, 1, Cycle(144), &t());
        assert_eq!(open_row_for(&b, 0), None);
        match b.next_action(0, 2).unwrap() {
            BankAction::Act(ready) => assert_eq!(ready, Cycle(180)), // +tRP
            other => panic!("expected ACT, got {other:?}"),
        }
    }

    #[test]
    fn cas_extends_pre_window_past_burst() {
        let mut b = Banks::new(1, 1);
        b.activate(0, 1, Cycle(0), &t());
        // CAS late enough that data drain (not tRAS) limits the precharge.
        let data = b.cas(0, 1, Cycle(200), 10, &t());
        assert_eq!(data, Cycle(236));
        match b.next_action(0, 2).unwrap() {
            BankAction::Pre(ready) => assert_eq!(ready, Cycle(246)),
            other => panic!("expected PRE, got {other:?}"),
        }
    }

    #[test]
    fn stats_count_commands() {
        let mut b = Banks::new(1, 1);
        b.activate(0, 1, Cycle(0), &t());
        b.cas(0, 1, Cycle(36), 4, &t());
        b.cas(0, 1, Cycle(80), 4, &t());
        b.precharge(0, 1, Cycle(144), &t());
        assert_eq!(b.activations, 1);
        assert_eq!(b.row_hits, 2);
        assert_eq!(b.precharges, 1);
    }

    #[test]
    fn distinct_subarrays_activate_independently() {
        // Rows 0 and 1 stripe to different subarrays of a 4-subarray bank:
        // no precharge is needed between them and both stay open.
        let mut b = Banks::new(1, 4);
        b.activate(0, 0, Cycle(0), &t());
        match b.next_action(0, 1).unwrap() {
            BankAction::Act(ready) => assert_eq!(ready, Cycle::ZERO),
            other => panic!("expected independent ACT, got {other:?}"),
        }
        b.activate(0, 1, Cycle(1), &t());
        assert_eq!(open_row_for(&b, 0), Some(0));
        assert_eq!(open_row_for(&b, 1), Some(1));
        // Both rows are CAS-ready after their own tRCD windows.
        assert_eq!(b.next_action(0, 0).unwrap(), BankAction::Cas(Cycle(36)));
        assert_eq!(b.next_action(0, 1).unwrap(), BankAction::Cas(Cycle(37)));
    }

    #[test]
    fn same_subarray_rows_still_conflict() {
        // Rows 0 and 4 both stripe to subarray 0 of a 4-subarray bank.
        let mut b = Banks::new(1, 4);
        b.activate(0, 0, Cycle(0), &t());
        match b.next_action(0, 4).unwrap() {
            BankAction::Pre(ready) => assert_eq!(ready, Cycle(144)), // tRAS
            other => panic!("expected PRE, got {other:?}"),
        }
    }

    #[test]
    fn precharge_closes_only_the_target_subarray() {
        let mut b = Banks::new(1, 2);
        b.activate(0, 0, Cycle(0), &t());
        b.activate(0, 1, Cycle(0), &t());
        b.cas(0, 0, Cycle(36), 4, &t());
        b.precharge(0, 0, Cycle(144), &t());
        assert_eq!(open_row_for(&b, 0), None);
        assert_eq!(open_row_for(&b, 1), Some(1), "sibling subarray unaffected");
        assert_eq!(b.precharges, 1);
    }

    #[test]
    fn rows_stripe_across_subarrays_by_remainder() {
        for n in [1u32, 2, 3, 8] {
            let b = Banks::new(1, n);
            for row in [0u64, 1, 5, 7, 8, 1023, u64::MAX] {
                assert_eq!(
                    b.sub_of(row),
                    row % u64::from(n),
                    "{n} subarrays, row {row}"
                );
            }
        }
    }

    #[test]
    fn refresh_closes_every_subarray() {
        let mut b = Banks::new(1, 2);
        b.activate(0, 0, Cycle(0), &t());
        b.activate(0, 1, Cycle(0), &t());
        b.refresh_until(Cycle(500));
        assert_eq!(open_row_for(&b, 0), None);
        assert_eq!(open_row_for(&b, 1), None);
        assert_eq!(b.next_action(0, 0).unwrap(), BankAction::Act(Cycle(500)));
        assert_eq!(b.next_action(0, 1).unwrap(), BankAction::Act(Cycle(500)));
    }

    #[test]
    #[should_panic(expected = "CAS on closed bank")]
    #[cfg(debug_assertions)]
    fn cas_on_closed_bank_panics() {
        let mut b = Banks::new(1, 1);
        b.cas(0, 0, Cycle(0), 4, &t());
    }

    #[test]
    #[should_panic(expected = "ACT on open bank")]
    #[cfg(debug_assertions)]
    fn act_on_open_bank_panics() {
        let mut b = Banks::new(1, 1);
        b.activate(0, 1, Cycle(0), &t());
        b.activate(0, 2, Cycle(500), &t());
    }
}

//! Per-bank row-buffer state machine.
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
    fn new() -> Self {
        Subarray {
            open_row: None,
            ready_act: Cycle::ZERO,
            ready_cas: Cycle::NEVER,
            ready_pre: Cycle::ZERO,
        }
    }
}

/// Row-buffer state machine for one DRAM bank (one or more subarrays).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bank {
    subarrays: Vec<Subarray>,
    /// Statistics: row-buffer hits.
    pub row_hits: u64,
    /// Number of row activations performed.
    pub activations: u64,
    /// Number of precharges performed.
    pub precharges: u64,
}

impl Bank {
    /// Creates a closed, idle bank with a single subarray (the
    /// conventional model).
    pub fn new() -> Self {
        Self::with_subarrays(1)
    }

    /// Creates a closed, idle bank split into `subarrays` MASA subarrays.
    ///
    /// # Panics
    ///
    /// Panics if `subarrays` is zero.
    pub fn with_subarrays(subarrays: u32) -> Self {
        assert!(subarrays > 0, "a bank needs at least one subarray");
        Bank {
            subarrays: (0..subarrays).map(|_| Subarray::new()).collect(),
            row_hits: 0,
            activations: 0,
            precharges: 0,
        }
    }

    /// Subarray index serving `row`. Power-of-two counts (including the
    /// single-subarray default) mask instead of dividing: this runs on
    /// every scheduler probe of every windowed request.
    #[inline]
    fn sub_of(&self, row: u64) -> usize {
        let n = self.subarrays.len() as u64;
        if n.is_power_of_two() {
            (row & (n - 1)) as usize
        } else {
            (row % n) as usize
        }
    }

    /// Determines the next command required to service `row`, and the
    /// earliest time it can issue. Only the subarray serving `row` is
    /// consulted: rows striped to other subarrays neither conflict with nor
    /// gate this request.
    pub fn next_action(&self, row: u64) -> BankAction {
        let s = &self.subarrays[self.sub_of(row)];
        match s.open_row {
            Some(open) if open == row => BankAction::Cas(s.ready_cas),
            Some(_) => BankAction::Pre(s.ready_pre),
            None => BankAction::Act(s.ready_act),
        }
    }

    /// Issues an ACT for `row` at time `now`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the target subarray is not closed or `now`
    /// violates tRP.
    pub fn activate(&mut self, row: u64, now: Cycle, t: &DramTimings) {
        let idx = self.sub_of(row);
        let s = &mut self.subarrays[idx];
        debug_assert!(s.open_row.is_none(), "ACT on open bank");
        debug_assert!(now >= s.ready_act, "ACT violates tRP window");
        s.open_row = Some(row);
        s.ready_cas = now + t.t_rcd;
        s.ready_pre = now + t.t_ras;
        self.activations += 1;
    }

    /// Issues a CAS (read or write) at `now` for `row` (open in its
    /// subarray); returns the time the first data beat appears on the bus
    /// (`now + tCAS`).
    ///
    /// `burst_cycles` is the bus occupancy of the transfer; the subarray
    /// cannot be precharged until the burst has drained.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `row` is not the open row of its subarray or `now`
    /// violates tRCD.
    pub fn cas(&mut self, row: u64, now: Cycle, burst_cycles: u64, t: &DramTimings) -> Cycle {
        let idx = self.sub_of(row);
        let s = &mut self.subarrays[idx];
        debug_assert!(s.open_row == Some(row), "CAS on closed bank");
        debug_assert!(now >= s.ready_cas, "CAS violates tRCD window");
        let data_start = now + t.t_cas;
        // The row must stay open until the burst completes.
        s.ready_pre = s.ready_pre.max(data_start + burst_cycles);
        self.row_hits += 1;
        data_start
    }

    /// Forcibly closes the whole bank for a refresh ending at `ready`: all
    /// open rows are lost and no command may issue before `ready`.
    pub fn refresh_until(&mut self, ready: Cycle) {
        for s in &mut self.subarrays {
            s.open_row = None;
            s.ready_act = s.ready_act.max(ready);
            s.ready_cas = Cycle::NEVER;
            s.ready_pre = Cycle::ZERO;
        }
    }

    /// Issues a PRE at `now`, closing the subarray serving `row`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the subarray is closed or `now` violates tRAS.
    pub fn precharge(&mut self, row: u64, now: Cycle, t: &DramTimings) {
        let idx = self.sub_of(row);
        let s = &mut self.subarrays[idx];
        debug_assert!(s.open_row.is_some(), "PRE on closed bank");
        debug_assert!(now >= s.ready_pre, "PRE violates tRAS window");
        s.open_row = None;
        s.ready_act = now + t.t_rp;
        s.ready_cas = Cycle::NEVER;
        self.precharges += 1;
    }
}

impl Default for Bank {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> DramTimings {
        DramTimings::table1()
    }

    /// The open row of the subarray serving `row`, if any.
    fn open_row_for(b: &Bank, row: u64) -> Option<u64> {
        b.subarrays[b.sub_of(row)].open_row
    }

    #[test]
    fn closed_bank_wants_act() {
        let b = Bank::new();
        assert_eq!(b.next_action(5), BankAction::Act(Cycle::ZERO));
        assert_eq!(open_row_for(&b, 0), None);
    }

    #[test]
    fn act_then_cas_respects_trcd_tcas() {
        let mut b = Bank::new();
        b.activate(5, Cycle(100), &t());
        assert_eq!(open_row_for(&b, 0), Some(5));
        match b.next_action(5) {
            BankAction::Cas(ready) => assert_eq!(ready, Cycle(136)), // +tRCD
            other => panic!("expected CAS, got {other:?}"),
        }
        let data = b.cas(5, Cycle(136), 5, &t());
        assert_eq!(data, Cycle(172)); // +tCAS
    }

    #[test]
    fn conflicting_row_wants_pre_after_tras() {
        let mut b = Bank::new();
        b.activate(5, Cycle(0), &t());
        match b.next_action(9) {
            BankAction::Pre(ready) => assert_eq!(ready, Cycle(144)), // tRAS
            other => panic!("expected PRE, got {other:?}"),
        }
    }

    #[test]
    fn pre_then_act_respects_trp() {
        let mut b = Bank::new();
        b.activate(1, Cycle(0), &t());
        b.cas(1, Cycle(36), 4, &t());
        b.precharge(1, Cycle(144), &t());
        assert_eq!(open_row_for(&b, 0), None);
        match b.next_action(2) {
            BankAction::Act(ready) => assert_eq!(ready, Cycle(180)), // +tRP
            other => panic!("expected ACT, got {other:?}"),
        }
    }

    #[test]
    fn cas_extends_pre_window_past_burst() {
        let mut b = Bank::new();
        b.activate(1, Cycle(0), &t());
        // CAS late enough that data drain (not tRAS) limits the precharge.
        let data = b.cas(1, Cycle(200), 10, &t());
        assert_eq!(data, Cycle(236));
        match b.next_action(2) {
            BankAction::Pre(ready) => assert_eq!(ready, Cycle(246)),
            other => panic!("expected PRE, got {other:?}"),
        }
    }

    #[test]
    fn stats_count_commands() {
        let mut b = Bank::new();
        b.activate(1, Cycle(0), &t());
        b.cas(1, Cycle(36), 4, &t());
        b.cas(1, Cycle(80), 4, &t());
        b.precharge(1, Cycle(144), &t());
        assert_eq!(b.activations, 1);
        assert_eq!(b.row_hits, 2);
        assert_eq!(b.precharges, 1);
    }

    #[test]
    fn distinct_subarrays_activate_independently() {
        // Rows 0 and 1 stripe to different subarrays of a 4-subarray bank:
        // no precharge is needed between them and both stay open.
        let mut b = Bank::with_subarrays(4);
        b.activate(0, Cycle(0), &t());
        match b.next_action(1) {
            BankAction::Act(ready) => assert_eq!(ready, Cycle::ZERO),
            other => panic!("expected independent ACT, got {other:?}"),
        }
        b.activate(1, Cycle(1), &t());
        assert_eq!(open_row_for(&b, 0), Some(0));
        assert_eq!(open_row_for(&b, 1), Some(1));
        // Both rows are CAS-ready after their own tRCD windows.
        assert_eq!(b.next_action(0), BankAction::Cas(Cycle(36)));
        assert_eq!(b.next_action(1), BankAction::Cas(Cycle(37)));
    }

    #[test]
    fn same_subarray_rows_still_conflict() {
        // Rows 0 and 4 both stripe to subarray 0 of a 4-subarray bank.
        let mut b = Bank::with_subarrays(4);
        b.activate(0, Cycle(0), &t());
        match b.next_action(4) {
            BankAction::Pre(ready) => assert_eq!(ready, Cycle(144)), // tRAS
            other => panic!("expected PRE, got {other:?}"),
        }
    }

    #[test]
    fn precharge_closes_only_the_target_subarray() {
        let mut b = Bank::with_subarrays(2);
        b.activate(0, Cycle(0), &t());
        b.activate(1, Cycle(0), &t());
        b.cas(0, Cycle(36), 4, &t());
        b.precharge(0, Cycle(144), &t());
        assert_eq!(open_row_for(&b, 0), None);
        assert_eq!(open_row_for(&b, 1), Some(1), "sibling subarray unaffected");
        assert_eq!(b.precharges, 1);
    }

    #[test]
    fn rows_stripe_across_subarrays_by_remainder() {
        for n in [1u32, 2, 3, 8] {
            let b = Bank::with_subarrays(n);
            for row in [0u64, 1, 5, 7, 8, 1023, u64::MAX] {
                assert_eq!(
                    b.sub_of(row) as u64,
                    row % u64::from(n),
                    "{n} subarrays, row {row}"
                );
            }
        }
    }

    #[test]
    fn refresh_closes_every_subarray() {
        let mut b = Bank::with_subarrays(2);
        b.activate(0, Cycle(0), &t());
        b.activate(1, Cycle(0), &t());
        b.refresh_until(Cycle(500));
        assert_eq!(open_row_for(&b, 0), None);
        assert_eq!(open_row_for(&b, 1), None);
        assert_eq!(b.next_action(0), BankAction::Act(Cycle(500)));
        assert_eq!(b.next_action(1), BankAction::Act(Cycle(500)));
    }

    #[test]
    #[should_panic(expected = "CAS on closed bank")]
    #[cfg(debug_assertions)]
    fn cas_on_closed_bank_panics() {
        let mut b = Bank::new();
        b.cas(0, Cycle(0), 4, &t());
    }

    #[test]
    #[should_panic(expected = "ACT on open bank")]
    #[cfg(debug_assertions)]
    fn act_on_open_bank_panics() {
        let mut b = Bank::new();
        b.activate(1, Cycle(0), &t());
        b.activate(2, Cycle(500), &t());
    }
}

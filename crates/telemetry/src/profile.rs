//! Host self-profiler: where did the wall-clock time of a campaign go?
//!
//! Phases are identified by `&'static str` labels; recording is a linear
//! scan over a handful of entries (the phase count is small and labels
//! usually compare pointer-equal), cheap enough to call once per run-loop
//! step when armed and trivially absent when not.

use std::time::Instant;

/// Accumulated wall-clock time per named phase.
#[derive(Debug, Clone, Default)]
pub struct SelfProfiler {
    entries: Vec<PhaseTotal>,
}

#[derive(Debug, Clone)]
struct PhaseTotal {
    name: &'static str,
    total_ns: u64,
    count: u64,
}

impl SelfProfiler {
    /// An empty profiler (`const`, so it can seed a `static` — the
    /// campaign supervisor keeps its recovery counters in one).
    pub const fn new() -> Self {
        SelfProfiler {
            entries: Vec::new(),
        }
    }

    /// Adds `ns` nanoseconds to `name`'s running total.
    pub fn record(&mut self, name: &'static str, ns: u64) {
        for e in &mut self.entries {
            // Labels are literals, so try pointer equality before the
            // string compare.
            if std::ptr::eq(e.name, name) || e.name == name {
                e.total_ns += ns;
                e.count += 1;
                return;
            }
        }
        self.entries.push(PhaseTotal {
            name,
            total_ns: ns,
            count: 1,
        });
    }

    /// Times `f` under `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.record(name, t0.elapsed().as_nanos() as u64);
        r
    }

    /// Folds another profiler's totals into this one (for campaign-wide
    /// aggregation across cells).
    pub fn merge(&mut self, other: &SelfProfiler) {
        for e in &other.entries {
            match self.entries.iter_mut().find(|m| m.name == e.name) {
                Some(mine) => {
                    mine.total_ns += e.total_ns;
                    mine.count += e.count;
                }
                None => self.entries.push(e.clone()),
            }
        }
    }

    /// Whether anything was recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total recorded nanoseconds across all phases.
    fn total_ns(&self) -> u64 {
        self.entries.iter().map(|e| e.total_ns).sum()
    }

    /// `(name, total_ns, count)` rows, unordered.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, u64, u64)> + '_ {
        self.entries.iter().map(|e| (e.name, e.total_ns, e.count))
    }

    /// A top-`n` text report: one line per phase, sorted by total time,
    /// with share of the recorded total, call count, and mean cost.
    pub fn report(&self, title: &str, n: usize) -> String {
        let mut rows: Vec<&PhaseTotal> = self.entries.iter().collect();
        rows.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(b.name)));
        let total = self.total_ns().max(1);
        let mut out = format!("self-profile: {title}\n");
        out.push_str(&format!(
            "{:<22} {:>12} {:>7} {:>12} {:>12}\n",
            "phase", "total", "share", "calls", "mean"
        ));
        for e in rows.iter().take(n) {
            out.push_str(&format!(
                "{:<22} {:>12} {:>6.1}% {:>12} {:>12}\n",
                e.name,
                fmt_ns(e.total_ns),
                100.0 * e.total_ns as f64 / total as f64,
                e.count,
                fmt_ns(e.total_ns / e.count.max(1)),
            ));
        }
        if rows.len() > n {
            let rest: u64 = rows[n..].iter().map(|e| e.total_ns).sum();
            out.push_str(&format!(
                "{:<22} {:>12} {:>6.1}%\n",
                format!("(+{} more)", rows.len() - n),
                fmt_ns(rest),
                100.0 * rest as f64 / total as f64
            ));
        }
        out
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_reports_sorted() {
        let mut p = SelfProfiler::new();
        p.record("dram", 3_000);
        p.record("l3", 1_000);
        p.record("dram", 2_000);
        assert_eq!(p.total_ns(), 6_000);
        let report = p.report("cell", 10);
        let dram_at = report.find("dram").unwrap();
        let l3_at = report.find("l3").unwrap();
        assert!(dram_at < l3_at, "expected dram first in:\n{report}");
        assert!(report.contains("5.00us"));
    }

    #[test]
    fn time_measures_closures() {
        let mut p = SelfProfiler::new();
        let v = p.time("work", || 41 + 1);
        assert_eq!(v, 42);
        assert_eq!(p.rows().count(), 1);
        let (name, _ns, count) = p.rows().next().unwrap();
        assert_eq!((name, count), ("work", 1));
    }

    #[test]
    fn merge_accumulates_across_cells() {
        let mut a = SelfProfiler::new();
        a.record("l4", 10);
        let mut b = SelfProfiler::new();
        b.record("l4", 30);
        b.record("oracle", 5);
        a.merge(&b);
        let mut rows: Vec<_> = a.rows().collect();
        rows.sort();
        assert_eq!(rows, vec![("l4", 40, 2), ("oracle", 5, 1)]);
    }

    #[test]
    fn report_truncates_to_top_n() {
        let mut p = SelfProfiler::new();
        for (i, name) in ["a", "b", "c", "d"].iter().enumerate() {
            p.record(name, (i as u64 + 1) * 100);
        }
        let report = p.report("x", 2);
        assert!(report.contains("(+2 more)"));
        assert!(!report.contains("\na "));
    }
}

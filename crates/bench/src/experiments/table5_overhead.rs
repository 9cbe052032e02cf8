//! Table 5: storage overhead of the BEAR components, plus the SRAM costs
//! of the alternative tag organizations (Section 8). Pure arithmetic — no
//! simulation.

use crate::report::Report;
use crate::{print_row, Campaign};
use bear_core::config::{BearFeatures, DesignKind, SystemConfig};
use bear_core::overhead::{sector_tag_store_bytes, tis_tag_store_bytes, StorageOverhead};

/// Prints Table 5.
pub fn run(campaign: &Campaign, report: &mut Report) {
    let plan = &campaign.plan;
    report.banner("Table 5", "Storage overhead of BEAR", plan);
    let mut cfg = SystemConfig::paper_baseline(DesignKind::Alloy);
    cfg.bear = BearFeatures::full();
    let o = StorageOverhead::of(&cfg);
    report.add_scalar("bab_bytes", o.bab_bytes as f64);
    report.add_scalar("dcp_bytes", o.dcp_bytes as f64);
    report.add_scalar("ntc_bytes", o.ntc_bytes as f64);
    report.add_scalar("total_bytes", o.total() as f64);
    report.add_scalar("tis_tag_store_bytes", tis_tag_store_bytes(1 << 30) as f64);
    report.add_scalar("sc_tag_store_bytes", sector_tag_store_bytes(1 << 30) as f64);
    print_row("component", &["bytes".to_string()]);
    print_row("BAB", &[format!("{}", o.bab_bytes)]);
    print_row("DCP", &[format!("{}", o.dcp_bytes)]);
    print_row("NTC", &[format!("{}", o.ntc_bytes)]);
    print_row(
        "total",
        &[format!(
            "{} (~{:.1} KB)",
            o.total(),
            o.total() as f64 / 1024.0
        )],
    );
    println!();
    print_row("alternative", &["SRAM bytes".to_string()]);
    print_row(
        "TIS tag store",
        &[format!("{} (64 MB)", tis_tag_store_bytes(1 << 30))],
    );
    print_row(
        "SC tag store",
        &[format!(
            "{} (~{:.1} MB)",
            sector_tag_store_bytes(1 << 30),
            sector_tag_store_bytes(1 << 30) as f64 / (1 << 20) as f64
        )],
    );
}

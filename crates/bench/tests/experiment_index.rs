//! Doc-drift guard: EXPERIMENTS.md's experiment index must match the
//! code. Every campaign step has exactly one row (`all_experiments --only
//! <id>`), and every binary a row names exists, so a deleted or renamed
//! binary or step cannot linger in the docs.

use bear_bench::experiments::CAMPAIGN;
use std::path::Path;

/// The index table's rows, split into trimmed cells.
fn index_rows() -> Vec<Vec<String>> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let doc = std::fs::read_to_string(root.join("EXPERIMENTS.md")).expect("read EXPERIMENTS.md");
    let section = doc
        .split("\n## ")
        .find(|s| s.starts_with("Experiment index"))
        .expect("EXPERIMENTS.md has an `## Experiment index` section");
    section
        .lines()
        .filter(|l| l.starts_with('|') && !l.starts_with("|---") && !l.starts_with("| Result"))
        .map(|l| {
            l.trim_matches('|')
                .split('|')
                .map(|c| c.trim().to_string())
                .collect()
        })
        .collect()
}

/// The command a row names: its second cell, without backticks.
fn command(row: &[String]) -> &str {
    row[1].trim_matches('`')
}

#[test]
fn every_campaign_step_has_exactly_one_row() {
    let rows = index_rows();
    for (id, _) in CAMPAIGN {
        let want = format!("all_experiments --only {id}");
        let n = rows.iter().filter(|r| command(r) == want).count();
        assert_eq!(n, 1, "EXPERIMENTS.md index: `{want}` appears {n} times");
    }
    for row in &rows {
        if let Some(id) = command(row).strip_prefix("all_experiments --only ") {
            assert!(
                CAMPAIGN.iter().any(|(step, _)| *step == id),
                "EXPERIMENTS.md index names `--only {id}`, which is no campaign step"
            );
        }
    }
}

#[test]
fn every_indexed_binary_exists() {
    let bins = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
    let rows = index_rows();
    assert!(rows.len() >= CAMPAIGN.len(), "index table not found");
    for row in &rows {
        let bin = command(row).split_whitespace().next().unwrap_or_default();
        assert!(
            bins.join(format!("{bin}.rs")).is_file(),
            "EXPERIMENTS.md index names binary `{bin}`, which is not in crates/bench/src/bin/"
        );
    }
}

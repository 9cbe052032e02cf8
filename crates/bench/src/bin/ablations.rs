//! Ablation studies of BEAR's design choices (see DESIGN.md §4), run
//! through the campaign driver with the standard flags (`--out DIR`
//! writes `DIR/ablations.json` and checkpoints under
//! `DIR/cells/ablations/`).

use bear_bench::cli;
use bear_bench::experiments::ablations;

fn main() {
    cli::run(
        &cli::parse_args(std::env::args().skip(1)),
        &[("ablations", ablations::run)],
    );
}

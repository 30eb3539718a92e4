//! Regenerates **Fig. 4**: per-round global-model accuracy of every strategy
//! in the four attack scenarios (plus the no-attack reference).
//!
//! ```text
//! cargo run --release -p fg-bench --bin fig4 -- [--preset fast|smoke|paper]
//!     [--seed N] [--scenario noise|labelflip30|signflip|samevalue|all]
//! ```
//!
//! Output: one CSV block per scenario — `round, FedAvg, GeoMed, Krum,
//! Spectral, FedGuard, NoAttack` — the exact series the paper plots, plus an
//! SVG rendering of each panel under `results/` (created if absent).

use fg_bench::{flag_value, preset_from_args, report, run_cached, seed_from_args};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let preset = preset_from_args(&args);
    let which = flag_value(&args, "--scenario").unwrap_or_else(|| "all".into());
    report::fig4(run_cached, preset, seed_from_args(&args), &which).emit();
}

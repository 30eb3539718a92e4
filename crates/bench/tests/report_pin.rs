//! Report pin: FNV-1a digests of the bytes every deterministic report
//! prints, formatted from `run_experiment` at the smoke preset, seed 42 —
//! Table IV, the four Fig. 4 CSV blocks, the Fig. 5 CSV, Table V part 1 and
//! the four ablation tables (the budget table without its wall-clock time
//! column). The bins format the same reports from `fg_bench::run_cached`,
//! so a change to how results are stored or formatted that moves a byte
//! fails here.
//!
//! The runs' bits depend on the GEMM's vector level (DESIGN §7.2): the
//! digests hold the vector levels' bits, so on a scalar-only CPU each test
//! reports that it skipped instead of failing. A mismatch prints every
//! digest the test computed.

use fedguard::experiment::{run_experiment, Preset};
use fg_bench::report;
use fg_tensor::simd::Level;

const SEED: u64 = 42;

fn fnv1a(text: &str) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Compare `(name, text)` pairs against `(name, digest)` pins.
fn check(pins: &[(&str, &str)], got: &[(String, String)]) {
    let digests: Vec<(String, String)> =
        got.iter().map(|(name, text)| (name.clone(), fnv1a(text))).collect();
    let want: Vec<(String, String)> =
        pins.iter().map(|(n, d)| (n.to_string(), d.to_string())).collect();
    if digests != want {
        for (name, text) in got {
            eprintln!("--- {name}\n{text}");
        }
        panic!("report digests moved; got:\n{digests:#?}");
    }
}

fn vector_level() -> bool {
    if Level::detect() == Level::Scalar {
        eprintln!("report_pin skipped: scalar level (the pins hold the vector levels' bits)");
        return false;
    }
    true
}

#[test]
fn table4_matches_its_pin() {
    if !vector_level() {
        return;
    }
    let text = report::table4(run_experiment, Preset::Smoke, SEED);
    check(&[("table4", "dc6e45f1289aa1f9")], &[("table4".into(), text)]);
}

#[test]
fn fig4_blocks_match_their_pins() {
    if !vector_level() {
        return;
    }
    let text = report::fig4(run_experiment, Preset::Smoke, SEED, "all").text;
    let blocks: Vec<(String, String)> = ["noise", "labelflip30", "signflip", "samevalue"]
        .into_iter()
        .zip(text.split_terminator("\n\n"))
        .map(|(name, block)| (format!("fig4/{name}"), block.to_string()))
        .collect();
    check(
        &[
            ("fig4/noise", "f5c3d85f0cc6a8cf"),
            ("fig4/labelflip30", "3ddf28ad7ad616fe"),
            ("fig4/signflip", "2488447e8ea90890"),
            ("fig4/samevalue", "ddace25c383aa93b"),
        ],
        &blocks,
    );
}

#[test]
fn fig5_and_table5_match_their_pins() {
    if !vector_level() {
        return;
    }
    let fig5 = report::fig5(run_experiment, Preset::Smoke, SEED).text;
    check(
        &[("fig5", "7d122d60144541b2"), ("table5/part1", "05ead8bfe98cdbc4")],
        &[("fig5".into(), fig5), ("table5/part1".into(), report::table5_communication())],
    );
}

/// The budget table less its last column, the wall-clock time per round.
fn without_time_column(table: &str) -> String {
    table
        .lines()
        .map(|line| match line.strip_suffix(" |").and_then(|l| l.rsplit_once(" | ")) {
            Some((kept, _time)) => format!("{kept} |\n"),
            None => format!("{line}\n"),
        })
        .collect()
}

#[test]
fn ablation_tables_match_their_pins() {
    if !vector_level() {
        return;
    }
    let budget = report::ablation_budget(run_experiment, Preset::Smoke, SEED);
    check(
        &[
            ("ablation_budget", "3d191aa70f765c6b"),
            ("ablation_inner", "0f63d59801340c2f"),
            ("ablation_heterogeneity", "89a34694eecde5a0"),
            ("ablation_faults", "5f3017ac57d3bd1e"),
        ],
        &[
            ("ablation_budget".into(), without_time_column(&budget)),
            ("ablation_inner".into(), report::ablation_inner(run_experiment, Preset::Smoke, SEED)),
            (
                "ablation_heterogeneity".into(),
                report::ablation_heterogeneity(run_experiment, Preset::Smoke, SEED),
            ),
            (
                "ablation_faults".into(),
                report::ablation_faults(run_experiment, Preset::Smoke, SEED, None),
            ),
        ],
    );
}

//! The forensics ledger's determinism contract: the serialized ledger of a
//! seeded FedGuard run is **byte-identical** across every non-observable
//! axis — worker-pool size (1 vs 4 threads), deployment (in-process
//! `LocalTransport` vs loopback TCP), and audit mode (batched vs
//! sequential) — and its per-round exclusion verdicts reproduce the
//! aggregation outcome recorded in telemetry exactly.

mod common;

use common::serve_over_tcp;
use fedguard::experiment::{
    run_experiment_full, AttackScenario, ExperimentConfig, Preset, RunArtifacts, StrategyKind,
};
use fg_fl::forensics::ledger;
use fg_fl::{read_jsonl, ExclusionCause};

fn ledger_bytes(run: &RunArtifacts) -> String {
    serde_json::to_string(&ledger(&run.result.history)).expect("ledger serializes")
}

#[test]
fn ledger_is_byte_identical_across_threads_transports_and_audit_modes() {
    let mut cfg = ExperimentConfig::preset(
        Preset::Smoke,
        StrategyKind::FedGuard,
        AttackScenario::SignFlip { fraction: 0.4 },
        42,
    );
    cfg.fed.rounds = 8;

    let baseline = rayon::with_threads(4, || run_experiment_full(&cfg));
    let reference = ledger_bytes(&baseline);
    let forensics = ledger(&baseline.result.history);
    assert_eq!(forensics.len(), 8, "one ledger record per round");

    // Axis 1: worker-pool size.
    let single = rayon::with_threads(1, || run_experiment_full(&cfg));
    assert_eq!(ledger_bytes(&single), reference, "1 vs 4 threads diverged");

    // Axis 2: deployment (in-process vs loopback TCP).
    let served = serve_over_tcp(&cfg).0;
    assert_eq!(ledger_bytes(&served), reference, "Local vs TCP diverged");

    // Axis 3: audit mode.
    let mut seq_cfg = cfg.clone();
    seq_cfg.fedguard_audit = fedguard::AuditMode::Sequential;
    let sequential = run_experiment_full(&seq_cfg);
    assert_eq!(ledger_bytes(&sequential), reference, "audit mode diverged");

    // The ledger's exclusion verdicts reproduce the aggregation outcome:
    // per round, exactly the telemetry's excluded roster, and on this
    // fault-free quorum-met run every exclusion is a threshold cut.
    for (t, f) in baseline.result.history.iter().zip(&forensics) {
        assert_eq!(t.round, f.round);
        let mut expected = t.excluded.clone();
        expected.sort_unstable();
        assert_eq!(f.excluded_ids(), expected, "round {} exclusion set", t.round);
        assert!(f.quorum_met);
        for v in &f.verdicts {
            if v.excluded {
                assert_eq!(
                    v.cause,
                    Some(ExclusionCause::BelowThreshold),
                    "round {} client {}",
                    t.round,
                    v.client_id
                );
            }
            // Ground truth in the ledger matches the run's malicious roster.
            assert_eq!(
                v.malicious,
                baseline.result.malicious_clients.contains(&v.client_id),
                "round {} client {}",
                t.round,
                v.client_id
            );
        }
    }

    // Running precision/recall come from somewhere real: a sign-flip attack
    // at 40% with FedGuard should exclude at least one true positive.
    let last = forensics.last().unwrap();
    assert!(last.confusion.true_positives > 0, "no malicious client was ever excluded");
    assert_eq!(last.precision, last.confusion.precision());
    assert_eq!(last.recall, last.confusion.recall());
}

#[test]
fn ledger_rebuilt_from_the_telemetry_trail_is_the_runs_ledger() {
    let dir = std::env::temp_dir().join("fg_forensics_determinism_test");
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = ExperimentConfig::preset(
        Preset::Smoke,
        StrategyKind::FedGuard,
        AttackScenario::SignFlip { fraction: 0.4 },
        7,
    );
    cfg.fed.rounds = 2;
    cfg.telemetry_dir = Some(dir.to_string_lossy().into_owned());

    let run = run_experiment_full(&cfg);
    // One trail per run, and the ledger `fg_report` derives from it is the
    // ledger of the in-memory history, byte for byte.
    let files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(files, [format!("{}.jsonl", cfg.cell_stem())], "the run wrote one trail");
    let trail = read_jsonl(dir.join(&files[0])).expect("telemetry JSONL readable");
    let from_trail = serde_json::to_string(&ledger(&trail)).expect("ledger serializes");
    assert_eq!(from_trail, ledger_bytes(&run), "trail and in-memory ledger diverged");
    assert_eq!(ledger(&trail).len(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

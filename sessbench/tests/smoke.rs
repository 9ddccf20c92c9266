//! Smoke test of the benchmark itself at tiny session counts: every
//! workload passes its correctness gate in both modes, repeats exactly
//! for one seed, stays complete on a second seed, and prints exactly
//! the metrics `BENCHMARK.json` declares, with the declared units.
//!
//! Run with `cargo test --release --manifest-path sessbench/Cargo.toml`
//! (the ECDSA and range-proof layers are slow without optimisation).

use sessbench::workload::Workload;
use sessbench::{run, Config, Outcome};

const SESSIONS: usize = 6;

fn run_tiny(workload: Workload, seed: u64, trace: bool) -> Outcome {
    let outcome = run(&Config {
        workload,
        seed,
        seconds: 0.001,
        trace,
        sessions: SESSIONS,
        batch: 3,
    });
    assert!(
        outcome.correct(),
        "{} seed {seed} trace {trace}: {:?}",
        workload.name(),
        outcome.problems
    );
    assert_eq!(outcome.failed, 0);
    assert!(outcome.attempted >= SESSIONS as u64);
    outcome
}

fn value(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .value
}

/// The `(name, unit)` pairs one section of `BENCHMARK.json` declares.
/// The file keeps one metric per line, so a line scan suffices.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let body = text
        .split(&format!("\"{section}\": ["))
        .nth(1)
        .and_then(|rest| rest.split(']').next())
        .unwrap_or_else(|| panic!("section {section} missing"));
    let field = |line: &str, key: &str| {
        line.split(&format!("\"{key}\": \""))
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .map(str::to_owned)
    };
    body.lines()
        .filter_map(|line| Some((field(line, "name")?, field(line, "unit")?)))
        .collect()
}

fn emitted(outcome: &Outcome) -> Vec<(String, String)> {
    outcome
        .metrics
        .iter()
        .map(|m| (m.name.to_owned(), m.unit.to_owned()))
        .collect()
}

#[test]
fn end_to_end_runs_are_correct_exact_and_complete_on_two_seeds() {
    for workload in Workload::ALL {
        let a = run_tiny(workload, 7, false);
        let b = run_tiny(workload, 7, false);
        assert_eq!(a.fingerprint, b.fingerprint, "{}", workload.name());
        for exact in [
            "gas_per_session",
            "blocks_per_session",
            "settle_chain_s_p50",
            "settle_chain_s_p90",
        ] {
            assert_eq!(
                value(&a, exact).to_bits(),
                value(&b, exact).to_bits(),
                "{exact}"
            );
        }
        let other = run_tiny(workload, 8, false);
        assert_eq!(value(&other, "completed_share"), 1.0);
        assert_ne!(
            a.fingerprint, other.fingerprint,
            "the seed must change the inputs"
        );
        assert_eq!(emitted(&a), declared("end_to_end"));
        for m in &a.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{} = {}",
                m.name,
                m.value
            );
        }
    }
}

#[test]
fn traced_runs_replay_exactly_and_report_every_layer() {
    for workload in Workload::ALL {
        let t = run_tiny(workload, 7, true);
        assert_eq!(emitted(&t), declared("per_layer"));
        for m in &t.metrics {
            assert!(
                m.value.is_finite() && m.value >= 0.0,
                "{} = {}",
                m.name,
                m.value
            );
        }
        assert!(value(&t, "crypto.recover_us") > 0.0);
        assert!(value(&t, "chain.mine_ms_per_block") > 0.0);
        let light = workload == Workload::LightPartition;
        assert_eq!(value(&t, "chain.import_ms_per_block") > 0.0, light);
        assert_eq!(value(&t, "light.witness_bytes_per_session") > 0.0, light);
    }
}

//! Session benchmark: the paper's unit of work — one complete session,
//! split/generate through dispute/resolve — measured end to end, plus a
//! replay-traced per-layer attribution of where a run's time goes.
//!
//! A run with `trace = false` runs the workload's sessions as closed
//! batches of [`BATCH_SESSIONS`], each on a fresh chain, round after
//! round until the time budget is spent, and reports the end-to-end
//! metrics. A run with `trace = true` times a pass of the whole
//! workload on one chain (or network), replays it layer by layer
//! ([`trace`]) and times it again, to report the per-layer metrics.
//! Both check the run's outputs and report every failed check.

pub mod host;
pub mod trace;
pub mod workload;

use sc_contracts::challenge::ChallengeContracts;
use sc_contracts::confidential::ConfidentialContracts;
use sc_contracts::{OffChainContract, OnChainContract};
use std::hint::black_box;
use std::time::Instant;

use host::HostSnapshot;
use workload::{quantile, Pass, Plan, Workload};

/// Sessions per timed batch: with the stagger's eight sessions per
/// start offset, a batch of 16 contends for blocks as the whole
/// workload does.
pub const BATCH_SESSIONS: usize = 16;
/// Rounds over every batch per run at the least, so each batch has a
/// second sample and every run checks that its seed repeats bit for
/// bit.
pub const MIN_ROUNDS: usize = 2;

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the workload's inputs.
    pub seed: u64,
    /// Timed budget: rounds over the batches run until their summed
    /// wall time reaches this (at least [`MIN_ROUNDS`] always run).
    pub seconds: f64,
    /// `true` for the per-layer (replay-traced) run.
    pub trace: bool,
    /// Sessions of the workload.
    pub sessions: usize,
    /// Sessions per timed batch.
    pub batch: usize,
}

impl Config {
    /// A run of `workload` at its own sizes.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Config {
        Config {
            workload,
            seed,
            seconds,
            trace,
            sessions: workload.sessions(),
            batch: BATCH_SESSIONS,
        }
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Sessions attempted across the timed passes.
    pub attempted: u64,
    /// Sessions without an outcome.
    pub failed: u64,
    /// End-to-end (untraced) or per-layer (traced) metrics.
    pub metrics: Vec<Metric>,
    /// Exact quantities that must repeat bit for bit for one seed.
    pub fingerprint: String,
    /// Host noise diagnostics: context only, never applied to a metric.
    pub diagnostics: Vec<(&'static str, f64)>,
    /// Wall and on-CPU milliseconds of each timed batch or pass.
    pub pass_ms: Vec<(f64, f64)>,
    /// Every failed check; empty means the run is correct.
    pub problems: Vec<String>,
}

impl Outcome {
    /// True when every check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, each metric with its value and unit.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The diagnostics as one JSON object.
    pub fn diagnostics_json(&self) -> String {
        let items: Vec<String> = self
            .diagnostics
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", items.join(", "))
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The exact quantities of a pass, for the determinism check.
fn fingerprint(pass: &Pass) -> String {
    format!(
        "head={} gas={} completed={} counts={:?}",
        pass.head,
        pass.total_gas(),
        pass.completed(),
        pass.counts
    )
}

/// Runs one benchmark invocation.
pub fn run(cfg: &Config) -> Outcome {
    let calibration_before = host::calibration_ms();
    let snapshot = HostSnapshot::now();
    let plan = Plan::new(cfg.workload, cfg.seed, cfg.sessions);
    let mut problems = Vec::new();

    // Untimed warm-up on the first batch: lazy tables, the allocator and
    // the caches fill before anything is timed.
    let warm = Pass::run(plan.batches(cfg.batch)[0].build());
    problems.extend(warm.check().into_iter().map(|p| format!("warm-up: {p}")));
    drop(warm);

    let mut outcome = if cfg.trace {
        traced(&plan)
    } else {
        untraced(cfg, &plan)
    };
    problems.append(&mut outcome.problems);
    outcome.problems = problems;
    outcome.diagnostics.extend(snapshot.diagnostics());
    outcome
        .diagnostics
        .push(("calibration_before_ms", calibration_before));
    outcome
        .diagnostics
        .push(("calibration_after_ms", host::calibration_ms()));
    outcome
}

/// The end-to-end run.
fn untraced(cfg: &Config, plan: &Plan) -> Outcome {
    let n = plan.sessions() as u64;
    let nf = n as f64;
    let batches = plan.batches(cfg.batch);
    let mut problems = Vec::new();

    // Rounds over every batch until the timed wall time reaches the
    // budget. Each round is one set-up sample: building every batch's
    // scheduler. The first round also yields the exact metrics and runs
    // every check; later rounds must repeat it bit for bit.
    let mut setups = Vec::new();
    let mut best: Vec<(f64, f64)> = vec![(f64::MAX, f64::MAX); batches.len()];
    let mut timed_ms = Vec::new();
    let (mut wall_ns, mut attempted, mut completed) = (0u128, 0u64, 0u64);
    let mut prints: Vec<String> = Vec::new();
    let (mut gas, mut blocks, mut settle) = (0u64, 0u64, Vec::new());
    let mut round = 0;
    while round < MIN_ROUNDS || (wall_ns as f64) < cfg.seconds * 1e9 {
        let start = Instant::now();
        let schedulers: Vec<_> = batches.iter().map(Plan::build).collect();
        setups.push(start.elapsed().as_secs_f64());
        for (k, (scheduler, batch)) in schedulers.into_iter().zip(&batches).enumerate() {
            let pass = Pass::run(scheduler);
            wall_ns += pass.wall_ns;
            attempted += batch.sessions() as u64;
            completed += pass.completed() as u64;
            let (wall, cpu) = (pass.wall_ns as f64 / 1e6, pass.cpu_ns as f64 / 1e6);
            timed_ms.push((wall, cpu));
            best[k] = (best[k].0.min(wall), best[k].1.min(cpu));
            let print = fingerprint(&pass);
            if round == 0 {
                problems.extend(pass.check().into_iter().map(|p| format!("batch {k}: {p}")));
                gas += pass.total_gas();
                blocks += pass.counts.blocks;
                match pass.settle_times(batch, &batch.wallets()) {
                    Ok(times) => settle.extend(times),
                    Err(e) => problems.push(format!("batch {k}: {e}")),
                }
                prints.push(print);
            } else if prints[k] != print {
                problems.push(format!(
                    "batch {k} round {round} is not bit-identical to round 0: {print} vs {}",
                    prints[k]
                ));
            }
        }
        round += 1;
    }
    settle.sort_unstable();
    // Interference on a shared host only ever slows work down, so each
    // batch counts with its fastest round, and set-up with its fastest
    // round: the times the host let them run undisturbed.
    let best_wall_s: f64 = best.iter().map(|b| b.0).sum::<f64>() / 1e3;
    let best_cpu_ms: f64 = best.iter().map(|b| b.1).sum();
    let metrics = vec![
        Metric {
            name: "sessions_per_s",
            value: nf / best_wall_s,
            unit: "1/s",
        },
        Metric {
            name: "cpu_ms_per_session",
            value: best_cpu_ms / nf,
            unit: "ms",
        },
        Metric {
            name: "setup_s",
            value: setups.into_iter().fold(f64::MAX, f64::min),
            unit: "s",
        },
        Metric {
            name: "completed_share",
            value: completed as f64 / attempted as f64,
            unit: "ratio",
        },
        Metric {
            name: "gas_per_session",
            value: gas as f64 / nf,
            unit: "gas",
        },
        Metric {
            name: "blocks_per_session",
            value: blocks as f64 / nf,
            unit: "count",
        },
        Metric {
            name: "settle_chain_s_p50",
            value: quantile(&settle, 0.5) as f64,
            unit: "s",
        },
        Metric {
            name: "settle_chain_s_p90",
            value: quantile(&settle, 0.9) as f64,
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: host::peak_rss_mb().unwrap_or(0.0),
            unit: "MiB",
        },
    ];
    Outcome {
        attempted,
        failed: attempted - completed,
        metrics,
        fingerprint: format!("{} settle={settle:?}", prints.join(" | ")),
        diagnostics: vec![("rounds", round as f64), ("batches", batches.len() as f64)],
        pass_ms: timed_ms,
        problems,
    }
}

/// Milliseconds to compile the contracts the workload deploys (median
/// of three) — the compile half of set-up.
fn compile_ms(workload: Workload) -> f64 {
    let times = (0..3)
        .map(|_| {
            let start = Instant::now();
            match workload {
                Workload::SettleLater => {
                    black_box(ConfidentialContracts::new());
                }
                _ => {
                    black_box((
                        OnChainContract::new(),
                        OffChainContract::new(),
                        ChallengeContracts::new(),
                    ));
                }
            }
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(times)
}

/// The per-layer run: a timed pass, its replay, and the pass again.
fn traced(plan: &Plan) -> Outcome {
    let n = plan.sessions() as u64;
    let nf = n as f64;
    let compile = compile_ms(plan.workload);
    let start = Instant::now();
    let wallets = plan.wallets();
    let wallets_ms = start.elapsed().as_secs_f64() * 1e3;

    // The pass runs again after the replay, and the replayed spans are
    // compared with the mean of both passes: the host's speed drifts, and
    // bracketing the replay keeps the comparison to one stretch of time.
    let pass = Pass::run(plan.build());
    let mut problems = pass.check();
    let replay = trace::replay(plan, &pass, &wallets);
    problems.extend(replay.problems.iter().cloned());
    let again = Pass::run(plan.build());
    if fingerprint(&again) != fingerprint(&pass) {
        problems.push("the pass after the replay is not bit-identical to the first".into());
    }
    let s = &replay.spans;
    let wall = (pass.wall_ns + again.wall_ns) as f64 / 2.0;
    let c = &pass.counts;
    let net = c.net.unwrap_or_default();
    let light = c.light.unwrap_or_default();
    let messages = pass.messages() as f64;
    let us = |name| s.median_ns(name) / 1e3;
    let ms = |name| s.median_ns(name) / 1e6;

    // What the replayed spans explain of the pass's wall time, layer by
    // layer: chain work as replayed once, plus each sampled layer's mean
    // call times the number of such calls the pass is known to have
    // made. Off-chain, every posted message was signed once and
    // recovered at least once by its counterparty; every
    // depositCommitted carried one fresh commitment and range proof.
    let executed_imports = (net.imports_extended + net.imports_side) as f64;
    let import_ns = s.mean_ns("chain.import") * executed_imports;
    let deposits = pass
        .reports
        .iter()
        .flat_map(|r| &r.txs)
        .filter(|(label, _)| label == "depositCommitted")
        .count() as f64;
    let header_imports = if c.light.is_some() {
        nf * replay.blocks as f64
    } else {
        0.0
    };
    let attribution = [
        (
            "attributed.chain",
            (s.total_ns("chain.admit") + s.total_ns("chain.mine")) as f64 + import_ns,
        ),
        (
            "attributed.crypto.sign_tx",
            s.total_ns("crypto.sign") as f64,
        ),
        (
            "attributed.light",
            light.proofs_verified as f64
                * (s.mean_ns("light.prove_account") + s.mean_ns("light.verify_account"))
                + light.receipts_verified as f64
                    * (s.mean_ns("light.prove_receipt") + s.mean_ns("light.verify_receipt"))
                + header_imports * s.mean_ns("light.header_import"),
        ),
        (
            "attributed.session",
            messages * (s.mean_ns("session.sign_copy") + s.mean_ns("crypto.recover")),
        ),
        (
            "attributed.whisper",
            messages * (s.mean_ns("whisper.post") + s.mean_ns("whisper.poll")),
        ),
        (
            "attributed.confidential",
            deposits * (s.mean_ns("confidential.commit") + s.mean_ns("confidential.range_prove")),
        ),
    ];
    let attributed: f64 = attribution.iter().map(|(_, ns)| ns).sum();
    let imports_all =
        (net.imports_extended + net.imports_side + net.imports_known + net.imports_rejected) as f64;
    let mine_s = s.total_ns("chain.mine") as f64 / 1e9;

    let m = |name, value: f64, unit| Metric { name, value, unit };
    let metrics = vec![
        m("crypto.recover_us", us("crypto.recover"), "us"),
        m("crypto.sign_us", us("crypto.sign"), "us"),
        m(
            "crypto.recover_replay_share",
            s.total_ns("crypto.recover") as f64 / wall,
            "ratio",
        ),
        m("confidential.commit_us", us("confidential.commit"), "us"),
        m(
            "confidential.range_prove_ms",
            ms("confidential.range_prove"),
            "ms",
        ),
        m(
            "confidential.range_verify_ms",
            ms("confidential.range_verify"),
            "ms",
        ),
        m(
            "chain.admit_ms_per_block",
            s.total_ns("chain.admit") as f64 / 1e6 / replay.busy_blocks.max(1) as f64,
            "ms",
        ),
        m(
            "chain.mine_ms_per_block",
            s.total_ns("chain.mine") as f64 / 1e6 / replay.blocks.max(1) as f64,
            "ms",
        ),
        m(
            "chain.mgas_per_s",
            replay.gas as f64 / 1e6 / mine_s.max(1e-9),
            "Mgas/s",
        ),
        m("chain.import_ms_per_block", ms("chain.import"), "ms"),
        m("net.import_replay_share", import_ns / wall, "ratio"),
        m(
            "chain.txs_per_block",
            c.txs as f64 / c.blocks.max(1) as f64,
            "count",
        ),
        m("chain.pool_evicted", c.pool_evicted as f64, "count"),
        m("session.ticks", c.ticks as f64, "count"),
        m("light.prove_receipt_us", us("light.prove_receipt"), "us"),
        m("light.prove_account_us", us("light.prove_account"), "us"),
        m("light.verify_receipt_us", us("light.verify_receipt"), "us"),
        m("light.verify_account_us", us("light.verify_account"), "us"),
        m("light.header_import_us", us("light.header_import"), "us"),
        m(
            "light.proofs_per_session",
            light.proofs_verified as f64 / nf,
            "count",
        ),
        m(
            "light.receipts_per_session",
            light.receipts_verified as f64 / nf,
            "count",
        ),
        m("light.proofs_dropped", light.proofs_dropped as f64, "count"),
        m(
            "light.witness_bytes_per_session",
            light.witness_bytes as f64 / nf,
            "B",
        ),
        m(
            "net.frames_per_session",
            net.frames_sent as f64 / nf,
            "count",
        ),
        m(
            "net.dup_import_share",
            net.imports_known as f64 / imports_all.max(1.0),
            "ratio",
        ),
        m("net.reorgs", net.reorgs as f64, "count"),
        m(
            "net.orphans_resubmitted",
            net.orphans_resubmitted as f64,
            "count",
        ),
        m("net.rounds", net.rounds as f64, "count"),
        m("session.sign_copy_us", us("session.sign_copy"), "us"),
        m("session.verify_copy_us", us("session.verify_copy"), "us"),
        m("session.messages_per_session", messages / nf, "count"),
        m("whisper.post_us", us("whisper.post"), "us"),
        m("whisper.poll_us", us("whisper.poll"), "us"),
        m("setup.compile_ms", compile, "ms"),
        m("setup.wallets_ms", wallets_ms, "ms"),
        m(
            "trace.unattributed_share",
            (1.0 - attributed / wall).max(0.0),
            "ratio",
        ),
        m(
            "trace.overhead_share",
            trace::empty_span_ns() * s.recorded() as f64 / replay.wall_ns as f64,
            "ratio",
        ),
    ];
    Outcome {
        attempted: n,
        failed: n - pass.completed() as u64,
        metrics,
        fingerprint: fingerprint(&pass),
        diagnostics: [("replay_wall_ms", replay.wall_ns as f64 / 1e6)]
            .into_iter()
            .chain(attribution.map(|(layer, ns)| (layer, ns / wall)))
            .collect(),
        pass_ms: [&pass, &again]
            .map(|p| (p.wall_ns as f64 / 1e6, p.cpu_ns as f64 / 1e6))
            .to_vec(),
        problems,
    }
}

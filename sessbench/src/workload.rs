//! The three closed-batch workloads and one measured pass over each.
//!
//! Every session of a pass is specified up front from the workload seed
//! and the pass runs until every session has an outcome. The seed picks
//! the order of the behaviour cells, each fault-seeded session's fault
//! seed and a small per-session jitter of the protocol windows; the
//! program under test receives only the resulting specs.

use sc_chain::{Block, PoolConfig, Receipt, Testnet, Wallet};
use sc_contracts::BetSecrets;
use sc_core::{
    check_conservation, check_state_commitments, BettingSpec, ChallengeSpec, CrashPoint,
    NetworkScheduler, SessionReport, SessionScheduler, SessionSpec, SettleLaterCrash,
    SettleLaterSpec, Strategy, SubmitStrategy, WatchStrategy,
};
use sc_primitives::{Address, H256, U256};
use std::collections::HashMap;
use std::time::Instant;

use crate::host::process_cpu_ns;

/// Nodes of the light-partition network.
pub const LIGHT_NODES: usize = 4;
/// Rounds the forced `[0, 1] | [2, 3]` cut lasts before it heals.
pub const PARTITION_ROUNDS: u64 = 12;
/// Range-proof width of every settle-later deposit.
pub const RANGE_BITS: u32 = 16;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Mixed betting/challenge sessions on one pooled chain: the
    /// paper's deployment, bound by ECDSA, mempool packing and block
    /// execution.
    MixedPooled,
    /// Mixed sessions run stateless on four gossiping nodes across one
    /// forced partition: gossip, block import on every node, reorg
    /// recovery and witness proving/verifying.
    LightPartition,
    /// Confidential settle-later sessions on one pooled chain: Pedersen
    /// commitments, range proofs and the verifier precompiles.
    SettleLater,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::MixedPooled,
        Workload::LightPartition,
        Workload::SettleLater,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MixedPooled => "mixed-pooled",
            Workload::LightPartition => "light-partition",
            Workload::SettleLater => "settle-later",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Sessions in one full pass. Each count leaves at least ten
    /// sessions beyond the p90 of settle time.
    pub fn sessions(self) -> usize {
        match self {
            Workload::MixedPooled => 256,
            Workload::LightPartition => 128,
            Workload::SettleLater => 120,
        }
    }
}

/// SplitMix64: the seed expander for workload inputs.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Fisher–Yates shuffle.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Secrets of weight 16 whose mixed parity makes Bob the winner.
fn secrets() -> BetSecrets {
    let mut s = BetSecrets {
        secret_a: U256::from_u64(0x5eed),
        secret_b: U256::from_u64(0xfeed),
        weight: 16,
    };
    while !s.winner_is_bob() {
        s.secret_a = s.secret_a.wrapping_add(U256::ONE);
    }
    s
}

/// One of the ten mixed behaviour cells: six betting strategy pairs and
/// four challenge cells.
fn mixed_cell(code: u64, fault_seed: Option<u64>, start_delay: u64, jitter: u64) -> SessionSpec {
    let secrets = secrets();
    let betting = |alice, bob| {
        SessionSpec::Betting(BettingSpec {
            alice,
            bob,
            secrets,
            phase_seconds: BettingSpec::default().phase_seconds + jitter,
            fault_seed,
            start_delay,
        })
    };
    let challenge = |submit, watch, crash| {
        SessionSpec::Challenge(ChallengeSpec {
            secrets,
            window: ChallengeSpec::default().window + jitter,
            submit,
            watch,
            crash,
            fault_seed,
            start_delay,
        })
    };
    match code {
        0 => betting(Strategy::Honest, Strategy::Honest),
        1 => betting(Strategy::SilentLoser, Strategy::Honest),
        2 => betting(Strategy::ForgingLoser, Strategy::Honest),
        3 => betting(Strategy::Honest, Strategy::NoShow),
        4 => betting(Strategy::Honest, Strategy::RefusesToSign),
        5 => betting(Strategy::SignsTampered, Strategy::Honest),
        6 => challenge(
            SubmitStrategy::Truthful,
            WatchStrategy::Vigilant,
            CrashPoint::None,
        ),
        7 => challenge(
            SubmitStrategy::False,
            WatchStrategy::Vigilant,
            CrashPoint::None,
        ),
        8 => challenge(
            SubmitStrategy::False,
            WatchStrategy::Asleep,
            CrashPoint::None,
        ),
        _ => challenge(
            SubmitStrategy::Truthful,
            WatchStrategy::Vigilant,
            CrashPoint::BeforeSubmit,
        ),
    }
}

/// One of the three settle-later cells: plain, double submit, and a
/// co-signer that crashes after the voucher exchange.
fn settle_cell(code: u64, fault_seed: Option<u64>, start_delay: u64, jitter: u64) -> SessionSpec {
    let mut spec = SettleLaterSpec {
        range_bits: RANGE_BITS,
        settle_delay: SettleLaterSpec::default().settle_delay + jitter,
        fault_seed,
        start_delay,
        ..SettleLaterSpec::default()
    };
    match code {
        1 => spec.double_submit = true,
        2 => spec.crash = SettleLaterCrash::AAfterCosign,
        _ => {}
    }
    SessionSpec::SettleLater(spec)
}

/// Start delay of session `i` of `n`: `max(1, n/8)` offsets 30 s apart,
/// so about eight sessions share each offset.
fn stagger(i: usize, n: usize) -> u64 {
    (i % (n / 8).max(1)) as u64 * 30
}

/// The inputs of one pass: `n` session specs derived from `seed`.
///
/// Every cell appears equally often (up to rounding) in a seeded order;
/// every fourth session runs under a seeded fault schedule; starts are
/// staggered over `max(1, n/8)` 30-second offsets so about eight
/// sessions contend for each block; and each session's protocol window
/// gets 0–59 s of seeded jitter, inside the pooled miner's 120 s hold,
/// so chain-time quantiles vary between seeds without changing how
/// sessions batch.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The session specs, in slot order.
    pub specs: Vec<SessionSpec>,
    /// Each session's start delay, in chain seconds after the start.
    pub start_delays: Vec<u64>,
}

impl Plan {
    /// Derives the specs of `n` sessions of `workload` from `seed`.
    pub fn new(workload: Workload, seed: u64, n: usize) -> Plan {
        let mut rng = SplitMix(seed ^ 0x5E55_BE4C_0000_0000);
        let cells: u64 = if workload == Workload::SettleLater {
            3
        } else {
            10
        };
        let mut codes: Vec<u64> = (0..n as u64).map(|i| i % cells).collect();
        rng.shuffle(&mut codes);
        let mut start_delays = Vec::with_capacity(n);
        let specs = codes
            .into_iter()
            .enumerate()
            .map(|(i, code)| {
                let fault_seed = (i % 4 == 0).then(|| rng.next());
                let start_delay = stagger(i, n);
                let jitter = rng.below(60);
                start_delays.push(start_delay);
                match workload {
                    Workload::SettleLater => settle_cell(code, fault_seed, start_delay, jitter),
                    _ => mixed_cell(code, fault_seed, start_delay, jitter),
                }
            })
            .collect();
        Plan {
            workload,
            specs,
            start_delays,
        }
    }

    /// Sessions in the plan.
    pub fn sessions(&self) -> usize {
        self.specs.len()
    }

    /// Splits the plan into closed batches of `size` consecutive
    /// sessions, each re-staggered as a plan of its own size, so every
    /// batch keeps eight sessions per start offset. Together the batches
    /// hold every session of the plan.
    pub fn batches(&self, size: usize) -> Vec<Plan> {
        self.specs
            .chunks(size)
            .map(|chunk| {
                let mut start_delays = Vec::with_capacity(chunk.len());
                let specs = chunk
                    .iter()
                    .enumerate()
                    .map(|(i, spec)| {
                        let delay = stagger(i, chunk.len());
                        start_delays.push(delay);
                        let mut spec = spec.clone();
                        match &mut spec {
                            SessionSpec::Betting(s) => s.start_delay = delay,
                            SessionSpec::Challenge(s) => s.start_delay = delay,
                            SessionSpec::SettleLater(s) => s.start_delay = delay,
                        }
                        spec
                    })
                    .collect();
                Plan {
                    workload: self.workload,
                    specs,
                    start_delays,
                }
            })
            .collect()
    }

    /// Builds the scheduler that runs this plan: contract compilation,
    /// wallet key derivation and (light-partition) genesis funding of
    /// every node plus one header client per session. This is the
    /// benchmark's set-up.
    pub fn build(&self) -> Scheduler {
        let specs = self.specs.clone();
        match self.workload {
            Workload::MixedPooled | Workload::SettleLater => Scheduler::Pooled(Box::new(
                SessionScheduler::new_pooled(specs, PoolConfig::default()),
            )),
            Workload::LightPartition => {
                let mut sched =
                    NetworkScheduler::new_light(specs, LIGHT_NODES, PoolConfig::default(), None);
                sched
                    .network_mut()
                    .force_partition(vec![0, 1], PARTITION_ROUNDS);
                Scheduler::Light(Box::new(sched))
            }
        }
    }

    /// The session wallets by address (the scheduler derives them from
    /// the slot id as `s<id>-alice` / `s<id>-bob`).
    pub fn wallets(&self) -> HashMap<Address, (usize, Wallet)> {
        (0..self.sessions())
            .flat_map(|id| {
                ["alice", "bob"].map(|who| {
                    let w = Wallet::from_seed(&format!("s{id}-{who}"));
                    (w.address, (id, w))
                })
            })
            .collect()
    }
}

/// A built scheduler of either kind.
pub enum Scheduler {
    /// One pooled chain.
    Pooled(Box<SessionScheduler>),
    /// A gossiping network of light sessions.
    Light(Box<NetworkScheduler>),
}

impl Scheduler {
    /// Drives every session to completion.
    pub fn run(&mut self) -> Vec<SessionReport> {
        match self {
            Scheduler::Pooled(s) => s.run(),
            Scheduler::Light(s) => s.run(),
        }
    }

    /// Every chain of the run: the one chain, or every node.
    pub fn chains(&self) -> Vec<&Testnet> {
        match self {
            Scheduler::Pooled(s) => vec![s.net()],
            Scheduler::Light(s) => (0..s.network().len())
                .map(|i| s.network().node(i))
                .collect(),
        }
    }

    /// The canonical chain (node 0 once the network converged).
    pub fn canonical(&self) -> &Testnet {
        match self {
            Scheduler::Pooled(s) => s.net(),
            Scheduler::Light(s) => s.network().node(0),
        }
    }

    /// The exact counters the scheduler and network keep.
    pub fn counts(&self) -> Counts {
        let chain = self.canonical();
        let blocks: Vec<&Block> = (1..=chain.head().number)
            .filter_map(|n| chain.block(n))
            .collect();
        let mut counts = Counts {
            blocks: blocks.iter().filter(|b| !b.transactions.is_empty()).count() as u64,
            txs: blocks.iter().map(|b| b.transactions.len() as u64).sum(),
            ..Counts::default()
        };
        match self {
            Scheduler::Pooled(s) => {
                let stats = s.stats();
                counts.ticks = stats.ticks;
                counts.pool_evicted = stats.pool_evicted;
            }
            Scheduler::Light(s) => {
                let net = s.network().stats();
                let light = s.light_stats();
                counts.ticks = net.rounds;
                counts.pool_evicted = s.pool_evicted();
                counts.net = Some(net);
                counts.light = Some(light);
            }
        }
        counts
    }
}

/// Exact counts of one pass; identical for every pass of one seed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// Canonical blocks holding at least one transaction.
    pub blocks: u64,
    /// Transactions in canonical blocks.
    pub txs: u64,
    /// Scheduler ticks (network rounds on the light network).
    pub ticks: u64,
    /// Transactions displaced from a pool and re-priced.
    pub pool_evicted: u64,
    /// Gossip counters, on the light network only.
    pub net: Option<sc_core::NetStats>,
    /// Witness counters, on the light network only.
    pub light: Option<sc_core::LightStats>,
}

/// What one pass produced: its timings, its reports, and the canonical
/// chain it left behind.
pub struct Pass {
    /// Wall nanoseconds of `run()`.
    pub wall_ns: u128,
    /// On-CPU nanoseconds of `run()`, all threads.
    pub cpu_ns: u128,
    /// Session reports, in slot order.
    pub reports: Vec<SessionReport>,
    /// Exact counters.
    pub counts: Counts,
    /// Head hash of the canonical chain: equal heads mean equal chains.
    pub head: H256,
    /// The chain clock's next timestamp before the run: each session
    /// starts at this plus its start delay.
    pub origin: u64,
    /// The scheduler after the run, for checks and replay.
    pub scheduler: Scheduler,
}

impl Pass {
    /// Runs `plan` on an already-built scheduler, timing only `run()`.
    pub fn run(mut scheduler: Scheduler) -> Pass {
        let origin = scheduler.canonical().now();
        let cpu = process_cpu_ns();
        let start = Instant::now();
        let reports = scheduler.run();
        let wall_ns = start.elapsed().as_nanos();
        let cpu_ns = process_cpu_ns() - cpu;
        Pass {
            wall_ns,
            cpu_ns,
            reports,
            counts: scheduler.counts(),
            head: scheduler.canonical().head().hash,
            origin,
            scheduler,
        }
    }

    /// Sessions that reached an outcome without a protocol error.
    pub fn completed(&self) -> usize {
        self.reports
            .iter()
            .filter(|r| r.outcome.is_some() && r.error.is_none())
            .count()
    }

    /// Gas charged across every session.
    pub fn total_gas(&self) -> u64 {
        self.reports.iter().map(|r| r.total_gas).sum()
    }

    /// Off-chain messages posted across every session.
    pub fn messages(&self) -> u64 {
        self.reports.iter().map(|r| r.messages_posted as u64).sum()
    }

    /// The correctness gate: every session completed, ether is
    /// conserved and every header's commitments recompute on every
    /// chain, and the network converged. Returns each failure.
    pub fn check(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for r in &self.reports {
            if r.outcome.is_none() || r.error.is_some() {
                problems.push(format!(
                    "session {} ({}) did not complete: {:?}",
                    r.id, r.kind, r.error
                ));
            }
        }
        for (i, chain) in self.scheduler.chains().into_iter().enumerate() {
            if let Err(e) = check_conservation(chain) {
                problems.push(format!("chain {i}: {e}"));
            }
            if let Err(e) = check_state_commitments(chain) {
                problems.push(format!("chain {i}: {e}"));
            }
        }
        if let Scheduler::Light(s) = &self.scheduler {
            if !s.network().converged() {
                problems.push(format!(
                    "network did not converge: {:?}",
                    s.network().heads()
                ));
            }
        }
        problems
    }

    /// Chain-clock seconds from each session's start to the timestamp
    /// of the last canonical block holding one of its transactions,
    /// sorted ascending. Each transaction is mapped to its session by
    /// recovering its sender (untimed; exact for a given seed). Every
    /// session deploys a contract, so a session without a mined
    /// transaction, or a transaction from outside the sessions, is an
    /// error.
    pub fn settle_times(
        &self,
        plan: &Plan,
        wallets: &HashMap<Address, (usize, Wallet)>,
    ) -> Result<Vec<u64>, String> {
        let chain = self.scheduler.canonical();
        let mut last = vec![None; plan.sessions()];
        for n in 1..=chain.head().number {
            let block = chain.block(n).expect("canonical block in range");
            for tx in &block.transactions {
                let id = tx
                    .sender()
                    .ok()
                    .and_then(|s| wallets.get(&s))
                    .map(|(id, _)| *id)
                    .ok_or_else(|| format!("tx {} has no session sender", tx.hash()))?;
                last[id] = Some(block.timestamp);
            }
        }
        let mut times = Vec::with_capacity(plan.sessions());
        for (id, (t, delay)) in last.iter().zip(&plan.start_delays).enumerate() {
            let t = t.ok_or_else(|| format!("session {id} has no mined transaction"))?;
            times.push(t.saturating_sub(self.origin + delay));
        }
        times.sort_unstable();
        Ok(times)
    }

    /// The canonical blocks after genesis, with each transaction's
    /// receipt.
    pub fn blocks(&self) -> Vec<(Block, Vec<Receipt>)> {
        let chain = self.scheduler.canonical();
        (1..=chain.head().number)
            .map(|n| {
                let block = chain.block(n).expect("canonical block in range").clone();
                let receipts = block
                    .transactions
                    .iter()
                    .map(|tx| {
                        chain
                            .receipt(tx.hash())
                            .expect("mined tx has a receipt")
                            .clone()
                    })
                    .collect();
                (block, receipts)
            })
            .collect()
    }
}

/// Nearest-rank quantile of an ascending slice.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

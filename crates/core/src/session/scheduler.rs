//! Multiplexes N heterogeneous protocol sessions over one shared chain.
//!
//! Each [`SessionSpec`] becomes a slot holding a boxed [`Session`] state
//! machine plus that session's private fault schedules. One scheduler
//! *tick* wakes every slot whose wait expired, steps each runnable slot
//! until it yields, then flushes every session's queued transactions
//! into a single `submit_batch` call and mines **one shared block** —
//! the multi-tenancy the paper's design implies but the legacy
//! one-chain-per-game drivers never exercised. When nothing is runnable
//! and nothing is queued, the clock jumps straight to the earliest wait
//! target, so hour-long contract windows cost nothing to simulate.
//!
//! Determinism: slots are stepped in fixed index order, each slot owns
//! its own seeded [`FaultPlan`] streams, wallets derive from the slot
//! id, and whisper traffic is namespaced per session via
//! [`Topic::scoped`] — two runs from identical specs produce identical
//! chains, traces and outcomes.

use super::{
    BettingSession, BettingSessionParams, BusPort, ChainPort, ChallengeSession,
    ChallengeSessionParams, Session, SessionCtx, SettleLaterSession, SettleLaterSessionParams,
    SettleLaterSpec, StepOutcome,
};
use crate::challenge_protocol::{CrashPoint, SubmitStrategy, WatchStrategy};
use crate::faults::{ChainFaults, FaultPlan, WhisperFaults};
use crate::participant::{Participant, Strategy};
use crate::protocol::{GameConfig, ProtocolError};
use crate::whisper::{Topic, Whisper};
use sc_chain::{PoolConfig, SignedTransaction, Testnet, TxError};
use sc_contracts::challenge::ChallengeContracts;
use sc_contracts::confidential::ConfidentialContracts;
use sc_contracts::{BetSecrets, OffChainContract, OnChainContract};
use sc_primitives::{ether, Address, H256};
use std::collections::HashMap;

/// Ticks before the scheduler declares itself stalled and panics with a
/// state dump. Every tick does real work (a step, a block, or a clock
/// jump), so even 256 fault-ridden sessions finish in a few thousand.
const MAX_TICKS: u64 = 2_000_000;

/// Specification of one betting-variant session.
#[derive(Debug, Clone)]
pub struct BettingSpec {
    /// Participant 0's strategy.
    pub alice: Strategy,
    /// Participant 1's strategy.
    pub bob: Strategy,
    /// The private bet.
    pub secrets: BetSecrets,
    /// Seconds between T0→T1→T2→T3.
    pub phase_seconds: u64,
    /// `Some(seed)` injects that deterministic fault schedule.
    pub fault_seed: Option<u64>,
    /// Seconds after scheduler start before this session begins.
    pub start_delay: u64,
}

impl Default for BettingSpec {
    fn default() -> Self {
        BettingSpec {
            alice: Strategy::Honest,
            bob: Strategy::Honest,
            secrets: GameConfig::default().secrets,
            phase_seconds: 3600,
            fault_seed: None,
            start_delay: 0,
        }
    }
}

/// Specification of one challenge-variant session.
#[derive(Debug, Clone)]
pub struct ChallengeSpec {
    /// The private bet.
    pub secrets: BetSecrets,
    /// Challenge window in seconds.
    pub window: u64,
    /// What the representative submits.
    pub submit: SubmitStrategy,
    /// What the watcher does during the window.
    pub watch: WatchStrategy,
    /// Whether (and when) the representative crashes.
    pub crash: CrashPoint,
    /// `Some(seed)` injects that deterministic fault schedule.
    pub fault_seed: Option<u64>,
    /// Seconds after scheduler start before this session begins.
    pub start_delay: u64,
}

impl Default for ChallengeSpec {
    fn default() -> Self {
        ChallengeSpec {
            secrets: GameConfig::default().secrets,
            window: 1800,
            submit: SubmitStrategy::Truthful,
            watch: WatchStrategy::Vigilant,
            crash: CrashPoint::None,
            fault_seed: None,
            start_delay: 0,
        }
    }
}

/// One session to multiplex: which protocol variant, with which knobs.
#[derive(Debug, Clone)]
pub enum SessionSpec {
    /// A four-stage betting game.
    Betting(BettingSpec),
    /// A submit/challenge game.
    Challenge(ChallengeSpec),
    /// A confidential channel settled later by voucher.
    SettleLater(SettleLaterSpec),
}

/// Terminal record of one multiplexed session. `PartialEq` because the
/// light-session acceptance test compares whole reports bit-for-bit
/// against a full-node run under the same seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionReport {
    /// Slot index (also the wallet-seed and topic namespace).
    pub id: usize,
    /// `"betting"`, `"challenge"` or `"settle-later"`.
    pub kind: &'static str,
    /// Outcome label, `None` if the session failed.
    pub outcome: Option<&'static str>,
    /// Protocol error, for failed sessions.
    pub error: Option<String>,
    /// Gas charged across every transaction the session sent.
    pub total_gas: u64,
    /// Gas per protocol stage `[deploy, deposit, submit, dispute]`
    /// (see [`super::stage_bucket`]); sums to `total_gas`.
    pub stage_gas: [u64; 4],
    /// `(label, success)` of every on-chain transaction, in order.
    pub txs: Vec<(String, bool)>,
    /// Off-chain messages the session attempted to post.
    pub messages_posted: usize,
}

/// Aggregate chain-level statistics of one scheduler run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedulerStats {
    /// Shared blocks mined (only non-empty flushes mine).
    pub blocks_mined: u64,
    /// Transactions admitted into those blocks.
    pub txs_mined: u64,
    /// Scheduler ticks executed.
    pub ticks: u64,
    /// Transactions displaced from the pool (capacity eviction or
    /// same-nonce replacement) and routed back for re-pricing. Always 0
    /// in outbox mode.
    pub pool_evicted: u64,
}

impl SchedulerStats {
    /// Mean admitted transactions per shared block — the batching
    /// metric: above 1 means sessions genuinely share blocks.
    pub fn mean_txs_per_block(&self) -> f64 {
        self.txs_mined as f64 / (self.blocks_mined.max(1)) as f64
    }
}

/// Where one slot stands between ticks (shared with the network
/// scheduler).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SlotState {
    /// Step it this tick.
    Runnable,
    /// Asleep until the (home) clock reaches the target.
    Waiting(u64),
    /// Has a transaction in an outbox / mempool.
    Pending,
    /// Finished with a valid outcome.
    Done,
    /// Finished with a protocol error.
    Failed,
}

impl SlotState {
    /// True once the slot can never step again.
    pub(crate) fn is_terminal(self) -> bool {
        matches!(self, SlotState::Done | SlotState::Failed)
    }

    /// Folds one [`Session::step`] result into the slot: `Progress`
    /// keeps it runnable, a protocol error fails it and lands in
    /// `error`.
    pub(crate) fn apply(
        &mut self,
        step: Result<StepOutcome, ProtocolError>,
        error: &mut Option<String>,
    ) {
        match step {
            Ok(StepOutcome::Progress) => {}
            Ok(StepOutcome::Pending) => *self = SlotState::Pending,
            Ok(StepOutcome::WaitUntil(t)) => *self = SlotState::Waiting(t),
            Ok(StepOutcome::Done) => *self = SlotState::Done,
            Err(e) => {
                *self = SlotState::Failed;
                *error = Some(e.to_string());
            }
        }
    }
}

/// Assembles slot `id`'s report once its session settled.
pub(crate) fn session_report(
    id: usize,
    kind: &'static str,
    session: &dyn Session,
    error: &Option<String>,
) -> SessionReport {
    SessionReport {
        id,
        kind,
        outcome: session.outcome_label(),
        error: error.clone(),
        total_gas: session.total_gas(),
        stage_gas: session.gas_by_stage(),
        txs: session.tx_trace(),
        messages_posted: session.messages_posted(),
    }
}

/// One multiplexed session plus its private fault state.
struct Slot {
    session: Box<dyn Session>,
    kind: &'static str,
    chain_faults: ChainFaults,
    whisper_faults: WhisperFaults,
    state: SlotState,
    error: Option<String>,
}

/// Compiled contracts shared across sessions of one run (compiled once
/// per variant, cloned into each session that needs them).
#[derive(Default)]
pub(crate) struct ContractCache {
    betting: Option<(OnChainContract, OffChainContract)>,
    challenge: Option<ChallengeContracts>,
    confidential: Option<ConfidentialContracts>,
}

/// The deterministic wallets a session slot plays with, derivable from
/// the slot id alone — what lets a multi-node run pre-fund every
/// participant at genesis, before the session even exists.
pub(crate) fn session_wallets(id: usize) -> [sc_chain::Wallet; 2] {
    [
        sc_chain::Wallet::from_seed(&format!("s{id}-alice")),
        sc_chain::Wallet::from_seed(&format!("s{id}-bob")),
    ]
}

/// Builds one session state machine from its spec.
///
/// `topic` namespaces the session's off-chain traffic on the shared
/// bus; `funding` is minted to each participant at the session's first
/// step — `None` when the wallets are pre-funded at genesis, which
/// multi-node runs require (an out-of-band mint on one node would break
/// replay verification of its blocks everywhere else).
///
/// Returns the boxed machine, its kind label, and the fault seed.
pub(crate) fn build_session(
    id: usize,
    spec: SessionSpec,
    topic: String,
    funding: Option<sc_primitives::U256>,
    contracts: &mut ContractCache,
) -> (Box<dyn Session>, &'static str, Option<u64>) {
    match spec {
        SessionSpec::Betting(s) => {
            let pair = contracts
                .betting
                .get_or_insert_with(|| (OnChainContract::new(), OffChainContract::new()))
                .clone();
            let session = BettingSession::new(BettingSessionParams {
                alice: Participant::with_strategy(&format!("s{id}-alice"), s.alice),
                bob: Participant::with_strategy(&format!("s{id}-bob"), s.bob),
                config: GameConfig {
                    phase_seconds: s.phase_seconds,
                    secrets: s.secrets,
                },
                topic,
                contracts: pair,
                timeline: None,
                start_delay: s.start_delay,
                funding,
            });
            (
                Box::new(session) as Box<dyn Session>,
                "betting",
                s.fault_seed,
            )
        }
        SessionSpec::Challenge(s) => {
            let pair = contracts
                .challenge
                .get_or_insert_with(ChallengeContracts::new)
                .clone();
            let session = ChallengeSession::new(ChallengeSessionParams {
                alice: Participant::honest(&format!("s{id}-alice")),
                bob: Participant::honest(&format!("s{id}-bob")),
                secrets: s.secrets,
                window: s.window,
                contracts: pair,
                timeline: None,
                start_delay: s.start_delay,
                funding,
                submit: s.submit,
                watch: s.watch,
                crash: s.crash,
            });
            (
                Box::new(session) as Box<dyn Session>,
                "challenge",
                s.fault_seed,
            )
        }
        SessionSpec::SettleLater(s) => {
            let contracts = contracts
                .confidential
                .get_or_insert_with(ConfidentialContracts::new)
                .clone();
            let [alice, bob] = session_wallets(id);
            let fault_seed = s.fault_seed;
            let session = SettleLaterSession::new(SettleLaterSessionParams {
                alice,
                bob,
                spec: s,
                topic,
                contracts,
                funding,
            });
            (
                Box::new(session) as Box<dyn Session>,
                "settle-later",
                fault_seed,
            )
        }
    }
}

/// Drives N sessions to completion over one shared [`Testnet`] and one
/// shared [`Whisper`] bus.
pub struct SessionScheduler {
    net: Testnet,
    bus: Whisper,
    slots: Vec<Slot>,
    rejections: HashMap<H256, TxError>,
    stats: SchedulerStats,
    /// True after [`SessionScheduler::new_pooled`]: flushes admit into
    /// the chain's mempool and the miner packs blocks under the gas
    /// limit, holding up to `patience` seconds to coalesce traffic.
    pooled: bool,
    /// Pooled mode: how long the miner may hold the oldest pooled
    /// transaction while jumping the clock to upcoming wake targets so
    /// more sessions' transactions land in the same block.
    patience: u64,
}

impl SessionScheduler {
    /// Builds a scheduler over a fresh chain. Contracts are compiled
    /// once per variant and cloned into each session; wallets derive
    /// from the slot id (`"s<id>-alice"` / `"s<id>-bob"`) and are funded
    /// with 1000 ether each at the session's first step.
    pub fn new(specs: Vec<SessionSpec>) -> SessionScheduler {
        let mut contracts = ContractCache::default();
        let slots = specs
            .into_iter()
            .enumerate()
            .map(|(id, spec)| {
                let (session, kind, seed) = build_session(
                    id,
                    spec,
                    Topic::scoped(id as u64, "signed-copy"),
                    Some(ether(1000)),
                    &mut contracts,
                );
                let plan = match seed {
                    Some(seed) => FaultPlan::from_seed(seed),
                    None => FaultPlan::none(),
                };
                Slot {
                    session,
                    kind,
                    chain_faults: ChainFaults::new(&plan),
                    whisper_faults: WhisperFaults::new(&plan),
                    state: SlotState::Runnable,
                    error: None,
                }
            })
            .collect();
        SessionScheduler {
            net: Testnet::new(),
            bus: Whisper::default(),
            slots,
            rejections: HashMap::new(),
            stats: SchedulerStats::default(),
            pooled: false,
            patience: 0,
        }
    }

    /// Builds a scheduler whose shared chain runs in pooled mining
    /// mode: flushed transactions are admitted into a [`PoolConfig`]ured
    /// fee market (still through the parallel batch-ECDSA path), and
    /// each mined block is a greedy fee-priority pack under the block
    /// gas limit. The miner practices *patience*: while the oldest
    /// pooled transaction is younger than `pool.max_hold_secs`, the
    /// clock jumps to upcoming session wake targets instead of sealing,
    /// so staggered sessions' transactions coalesce into shared blocks.
    pub fn new_pooled(specs: Vec<SessionSpec>, pool: PoolConfig) -> SessionScheduler {
        let mut scheduler = SessionScheduler::new(specs);
        scheduler.patience = pool.max_hold_secs;
        scheduler.net.enable_pool(pool);
        scheduler.pooled = true;
        scheduler
    }

    /// The shared chain (for invariant checks after a run).
    pub fn net(&self) -> &Testnet {
        &self.net
    }

    /// Aggregate statistics of the run so far.
    pub fn stats(&self) -> SchedulerStats {
        self.stats
    }

    /// True once every slot reached a terminal state.
    fn all_settled(&self) -> bool {
        self.slots.iter().all(|s| s.state.is_terminal())
    }

    /// Drives every session to completion and returns their reports in
    /// slot order. Panics (with a state dump) if the tick budget runs
    /// out — a liveness bug, never a legitimate schedule.
    pub fn run(&mut self) -> Vec<SessionReport> {
        while !self.all_settled() {
            self.tick();
            assert!(
                self.stats.ticks < MAX_TICKS,
                "scheduler stalled after {} ticks; slot states: {:?}",
                self.stats.ticks,
                self.slots.iter().map(|s| s.state).collect::<Vec<_>>()
            );
        }
        self.slots
            .iter()
            .enumerate()
            .map(|(id, slot)| session_report(id, slot.kind, slot.session.as_ref(), &slot.error))
            .collect()
    }

    /// One scheduler round: wake, step, flush, mine (or jump the clock).
    fn tick(&mut self) {
        self.stats.ticks += 1;
        let now = self.net.now();

        // Wake every slot whose wait target arrived.
        for slot in &mut self.slots {
            if matches!(slot.state, SlotState::Waiting(t) if now >= t) {
                slot.state = SlotState::Runnable;
            }
        }

        // Step each runnable slot (fixed index order — determinism) until
        // it yields: a wait, a queued transaction, or a terminal state.
        let mut outbox: Vec<(Address, SignedTransaction)> = Vec::new();
        let SessionScheduler {
            net,
            bus,
            slots,
            rejections,
            ..
        } = self;
        for slot in slots.iter_mut() {
            while slot.state == SlotState::Runnable {
                let mut port = ChainPort::Shared {
                    net,
                    faults: &mut slot.chain_faults,
                    outbox: &mut outbox,
                    rejections,
                };
                let mut ctx = SessionCtx {
                    chain: &mut port,
                    bus: BusPort::Shared {
                        bus,
                        faults: &mut slot.whisper_faults,
                    },
                };
                let step = slot.session.step(&mut ctx);
                slot.state.apply(step, &mut slot.error);
            }
        }

        // Flush every session's queue through one parallel batch-ECDSA
        // admission call. In outbox mode the admitted set IS the next
        // block; in pooled mode it joins the fee market and the miner
        // decides below.
        if !outbox.is_empty() {
            let txs: Vec<SignedTransaction> = outbox.iter().map(|(_, tx)| tx.clone()).collect();
            let hashes: Vec<H256> = txs.iter().map(|tx| tx.hash()).collect();
            for (hash, result) in hashes.into_iter().zip(self.net.submit_batch(txs)) {
                if let Err(e) = result {
                    self.rejections.insert(hash, e);
                }
            }
            if self.pooled {
                // Fee-market displacement (replacement or capacity
                // eviction) surfaces to the displaced task as a typed
                // rejection; TxTask re-prices and resubmits.
                for hash in self.net.drain_evicted() {
                    self.rejections.insert(hash, TxError::Evicted);
                    self.stats.pool_evicted += 1;
                }
            }
            if !self.pooled {
                self.mine_and_release();
                return;
            }
        }

        if self.pooled {
            self.pooled_mining_decision();
            return;
        }

        if self.slots.iter().any(|s| s.state == SlotState::Pending) {
            // Defensive: a pending slot with nothing queued re-polls next
            // tick (its transaction was mined in an earlier block).
            for slot in &mut self.slots {
                if slot.state == SlotState::Pending {
                    slot.state = SlotState::Runnable;
                }
            }
        } else {
            self.jump_to_earliest_wait();
        }
    }

    /// Mines one shared block and releases every pending slot to observe
    /// its receipt (or routed rejection). Stats count what the block
    /// actually holds — identical to per-admission counting in outbox
    /// mode, and the only correct accounting in pooled mode, where a
    /// flush admits more than one block mines.
    fn mine_and_release(&mut self) {
        let block = self.net.mine_block();
        if !block.transactions.is_empty() {
            self.stats.blocks_mined += 1;
            self.stats.txs_mined += block.transactions.len() as u64;
        }
        for slot in &mut self.slots {
            if slot.state == SlotState::Pending {
                slot.state = SlotState::Runnable;
            }
        }
    }

    /// Nothing runnable, nothing to mine: jump the shared clock to the
    /// earliest wait target. No session overshoots its own target by
    /// more than mining drift, because the jump stops at the minimum.
    fn jump_to_earliest_wait(&mut self) {
        if let Some(target) = self.earliest_wait() {
            let now = self.net.now();
            if target > now {
                self.net.advance_time(target - now);
            }
        }
    }

    /// The soonest wake target among waiting slots.
    fn earliest_wait(&self) -> Option<u64> {
        self.slots
            .iter()
            .filter_map(|s| match s.state {
                SlotState::Waiting(t) => Some(t),
                _ => None,
            })
            .min()
    }

    /// The pooled miner's end-of-tick decision. While the oldest pooled
    /// transaction is still inside its hold window and some session will
    /// wake before the window closes, *wait*: jump the clock to that
    /// wake so the woken session can add its transactions to the same
    /// block. Otherwise seal one packed block. Every branch advances the
    /// run — a clock jump wakes a slot, a mined block either delivers
    /// receipts or (empty pack) moves time toward the next wake — so
    /// the tick budget still bounds the schedule.
    fn pooled_mining_decision(&mut self) {
        let next_wake = self.earliest_wait();
        if self.net.pending_count() == 0 {
            // Nothing to mine. Pending slots can only be waiting on a
            // routed rejection (their transaction is neither pooled nor
            // mined) — release them to observe it; otherwise sleep.
            if self.slots.iter().any(|s| s.state == SlotState::Pending) {
                for slot in &mut self.slots {
                    if slot.state == SlotState::Pending {
                        slot.state = SlotState::Runnable;
                    }
                }
            } else {
                self.jump_to_earliest_wait();
            }
            return;
        }
        let hold_deadline = self
            .net
            .pool_earliest_entry()
            .map(|entered| entered + self.patience);
        if let (Some(wake), Some(deadline)) = (next_wake, hold_deadline) {
            let now = self.net.now();
            if wake <= deadline {
                // Patience: coalesce the upcoming session's traffic into
                // this block instead of sealing now.
                if wake > now {
                    self.net.advance_time(wake - now);
                }
                return;
            }
        }
        self.mine_and_release();
    }
}

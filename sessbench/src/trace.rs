//! Per-layer attribution by replay.
//!
//! The program has no tracing of its own yet, so the traced run works
//! from outside: after a pass it feeds the pass's own blocks,
//! signatures and message counts back through each layer's public
//! functions and times every call as a span. Spans live in memory and
//! are summarised when the replay ends. The pass itself runs untouched,
//! so its timing carries no tracing cost.
//!
//! The replay doubles as a check: every replayed receipt must match the
//! original in success and gas, every re-signed transaction must equal
//! the mined one (signing is deterministic), and every proof must
//! verify.

use sc_chain::{HeaderClient, ImportOutcome, PoolConfig, Testnet, Wallet};
use sc_confidential::{CommitmentBackend, PedersenBackend};
use sc_contracts::OffChainContract;
use sc_core::{sign_bytecode, FaultPlan, Network, SignedCopy, Topic, Whisper};
use sc_primitives::{ether, Address, U256};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

use crate::workload::{Pass, Plan, Scheduler, RANGE_BITS};

/// Cap on sampled off-chain calls per layer (the signed-copy and
/// confidential layers are timed on a sample and scaled by the count
/// the pass reported).
const SIGN_COPY_SAMPLES: usize = 256;
/// Range proofs timed per run (each costs milliseconds).
const RANGE_SAMPLES: usize = 6;

/// Named spans, in nanoseconds, in call order.
#[derive(Default)]
pub struct Spans {
    spans: BTreeMap<&'static str, Vec<u64>>,
}

impl Spans {
    /// Runs `f` as one span of layer call `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        self.spans.entry(name).or_default().push(ns);
        out
    }

    /// Total nanoseconds of every span of `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans.get(name).map_or(0, |v| v.iter().sum())
    }

    /// Number of spans of `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.spans.get(name).map_or(0, |v| v.len() as u64)
    }

    /// Median span of `name` in nanoseconds (0 if none ran).
    pub fn median_ns(&self, name: &str) -> f64 {
        let Some(v) = self.spans.get(name) else {
            return 0.0;
        };
        let mut v = v.clone();
        v.sort_unstable();
        match v.len() {
            0 => 0.0,
            n if n % 2 == 1 => v[n / 2] as f64,
            n => (v[n / 2 - 1] + v[n / 2]) as f64 / 2.0,
        }
    }

    /// Mean span of `name` in nanoseconds (0 if none ran).
    pub fn mean_ns(&self, name: &str) -> f64 {
        self.total_ns(name) as f64 / self.count(name).max(1) as f64
    }

    /// Spans recorded across every name.
    pub fn recorded(&self) -> u64 {
        self.spans.values().map(|v| v.len() as u64).sum()
    }
}

/// What the replay measured, plus every mismatch it found.
pub struct Replay {
    /// The spans.
    pub spans: Spans,
    /// Blocks replayed (all canonical blocks after genesis).
    pub blocks: u64,
    /// Canonical blocks that held transactions.
    pub busy_blocks: u64,
    /// Gas of the replayed blocks.
    pub gas: u64,
    /// Wall nanoseconds of the whole replay.
    pub wall_ns: u64,
    /// Mismatches between the replay and the pass.
    pub problems: Vec<String>,
}

/// Each session wallet minted 1000 ether, as the schedulers fund them.
fn funding(wallets: &HashMap<Address, (usize, Wallet)>) -> Vec<(Address, U256)> {
    let mut funding: Vec<(Address, U256)> = wallets.keys().map(|a| (*a, ether(1000))).collect();
    funding.sort_unstable_by_key(|(a, _)| a.0);
    funding
}

/// Replays `pass` through every layer's public calls.
pub fn replay(plan: &Plan, pass: &Pass, wallets: &HashMap<Address, (usize, Wallet)>) -> Replay {
    let start = Instant::now();
    let mut spans = Spans::default();
    let mut problems = Vec::new();
    let blocks = pass.blocks();

    // Crypto: recover every mined transaction's sender, then re-sign it
    // with the session wallet that sent it.
    for (block, _) in &blocks {
        for tx in &block.transactions {
            let sender = spans.time("crypto.recover", || tx.sender());
            let Some((_, wallet)) = sender.ok().and_then(|s| wallets.get(&s)) else {
                problems.push(format!("tx {} has no session sender", tx.hash()));
                continue;
            };
            let unsigned = tx.tx.clone();
            let resigned = spans.time("crypto.sign", || unsigned.sign(&wallet.key));
            if resigned != *tx {
                problems.push(format!("tx {} re-signed differently", tx.hash()));
            }
        }
    }

    // Chain: re-admit and re-mine every canonical block, in order and at
    // its original timestamp, on a replica funded like the original.
    let mut replica = Testnet::new();
    for (a, amount) in funding(wallets) {
        replica.faucet(a, amount);
    }
    let mut gas = 0u64;
    for (block, receipts) in &blocks {
        let now = replica.now();
        if block.timestamp < now {
            problems.push(format!("block {} predates the replica clock", block.number));
            break;
        }
        replica.advance_time(block.timestamp - now);
        if !block.transactions.is_empty() {
            let txs = block.transactions.clone();
            let admitted = spans.time("chain.admit", || replica.submit_batch(txs));
            if let Some(Err(e)) = admitted.into_iter().find(Result::is_err) {
                problems.push(format!(
                    "block {}: replay admission failed: {e:?}",
                    block.number
                ));
            }
        }
        let mined = spans.time("chain.mine", || replica.mine_block());
        gas += mined.gas_used;
        if mined.transactions != block.transactions {
            problems.push(format!("block {}: replica mined other txs", block.number));
            continue;
        }
        for (tx, original) in mined.transactions.iter().zip(receipts) {
            match replica.receipt(tx.hash()) {
                Some(r) if r.success == original.success && r.gas_used == original.gas_used => {}
                other => problems.push(format!(
                    "block {}: receipt of {} differs: replay {:?} vs original ({}, {})",
                    block.number,
                    tx.hash(),
                    other.map(|r| (r.success, r.gas_used)),
                    original.success,
                    original.gas_used
                )),
            }
        }
    }

    // Network: import the canonical chain onto a genesis replica, as
    // every node of the light network did.
    if let Scheduler::Light(_) = pass.scheduler {
        let mut net = Network::new(
            1,
            &FaultPlan::none(),
            PoolConfig::default(),
            &funding(wallets),
        );
        let node = net.node_mut(0);
        for (block, _) in &blocks {
            let b = block.clone();
            match spans.time("chain.import", || node.import_block(b)) {
                Ok(ImportOutcome::Extended) => {}
                other => problems.push(format!("block {}: import gave {other:?}", block.number)),
            }
        }
        if node.head().hash != pass.head {
            problems.push("imported replica head differs from the network head".into());
        }
    }

    // Light client: follow the replica's headers, then prove and verify
    // every receipt and every session account against them.
    let mut client = HeaderClient::new(replica.block(0).expect("genesis").header());
    for n in 1..=replica.head().number {
        let header = replica.block(n).expect("replica block").header();
        if let Err(e) = spans.time("light.header_import", || client.import_header(header)) {
            problems.push(format!("header {n} rejected: {e:?}"));
        }
    }
    for (block, _) in &blocks {
        for tx in &block.transactions {
            let hash = tx.hash();
            let Some(proof) = spans.time("light.prove_receipt", || replica.prove_receipt(hash))
            else {
                problems.push(format!("no receipt proof for {hash}"));
                continue;
            };
            if let Err(e) = spans.time("light.verify_receipt", || client.verified_receipt(&proof)) {
                problems.push(format!("receipt proof for {hash} rejected: {e:?}"));
            }
        }
    }
    let mut accounts: Vec<Address> = wallets.keys().copied().collect();
    accounts.sort_unstable_by_key(|a| a.0);
    for a in accounts {
        let proof = spans.time("light.prove_account", || replica.prove_account(a));
        match spans.time("light.verify_account", || client.verified_account(&proof)) {
            Ok((nonce, _)) if nonce == replica.nonce_of(a) => {}
            other => problems.push(format!("account proof for {a}: {other:?}")),
        }
    }

    // Session layer: signed copies of the off-chain bytecode, signed and
    // verified by the sessions' own wallet pairs.
    let bytecode = OffChainContract::new().compiled.runtime;
    let pairs: Vec<[Wallet; 2]> = (0..plan.sessions())
        .map(|id| ["alice", "bob"].map(|who| Wallet::from_seed(&format!("s{id}-{who}"))))
        .take(SIGN_COPY_SAMPLES / 2)
        .collect();
    for [a, b] in &pairs {
        let sa = spans.time("session.sign_copy", || sign_bytecode(&a.key, &bytecode));
        let sb = spans.time("session.sign_copy", || sign_bytecode(&b.key, &bytecode));
        let copy = SignedCopy {
            bytecode: bytecode.clone(),
            signatures: vec![sa, sb],
        };
        if let Err(e) = spans.time("session.verify_copy", || {
            copy.verify(&[a.address, b.address])
        }) {
            problems.push(format!("signed copy rejected: {e:?}"));
        }
    }

    // Whisper: the pass's message count, one 65-byte signature each,
    // spread over the sessions' topics; then each participant polls its
    // session's topic.
    let mut bus = Whisper::new();
    let sessions = plan.sessions().max(1);
    let payload = vec![0x1bu8; 65];
    for k in 0..pass.messages() as usize {
        let topic = Topic::scoped((k % sessions) as u64, "signed-copy");
        let from = pairs[k % pairs.len()][k % 2].address;
        let body = payload.clone();
        spans.time("whisper.post", || bus.post(from, &topic, body));
    }
    for id in 0..sessions {
        let topic = Topic::scoped(id as u64, "signed-copy");
        for w in &pairs[id % pairs.len()] {
            let got = spans.time("whisper.poll", || bus.poll(w.address, &topic));
            black_box(got);
        }
    }

    // Confidential: commitments and range proofs at the workload's
    // width and stake sizes.
    let backend = PedersenBackend;
    for k in 0..RANGE_SAMPLES as u64 {
        let value = U256::from_u64(if k % 2 == 0 { 30 } else { 12 });
        let blinding = U256::from_u64(0xB11D_0000 + k);
        let c = spans.time("confidential.commit", || backend.commit(value, blinding));
        let proof = spans.time("confidential.range_prove", || {
            backend.prove_range(value, blinding, RANGE_BITS)
        });
        let ok = proof.as_ref().is_some_and(|p| {
            spans.time("confidential.range_verify", || {
                backend.verify_range(&c, RANGE_BITS, p.as_bytes())
            })
        });
        if !ok {
            problems.push(format!("range proof {k} failed"));
        }
    }

    Replay {
        spans,
        blocks: blocks.len() as u64,
        busy_blocks: blocks
            .iter()
            .filter(|(b, _)| !b.transactions.is_empty())
            .count() as u64,
        gas,
        wall_ns: start.elapsed().as_nanos() as u64,
        problems,
    }
}

/// Median nanoseconds of one empty span (two clock reads and a push),
/// the cost the tracer adds to every call it times.
pub fn empty_span_ns() -> f64 {
    let mut spans = Spans::default();
    for _ in 0..10_001 {
        spans.time("empty", || black_box(()));
    }
    spans.median_ns("empty")
}

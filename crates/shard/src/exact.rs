//! Exact distributed SBP over a replicated global blockmodel.
//!
//! Unlike the divide-and-conquer pipeline (partition → blind per-shard SBP
//! → stitch), the exact mode follows Wanye et al.'s *Exact Distributed
//! Stochastic Block Partitioning*: every shard owns a contiguous **vertex
//! range** of the full graph but evaluates proposals against a **full
//! replica of the global blockmodel**, so no edge is ever invisible and no
//! over-partition factor is needed. After every `sync_every` local sweeps
//! the shards exchange their accepted moves as sequence-numbered,
//! checksummed delta messages (the EA-SBP replica-pool sync of PR 4, lifted
//! one level up onto an emulated wire), and every replica folds in the
//! foreign moves as exact integer deltas — with `sync_every = 1` the run is
//! **bit-identical** to single-model EA-SBP with `num_shards` workers.
//!
//! The wire is hostile ([`crate::channel`]): messages can be dropped,
//! duplicated, reordered, corrupted or delayed by a deterministic
//! [`NetFaultPlan`]. The protocol survives it with a bulk-synchronous
//! recovery barrier per sync round:
//!
//! 1. every shard broadcasts its round delta under a per-shard sequence
//!    number; receivers detect gaps from the sequence stream,
//! 2. missing deltas are NACKed and retransmitted under a bounded retry
//!    budget (each retransmission re-rolls its fate),
//! 3. a receiver that exhausts its retries against a *live* sender is
//!    brought back with a full-state resync from the coordinator (the
//!    consolidated model — PR 3's repair path, one level up),
//! 4. a sender that produced nothing at all (silent straggler) is declared
//!    **dead**: its vertices are re-voted by the PR 2 majority-vote
//!    machinery, ownership of its range is redistributed over the
//!    survivors, and the run continues degraded instead of aborting.
//!
//! Periodic replica-digest exchange ([`blockmodel_digest`]) additionally
//! catches silent replica divergence (e.g. memory corruption, exercised by
//! the `desync` fault) and heals it with the same coordinator resync.
//!
//! The search itself is core's: [`run_exact_sbp_budgeted`] runs
//! [`golden_section_search`] with the cluster as the MCMC phase executor
//! (one sync round per round of `sync_every` sweeps), so the exact mode
//! shares the convergence window, drift injection, audit, budgets and
//! cancellation of `detect`.
//!
//! Because recovery completes inside the round barrier, every replica
//! re-enters the next sweep in the consolidated state: drop / duplicate /
//! reorder / corrupt / delay plans change the wire traffic (visible in
//! [`RunStats`]'s `sync_*` counters and the per-round byte log) but **not
//! the sampled chain** — the CI fault matrix asserts final labels are
//! identical to the fault-free run. Only a dead shard changes the
//! trajectory, and that is reported as degradation.

use crate::channel::{
    blockmodel_digest, decode_msg, encode_msg, EmulatedNet, NetFaultPlan, NetTotals, Offer,
    PeerTracker, SyncPayload, HEADER_LEN,
};
use crate::stitch::reassign_dropped;
use hsbp_blockmodel::{
    evaluate_move_with, propose::accept_move, propose_block, Block, Blockmodel, NeighborCounts,
    ProposalArena,
};
use hsbp_collections::sample::mix_words;
use hsbp_collections::SplitMix64;
use hsbp_core::{
    golden_section_search, CancelToken, HsbpError, PhaseExecutor, RunBudget, RunControl, RunStats,
    SbpConfig, SbpResult, SweepCounters,
};
use hsbp_graph::{Graph, Vertex};
use hsbp_parallel::{pool_for, with_resident, ThreadPool};

/// Configuration of the exact distributed mode.
#[derive(Debug, Clone)]
pub struct ExactConfig {
    /// Number of shards (vertex-range owners with full model replicas).
    pub num_shards: usize,
    /// The SBP configuration (seed, cost model, audit cadence, …). The
    /// MCMC variant field is ignored: the exact mode *is* the distributed
    /// EA-SBP sweep.
    pub sbp: SbpConfig,
    /// Local sweeps per sync round. `1` reproduces single-model EA-SBP
    /// bit-for-bit; larger values trade staleness for fewer, fatter
    /// messages (the communication-vs-computation knob).
    pub sync_every: usize,
    /// Exchange replica digests every this many sync rounds (`0` disables
    /// divergence detection).
    pub digest_every: usize,
    /// NACK-driven retransmit attempts per missing delta before falling
    /// back to a coordinator resync (live sender) or declaring the sender
    /// dead (silent sender).
    pub max_retries: usize,
    /// Deterministic network fault plan for the emulated wire.
    pub net_faults: NetFaultPlan,
}

impl Default for ExactConfig {
    fn default() -> Self {
        Self {
            num_shards: 4,
            sbp: SbpConfig::default(),
            sync_every: 1,
            digest_every: 8,
            max_retries: 5,
            net_faults: NetFaultPlan::none(),
        }
    }
}

impl ExactConfig {
    /// Validate the configuration, mirroring [`SbpConfig::validate`].
    pub fn validate(&self) -> Result<(), String> {
        self.sbp.validate()?;
        if self.num_shards == 0 {
            return Err("num_shards must be at least 1".into());
        }
        if self.sync_every == 0 {
            return Err("sync_every must be at least 1".into());
        }
        Ok(())
    }
}

/// Wire activity of one sync round.
#[derive(Debug, Clone)]
pub struct RoundNet {
    /// Global round index (monotonic across phases).
    pub round: u64,
    /// Messages put on the wire during this round.
    pub messages: u64,
    /// Bytes put on the wire during this round.
    pub bytes: u64,
    /// Retransmissions performed during this round.
    pub retransmits: u64,
    /// Full-state resyncs performed during this round.
    pub resyncs: u64,
}

/// One shard declared dead by the sync protocol.
#[derive(Debug, Clone)]
pub struct DeadShard {
    /// The shard.
    pub shard: usize,
    /// Round at which its retry budget was exhausted.
    pub round: u64,
    /// Vertices of its range re-voted by the majority-vote machinery.
    pub reassigned_vertices: usize,
}

/// Result of an exact distributed run.
#[derive(Debug, Clone)]
pub struct ExactRun {
    /// The final partition, with `sync_*` protocol counters in
    /// [`RunStats`].
    pub result: SbpResult,
    /// Per-round wire log (bytes per sync round, retransmits, resyncs).
    pub rounds: Vec<RoundNet>,
    /// Aggregate wire counters.
    pub net: NetTotals,
    /// Shards declared dead, in death order.
    pub dead_shards: Vec<DeadShard>,
    /// Shards the run started with.
    pub num_shards: usize,
}

impl ExactRun {
    /// True when at least one shard died and the run degraded.
    pub fn degraded(&self) -> bool {
        !self.dead_shards.is_empty()
    }
}

/// Framed size of a full-state resync for an `n`-vertex model.
fn resync_frame_len(n: usize) -> usize {
    HEADER_LEN + 1 + 4 + 4 + 4 * n
}

/// Framed size of a digest message.
fn digest_frame_len() -> usize {
    HEADER_LEN + 1 + 4 + 8
}

/// Framed size of a NACK message.
fn nack_frame_len() -> usize {
    HEADER_LEN + 1 + 4 + 4 + 8
}

/// A delta that arrived ahead of a gap, buffered until the gap closes:
/// `(sender, sequence number, move list)`.
type PendingDelta = (usize, u64, Vec<(Vertex, Block)>);

/// The distributed cluster: shard ownership, replicas, sequence state and
/// the emulated wire. Lives across the phases of one run.
struct Cluster<'a> {
    cfg: &'a ExactConfig,
    /// Owned vertices per shard, ascending. Grows when a dead shard's
    /// range is redistributed.
    owned: Vec<Vec<Vertex>>,
    alive: Vec<bool>,
    /// Full-model replica per live shard (`None` = dead or needs reseed).
    replicas: Vec<Option<Blockmodel>>,
    net: EmulatedNet,
    /// Next sequence number per sender.
    next_seq: Vec<u64>,
    /// `trackers[receiver][sender]`: in-order delivery state.
    trackers: Vec<Vec<PeerTracker>>,
    round: u64,
    rounds_log: Vec<RoundNet>,
    dead_log: Vec<DeadShard>,
    /// Pool the shards' local sweeps run on.
    pool: &'static ThreadPool,
    /// Scratch for folding deltas into replicas and the coordinator.
    arena: ProposalArena,
}

impl<'a> Cluster<'a> {
    fn new(graph: &Graph, cfg: &'a ExactConfig) -> Self {
        let n = graph.num_vertices();
        let k = cfg.num_shards.clamp(1, n.max(1));
        // Contiguous ranges, identical to EA-SBP's worker shards: shard w
        // owns [w·ceil(n/k), (w+1)·ceil(n/k)) clamped to n.
        let shard_len = n.div_ceil(k);
        let owned: Vec<Vec<Vertex>> = (0..k)
            .map(|w| {
                let start = (w * shard_len).min(n);
                let end = ((w + 1) * shard_len).min(n);
                (start as Vertex..end as Vertex).collect()
            })
            .collect();
        Self {
            cfg,
            owned,
            alive: vec![true; k],
            replicas: vec![None; k],
            net: EmulatedNet::new(k, cfg.net_faults.clone(), cfg.sbp.cost_model),
            next_seq: vec![0; k],
            trackers: vec![vec![PeerTracker::default(); k]; k],
            round: 0,
            rounds_log: Vec::new(),
            dead_log: Vec::new(),
            pool: pool_for(cfg.sbp.threads),
            arena: ProposalArena::default(),
        }
    }

    fn num_shards(&self) -> usize {
        self.owned.len()
    }

    fn live_shards(&self) -> Vec<usize> {
        (0..self.num_shards()).filter(|&s| self.alive[s]).collect()
    }

    /// Reseed every live replica from the coordinator (phase start — the
    /// merge phase reshaped the model behind the shards' backs). Pays the
    /// EA-SBP replication cost and the full-state broadcast bytes.
    fn reseed(&mut self, graph: &Graph, coordinator: &Blockmodel, stats: &mut RunStats) {
        let live = self.live_shards();
        for &s in &live {
            self.replicas[s] = Some(coordinator.clone());
            self.net.account(resync_frame_len(graph.num_vertices()));
        }
        let clone_cost = self.cfg.sbp.cost_model.rebuild_cost(graph.num_edges());
        stats
            .sim_mcmc
            .add_parallel_uniform(live.len() as f64 * clone_cost, 0.0);
    }

    /// Full-state resync of shard `s` from the coordinator.
    fn resync(&mut self, s: usize, graph: &Graph, coordinator: &Blockmodel) {
        self.replicas[s] = Some(coordinator.clone());
        for p in 0..self.num_shards() {
            self.trackers[s][p].skip_to(self.next_seq[p]);
        }
        self.net.account(resync_frame_len(graph.num_vertices()));
        self.net.totals.resyncs += 1;
    }

    /// Declare shard `dead` dead: re-vote its vertices on the coordinator
    /// by weighted neighbour majority (the PR 2 degradation machinery),
    /// redistribute its range over the survivors, and resync everyone to
    /// the repaired coordinator state.
    fn declare_dead(
        &mut self,
        dead: usize,
        graph: &Graph,
        coordinator: &mut Blockmodel,
    ) -> Result<(), HsbpError> {
        self.alive[dead] = false;
        self.replicas[dead] = None;
        let survivors = self.live_shards();
        if survivors.is_empty() {
            return Err(HsbpError::AllShardsFailed {
                num_shards: self.num_shards(),
            });
        }
        // The dead shard's local chain since its last delivered delta is
        // lost; re-derive its range from the surviving consensus.
        let mut assigned: Vec<Option<Block>> =
            coordinator.assignment().iter().map(|&b| Some(b)).collect();
        for &v in &self.owned[dead] {
            assigned[v as usize] = None;
        }
        let reassigned = reassign_dropped(graph, &mut assigned, coordinator.num_blocks());
        let new_assignment: Vec<Block> = assigned.into_iter().map(|b| b.unwrap_or(0)).collect();
        coordinator.rebuild(graph, new_assignment);
        // Redistribute ownership round-robin over the survivors.
        let orphans = std::mem::take(&mut self.owned[dead]);
        for (i, v) in orphans.into_iter().enumerate() {
            let heir = survivors[i % survivors.len()];
            self.owned[heir].push(v);
        }
        for &s in &survivors {
            self.owned[s].sort_unstable();
        }
        self.dead_log.push(DeadShard {
            shard: dead,
            round: self.round,
            reassigned_vertices: reassigned,
        });
        // Everyone restarts from the repaired coordinator state.
        for &s in &survivors {
            self.resync(s, graph, coordinator);
        }
        Ok(())
    }
}

/// The exact mode's MCMC phase executor: each round is one sync round of
/// `sync_every` local sweeps per shard. With `sync_every = 1` the salt,
/// counter RNG, convergence window and audit cadence line up exactly with
/// in-process EA-SBP.
impl PhaseExecutor for Cluster<'_> {
    fn batch(&self) -> usize {
        self.cfg.sync_every
    }

    fn begin_phase(&mut self, graph: &Graph, bm: &Blockmodel, stats: &mut RunStats) {
        self.reseed(graph, bm, stats);
    }

    /// One sync round: `batch` local sweeps per live shard, delta
    /// broadcast, recovery barrier, digest exchange.
    fn run_round(
        &mut self,
        graph: &Graph,
        coordinator: &mut Blockmodel,
        salt: u64,
        sweep_base: u64,
        batch: usize,
        stats: &mut RunStats,
        _ctrl: &RunControl,
    ) -> Result<SweepCounters, HsbpError> {
        let cfg = &self.cfg.sbp;
        let round = self.round;
        let start_messages = self.net.totals.messages;
        let start_bytes = self.net.totals.bytes;
        let start_retransmits = self.net.totals.retransmits;
        let start_resyncs = self.net.totals.resyncs;

        // Senders: live shards that are not hung this round. A silent
        // shard's local work is lost — it contributes nothing.
        let live = self.live_shards();
        let senders: Vec<usize> = live
            .iter()
            .copied()
            .filter(|&s| !self.net.plan().is_silent(s, round))
            .collect();

        // 1. Local sweeps: serial MH over the owned vertices against the
        // shard's own replica, immediate local updates, moves recorded in
        // application order (the EA-SBP worker loop, verbatim).
        type ShardMoves = (usize, Blockmodel, Vec<(Vertex, Block)>);
        let locals: Vec<(usize, Blockmodel)> = senders
            .iter()
            .map(|&s| {
                (
                    s,
                    self.replicas[s]
                        .take()
                        .unwrap_or_else(|| coordinator.clone()),
                )
            })
            .collect();
        let owned = &self.owned;
        let results: Vec<ShardMoves> = self.pool.map_vec(
            locals,
            || (),
            |(), (s, mut local)| {
                with_resident(ProposalArena::default, |arena| {
                    let mut moves: Vec<(Vertex, Block)> = Vec::new();
                    for step in 0..batch {
                        let sweep_idx = sweep_base + step as u64;
                        for &v in &owned[s] {
                            let mut rng = SplitMix64::for_item(salt, sweep_idx, u64::from(v));
                            let from = local.block_of(v);
                            let to = propose_block(graph, &local, local.assignment(), v, &mut rng);
                            if to == from {
                                continue;
                            }
                            NeighborCounts::gather_into(
                                graph,
                                local.assignment(),
                                v,
                                &mut arena.scratch,
                                &mut arena.counts,
                            );
                            let eval = evaluate_move_with(
                                &local,
                                from,
                                to,
                                &arena.counts,
                                &mut arena.eval,
                            );
                            if accept_move(&eval, cfg.beta, &mut rng) {
                                local.apply_move(v, from, to, &arena.counts);
                                moves.push((v, to));
                            }
                        }
                    }
                    (s, local, moves)
                })
            },
        );
        let swept: usize = senders.iter().map(|&s| self.owned[s].len()).sum();
        let costs: Vec<f64> = senders
            .iter()
            .flat_map(|&s| self.owned[s].iter())
            .map(|&v| cfg.cost_model.proposal_cost(graph.incident_arity(v)))
            .collect();
        for _ in 0..batch {
            stats.sim_mcmc.add_parallel(&costs);
        }

        // 2. Consolidate the coordinator from the merged membership — the
        // same procedure as core's `consolidate_sweep` (Auto mode): count
        // the net membership diff, shortcut the no-move round, and pick
        // incremental replay vs rebuild by the cost-model crossover.
        let mut moves_of: Vec<Option<Vec<(Vertex, Block)>>> = vec![None; self.num_shards()];
        let mut replicas_back: Vec<(usize, Blockmodel)> = Vec::with_capacity(results.len());
        let mut total_moves = 0usize;
        for (s, local, moves) in results {
            total_moves += moves.len();
            moves_of[s] = Some(moves);
            replicas_back.push((s, local));
        }
        let mut new_assignment = coordinator.assignment_snapshot();
        for moves in moves_of.iter().flatten() {
            for &(v, to) in moves {
                new_assignment[v as usize] = to;
            }
        }
        let current = coordinator.assignment();
        let mut net_moves = 0usize;
        let mut incremental_cost = 0.0;
        for v in 0..graph.num_vertices() {
            if current[v] != new_assignment[v] {
                net_moves += 1;
                incremental_cost += cfg
                    .cost_model
                    .consolidation_move_cost(graph.incident_arity(v as Vertex));
            }
        }
        if net_moves == 0 {
            stats.consolidations_incremental += 1;
        } else if cfg
            .cost_model
            .prefer_incremental_consolidation(incremental_cost, graph.num_edges())
        {
            apply_assignment_diff(graph, coordinator, &new_assignment, &mut self.arena);
            stats.consolidated_moves += net_moves as u64;
            stats.consolidations_incremental += 1;
            stats.sim_mcmc.add_serial(incremental_cost);
        } else {
            coordinator.rebuild(graph, new_assignment);
            stats.consolidations_rebuild += 1;
            stats.sim_mcmc.add_parallel_uniform(
                cfg.cost_model.rebuild_cost(graph.num_edges()),
                cfg.cost_model.rebuild_serial_fraction,
            );
        }
        for (s, local) in replicas_back {
            self.replicas[s] = Some(local);
        }

        // 3. Broadcast: one sequence number per live shard per round (the
        // silent shard burns its number — that unfilled gap is exactly how
        // receivers notice it).
        let seq_of: Vec<u64> = self.next_seq.clone();
        for &s in &live {
            self.next_seq[s] += 1;
        }
        let mut frames: Vec<Option<Vec<u8>>> = vec![None; self.num_shards()];
        for &s in &senders {
            let moves = moves_of[s].clone().unwrap_or_default();
            frames[s] = Some(encode_msg(
                seq_of[s],
                &SyncPayload::Delta {
                    shard: s as u32,
                    moves,
                },
            ));
        }
        for &s in &senders {
            let frame = frames[s].clone().unwrap_or_default();
            for &dst in &live {
                if dst != s {
                    self.net.send(round, s, dst, seq_of[s], 1, &frame);
                }
            }
        }

        // 4. Recovery barrier: apply inboxes, NACK the gaps, retransmit,
        // and only then let anyone proceed to the next sweep.
        let sync_cost: f64 = moves_of
            .iter()
            .flatten()
            .flatten()
            .map(|&(v, _)| {
                cfg.cost_model
                    .consolidation_move_cost(graph.incident_arity(v))
            })
            .sum();
        if total_moves > 0 {
            stats
                .sim_mcmc
                .add_parallel_uniform(live.len() as f64 * sync_cost, 0.0);
        }
        let mut pending: Vec<Vec<PendingDelta>> = vec![Vec::new(); self.num_shards()];
        let mut newly_dead: Vec<usize> = Vec::new();
        for attempt in 1..=(self.cfg.max_retries as u32 + 1) {
            // Deliver and apply whatever arrived.
            for &r in &live {
                let arrivals = self.net.collect(round, r);
                for (src, frame) in arrivals {
                    let (seq, payload) = match decode_msg(&frame) {
                        Ok(m) => m,
                        Err(_) => {
                            // Corruption in flight: indistinguishable from
                            // loss; the sequence gap drives recovery.
                            self.net.totals.corrupt_detected += 1;
                            continue;
                        }
                    };
                    let SyncPayload::Delta { moves, .. } = payload else {
                        continue;
                    };
                    match self.trackers[r][src].offer(seq) {
                        Offer::Apply => {
                            if let Some(replica) = self.replicas[r].as_mut() {
                                apply_moves(graph, replica, &moves, &mut self.arena);
                            }
                            // Drain any buffered successors.
                            loop {
                                let next = self.trackers[r][src].expected();
                                let Some(pos) = pending[r]
                                    .iter()
                                    .position(|&(p, s, _)| p == src && s == next)
                                else {
                                    break;
                                };
                                let (_, s, buffered) = pending[r].swap_remove(pos);
                                self.trackers[r][src].offer(s);
                                if let Some(replica) = self.replicas[r].as_mut() {
                                    apply_moves(graph, replica, &buffered, &mut self.arena);
                                }
                            }
                        }
                        Offer::Duplicate => self.net.totals.replays_ignored += 1,
                        Offer::Future => pending[r].push((src, seq, moves)),
                    }
                }
            }
            // Who is still missing what?
            let mut gaps: Vec<(usize, usize)> = Vec::new(); // (receiver, sender)
            for &r in &live {
                for &p in &live {
                    if p != r && self.trackers[r][p].expected() <= seq_of[p] {
                        gaps.push((r, p));
                    }
                }
            }
            if gaps.is_empty() {
                break;
            }
            if attempt <= self.cfg.max_retries as u32 {
                // NACK + retransmit (the retransmission re-rolls its fate).
                for &(r, p) in &gaps {
                    self.net.account(nack_frame_len());
                    self.net.totals.nacks += 1;
                    if let Some(frame) = frames[p].as_ref() {
                        let frame = frame.clone();
                        self.net.totals.retransmits += 1;
                        self.net.send(round, p, r, seq_of[p], attempt + 1, &frame);
                    }
                }
            } else {
                // Retry budget exhausted. A live sender's delta exists at
                // the coordinator — resync the receiver. A sender that
                // produced nothing is dead.
                let mut resync_rx: Vec<usize> = Vec::new();
                for &(r, p) in &gaps {
                    if frames[p].is_some() {
                        resync_rx.push(r);
                    } else if !newly_dead.contains(&p) {
                        newly_dead.push(p);
                    }
                }
                resync_rx.sort_unstable();
                resync_rx.dedup();
                for r in resync_rx {
                    // Skip receivers that will be resynced by the death
                    // handling below anyway.
                    if newly_dead.is_empty() {
                        self.resync(r, graph, coordinator);
                    }
                }
                break;
            }
        }
        for dead in newly_dead {
            self.declare_dead(dead, graph, coordinator)?;
        }

        // 5. Injected replica divergence (the desync fault): corrupt the
        // replica in place, exactly what the digest exchange exists to
        // catch.
        for s in self.live_shards() {
            if self.net.plan().desyncs_at(s, round) {
                if let Some(replica) = self.replicas[s].as_mut() {
                    replica.inject_state_corruption(mix_words(&[
                        self.net.plan().seed,
                        0x4445_5359_4e43, // "DESYNC"
                        round,
                        s as u64,
                    ]));
                }
            }
        }

        // 6. Periodic digest exchange: every live shard reports an FNV-1a
        // hash of its full replica state; divergence from the coordinator
        // triggers a full-state resync.
        if self.cfg.digest_every > 0 && (round + 1).is_multiple_of(self.cfg.digest_every as u64) {
            let reference = blockmodel_digest(coordinator);
            for s in self.live_shards() {
                self.net.account(digest_frame_len());
                let diverged = self.replicas[s]
                    .as_ref()
                    .is_some_and(|replica| blockmodel_digest(replica) != reference);
                if diverged {
                    self.resync(s, graph, coordinator);
                }
            }
        }

        // Under the null plan every replica must already equal the
        // consolidated model — the exactness invariant.
        #[cfg(debug_assertions)]
        if self.net.plan().is_null() {
            for s in self.live_shards() {
                debug_assert_eq!(
                    self.replicas[s].as_ref(),
                    Some(&*coordinator),
                    "shard {s} replica drifted from the coordinator"
                );
            }
        }

        self.rounds_log.push(RoundNet {
            round,
            messages: self.net.totals.messages - start_messages,
            bytes: self.net.totals.bytes - start_bytes,
            retransmits: self.net.totals.retransmits - start_retransmits,
            resyncs: self.net.totals.resyncs - start_resyncs,
        });
        self.round += 1;
        stats.sync_rounds += 1;
        Ok(SweepCounters {
            proposals: (swept * batch) as u64,
            accepted: total_moves as u64,
        })
    }

    /// The replicas no longer match the coordinator (drift injected or
    /// repaired, the audit's repair surfaced as protocol resyncs):
    /// full-state resync of every live shard, charged like an EA replica
    /// reseed.
    fn model_rewritten(&mut self, graph: &Graph, bm: &Blockmodel, stats: &mut RunStats) {
        let live = self.live_shards();
        for &s in &live {
            self.resync(s, graph, bm);
        }
        stats.sim_mcmc.add_parallel_uniform(
            live.len() as f64 * self.cfg.sbp.cost_model.rebuild_cost(graph.num_edges()),
            0.0,
        );
    }
}

/// Fold a foreign move list into `replica` as exact integer deltas against
/// its own evolving assignment (the EA-SBP replica sync).
fn apply_moves(
    graph: &Graph,
    replica: &mut Blockmodel,
    moves: &[(Vertex, Block)],
    arena: &mut ProposalArena,
) {
    for &(v, to) in moves {
        let from = replica.block_of(v);
        if from == to {
            continue;
        }
        NeighborCounts::gather_into(
            graph,
            replica.assignment(),
            v,
            &mut arena.scratch,
            &mut arena.counts,
        );
        replica.apply_move(v, from, to, &arena.counts);
    }
}

/// Replay every `current != target` vertex through `apply_move`, ascending
/// by vertex id — core's incremental consolidation, verbatim.
fn apply_assignment_diff(
    graph: &Graph,
    bm: &mut Blockmodel,
    target: &[Block],
    arena: &mut ProposalArena,
) {
    for (v, &to) in target.iter().enumerate() {
        let v = v as Vertex;
        let from = bm.block_of(v);
        if from == to {
            continue;
        }
        NeighborCounts::gather_into(
            graph,
            bm.assignment(),
            v,
            &mut arena.scratch,
            &mut arena.counts,
        );
        bm.apply_move(v, from, to, &arena.counts);
    }
}

/// Public building block for the codec property tests: deliver one decoded
/// delta to a replica exactly as the protocol does.
pub fn apply_delta(graph: &Graph, replica: &mut Blockmodel, moves: &[(Vertex, Block)]) {
    let mut arena = ProposalArena::default();
    apply_moves(graph, replica, moves, &mut arena);
}

/// Run exact distributed SBP: the shared golden-section search
/// ([`golden_section_search`]) with the MCMC phase executed as a
/// fault-tolerant distributed sweep over `cfg.num_shards` replicated
/// blockmodels.
///
/// Deterministic in `(graph, cfg)` — including the fault plan: every
/// drop/retransmit/resync decision is a pure function of the plan seed and
/// the message coordinates. Under the null plan with `sync_every = 1` the
/// returned labels are bit-identical to
/// `run_sbp(Variant::ExactAsync, exact_async_workers = num_shards)`.
pub fn run_exact_sbp(graph: &Graph, cfg: &ExactConfig) -> Result<ExactRun, HsbpError> {
    run_exact_sbp_budgeted(graph, cfg, &RunBudget::unlimited(), &CancelToken::new())
}

/// [`run_exact_sbp`] under a [`RunBudget`] and a [`CancelToken`], with the
/// same contract as [`hsbp_core::run_sbp_budgeted`]: the control is checked
/// at every evaluation, merge round and sync round, a tripped control
/// discards the in-flight evaluation, and the result is a prefix point of
/// the unlimited run's trajectory (`result.stats.stop_cause` says why it
/// stopped). A sweep budget is checked between sync rounds, so a round of
/// `sync_every` sweeps may run past it.
pub fn run_exact_sbp_budgeted(
    graph: &Graph,
    cfg: &ExactConfig,
    budget: &RunBudget,
    token: &CancelToken,
) -> Result<ExactRun, HsbpError> {
    cfg.validate().map_err(HsbpError::InvalidConfig)?;
    budget.validate().map_err(HsbpError::InvalidConfig)?;
    let n = graph.num_vertices();
    let mut cluster = Cluster::new(graph, cfg);
    let mut result = golden_section_search(
        graph,
        &cfg.sbp,
        ((0..n as Block).collect(), n),
        0,
        &RunControl::new(budget, token),
        RunStats::new(&cfg.sbp),
        &mut cluster,
    )?;
    let stats = &mut result.stats;
    stats.sync_retransmits = cluster.net.totals.retransmits;
    stats.sync_resyncs = cluster.net.totals.resyncs;
    stats.sync_bytes = cluster.net.totals.bytes;
    Ok(ExactRun {
        result,
        num_shards: cluster.num_shards(),
        rounds: cluster.rounds_log,
        net: cluster.net.totals,
        dead_shards: cluster.dead_log,
    })
}

//! The `bench_shard` harness: communication-vs-computation curves for the
//! exact distributed mode.
//!
//! Two row families on one seeded DCSBM graph:
//!
//! * **scaling** — shards × `sync_every` under the null fault plan: how
//!   bytes-on-wire per sync round and the comm/compute cost split move as
//!   the cluster grows and delta batching coarsens;
//! * **faults** — a fixed 4-shard cluster under each hostile plan (drop,
//!   reorder, corrupt, straggler): the traffic inflation recovery costs
//!   (retransmits, resyncs) and the NMI against the fault-free run —
//!   1.0 for every recoverable plan, by construction of the round barrier.
//!
//! Every run is a pure function of `(spec, plan)`; results land in
//! `BENCH_shard.json` (`schema_version` = [`BENCH_SHARD_SCHEMA_VERSION`]).

use hsbp_core::SbpConfig;
use hsbp_generator::{generate, DcsbmConfig};
use hsbp_graph::Graph;
use hsbp_metrics::nmi;
use hsbp_serve::json::{num_u, obj, Json};
use hsbp_shard::{run_exact_sbp, ExactConfig, NetFaultPlan};

/// Bump on any change to the JSON shape of [`ShardReport`].
pub const BENCH_SHARD_SCHEMA_VERSION: u32 = 1;

/// Shape of one benchmark graph.
#[derive(Debug, Clone, Copy)]
pub struct ShardBenchSpec {
    /// Stable name recorded in the report.
    pub name: &'static str,
    /// DCSBM vertex count.
    pub vertices: u32,
    /// Planted community count.
    pub communities: u32,
    /// Target edge count.
    pub edges: usize,
    /// Graph-sampling seed.
    pub graph_seed: u64,
    /// SBP seed shared by every run in the report.
    pub sbp_seed: u64,
}

/// Seconds-scale spec CI replays on every push.
pub const SMOKE: ShardBenchSpec = ShardBenchSpec {
    name: "smoke",
    vertices: 600,
    communities: 6,
    edges: 6000,
    graph_seed: 13,
    sbp_seed: 9,
};

/// The committed-baseline spec (minutes-scale on the bench host).
pub const FULL: ShardBenchSpec = ShardBenchSpec {
    name: "full",
    vertices: 2000,
    communities: 10,
    edges: 20_000,
    graph_seed: 29,
    sbp_seed: 9,
};

/// One measured exact-mode run.
#[derive(Debug, Clone)]
pub struct ShardRow {
    /// `scaling` or `faults`.
    pub family: &'static str,
    /// Row label (e.g. `s4_e1` or the fault-plan name).
    pub label: String,
    /// Shard count.
    pub shards: usize,
    /// Sweeps per sync round.
    pub sync_every: usize,
    /// The fault plan, in `NetFaultPlan::parse` syntax (empty = null plan).
    pub plan: String,
    /// Sync rounds completed.
    pub rounds: usize,
    /// Messages put on the emulated wire.
    pub messages: u64,
    /// Bytes put on the emulated wire.
    pub bytes: u64,
    /// Mean bytes per sync round.
    pub bytes_per_round: f64,
    /// Delta retransmits after NACKs.
    pub retransmits: u64,
    /// Gap NACKs sent.
    pub nacks: u64,
    /// Full-state coordinator resyncs.
    pub resyncs: u64,
    /// Simulated communication cost (per-message fixed + per-byte).
    pub comm_cost: f64,
    /// Simulated MCMC compute cost at `shards` virtual threads.
    pub compute_cost: f64,
    /// `comm_cost / (comm_cost + compute_cost)`.
    pub comm_fraction: f64,
    /// Final description length.
    pub mdl: f64,
    /// Final community count.
    pub num_blocks: usize,
    /// NMI against the fault-free run at the same shards/`sync_every`.
    pub nmi_vs_clean: f64,
    /// Shards declared dead during the run.
    pub dead_shards: usize,
}

/// The full report: spec + rows.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Which spec produced the rows.
    pub mode: String,
    /// Graph shape, echoed for the reader.
    pub vertices: u32,
    /// Edge count of the sampled graph (actual, not target).
    pub edges: usize,
    /// SBP seed shared by every run.
    pub seed: u64,
    /// The measured runs.
    pub rows: Vec<ShardRow>,
}

fn exact_cfg(
    spec: &ShardBenchSpec,
    shards: usize,
    sync_every: usize,
    plan: NetFaultPlan,
) -> ExactConfig {
    ExactConfig {
        num_shards: shards,
        sbp: SbpConfig {
            seed: spec.sbp_seed,
            ..Default::default()
        },
        sync_every,
        net_faults: plan,
        ..Default::default()
    }
}

#[allow(clippy::too_many_arguments)]
fn measure(
    graph: &Graph,
    spec: &ShardBenchSpec,
    family: &'static str,
    label: String,
    shards: usize,
    sync_every: usize,
    plan: NetFaultPlan,
    clean_assignment: &[u32],
) -> Result<ShardRow, String> {
    let plan_spec = if plan.is_null() {
        String::new()
    } else {
        plan.to_string()
    };
    let run = run_exact_sbp(graph, &exact_cfg(spec, shards, sync_every, plan))
        .map_err(|e| format!("{family}/{label}: {e}"))?;
    let net = &run.net;
    let compute_cost = run
        .result
        .stats
        .sim_mcmc_time(shards)
        .or_else(|| run.result.stats.sim_mcmc_time(1))
        .unwrap_or(0.0);
    let denom = net.comm_cost + compute_cost;
    Ok(ShardRow {
        family,
        label,
        shards,
        sync_every,
        plan: plan_spec,
        rounds: run.rounds.len(),
        messages: net.messages,
        bytes: net.bytes,
        bytes_per_round: net.bytes as f64 / run.rounds.len().max(1) as f64,
        retransmits: net.retransmits,
        nacks: net.nacks,
        resyncs: net.resyncs,
        comm_cost: net.comm_cost,
        compute_cost,
        comm_fraction: if denom > 0.0 {
            net.comm_cost / denom
        } else {
            0.0
        },
        mdl: run.result.mdl.total,
        num_blocks: run.result.num_blocks,
        nmi_vs_clean: nmi(clean_assignment, &run.result.assignment),
        dead_shards: run.dead_shards.len(),
    })
}

/// Shard counts of the scaling family.
const SCALING_SHARDS: &[usize] = &[2, 4, 8];
/// Delta-batching factors of the scaling family.
const SCALING_SYNC_EVERY: &[usize] = &[1, 2, 4];
/// Shard count the fault family runs at.
const FAULT_SHARDS: usize = 4;

/// Fault plans of the fault family, as `(name, spec)`.
pub fn fault_plans() -> Vec<(&'static str, String)> {
    vec![
        ("drop", "seed:5, drop:0.05".into()),
        ("reorder", "seed:7, reorder:0.25".into()),
        ("corrupt", "seed:8, corrupt:0.05".into()),
        ("straggler", format!("silent:{}@3", FAULT_SHARDS - 1)),
    ]
}

/// Run every row of the report for `spec`. Progress goes to stderr.
pub fn run_shard_bench(spec: &ShardBenchSpec) -> Result<ShardReport, String> {
    let data = generate(DcsbmConfig {
        num_vertices: spec.vertices as usize,
        num_communities: spec.communities as usize,
        target_num_edges: spec.edges,
        seed: spec.graph_seed,
        ..Default::default()
    });
    let graph = &data.graph;
    eprintln!(
        "spec {}: {} vertices, {} edges, {} planted communities",
        spec.name,
        graph.num_vertices(),
        graph.num_edges(),
        spec.communities
    );

    let mut rows = Vec::new();
    // Scaling family: clean reference per (shards, sync_every) is itself.
    let mut clean_at_fault_point: Option<Vec<u32>> = None;
    for &shards in SCALING_SHARDS {
        for &sync_every in SCALING_SYNC_EVERY {
            let label = format!("s{shards}_e{sync_every}");
            let run = run_exact_sbp(
                graph,
                &exact_cfg(spec, shards, sync_every, NetFaultPlan::none()),
            )
            .map_err(|e| format!("scaling/{label}: {e}"))?;
            let clean = run.result.assignment.clone();
            if shards == FAULT_SHARDS && sync_every == 1 {
                clean_at_fault_point = Some(clean.clone());
            }
            rows.push(measure(
                graph,
                spec,
                "scaling",
                label.clone(),
                shards,
                sync_every,
                NetFaultPlan::none(),
                &clean,
            )?);
            let row = match rows.last() {
                Some(r) => r,
                None => return Err("row vanished".into()),
            };
            eprintln!(
                "  scaling {label}: {} rounds, {} bytes ({:.0}/round), comm fraction {:.3}",
                row.rounds, row.bytes, row.bytes_per_round, row.comm_fraction
            );
        }
    }

    // Fault family, against the fault-free run at the same cluster shape.
    let clean = clean_at_fault_point.ok_or("scaling family skipped the fault point")?;
    for (name, plan_spec) in fault_plans() {
        let plan = NetFaultPlan::parse(&plan_spec).map_err(|e| format!("plan {name}: {e}"))?;
        let row = measure(
            graph,
            spec,
            "faults",
            name.to_string(),
            FAULT_SHARDS,
            1,
            plan,
            &clean,
        )?;
        eprintln!(
            "  fault {name}: {} retransmits, {} resyncs, {} dead, NMI vs clean {:.4}",
            row.retransmits, row.resyncs, row.dead_shards, row.nmi_vs_clean
        );
        rows.push(row);
    }

    Ok(ShardReport {
        mode: spec.name.to_string(),
        vertices: spec.vertices,
        edges: graph.num_edges(),
        seed: spec.sbp_seed,
        rows,
    })
}

impl ShardRow {
    fn to_json(&self) -> Json {
        obj(vec![
            ("family", Json::Str(self.family.into())),
            ("label", Json::Str(self.label.clone())),
            ("shards", num_u(self.shards as u64)),
            ("sync_every", num_u(self.sync_every as u64)),
            ("plan", Json::Str(self.plan.clone())),
            ("rounds", num_u(self.rounds as u64)),
            ("messages", num_u(self.messages)),
            ("bytes", num_u(self.bytes)),
            ("bytes_per_round", Json::Num(self.bytes_per_round)),
            ("retransmits", num_u(self.retransmits)),
            ("nacks", num_u(self.nacks)),
            ("resyncs", num_u(self.resyncs)),
            ("comm_cost", Json::Num(self.comm_cost)),
            ("compute_cost", Json::Num(self.compute_cost)),
            ("comm_fraction", Json::Num(self.comm_fraction)),
            ("mdl", Json::Num(self.mdl)),
            ("num_blocks", num_u(self.num_blocks as u64)),
            ("nmi_vs_clean", Json::Num(self.nmi_vs_clean)),
            ("dead_shards", num_u(self.dead_shards as u64)),
        ])
    }
}

impl ShardReport {
    /// Serialise to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        obj(vec![
            (
                "schema_version",
                num_u(u64::from(BENCH_SHARD_SCHEMA_VERSION)),
            ),
            (
                "sync_protocol_version",
                num_u(u64::from(hsbp_shard::SYNC_PROTOCOL_VERSION)),
            ),
            ("mode", Json::Str(self.mode.clone())),
            ("vertices", num_u(u64::from(self.vertices))),
            ("edges", num_u(self.edges as u64)),
            ("seed", num_u(self.seed)),
            (
                "rows",
                Json::Arr(self.rows.iter().map(ShardRow::to_json).collect()),
            ),
        ])
        .to_pretty()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use hsbp_serve::json::parse;

    #[test]
    fn fault_plans_parse() {
        for (name, spec) in fault_plans() {
            NetFaultPlan::parse(&spec).unwrap_or_else(|e| panic!("plan {name}: {e}"));
        }
    }

    #[test]
    fn report_serialises_with_schema_version() {
        let report = ShardReport {
            mode: "smoke".into(),
            vertices: 600,
            edges: 6000,
            seed: 9,
            rows: vec![ShardRow {
                family: "scaling",
                label: "s2_e1".into(),
                shards: 2,
                sync_every: 1,
                plan: String::new(),
                rounds: 10,
                messages: 20,
                bytes: 4000,
                bytes_per_round: 400.0,
                retransmits: 0,
                nacks: 0,
                resyncs: 0,
                comm_cost: 1.0,
                compute_cost: 3.0,
                comm_fraction: 0.25,
                mdl: 19000.5,
                num_blocks: 6,
                nmi_vs_clean: 1.0,
                dead_shards: 0,
            }],
        };
        let parsed = parse(&report.to_json()).unwrap();
        assert_eq!(
            parsed.get("schema_version").and_then(Json::as_u64),
            Some(u64::from(BENCH_SHARD_SCHEMA_VERSION))
        );
        let row = &parsed.get("rows").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(
            row.get("bytes_per_round").and_then(Json::as_f64),
            Some(400.0)
        );
        assert_eq!(row.get("nmi_vs_clean").and_then(Json::as_f64), Some(1.0));
    }
}

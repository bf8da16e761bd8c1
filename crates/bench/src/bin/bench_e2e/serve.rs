//! The `serve_churn` workload: a durable in-process daemon, one client on
//! one connection, closed loop, replaying the seeded churn script.

use crate::inputs::LINES_PER_ROUND;
use crate::workloads::{check, outcome, Ctx, Rep, SPAN_SUM_TOLERANCE};
use hsbp_blockmodel::Blockmodel;
use hsbp_core::SbpConfig;
use hsbp_graph::{Graph, GraphBuilder};
use hsbp_serve::json::{self, Json};
use hsbp_serve::{FsyncPolicy, ServeConfig, Server};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Snapshot cadence of the daemon, in applied batches.
const SNAPSHOT_EVERY: u64 = 32;

/// Client-side latency samples, pooled over every repetition.
#[derive(Default)]
pub struct Latencies {
    read_us: Vec<f64>,
    membership_us: Vec<f64>,
    mdl_us: Vec<f64>,
    block_stats_us: Vec<f64>,
    read_during_refine_us: Vec<f64>,
    read_after_refine_us: Vec<f64>,
    write_us: Vec<f64>,
    write_runqueue_us: Vec<f64>,
    write_cpu_us: Vec<f64>,
    flush_ms: Vec<f64>,
    freshness_ms: Vec<f64>,
}

impl Latencies {
    /// `(metric, samples, quantile)` of every latency percentile reported.
    pub fn percentiles(&self) -> [(&'static str, &[f64], f64); 14] {
        [
            ("serve.read_p50_us", &self.read_us, 0.5),
            ("serve.read_p99_us", &self.read_us, 0.99),
            ("serve.freshness_p50_ms", &self.freshness_ms, 0.5),
            ("serve.freshness_p90_ms", &self.freshness_ms, 0.9),
            ("serve.membership_p50_us", &self.membership_us, 0.5),
            ("serve.mdl_p50_us", &self.mdl_us, 0.5),
            ("serve.block_stats_p50_us", &self.block_stats_us, 0.5),
            (
                "serve.read_during_refine_p50_us",
                &self.read_during_refine_us,
                0.5,
            ),
            (
                "serve.read_after_refine_p50_us",
                &self.read_after_refine_us,
                0.5,
            ),
            ("serve.write_p50_us", &self.write_us, 0.5),
            ("serve.write_p99_us", &self.write_us, 0.99),
            ("serve.write_runqueue_p50_us", &self.write_runqueue_us, 0.5),
            ("serve.write_cpu_p50_us", &self.write_cpu_us, 0.5),
            ("serve.flush_wait_p50_ms", &self.flush_ms, 0.5),
        ]
    }
}

/// One line-protocol connection with one request in flight.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: Vec<u8>,
    line: String,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            out: Vec::new(),
            line: String::new(),
        })
    }

    /// Send one request line and decode the response line.
    fn request(&mut self, req: &str) -> Result<Json, String> {
        self.out.clear();
        self.out.extend_from_slice(req.as_bytes());
        self.out.push(b'\n');
        self.writer
            .write_all(&self.out)
            .map_err(|e| format!("send: {e}"))?;
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) => json::parse(self.line.trim_end()).map_err(|e| format!("bad response: {e}")),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// Runqueue wait and CPU time, in nanoseconds, summed over every thread
/// of this process, daemon threads included (`/proc/self/task/*/schedstat`).
fn sched_totals() -> (u64, u64) {
    let (mut wait, mut cpu) = (0, 0);
    for task in std::fs::read_dir("/proc/self/task")
        .into_iter()
        .flatten()
        .flatten()
    {
        let Ok(stat) = std::fs::read_to_string(task.path().join("schedstat")) else {
            continue;
        };
        let mut fields = stat
            .split_whitespace()
            .map(|f| f.parse::<u64>().unwrap_or(0));
        cpu += fields.next().unwrap_or(0);
        wait += fields.next().unwrap_or(0);
    }
    (wait, cpu)
}

fn ok(resp: &Json) -> bool {
    resp.get("ok").and_then(Json::as_bool) == Some(true)
}

fn field(resp: &Json, key: &str) -> u64 {
    resp.get(key).and_then(Json::as_u64).unwrap_or(0)
}

/// The benchmark's own copy of the daemon's graph: an add raises the edge
/// weight by the added weight, a remove deletes the whole edge.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Mirror {
    n: usize,
    edges: BTreeMap<(u32, u32), u64>,
}

impl Mirror {
    pub fn new(graph: &Graph) -> Mirror {
        let mut edges = BTreeMap::new();
        for (u, v, w) in graph.edges() {
            *edges.entry((u, v)).or_insert(0) += w;
        }
        Mirror {
            n: graph.num_vertices(),
            edges,
        }
    }

    /// Apply one `add_edges` / `remove_edges` request; other ops are
    /// ignored.
    pub fn apply(&mut self, req: &Json) {
        let op = req.get("op").and_then(Json::as_str).unwrap_or("");
        let edges = req.get("edges").and_then(Json::as_arr).unwrap_or(&[]);
        for e in edges {
            let part = |i: usize| e.as_arr().and_then(|p| p.get(i)).and_then(Json::as_u64);
            let (Some(u), Some(v)) = (part(0), part(1)) else {
                continue;
            };
            let key = (u as u32, v as u32);
            match op {
                "add_edges" => *self.edges.entry(key).or_insert(0) += part(2).unwrap_or(1),
                "remove_edges" => {
                    self.edges.remove(&key);
                }
                _ => {}
            }
            self.n = self.n.max(u as usize + 1).max(v as usize + 1);
        }
    }

    pub fn graph(&self) -> Graph {
        let mut b = GraphBuilder::with_capacity(self.n, self.edges.len());
        for (&(u, v), &w) in &self.edges {
            b.add_edge_weighted(u, v, w);
        }
        b.build()
    }

    /// Normalized MDL of `assignment` (with `num_blocks` blocks) on the
    /// mirrored graph.
    pub fn normalized_mdl(&self, assignment: Vec<u32>, num_blocks: usize) -> f64 {
        let g = self.graph();
        let bm = Blockmodel::from_assignment(&g, assignment, num_blocks.max(1));
        hsbp_metrics::mdl_norm::normalized_mdl_of(&g, &bm)
    }
}

/// Spawn a daemon on instance `i`'s graph with a fresh state directory,
/// replay the churn script against it, check it and stop it.
pub fn instance(
    ctx: &mut Ctx<'_>,
    rep: &mut Rep,
    trace: u64,
    parent: u64,
    i: usize,
    graph: Graph,
    sbp: SbpConfig,
) -> Result<(), String> {
    let state_dir = ctx.dir.join(format!("state-{i}"));
    let _ = std::fs::remove_dir_all(&state_dir);
    let mut mirror = Mirror::new(&graph);
    let n = graph.num_vertices();
    let cfg = ServeConfig {
        sbp,
        state_dir: Some(state_dir.clone()),
        fsync: FsyncPolicy::Always,
        snapshot_every: SNAPSHOT_EVERY,
        ..ServeConfig::default()
    };
    let span = ctx.tracer.start(trace, parent, "serve.spawn");
    rep.attempted += 1;
    let handle = Server::spawn(cfg, graph);
    rep.add("serve.spawn_s", ctx.tracer.end(span));
    let handle = handle.map_err(|e| format!("Server::spawn: {e}"))?;
    let result = churn(
        ctx,
        rep,
        &mut mirror,
        handle.local_addr(),
        trace,
        parent,
        i,
        n,
    );
    handle.shutdown();
    handle.join();
    let _ = std::fs::remove_dir_all(&state_dir);
    result
}

/// The timed session, then the untimed final reads and checks.
#[allow(clippy::too_many_arguments)]
fn churn(
    ctx: &mut Ctx<'_>,
    rep: &mut Rep,
    mirror: &mut Mirror,
    addr: SocketAddr,
    trace: u64,
    parent: u64,
    i: usize,
    n: usize,
) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let requests = std::mem::take(&mut ctx.instances[i].requests);
    let session = ctx.tracer.start(trace, parent, "serve.session");
    let (mut busy, mut mid_refinement, mut round_ns, mut child_ns) = (0u64, 0u64, 0u64, 0u64);
    let mut outcome_err = None;
    'rounds: for (round, lines) in requests.chunks(LINES_PER_ROUND).enumerate() {
        // Each round is its own trace, under the repetition's.
        let trace = (trace << 32) | (round as u64 + 1);
        let round_span = ctx.tracer.start(trace, session.id(), "serve.round");
        let mut epochs: Vec<(u64, f64)> = Vec::with_capacity(lines.len());
        let mut settled = 0;
        for (k, line) in lines.iter().enumerate() {
            let name = match k {
                0 => "serve.write",
                _ if k + 1 == lines.len() => "serve.flush",
                _ => match k % 3 {
                    1 => "serve.membership",
                    2 => "serve.mdl",
                    _ => "serve.block_stats",
                },
            };
            // Traced: bracket each write with the process's scheduler
            // totals, to split its ack time into CPU work, runqueue wait
            // and the rest (blocking, such as the WAL's fsync).
            let probe = rep.traced && k == 0;
            let before = if probe {
                let span = ctx.tracer.start(trace, round_span.id(), "trace.schedstat");
                let totals = sched_totals();
                child_ns += (ctx.tracer.end(span) * 1e9) as u64;
                totals
            } else {
                (0, 0)
            };
            let span = ctx.tracer.start(trace, round_span.id(), name);
            rep.attempted += 1;
            let resp = client.request(line);
            let secs = ctx.tracer.end(span);
            child_ns += (secs * 1e9) as u64;
            if probe {
                let span = ctx.tracer.start(trace, round_span.id(), "trace.schedstat");
                let after = sched_totals();
                child_ns += (ctx.tracer.end(span) * 1e9) as u64;
                ctx.lat
                    .write_runqueue_us
                    .push(after.0.saturating_sub(before.0) as f64 / 1e3);
                ctx.lat
                    .write_cpu_us
                    .push(after.1.saturating_sub(before.1) as f64 / 1e3);
            }
            let resp = match resp {
                Ok(r) => r,
                Err(e) => {
                    outcome_err = Some(e);
                    break 'rounds;
                }
            };
            if !ok(&resp) {
                rep.failed += 1;
                let kind = resp
                    .get("error")
                    .and_then(|e| e.get("kind"))
                    .and_then(Json::as_str);
                busy += u64::from(kind == Some("busy"));
                continue;
            }
            let us = secs * 1e6;
            match name {
                "serve.write" => {
                    ctx.lat.write_us.push(us);
                    if let Ok(req) = json::parse(line) {
                        mirror.apply(&req);
                    }
                }
                "serve.flush" => {
                    ctx.lat.flush_ms.push(us / 1e3);
                    settled = field(&resp, "epoch");
                }
                _ => {
                    ctx.lat.read_us.push(us);
                    epochs.push((field(&resp, "epoch"), us));
                    match name {
                        "serve.membership" => ctx.lat.membership_us.push(us),
                        "serve.mdl" => ctx.lat.mdl_us.push(us),
                        _ => ctx.lat.block_stats_us.push(us),
                    }
                }
            }
        }
        // Freshness: from sending the write until the flush after it
        // returns; traced rounds also hold the probes, so they are left out.
        let round_secs = ctx.tracer.end(round_span);
        if !rep.traced {
            ctx.lat.freshness_ms.push(round_secs * 1e3);
        }
        round_ns += (round_secs * 1e9) as u64;
        // A read answered from an epoch older than the one the flush
        // settled on was served while this round's refinement ran.
        for (epoch, us) in epochs {
            if epoch < settled {
                mid_refinement += 1;
                ctx.lat.read_during_refine_us.push(us);
            } else {
                ctx.lat.read_after_refine_us.push(us);
            }
        }
    }
    rep.solve_s += ctx.tracer.end(session);
    ctx.instances[i].requests = requests;
    if let Some(e) = outcome_err {
        return Err(e);
    }
    if rep.traced {
        let covered = child_ns as f64 / round_ns.max(1) as f64;
        rep.checks.push(check(
            "request spans match rounds",
            (1.0 - covered).abs() <= SPAN_SUM_TOLERANCE,
            format!(
                "requests and probes cover {:.2}% of round time",
                covered * 100.0
            ),
        ));
    }

    let status = client.request("{\"op\":\"status\"}")?;
    let mdl = client.request("{\"op\":\"mdl\"}")?;
    let ids: Vec<String> = (0..n).map(|v| v.to_string()).collect();
    let members = client.request(&format!(
        "{{\"op\":\"membership\",\"vertices\":[{}]}}",
        ids.join(",")
    ))?;
    let assignment: Vec<u32> = members
        .get("blocks")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|b| b.as_u64().map(|b| b as u32))
        .collect();
    if !(ok(&status) && ok(&mdl) && ok(&members) && assignment.len() == n) {
        return Err("final status/mdl/membership reads failed".into());
    }
    let (enqueued, applied) = (
        field(&status, "seq_enqueued"),
        field(&status, "seq_applied"),
    );
    let refine_errors = field(&status, "refine_errors");
    rep.checks.push(check(
        "all writes applied",
        enqueued == applied,
        format!("seq_enqueued {enqueued}, seq_applied {applied}"),
    ));
    rep.checks.push(check(
        "no refine errors",
        refine_errors == 0,
        format!("{refine_errors} refine error(s)"),
    ));
    let daemon_norm = mdl
        .get("normalized_mdl")
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN);
    let num_blocks = field(&mdl, "num_blocks") as usize;
    let mirror_norm = mirror.normalized_mdl(assignment.clone(), num_blocks);
    let rel = ((daemon_norm - mirror_norm) / mirror_norm).abs();
    rep.checks.push(check(
        "daemon mdl matches mirror",
        rel <= 1e-9,
        format!("daemon {daemon_norm} vs mirror {mirror_norm} (relative error {rel:.2e})"),
    ));
    let mdl_total = mdl.get("mdl").and_then(Json::as_f64).unwrap_or(f64::NAN);
    outcome(ctx, rep, trace, parent, i, &assignment, mdl_total);
    rep.mdl_norm.push(daemon_norm);
    for (name, value) in [
        ("serve.mid_refinement_reads", mid_refinement),
        ("serve.wal_bytes", field(&status, "wal_bytes")),
        // The epoch-0 snapshot, then one per `SNAPSHOT_EVERY` applied
        // batches up to the last one the daemon reports persisted.
        (
            "serve.snapshots",
            1 + field(&status, "last_snapshot_seq") / SNAPSHOT_EVERY,
        ),
        ("serve.refines", field(&status, "refines")),
        ("serve.cancellations", field(&status, "cancellations")),
        ("serve.refine_errors", refine_errors),
        ("serve.busy", busy),
    ] {
        rep.add(name, value as f64);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::sbp_config;
    use hsbp_core::Variant;
    use hsbp_serve::{EvolvingGraph, Mutation};

    /// The mirror must follow the daemon's own graph semantics: replay the
    /// same requests through `EvolvingGraph` and compare.
    #[test]
    fn mirror_matches_evolving_graph() {
        let base = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (3, 4)]);
        let lines = [
            r#"{"op":"add_edges","edges":[[0,1,2],[4,3],[1,3,3]]}"#,
            r#"{"op":"add_edges","edges":[[0,1,1]]}"#,
            r#"{"op":"remove_edges","edges":[[0,1],[2,4]]}"#,
            r#"{"op":"add_edges","edges":[[0,1,5],[2,0,1]]}"#,
        ];
        let mut mirror = Mirror::new(&base);
        let mut egraph = EvolvingGraph::from_graph(&base);
        let mut dirty = Vec::new();
        for line in lines {
            let req = json::parse(line).unwrap();
            mirror.apply(&req);
            // The same request as the daemon's protocol layer decodes it.
            let add = req.get("op").and_then(Json::as_str) == Some("add_edges");
            for e in req.get("edges").and_then(Json::as_arr).unwrap() {
                let p: Vec<u64> = e
                    .as_arr()
                    .unwrap()
                    .iter()
                    .map(|x| x.as_u64().unwrap())
                    .collect();
                let (from, to) = (p[0] as u32, p[1] as u32);
                let m = if add {
                    Mutation::AddEdge {
                        from,
                        to,
                        weight: p.get(2).copied().unwrap_or(1),
                    }
                } else {
                    Mutation::RemoveEdge { from, to }
                };
                egraph.apply(&m, &mut dirty);
            }
        }
        let a: Vec<_> = mirror.graph().edges().collect();
        let b: Vec<_> = egraph.build_csr().edges().collect();
        assert_eq!(a, b);
        assert!(a.contains(&(0, 1, 5)), "remove dropped the whole edge");
        assert!(a.contains(&(2, 0, 2)), "add raised the weight");
    }

    /// End to end on a tiny daemon: the normalized MDL it reports after a
    /// few writes equals the mirror's recomputation.
    #[test]
    fn mirror_reproduces_a_tiny_daemon() {
        let base = Graph::from_edges(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 0),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 4),
                (0, 4),
            ],
        );
        let mut mirror = Mirror::new(&base);
        let cfg = ServeConfig {
            sbp: sbp_config(1, Variant::Metropolis, 1),
            ..ServeConfig::default()
        };
        let handle = Server::spawn(cfg, base).unwrap();
        let mut client = Client::connect(handle.local_addr()).unwrap();
        for line in [
            r#"{"op":"add_edges","edges":[[0,2,2],[5,7,1],[1,2,1]]}"#,
            r#"{"op":"remove_edges","edges":[[0,4]]}"#,
        ] {
            assert!(ok(&client.request(line).unwrap()));
            mirror.apply(&json::parse(line).unwrap());
            assert!(ok(&client.request("{\"op\":\"flush\"}").unwrap()));
        }
        let mdl = client.request("{\"op\":\"mdl\"}").unwrap();
        let members = client
            .request("{\"op\":\"membership\",\"vertices\":[0,1,2,3,4,5,6,7]}")
            .unwrap();
        let assignment: Vec<u32> = members
            .get("blocks")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|b| b.as_u64().unwrap() as u32)
            .collect();
        let daemon = mdl.get("normalized_mdl").and_then(Json::as_f64).unwrap();
        let ours = mirror.normalized_mdl(assignment, field(&mdl, "num_blocks") as usize);
        drop(client);
        handle.shutdown();
        handle.join();
        assert!(((daemon - ours) / ours).abs() <= 1e-9, "{daemon} vs {ours}");
    }
}

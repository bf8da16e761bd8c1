//! The workloads and their seeded inputs.
//!
//! Every input is a pure function of `(workload, seed)`: a Matrix Market
//! graph, its planted partition, and for `serve_churn` the literal protocol
//! lines a client sends. The workload process reads them from files, so the
//! code under test receives only the generated inputs.

use hsbp_core::Variant;
use hsbp_generator::{generate, table2_by_id, DcsbmConfig};
use hsbp_shard::channel::checksum;
use std::path::{Path, PathBuf};

/// How a workload drives the system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Engine {
    /// `load_path` then `run_sbp_checked`: the `hsbp detect` path.
    Detect { variant: Variant, threads: usize },
    /// A durable in-process daemon fed the churn script over TCP.
    Serve { threads: usize },
    /// `load_path` then `run_exact_sbp` over replicated blockmodels.
    Shard { shards: usize, threads: usize },
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub engine: Engine,
    /// Independent input graphs solved, one after another, in every
    /// repetition. Several small graphs instead of one large one average
    /// out how much work a single seed happens to need.
    pub instances: usize,
    /// Lowest NMI against the planted partition that passes, per instance:
    /// a margin below the lowest value measured (detect and shard over 100
    /// to 160 instances, serve over 40), so every seed is expected to pass
    /// while a broken solver still fails.
    pub nmi_floor: f64,
    graph: fn(u64) -> DcsbmConfig,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "detect_dcsbm",
        engine: Engine::Detect {
            variant: Variant::Hybrid,
            threads: 2,
        },
        instances: 4,
        nmi_floor: 0.9,
        graph: |seed| DcsbmConfig {
            num_vertices: 1000,
            num_communities: 8,
            target_num_edges: 10_000,
            within_between_ratio: 2.5,
            seed,
            ..Default::default()
        },
    },
    Workload {
        name: "detect_web_serial",
        engine: Engine::Detect {
            variant: Variant::Metropolis,
            threads: 1,
        },
        instances: 4,
        nmi_floor: 0.8,
        graph: |seed| match table2_by_id("web-BerkStan") {
            Some(spec) => DcsbmConfig {
                seed,
                ..spec.config(1.0 / 1024.0)
            },
            None => unreachable!("web-BerkStan is in the Table 2 catalog"),
        },
    },
    Workload {
        name: "serve_churn",
        engine: Engine::Serve { threads: 2 },
        // One graph, so a run holds about six repetitions: serve times
        // vary more from one repetition to the next than detect times.
        instances: 1,
        nmi_floor: 0.9,
        graph: |seed| DcsbmConfig {
            num_vertices: 1000,
            num_communities: 8,
            target_num_edges: 10_000,
            within_between_ratio: 2.5,
            seed,
            ..Default::default()
        },
    },
    Workload {
        name: "shard_exact_4",
        engine: Engine::Shard {
            shards: 4,
            threads: 2,
        },
        instances: 4,
        nmi_floor: 0.9,
        graph: |seed| DcsbmConfig {
            num_vertices: 600,
            num_communities: 6,
            target_num_edges: 6000,
            within_between_ratio: 3.0,
            seed,
            ..Default::default()
        },
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Serve churn script shape: each round is one mutation line, then
/// `READS_PER_ROUND` reads, then one `flush`.
pub const ROUNDS: usize = 300;
pub const READS_PER_ROUND: usize = 30;
pub const LINES_PER_ROUND: usize = READS_PER_ROUND + 2;
const ADDS_PER_WRITE: usize = 100;
const REMOVES_PER_WRITE: usize = 50;
/// Every this many rounds the mutation removes edges instead of adding.
const REMOVE_EVERY: usize = 4;
/// Percent of added edges that stay inside the source's planted group.
const INTRA_PERCENT: u64 = 85;

/// splitmix64: the benchmark's own generator for everything it derives
/// from the seed, so its inputs do not move with the library's RNGs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Stream `stream` of input instance `instance` of the benchmark seed:
/// stream 1 is the graph, 2 the algorithm seed, 3 the serve script.
pub fn derive(seed: u64, instance: usize, stream: u64) -> u64 {
    let key = stream + 16 * instance as u64;
    Rng::new(seed ^ key.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// One input instance: the graph as Matrix Market bytes, its planted
/// partition, and for serve the protocol lines, `LINES_PER_ROUND` per
/// round.
pub struct Inputs {
    pub mtx: Vec<u8>,
    pub truth: Vec<u32>,
    pub requests: Vec<String>,
}

impl Inputs {
    pub fn generate(w: &Workload, seed: u64, instance: usize) -> Inputs {
        let data = generate((w.graph)(derive(seed, instance, 1)));
        let mut mtx = Vec::new();
        if let Err(e) = hsbp_graph::io::write_matrix_market(&data.graph, &mut mtx) {
            unreachable!("writing to memory cannot fail: {e}");
        }
        let requests = match w.engine {
            Engine::Serve { .. } => churn_script(&data.ground_truth, derive(seed, instance, 3)),
            _ => Vec::new(),
        };
        Inputs {
            mtx,
            truth: data.ground_truth,
            requests,
        }
    }

    /// FNV-1a over everything the instance holds.
    pub fn fingerprint(&self) -> u64 {
        let mut bytes = self.mtx.clone();
        for t in &self.truth {
            bytes.extend_from_slice(&t.to_le_bytes());
        }
        for line in &self.requests {
            bytes.extend_from_slice(line.as_bytes());
            bytes.push(b'\n');
        }
        checksum(&bytes)
    }

    pub fn write(&self, dir: &Path, instance: usize) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(input_path(dir, instance, GRAPH_FILE), &self.mtx)?;
        let truth: String = self.truth.iter().map(|t| format!("{t}\n")).collect();
        std::fs::write(input_path(dir, instance, TRUTH_FILE), truth)?;
        let requests: String = self.requests.iter().map(|l| format!("{l}\n")).collect();
        std::fs::write(input_path(dir, instance, REQUESTS_FILE), requests)
    }
}

pub const GRAPH_FILE: &str = "graph.mtx";
pub const TRUTH_FILE: &str = "truth.txt";
pub const REQUESTS_FILE: &str = "requests.txt";

/// Where instance `instance`'s `file` lives in the input directory.
pub fn input_path(dir: &Path, instance: usize, file: &str) -> PathBuf {
    dir.join(format!("{instance}-{file}"))
}

/// The serve churn script over a graph with planted groups `truth`.
fn churn_script(truth: &[u32], seed: u64) -> Vec<String> {
    let n = truth.len() as u64;
    let groups = truth.iter().copied().max().map_or(0, |m| m as usize + 1);
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); groups];
    for (v, &g) in truth.iter().enumerate() {
        members[g as usize].push(v as u32);
    }
    let mut rng = Rng::new(seed);
    // Added edges still present, in insertion order (duplicates allowed:
    // removing one removes the whole edge, the other becomes a no-op).
    let mut live: Vec<(u32, u32)> = Vec::new();
    let mut lines = Vec::with_capacity(ROUNDS * LINES_PER_ROUND);
    for round in 0..ROUNDS {
        if round % REMOVE_EVERY == REMOVE_EVERY - 1 {
            let edges: Vec<String> = (0..REMOVES_PER_WRITE)
                .map(|_| {
                    let (u, v) = live.swap_remove(rng.below(live.len() as u64) as usize);
                    format!("[{u},{v}]")
                })
                .collect();
            lines.push(format!(
                "{{\"op\":\"remove_edges\",\"edges\":[{}]}}",
                edges.join(",")
            ));
        } else {
            let mut edges = Vec::with_capacity(ADDS_PER_WRITE);
            while edges.len() < ADDS_PER_WRITE {
                let u = rng.below(n) as u32;
                let v = if rng.below(100) < INTRA_PERCENT {
                    let group = &members[truth[u as usize] as usize];
                    group[rng.below(group.len() as u64) as usize]
                } else {
                    rng.below(n) as u32
                };
                if u == v {
                    continue;
                }
                let w = 1 + rng.below(3);
                live.push((u, v));
                edges.push(format!("[{u},{v},{w}]"));
            }
            lines.push(format!(
                "{{\"op\":\"add_edges\",\"edges\":[{}]}}",
                edges.join(",")
            ));
        }
        for r in 0..READS_PER_ROUND {
            lines.push(match r % 3 {
                0 => {
                    let ids: Vec<String> = (0..8).map(|_| rng.below(n).to_string()).collect();
                    format!("{{\"op\":\"membership\",\"vertices\":[{}]}}", ids.join(","))
                }
                1 => "{\"op\":\"mdl\"}".to_string(),
                _ => "{\"op\":\"block_stats\"}".to_string(),
            });
        }
        lines.push("{\"op\":\"flush\"}".to_string());
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_deterministic_in_the_seed() {
        for w in &WORKLOADS {
            let fp = |seed, instance| Inputs::generate(w, seed, instance).fingerprint();
            assert_eq!(fp(7, 0), fp(7, 0), "{}", w.name);
            assert_ne!(
                fp(7, 0),
                fp(8, 0),
                "{}: the seed changes the inputs",
                w.name
            );
            assert_ne!(fp(7, 0), fp(7, 1), "{}: instances differ", w.name);
        }
    }

    #[test]
    fn churn_script_has_the_documented_shape() {
        let truth: Vec<u32> = (0..400).map(|v| v % 4).collect();
        let lines = churn_script(&truth, 3);
        assert_eq!(lines.len(), ROUNDS * LINES_PER_ROUND);
        assert_eq!(lines, churn_script(&truth, 3));
        for (round, chunk) in lines.chunks(LINES_PER_ROUND).enumerate() {
            let op = if round % REMOVE_EVERY == REMOVE_EVERY - 1 {
                "remove_edges"
            } else {
                "add_edges"
            };
            assert!(chunk[0].contains(op), "round {round}: {}", chunk[0]);
            assert_eq!(chunk[LINES_PER_ROUND - 1], "{\"op\":\"flush\"}");
            for line in chunk {
                hsbp_serve::json::parse(line).unwrap();
            }
        }
    }
}

//! Snapshot persistence and warm restart for the daemon.
//!
//! A serve state directory follows the PR 2 checkpoint run-dir pattern —
//! plain text files, written to a temporary sibling and atomically renamed
//! into place, with a `meta.txt` pinning the run identity:
//!
//! ```text
//! state-dir/
//!   meta.txt       "hsbp-serve-state v1" + seed + variant
//!   snapshot.txt   the last persisted Snapshot (graph + assignment +
//!                  epoch + applied sequence), atomically renamed
//!   wal.log        the mutation WAL tail since that snapshot
//! ```
//!
//! Warm restart ([`StateDir::recover`]) loads the snapshot, then replays
//! the WAL records with `seq > applied_seq` — strictly in increasing
//! sequence order, so replaying the same log twice (or a log that still
//! holds records a snapshot already covers) is idempotent: duplicates are
//! skipped by sequence, never re-applied. A torn final WAL record is
//! detected by [`crate::wal::replay`] and dropped whole.

use crate::state::{EvolvingGraph, Mutation, Snapshot};
use crate::wal;
use hsbp_blockmodel::Block;
use hsbp_core::{write_atomic, HsbpError, SbpConfig};
use hsbp_graph::{Vertex, Weight};
use std::io::Write;
use std::path::{Path, PathBuf};

const META_FILE: &str = "meta.txt";
const SNAPSHOT_FILE: &str = "snapshot.txt";
const WAL_FILE: &str = "wal.log";
const FORMAT_HEADER: &str = "hsbp-serve-state v1";

/// The snapshot state loaded back from disk.
#[derive(Debug)]
pub struct PersistedSnapshot {
    /// Publication epoch the snapshot carried.
    pub epoch: u64,
    /// Mutation sequence the snapshot covers.
    pub applied_seq: u64,
    /// The mutable graph twin rebuilt from the stored edges.
    pub egraph: EvolvingGraph,
    /// Stored community labels (compacted).
    pub assignment: Vec<Block>,
    /// Stored occupied community count.
    pub num_blocks: usize,
}

/// Everything a warm restart needs: the persisted snapshot state plus the
/// WAL tail still to be replayed through refinement.
#[derive(Debug)]
pub struct Recovery {
    /// The snapshot state (graph twin, labels, epoch, sequence).
    pub snapshot: PersistedSnapshot,
    /// WAL records with `seq > applied_seq`, strictly increasing, ready to
    /// re-apply one refinement round each.
    pub tail: Vec<(u64, Vec<Mutation>)>,
    /// True when a torn final WAL record was detected and dropped.
    pub torn_tail_dropped: bool,
    /// Byte offset of the last good WAL record (where appends resume).
    pub wal_good_bytes: u64,
    /// WAL records skipped because a snapshot already covered their
    /// sequence (or the sequence was out of order) — the idempotence guard.
    pub skipped_duplicates: usize,
}

/// A serve state directory (layout in the module docs).
#[derive(Debug)]
pub struct StateDir {
    dir: PathBuf,
}

fn meta_content(cfg: &SbpConfig) -> String {
    format!(
        "{FORMAT_HEADER}\nseed {}\nvariant {}\n",
        cfg.seed,
        cfg.variant.name()
    )
}

impl StateDir {
    /// Open `dir` as a serve state directory for `cfg`, creating and
    /// initialising it when empty or absent. An existing directory must
    /// carry a matching `meta.txt`: warm-starting a partition refined
    /// under a different seed or variant would silently break the
    /// recovery-determinism guarantee, so a mismatch is refused.
    pub fn open_or_create(dir: impl Into<PathBuf>, cfg: &SbpConfig) -> Result<Self, HsbpError> {
        let dir = dir.into();
        let meta_path = dir.join(META_FILE);
        let expected = meta_content(cfg);
        if meta_path.exists() {
            let found = std::fs::read_to_string(&meta_path)
                .map_err(|e| HsbpError::checkpoint(&meta_path, format!("read: {e}")))?;
            if found != expected {
                return Err(HsbpError::checkpoint(
                    &meta_path,
                    "state identity mismatch (different seed or variant); \
                     refusing to warm-start",
                ));
            }
        } else {
            std::fs::create_dir_all(&dir)
                .map_err(|e| HsbpError::checkpoint(&dir, format!("create: {e}")))?;
            write_atomic(&meta_path, &expected)?;
        }
        Ok(Self { dir })
    }

    /// The state directory path.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the WAL file inside the directory.
    pub fn wal_path(&self) -> PathBuf {
        self.dir.join(WAL_FILE)
    }

    /// Path of the snapshot file inside the directory.
    pub fn snapshot_path(&self) -> PathBuf {
        self.dir.join(SNAPSHOT_FILE)
    }

    /// Serialise `snapshot` and atomically rename it into place.
    /// `before_rename` is the fault-injection hook: it runs after the
    /// temporary file is fully written but before the rename. Returning
    /// `false` simulates a crash at that point — the rename is skipped and
    /// the previous snapshot must stay intact (pass `|| true` normally).
    pub fn save_snapshot(
        &self,
        snapshot: &Snapshot,
        before_rename: impl FnOnce() -> bool,
    ) -> Result<(), HsbpError> {
        let path = self.snapshot_path();
        let mut content = String::new();
        content.push_str("hsbp-serve-snapshot v1\n");
        content.push_str(&format!("epoch {}\n", snapshot.epoch));
        content.push_str(&format!("applied_seq {}\n", snapshot.applied_seq));
        content.push_str(&format!(
            "vertices {}\nnum_blocks {}\n",
            snapshot.graph.num_vertices(),
            snapshot.num_blocks
        ));
        content.push_str("assignment");
        for b in snapshot.assignment.iter() {
            content.push(' ');
            content.push_str(&b.to_string());
        }
        content.push('\n');
        let edges: Vec<(Vertex, Vertex, Weight)> = snapshot.graph.edges().collect();
        content.push_str(&format!("edges {}\n", edges.len()));
        for (u, v, w) in edges {
            content.push_str(&format!("{u} {v} {w}\n"));
        }

        let tmp = path.with_extension("tmp");
        let mut file = std::fs::File::create(&tmp)
            .map_err(|e| HsbpError::checkpoint(&tmp, format!("create: {e}")))?;
        file.write_all(content.as_bytes())
            .and_then(|()| file.sync_all())
            .map_err(|e| HsbpError::checkpoint(&tmp, format!("write: {e}")))?;
        drop(file);
        if !before_rename() {
            return Ok(()); // injected crash: the rename never happens
        }
        std::fs::rename(&tmp, &path)
            .map_err(|e| HsbpError::checkpoint(&path, format!("rename: {e}")))
    }

    /// Load the persisted snapshot, or `None` when the directory has never
    /// snapshotted (fresh start). Malformed files are a hard error — the
    /// atomic rename means a torn snapshot can only be operator damage.
    pub fn load_snapshot(&self) -> Result<Option<PersistedSnapshot>, HsbpError> {
        let path = self.snapshot_path();
        if !path.exists() {
            return Ok(None);
        }
        let text = std::fs::read_to_string(&path)
            .map_err(|e| HsbpError::checkpoint(&path, format!("read: {e}")))?;
        let bad = |what: &str| HsbpError::checkpoint(&path, format!("malformed snapshot: {what}"));
        let mut lines = text.lines();
        if lines.next() != Some("hsbp-serve-snapshot v1") {
            return Err(bad("missing header"));
        }
        let mut kv_u64 = |key: &str| -> Result<u64, HsbpError> {
            let line = lines.next().ok_or_else(|| bad(&format!("missing {key}")))?;
            match line.split_once(' ') {
                Some((k, v)) if k == key => v.parse().map_err(|_| bad(&format!("bad {key}"))),
                _ => Err(bad(&format!("expected `{key} <value>`"))),
            }
        };
        let epoch = kv_u64("epoch")?;
        let applied_seq = kv_u64("applied_seq")?;
        let vertices = kv_u64("vertices")? as usize;
        let num_blocks = kv_u64("num_blocks")? as usize;

        let assign_line = lines.next().ok_or_else(|| bad("missing assignment"))?;
        let mut toks = assign_line.split_whitespace();
        if toks.next() != Some("assignment") {
            return Err(bad("expected `assignment` line"));
        }
        let assignment: Vec<Block> = toks
            .map(|t| t.parse().map_err(|_| bad("bad block id")))
            .collect::<Result<_, _>>()?;
        if assignment.len() != vertices {
            return Err(bad(&format!(
                "assignment covers {} vertices, header says {vertices}",
                assignment.len()
            )));
        }
        if vertices > 0
            && assignment
                .iter()
                .any(|&b| (b as usize) >= num_blocks.max(1))
        {
            return Err(bad("block id out of range"));
        }

        let edge_header = lines.next().ok_or_else(|| bad("missing edges header"))?;
        let num_edges: usize = match edge_header.split_once(' ') {
            Some(("edges", v)) => v.parse().map_err(|_| bad("bad edge count"))?,
            _ => return Err(bad("expected `edges <count>`")),
        };
        let mut egraph = EvolvingGraph::with_vertices(vertices);
        let mut seen = 0usize;
        let mut dirty = Vec::new();
        for line in lines {
            let mut parts = line.split_whitespace();
            let (Some(u), Some(v), Some(w)) = (parts.next(), parts.next(), parts.next()) else {
                return Err(bad("short edge line"));
            };
            let u: Vertex = u.parse().map_err(|_| bad("bad edge source"))?;
            let v: Vertex = v.parse().map_err(|_| bad("bad edge target"))?;
            let w: Weight = w.parse().map_err(|_| bad("bad edge weight"))?;
            if (u as usize) >= vertices || (v as usize) >= vertices {
                return Err(bad("edge endpoint out of range"));
            }
            egraph.apply(
                &Mutation::AddEdge {
                    from: u,
                    to: v,
                    weight: w,
                },
                &mut dirty,
            );
            seen += 1;
        }
        if seen != num_edges {
            return Err(bad(&format!("{seen} edge lines, header says {num_edges}")));
        }
        Ok(Some(PersistedSnapshot {
            epoch,
            applied_seq,
            egraph,
            assignment,
            num_blocks,
        }))
    }

    /// Warm-restart state: the persisted snapshot plus the WAL tail to
    /// replay. `None` when the directory has no snapshot yet *and* no WAL
    /// records (a genuinely fresh start). With no snapshot but a non-empty
    /// WAL, recovery starts from the empty graph at sequence 0.
    pub fn recover(&self) -> Result<Option<Recovery>, HsbpError> {
        let snapshot = self.load_snapshot()?;
        let replayed = wal::replay(&self.wal_path())?;
        if snapshot.is_none() && replayed.records.is_empty() {
            return Ok(None);
        }
        let snapshot = match snapshot {
            Some(s) => s,
            None => PersistedSnapshot {
                epoch: 0,
                applied_seq: 0,
                egraph: EvolvingGraph::default(),
                assignment: Vec::new(),
                num_blocks: 0,
            },
        };
        // The idempotence guard: only records strictly past the snapshot's
        // sequence, and strictly increasing, are replayed. Anything else is
        // a duplicate (double replay, stale WAL) and skipped whole.
        let mut tail = Vec::new();
        let mut skipped = 0usize;
        let mut last = snapshot.applied_seq;
        for (seq, batch) in replayed.records {
            if seq > last {
                last = seq;
                tail.push((seq, batch));
            } else {
                skipped += 1;
            }
        }
        Ok(Some(Recovery {
            snapshot,
            tail,
            torn_tail_dropped: replayed.torn_tail,
            wal_good_bytes: replayed.good_bytes,
            skipped_duplicates: skipped,
        }))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::wal::{FsyncPolicy, Wal};
    use hsbp_graph::Graph;
    use std::sync::Arc;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hsbp-recover-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_snapshot(epoch: u64, seq: u64) -> Snapshot {
        let g = Arc::new(Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (3, 0)]));
        Snapshot::evaluate(epoch, seq, g, vec![0, 0, 0, 1], 2, false)
    }

    #[test]
    fn snapshot_roundtrips_bit_identically() {
        let dir = tmpdir("roundtrip");
        let state = StateDir::open_or_create(&dir, &SbpConfig::default()).unwrap();
        let snap = sample_snapshot(3, 7);
        state.save_snapshot(&snap, || true).unwrap();
        let loaded = state.load_snapshot().unwrap().expect("snapshot present");
        assert_eq!(loaded.epoch, 3);
        assert_eq!(loaded.applied_seq, 7);
        assert_eq!(loaded.assignment, vec![0, 0, 0, 1]);
        assert_eq!(loaded.num_blocks, 2);
        let rebuilt = loaded.egraph.build_csr();
        let a: Vec<_> = rebuilt.edges().collect();
        let b: Vec<_> = snap.graph.edges().collect();
        assert_eq!(a, b, "CSR rebuilt from the stored twin is bit-identical");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_before_rename_keeps_previous_snapshot() {
        let dir = tmpdir("prerename");
        let state = StateDir::open_or_create(&dir, &SbpConfig::default()).unwrap();
        state
            .save_snapshot(&sample_snapshot(1, 2), || true)
            .unwrap();
        // A "crash" in the hook: the tmp file exists, the rename never ran.
        state
            .save_snapshot(&sample_snapshot(2, 5), || false)
            .unwrap();
        let loaded = state.load_snapshot().unwrap().unwrap();
        assert_eq!(loaded.epoch, 1, "previous snapshot intact");
        assert_eq!(loaded.applied_seq, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_replays_only_tail_and_is_idempotent() {
        let dir = tmpdir("idempotent");
        let state = StateDir::open_or_create(&dir, &SbpConfig::default()).unwrap();
        state
            .save_snapshot(&sample_snapshot(2, 3), || true)
            .unwrap();
        let mut wal = Wal::open(&state.wal_path(), FsyncPolicy::Always, 0).unwrap();
        // Seqs 1..=3 are covered by the snapshot (a log never truncated);
        // 4 and 5 are the real tail; a duplicate 4 afterwards simulates a
        // double replay append.
        for seq in 1..=5u64 {
            wal.append(
                seq,
                &[Mutation::AddVertices {
                    count: seq as usize,
                }],
            )
            .unwrap();
        }
        wal.append(4, &[Mutation::AddVertices { count: 99 }])
            .unwrap();
        drop(wal);
        let rec = state.recover().unwrap().expect("state present");
        let seqs: Vec<u64> = rec.tail.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![4, 5], "snapshot-covered and stale seqs skipped");
        assert_eq!(rec.skipped_duplicates, 4);
        assert!(!rec.torn_tail_dropped);
        // Recovering twice from the same directory yields the same plan.
        let rec2 = state.recover().unwrap().unwrap();
        let seqs2: Vec<u64> = rec2.tail.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, seqs2);
        assert_eq!(rec.snapshot.assignment, rec2.snapshot.assignment);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn identity_mismatch_is_refused() {
        let dir = tmpdir("identity");
        let cfg = SbpConfig::default();
        StateDir::open_or_create(&dir, &cfg).unwrap();
        let mut other = cfg.clone();
        other.seed = cfg.seed.wrapping_add(1);
        assert!(matches!(
            StateDir::open_or_create(&dir, &other),
            Err(HsbpError::Checkpoint { .. })
        ));
        // Same identity reopens fine.
        StateDir::open_or_create(&dir, &cfg).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_directory_recovers_to_none() {
        let dir = tmpdir("fresh");
        let state = StateDir::open_or_create(&dir, &SbpConfig::default()).unwrap();
        assert!(state.recover().unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! Hostile-input tests for the checksummed record format shared by the
//! serve WAL and the exact-mode sync channel. Seeded mutations of a real
//! WAL file and of real sync frames — truncation at every offset, one
//! flipped byte at every offset, appended garbage, and a record whose
//! header is spliced onto another record's payload — must never panic:
//! `wal::replay` keeps an intact prefix of the original records, and
//! `decode_msg` rejects every frame that is not intact.
//!
//! The checksum covers the payload, not the header's `seq` field: a byte
//! flipped there yields the original payload under another sequence
//! number. The tests pin that limit of the format explicitly.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use hsbp::collections::frame::{self, HEADER_LEN};
use hsbp::collections::SplitMix64;
use hsbp::serve::wal::{replay, FsyncPolicy, Wal, WalReplay, WAL_MAGIC};
use hsbp::serve::Mutation;
use hsbp::shard::channel::{decode_msg, encode_msg, SyncPayload};
use std::ops::Range;
use std::path::PathBuf;

/// Byte range of the `u64 seq` header field of a record starting at `start`.
fn seq_field(start: usize) -> Range<usize> {
    start + 4..start + 12
}

fn batch(i: u32) -> Vec<Mutation> {
    let mut batch = vec![Mutation::AddEdge {
        from: i,
        to: 3 * i + 1,
        weight: u64::from(i) + 1,
    }];
    for k in 0..i % 3 {
        batch.push(Mutation::RemoveEdge { from: k, to: i });
    }
    if i.is_multiple_of(2) {
        batch.push(Mutation::AddVertices {
            count: i as usize + 2,
        });
    }
    batch
}

struct WalCorpus {
    dir: PathBuf,
    bytes: Vec<u8>,
    records: Vec<(u64, Vec<Mutation>)>,
    /// Byte range of every record in `bytes`.
    spans: Vec<Range<usize>>,
}

impl WalCorpus {
    fn new() -> Self {
        let dir = std::env::temp_dir().join(format!("hsbp-frame-hostile-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let records: Vec<(u64, Vec<Mutation>)> =
            (1..=6).map(|i| (u64::from(i), batch(i))).collect();
        let mut wal = Wal::open(&path, FsyncPolicy::Never, 0).unwrap();
        for (seq, b) in &records {
            wal.append(*seq, b).unwrap();
        }
        drop(wal);
        let bytes = std::fs::read(&path).unwrap();
        let mut spans = Vec::new();
        let mut pos = WAL_MAGIC.len();
        while pos < bytes.len() {
            let (_, _, consumed) = frame::decode(&bytes[pos..]).unwrap();
            spans.push(pos..pos + consumed);
            pos += consumed;
        }
        assert_eq!(spans.len(), records.len());
        Self {
            dir,
            bytes,
            records,
            spans,
        }
    }

    /// Replay `bytes` as a WAL file: `None` when replay refused the file.
    fn replay(&self, bytes: &[u8]) -> Option<WalReplay> {
        let path = self.dir.join("mutated.log");
        std::fs::write(&path, bytes).unwrap();
        let replayed = replay(&path).ok()?;
        assert!(replayed.good_bytes <= bytes.len() as u64);
        Some(replayed)
    }

    /// Records that lie whole inside the first `len` bytes.
    fn complete_within(&self, len: usize) -> usize {
        self.spans.iter().filter(|s| s.end <= len).count()
    }
}

impl Drop for WalCorpus {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[test]
fn wal_replay_keeps_an_intact_prefix_under_hostile_mutations() {
    let corpus = WalCorpus::new();
    let original = &corpus.records;
    let magic = WAL_MAGIC.len();

    // Truncation at every offset: the records wholly before the cut.
    for cut in 0..=corpus.bytes.len() {
        let replayed = corpus.replay(&corpus.bytes[..cut]);
        if (1..magic).contains(&cut) {
            assert!(replayed.is_none(), "cut {cut} inside the magic accepted");
            continue;
        }
        let replayed = replayed.unwrap();
        let whole = corpus.complete_within(cut);
        assert_eq!(replayed.records, original[..whole], "cut {cut}");
        let boundary = cut == 0 || cut == magic || corpus.spans.iter().any(|s| s.end == cut);
        assert_eq!(replayed.torn_tail, !boundary, "cut {cut}");
        if whole > 0 {
            let end = corpus.spans[whole - 1].end as u64;
            assert_eq!(replayed.good_bytes, end, "cut {cut}");
        }
    }

    // One flipped byte at every offset, seeded masks.
    let mut rng = SplitMix64::new(0x5eed_f11b);
    for pos in 0..corpus.bytes.len() {
        let mut bytes = corpus.bytes.clone();
        bytes[pos] ^= (rng.next_below(255) + 1) as u8;
        let replayed = corpus.replay(&bytes);
        if pos < magic {
            assert!(replayed.is_none(), "flipped magic byte {pos} accepted");
            continue;
        }
        let replayed = replayed.unwrap();
        let (records, torn) = (replayed.records, replayed.torn_tail);
        let hit = corpus.spans.iter().position(|s| s.contains(&pos)).unwrap();
        if seq_field(corpus.spans[hit].start).contains(&pos) {
            // Outside the checksum: the batch survives under another seq.
            assert!(!torn, "flip at {pos}");
            assert_eq!(records.len(), original.len(), "flip at {pos}");
            for (i, (got, want)) in records.iter().zip(original).enumerate() {
                assert_eq!(got.1, want.1, "flip at {pos}");
                assert_eq!(got.0 == want.0, i != hit, "flip at {pos}");
            }
        } else {
            assert!(torn, "flip at {pos}");
            assert_eq!(records, original[..hit], "flip at {pos}");
        }
    }

    // Appended garbage is a torn tail; every original record survives.
    for trial in 0..64 {
        let mut bytes = corpus.bytes.clone();
        let extra = 1 + rng.next_below(80) as usize;
        bytes.extend((0..extra).map(|_| rng.next_raw() as u8));
        let replayed = corpus.replay(&bytes).unwrap();
        assert!(replayed.torn_tail, "garbage trial {trial}");
        assert_eq!(&replayed.records, original, "garbage trial {trial}");
        let len = corpus.bytes.len() as u64;
        assert_eq!(replayed.good_bytes, len, "garbage trial {trial}");
    }

    // Record a's header spliced onto record b's payload, in a's place.
    for a in 0..original.len() {
        for b in (0..original.len()).filter(|&b| b != a) {
            let (span_a, span_b) = (&corpus.spans[a], &corpus.spans[b]);
            let mut bytes = corpus.bytes[..span_a.start + HEADER_LEN].to_vec();
            bytes.extend_from_slice(&corpus.bytes[span_b.start + HEADER_LEN..span_b.end]);
            bytes.extend_from_slice(&corpus.bytes[span_a.end..]);
            let replayed = corpus.replay(&bytes).unwrap();
            assert!(replayed.torn_tail, "splice {a}<-{b}");
            assert_eq!(replayed.records, original[..a], "splice {a}<-{b}");
        }
    }
}

fn sync_payloads() -> Vec<SyncPayload> {
    vec![
        SyncPayload::Delta {
            shard: 1,
            moves: vec![(4, 2), (9, 0), (4, 1)],
        },
        SyncPayload::Delta {
            shard: 3,
            moves: Vec::new(),
        },
        SyncPayload::Nack {
            shard: 0,
            missing_from: 2,
            missing_seq: 17,
        },
        SyncPayload::Digest {
            shard: 2,
            digest: 0x0123_4567_89ab_cdef,
        },
        SyncPayload::Resync {
            num_blocks: 3,
            assignment: vec![0, 2, 1, 1, 0],
        },
    ]
}

#[test]
fn decode_msg_rejects_every_frame_that_is_not_intact() {
    let payloads = sync_payloads();
    let frames: Vec<Vec<u8>> = payloads
        .iter()
        .enumerate()
        .map(|(i, p)| encode_msg(100 + i as u64, p))
        .collect();
    let mut rng = SplitMix64::new(0x00f4_a3e5);

    for (i, frame) in frames.iter().enumerate() {
        let seq = 100 + i as u64;
        assert_eq!(decode_msg(frame), Ok((seq, payloads[i].clone())));

        for cut in 0..frame.len() {
            assert!(decode_msg(&frame[..cut]).is_err(), "frame {i} cut {cut}");
        }

        for pos in 0..frame.len() {
            let mut bytes = frame.clone();
            bytes[pos] ^= (rng.next_below(255) + 1) as u8;
            match decode_msg(&bytes) {
                Ok((got_seq, got)) => {
                    assert!(seq_field(0).contains(&pos), "frame {i} flip {pos} decoded");
                    assert_ne!(got_seq, seq);
                    assert_eq!(got, payloads[i], "frame {i} flip {pos}");
                }
                Err(_) => assert!(!seq_field(0).contains(&pos), "frame {i} flip {pos}"),
            }
        }

        for _ in 0..16 {
            let mut bytes = frame.clone();
            let extra = 1 + rng.next_below(40) as usize;
            bytes.extend((0..extra).map(|_| rng.next_raw() as u8));
            assert!(decode_msg(&bytes).is_err(), "frame {i} with garbage");
        }

        for (j, other) in frames.iter().enumerate() {
            let mut two = frame.clone();
            two.extend_from_slice(other);
            assert!(decode_msg(&two).is_err(), "frames {i}+{j} decoded as one");
            if j != i {
                let mut spliced = frame[..HEADER_LEN].to_vec();
                spliced.extend_from_slice(&other[HEADER_LEN..]);
                assert!(decode_msg(&spliced).is_err(), "splice {i}<-{j}");
            }
        }
    }
}

//! Byte pins for the checksummed record format that the serve WAL and the
//! exact-mode sync channel share: `[u32 len][u64 seq][u64 fnv1a][payload]`,
//! little-endian. The literal vectors were recorded from the encoders
//! before either side's framing moved behind one codec; a change to any
//! byte breaks logs already on disk and peers already on the wire.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use hsbp::serve::wal::{file_bytes, replay, FsyncPolicy, Wal, WAL_MAGIC};
use hsbp::serve::Mutation;
use hsbp::shard::channel::{decode_msg, encode_msg, SyncPayload};

/// `seq 7` carrying one `AddEdge`, one `RemoveEdge` and one `AddVertices`.
const WAL_RECORD: &[u8] = &[
    // header: len 39, seq 7, fnv1a(payload)
    39, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 188, 143, 191, 93, 236, 215, 103, 222,
    // payload: count 3; AddEdge 3 -> 258 weight 5; RemoveEdge 9 -> 1; AddVertices 70000
    3, 0, 0, 0, 0, 3, 0, 0, 0, 2, 1, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 1, 9, 0, 0, 0, 1, 0, 0, 0, 2,
    112, 17, 1, 0, 0, 0, 0, 0,
];

/// `Delta` from shard 2 with three moves, under `seq 41`.
const DELTA_FRAME: &[u8] = &[
    // header: len 33, seq 41, fnv1a(payload)
    33, 0, 0, 0, 41, 0, 0, 0, 0, 0, 0, 0, 20, 229, 20, 43, 14, 42, 164, 87,
    // payload: kind 1, shard 2, 3 moves: (0, 1), (300, 7), (65537, 0)
    1, 2, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 44, 1, 0, 0, 7, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0,
    0,
];

fn wal_batch() -> Vec<Mutation> {
    vec![
        Mutation::AddEdge {
            from: 3,
            to: 258,
            weight: 5,
        },
        Mutation::RemoveEdge { from: 9, to: 1 },
        Mutation::AddVertices { count: 70_000 },
    ]
}

fn delta_payload() -> SyncPayload {
    SyncPayload::Delta {
        shard: 2,
        moves: vec![(0, 1), (300, 7), (65_537, 0)],
    }
}

#[test]
fn wal_record_bytes_are_pinned() {
    let dir = std::env::temp_dir().join(format!("hsbp-frame-pin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wal.log");
    let mut wal = Wal::open(&path, FsyncPolicy::Never, 0).unwrap();
    wal.append(7, &wal_batch()).unwrap();
    drop(wal);

    let bytes = file_bytes(&path).unwrap();
    assert_eq!(&bytes[..WAL_MAGIC.len()], WAL_MAGIC);
    assert_eq!(&bytes[WAL_MAGIC.len()..], WAL_RECORD);
    let replayed = replay(&path).unwrap();
    assert!(!replayed.torn_tail);
    assert_eq!(replayed.records, vec![(7, wal_batch())]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn delta_frame_bytes_are_pinned() {
    assert_eq!(encode_msg(41, &delta_payload()), DELTA_FRAME);
    assert_eq!(decode_msg(DELTA_FRAME), Ok((41, delta_payload())));
}

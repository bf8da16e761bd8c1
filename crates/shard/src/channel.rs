//! The replicated-blockmodel sync channel: message codec, deterministic
//! network fault injection, and the in-process emulated wire the exact
//! distributed mode ([`crate::exact`]) broadcasts its move deltas over.
//!
//! ## Wire format
//!
//! Every message is one record of [`hsbp_collections::frame`], the framing
//! the `hsbp-serve` WAL also writes:
//!
//! ```text
//! [u32 payload_len][u64 seq][u64 fnv1a(payload)][payload]      little-endian
//! ```
//!
//! The payload starts with a kind byte:
//!
//! ```text
//! 1  Delta   [u32 shard][u32 move_count][(u32 vertex, u32 block)…]
//! 2  Nack    [u32 shard][u32 missing_from][u64 missing_seq]
//! 3  Digest  [u32 shard][u64 digest]
//! 4  Resync  [u32 num_blocks][u32 n][u32 assignment…]
//! ```
//!
//! FNV-1a detects every single-byte payload corruption (each step of the
//! hash is injective in the running state: xor with a distinct byte, then
//! multiply by an odd prime mod 2^64), so the corrupt fault below is caught
//! at a rate of exactly 100% — the codec property tests pin this.
//!
//! ## Fault model
//!
//! [`NetFaultPlan`] is pure data and all of its decisions are pure
//! functions of `(plan seed, fault kind, src, dst, seq, attempt)` via
//! splitmix mixing — the same plan against the same run is bit-for-bit
//! reproducible regardless of thread scheduling, and a retransmitted
//! message (`attempt + 1`) re-rolls its fate independently. The CLI grammar
//! (`--net-fault-plan`) is a comma-separated list of directives:
//!
//! ```text
//! seed:N            seed for the per-message fault draws (default 0)
//! drop:P            drop each delivery with probability P
//! dup:P             deliver twice with probability P
//! reorder:P         scramble the receiver's arrival order
//! corrupt:P         flip one payload byte with probability P
//! delay:P=ROUNDS    deliver ROUNDS sync rounds late with probability P
//! silent:SHARD@ROUND   shard goes permanently silent from that round on
//! desync:SHARD@ROUND   corrupt the shard's replica state after that round
//! ```

use hsbp_blockmodel::{Block, Blockmodel};
use hsbp_collections::frame::{self, FrameError};
use hsbp_collections::sample::mix_words;
use hsbp_core::fault_directives;
use hsbp_graph::Vertex;
use hsbp_timing::CostModel;

/// Version of the shard sync protocol (wire format + recovery state
/// machine). Reported by `hsbp version`; bumped on any incompatible change
/// to the message layout or the retransmit/resync semantics.
pub const SYNC_PROTOCOL_VERSION: u32 = 1;

/// Bytes of the record header: `[u32 len][u64 seq][u64 checksum]`.
pub use hsbp_collections::frame::HEADER_LEN;

/// FNV-1a over `bytes`: the frame checksum (the same one the serve WAL
/// uses).
pub use hsbp_collections::fnv1a as checksum;

/// One decoded sync-protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyncPayload {
    /// Accepted moves of one shard for one sync round, in application
    /// order (a vertex may appear more than once when `sync_every > 1`).
    Delta {
        /// Sending shard.
        shard: u32,
        /// `(vertex, to_block)` accepted moves.
        moves: Vec<(Vertex, Block)>,
    },
    /// "I am missing your message `missing_seq`" — triggers a retransmit.
    Nack {
        /// Complaining shard.
        shard: u32,
        /// Shard whose message is missing.
        missing_from: u32,
        /// The missing sequence number.
        missing_seq: u64,
    },
    /// Periodic replica digest for divergence detection.
    Digest {
        /// Reporting shard.
        shard: u32,
        /// [`blockmodel_digest`] of the shard's replica.
        digest: u64,
    },
    /// Full-state resync from the coordinator: authoritative membership.
    Resync {
        /// Block count of the authoritative model.
        num_blocks: u32,
        /// Membership of every vertex.
        assignment: Vec<Block>,
    },
}

/// Why a frame failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer bytes than the header, or fewer than the header promises.
    Truncated,
    /// The FNV-1a checksum does not match the payload.
    BadChecksum,
    /// Unknown payload kind byte.
    UnknownKind(u8),
    /// The payload's internal lengths disagree with its byte count.
    Malformed,
}

impl From<FrameError> for DecodeError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Truncated => DecodeError::Truncated,
            FrameError::BadChecksum => DecodeError::BadChecksum,
        }
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated frame"),
            DecodeError::BadChecksum => write!(f, "checksum mismatch"),
            DecodeError::UnknownKind(k) => write!(f, "unknown payload kind {k}"),
            DecodeError::Malformed => write!(f, "malformed payload"),
        }
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn u8(&mut self) -> Result<u8, DecodeError> {
        let b = *self.bytes.get(self.pos).ok_or(DecodeError::Malformed)?;
        self.pos += 1;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        let end = self.pos + 4;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or(DecodeError::Malformed)?;
        self.pos = end;
        let mut buf = [0u8; 4];
        buf.copy_from_slice(slice);
        Ok(u32::from_le_bytes(buf))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        let end = self.pos + 8;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or(DecodeError::Malformed)?;
        self.pos = end;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(slice);
        Ok(u64::from_le_bytes(buf))
    }

    fn done(&self) -> Result<(), DecodeError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(DecodeError::Malformed)
        }
    }
}

/// Encode `payload` under sequence number `seq` into a framed wire message.
pub fn encode_msg(seq: u64, payload: &SyncPayload) -> Vec<u8> {
    let mut body = Vec::new();
    match payload {
        SyncPayload::Delta { shard, moves } => {
            body.push(1u8);
            put_u32(&mut body, *shard);
            put_u32(&mut body, moves.len() as u32);
            for &(v, b) in moves {
                put_u32(&mut body, v);
                put_u32(&mut body, b);
            }
        }
        SyncPayload::Nack {
            shard,
            missing_from,
            missing_seq,
        } => {
            body.push(2u8);
            put_u32(&mut body, *shard);
            put_u32(&mut body, *missing_from);
            put_u64(&mut body, *missing_seq);
        }
        SyncPayload::Digest { shard, digest } => {
            body.push(3u8);
            put_u32(&mut body, *shard);
            put_u64(&mut body, *digest);
        }
        SyncPayload::Resync {
            num_blocks,
            assignment,
        } => {
            body.push(4u8);
            put_u32(&mut body, *num_blocks);
            put_u32(&mut body, assignment.len() as u32);
            for &b in assignment {
                put_u32(&mut body, b);
            }
        }
    }
    frame::encode(seq, &body)
}

/// Decode one framed wire message into `(seq, payload)`.
pub fn decode_msg(bytes: &[u8]) -> Result<(u64, SyncPayload), DecodeError> {
    let (seq, body, consumed) = frame::decode(bytes)?;
    if consumed != bytes.len() {
        return Err(DecodeError::Malformed);
    }
    let mut r = Reader {
        bytes: body,
        pos: 0,
    };
    let payload = match r.u8().map_err(|_| DecodeError::Malformed)? {
        1 => {
            let shard = r.u32()?;
            let count = r.u32()? as usize;
            // Cap against absurd counts so a (theoretically) colliding
            // corrupted frame cannot force a huge allocation.
            if count > body.len() {
                return Err(DecodeError::Malformed);
            }
            let mut moves = Vec::with_capacity(count);
            for _ in 0..count {
                moves.push((r.u32()?, r.u32()?));
            }
            SyncPayload::Delta { shard, moves }
        }
        2 => SyncPayload::Nack {
            shard: r.u32()?,
            missing_from: r.u32()?,
            missing_seq: r.u64()?,
        },
        3 => SyncPayload::Digest {
            shard: r.u32()?,
            digest: r.u64()?,
        },
        4 => {
            let num_blocks = r.u32()?;
            let n = r.u32()? as usize;
            if n > body.len() {
                return Err(DecodeError::Malformed);
            }
            let mut assignment = Vec::with_capacity(n);
            for _ in 0..n {
                assignment.push(r.u32()?);
            }
            SyncPayload::Resync {
                num_blocks,
                assignment,
            }
        }
        other => return Err(DecodeError::UnknownKind(other)),
    };
    r.done()?;
    Ok((seq, payload))
}

/// Digest of a replica's full state: FNV-1a over the membership, block
/// count, degree caches, block sizes and every non-zero cell of the
/// inter-block matrix. The sparse rows are canonical (sorted, zero-free),
/// so equal logical states hash equally — and the digest covers the `B`
/// cells and degree caches that [`Blockmodel::inject_state_corruption`]
/// perturbs without touching the membership.
pub fn blockmodel_digest(bm: &Blockmodel) -> u64 {
    let mut bytes = Vec::new();
    put_u32(&mut bytes, bm.num_blocks() as u32);
    for &b in bm.assignment() {
        put_u32(&mut bytes, b);
    }
    for r in 0..bm.num_blocks() as Block {
        put_u64(&mut bytes, bm.d_out(r));
        put_u64(&mut bytes, bm.d_in(r));
        put_u32(&mut bytes, bm.block_size(r));
        for (s, w) in bm.row(r).iter() {
            put_u32(&mut bytes, s);
            put_u64(&mut bytes, w);
        }
    }
    checksum(&bytes)
}

/// Per-sender delivery tracker: enforces in-order application of the
/// sequence-numbered delta stream and classifies arrivals.
#[derive(Debug, Clone, Default)]
pub struct PeerTracker {
    next: u64,
}

/// What a receiver should do with an arriving sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offer {
    /// In order: apply, the tracker advanced.
    Apply,
    /// Already applied (duplicate or late original after recovery): drop.
    Duplicate,
    /// Ahead of the expected number: hold until the gap fills.
    Future,
}

impl PeerTracker {
    /// Next sequence number this tracker will accept.
    pub fn expected(&self) -> u64 {
        self.next
    }

    /// Classify an arriving sequence number, advancing on [`Offer::Apply`].
    pub fn offer(&mut self, seq: u64) -> Offer {
        match seq.cmp(&self.next) {
            std::cmp::Ordering::Less => Offer::Duplicate,
            std::cmp::Ordering::Greater => Offer::Future,
            std::cmp::Ordering::Equal => {
                self.next += 1;
                Offer::Apply
            }
        }
    }

    /// Jump the tracker past `seq` (after a full-state resync made every
    /// message up to and including `seq` moot).
    pub fn skip_to(&mut self, next: u64) {
        self.next = self.next.max(next);
    }
}

/// Per-message network fault directives (see the module docs for the
/// grammar). `PartialEq` compares the full directive list.
#[derive(Debug, Clone, PartialEq)]
pub struct NetFaultPlan {
    /// Seed of the per-message fault draws.
    pub seed: u64,
    /// P(drop) per delivery attempt.
    pub drop: f64,
    /// P(duplicate delivery) per delivery.
    pub dup: f64,
    /// P(scrambled arrival order) per delivery.
    pub reorder: f64,
    /// P(single-byte payload corruption) per delivery.
    pub corrupt: f64,
    /// P(delayed delivery) per delivery.
    pub delay: f64,
    /// Rounds a delayed delivery is late by.
    pub delay_rounds: u64,
    /// `(shard, round)`: shard produces and answers nothing from `round`.
    pub silent: Vec<(usize, u64)>,
    /// `(shard, round)`: replica state corrupted in place after `round`.
    pub desync: Vec<(usize, u64)>,
}

impl Default for NetFaultPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            drop: 0.0,
            dup: 0.0,
            reorder: 0.0,
            corrupt: 0.0,
            delay: 0.0,
            delay_rounds: 1,
            silent: Vec::new(),
            desync: Vec::new(),
        }
    }
}

/// Fault-kind tags for the per-message draws (distinct streams per kind).
const TAG_DROP: u64 = 0x4e45_5444_524f_5000; // "NETDROP"
const TAG_DUP: u64 = 0x4e45_5444_5550_0000;
const TAG_REORDER: u64 = 0x4e45_544f_5244_0000;
const TAG_CORRUPT: u64 = 0x4e45_5443_5252_0000;
const TAG_DELAY: u64 = 0x4e45_5444_4c59_0000;
const TAG_BYTE: u64 = 0x4e45_5442_5954_0000;

impl NetFaultPlan {
    /// The fault-free plan.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when no directive can ever fire.
    pub fn is_null(&self) -> bool {
        self.drop == 0.0
            && self.dup == 0.0
            && self.reorder == 0.0
            && self.corrupt == 0.0
            && self.delay == 0.0
            && self.silent.is_empty()
            && self.desync.is_empty()
    }

    fn roll(&self, tag: u64, src: u32, dst: u32, seq: u64, attempt: u32) -> f64 {
        let h = mix_words(&[
            self.seed,
            tag,
            u64::from(src),
            u64::from(dst),
            seq,
            u64::from(attempt),
        ]);
        // 53 uniform bits, same construction as SplitMix64::next_f64.
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Should this delivery attempt be dropped?
    pub fn drops(&self, src: u32, dst: u32, seq: u64, attempt: u32) -> bool {
        self.drop > 0.0 && self.roll(TAG_DROP, src, dst, seq, attempt) < self.drop
    }

    /// Should this delivery be duplicated?
    pub fn duplicates(&self, src: u32, dst: u32, seq: u64, attempt: u32) -> bool {
        self.dup > 0.0 && self.roll(TAG_DUP, src, dst, seq, attempt) < self.dup
    }

    /// Should the receiver's arrival order be scrambled by this delivery?
    pub fn reorders(&self, src: u32, dst: u32, seq: u64, attempt: u32) -> bool {
        self.reorder > 0.0 && self.roll(TAG_REORDER, src, dst, seq, attempt) < self.reorder
    }

    /// Payload byte index to flip, when this delivery is corrupted.
    pub fn corrupts(&self, src: u32, dst: u32, seq: u64, attempt: u32) -> Option<u64> {
        if self.corrupt > 0.0 && self.roll(TAG_CORRUPT, src, dst, seq, attempt) < self.corrupt {
            Some(mix_words(&[
                self.seed,
                TAG_BYTE,
                u64::from(src),
                u64::from(dst),
                seq,
                u64::from(attempt),
            ]))
        } else {
            None
        }
    }

    /// Rounds this delivery is delayed by (0 = on time).
    pub fn delays(&self, src: u32, dst: u32, seq: u64, attempt: u32) -> u64 {
        if self.delay > 0.0 && self.roll(TAG_DELAY, src, dst, seq, attempt) < self.delay {
            self.delay_rounds
        } else {
            0
        }
    }

    /// True when `shard` is silent (hung) at `round`.
    pub fn is_silent(&self, shard: usize, round: u64) -> bool {
        self.silent.iter().any(|&(s, r)| s == shard && round >= r)
    }

    /// True when `shard`'s replica should be corrupted right after `round`.
    pub fn desyncs_at(&self, shard: usize, round: u64) -> bool {
        self.desync.iter().any(|&(s, r)| s == shard && round == r)
    }

    /// Parse the CLI grammar (see module docs). Whitespace around
    /// directives is ignored; an empty string is the null plan.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = NetFaultPlan::none();
        let rate = |directive: &str, text: &str| -> Result<f64, String> {
            let p: f64 = text
                .parse()
                .map_err(|e| format!("`{directive}`: bad probability `{text}`: {e}"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("`{directive}`: probability must be in [0, 1]"));
            }
            Ok(p)
        };
        let shard_at = |directive: &str, text: &str| -> Result<(usize, u64), String> {
            let (shard_text, round_text) = text
                .split_once('@')
                .ok_or_else(|| format!("`{directive}`: expected SHARD@ROUND"))?;
            let shard: usize = shard_text
                .parse()
                .map_err(|e| format!("`{directive}`: bad shard `{shard_text}`: {e}"))?;
            let round: u64 = round_text
                .parse()
                .map_err(|e| format!("`{directive}`: bad round `{round_text}`: {e}"))?;
            Ok((shard, round))
        };
        for directive in fault_directives(spec, "KIND:ARG") {
            let (directive, kind, rest) = directive?;
            match kind {
                "seed" => {
                    plan.seed = rest
                        .parse()
                        .map_err(|e| format!("`{directive}`: bad seed `{rest}`: {e}"))?;
                }
                "drop" => plan.drop = rate(directive, rest)?,
                "dup" => plan.dup = rate(directive, rest)?,
                "reorder" => plan.reorder = rate(directive, rest)?,
                "corrupt" => plan.corrupt = rate(directive, rest)?,
                "delay" => {
                    let (p_text, rounds_text) = rest
                        .split_once('=')
                        .ok_or_else(|| format!("`{directive}`: delay needs P=ROUNDS"))?;
                    plan.delay = rate(directive, p_text)?;
                    plan.delay_rounds = rounds_text
                        .parse()
                        .map_err(|e| format!("`{directive}`: bad delay rounds: {e}"))?;
                    if plan.delay_rounds == 0 {
                        return Err(format!("`{directive}`: delay rounds must be >= 1"));
                    }
                }
                "silent" => plan.silent.push(shard_at(directive, rest)?),
                "desync" => plan.desync.push(shard_at(directive, rest)?),
                other => {
                    return Err(format!(
                        "`{directive}`: unknown net fault `{other}` \
                         (seed|drop|dup|reorder|corrupt|delay|silent|desync)"
                    ));
                }
            }
        }
        Ok(plan)
    }
}

impl std::fmt::Display for NetFaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        if self.seed != 0 {
            parts.push(format!("seed:{}", self.seed));
        }
        if self.drop > 0.0 {
            parts.push(format!("drop:{}", self.drop));
        }
        if self.dup > 0.0 {
            parts.push(format!("dup:{}", self.dup));
        }
        if self.reorder > 0.0 {
            parts.push(format!("reorder:{}", self.reorder));
        }
        if self.corrupt > 0.0 {
            parts.push(format!("corrupt:{}", self.corrupt));
        }
        if self.delay > 0.0 {
            parts.push(format!("delay:{}={}", self.delay, self.delay_rounds));
        }
        for &(s, r) in &self.silent {
            parts.push(format!("silent:{s}@{r}"));
        }
        for &(s, r) in &self.desync {
            parts.push(format!("desync:{s}@{r}"));
        }
        write!(f, "{}", parts.join(","))
    }
}

/// Aggregate wire counters of one run.
#[derive(Debug, Clone, Default)]
pub struct NetTotals {
    /// Messages put on the wire (including dropped and corrupted ones).
    pub messages: u64,
    /// Bytes put on the wire.
    pub bytes: u64,
    /// Deliveries swallowed by the drop fault.
    pub dropped: u64,
    /// Extra deliveries produced by the duplicate fault.
    pub duplicated: u64,
    /// Deliveries whose payload was corrupted in flight.
    pub corrupted: u64,
    /// Deliveries pushed to a later round by the delay fault.
    pub delayed: u64,
    /// Inbox collections whose arrival order was scrambled.
    pub reordered: u64,
    /// NACK-driven retransmissions performed.
    pub retransmits: u64,
    /// NACK messages sent.
    pub nacks: u64,
    /// Full-state resyncs from the coordinator.
    pub resyncs: u64,
    /// Duplicate deliveries discarded by the in-order trackers.
    pub replays_ignored: u64,
    /// Corrupted frames detected (checksum mismatch) and discarded.
    pub corrupt_detected: u64,
    /// Simulated communication cost (per-message latency + per-byte cost).
    pub comm_cost: f64,
}

/// The in-process emulated wire: applies a [`NetFaultPlan`] to every
/// delivery, accounts bytes and simulated communication cost, and hands
/// receivers their (possibly scrambled) round inboxes.
#[derive(Debug)]
pub struct EmulatedNet {
    plan: NetFaultPlan,
    cost: CostModel,
    /// Per-destination inboxes for the current round: `(src, frame)`.
    inboxes: Vec<Vec<(usize, Vec<u8>)>>,
    /// Delayed deliveries: `(due_round, dst, src, frame)`.
    future: Vec<(u64, usize, usize, Vec<u8>)>,
    /// Aggregate counters.
    pub totals: NetTotals,
}

impl EmulatedNet {
    /// A wire connecting `endpoints` shards under `plan`, costing messages
    /// with `cost`'s network weights.
    pub fn new(endpoints: usize, plan: NetFaultPlan, cost: CostModel) -> Self {
        Self {
            plan,
            cost,
            inboxes: vec![Vec::new(); endpoints],
            future: Vec::new(),
            totals: NetTotals::default(),
        }
    }

    /// The active fault plan.
    pub fn plan(&self) -> &NetFaultPlan {
        &self.plan
    }

    /// Account one on-wire message of `bytes` bytes without delivering it
    /// (control-plane traffic: NACKs, digests, coordinator resyncs).
    pub fn account(&mut self, bytes: usize) {
        self.totals.messages += 1;
        self.totals.bytes += bytes as u64;
        self.totals.comm_cost += self.cost.message_cost(bytes);
    }

    /// Send `frame` from shard `src` to shard `dst` during `round`, rolling
    /// the per-message fault draws for `(seq, attempt)`. Delivery lands in
    /// `dst`'s inbox for this round (or a later one under the delay fault).
    pub fn send(
        &mut self,
        round: u64,
        src: usize,
        dst: usize,
        seq: u64,
        attempt: u32,
        frame: &[u8],
    ) {
        self.account(frame.len());
        let (s, d) = (src as u32, dst as u32);
        if self.plan.drops(s, d, seq, attempt) {
            self.totals.dropped += 1;
            return;
        }
        let mut frame = frame.to_vec();
        if let Some(pos) = self.plan.corrupts(s, d, seq, attempt) {
            let payload_len = frame.len() - HEADER_LEN;
            if payload_len > 0 {
                let idx = HEADER_LEN + (pos % payload_len as u64) as usize;
                // Non-zero XOR mask: the byte always actually changes.
                frame[idx] ^= ((pos >> 32) as u8) | 1;
                self.totals.corrupted += 1;
            }
        }
        let copies = if self.plan.duplicates(s, d, seq, attempt) {
            self.totals.duplicated += 1;
            2
        } else {
            1
        };
        let delay = self.plan.delays(s, d, seq, attempt);
        for _ in 0..copies {
            if delay > 0 {
                self.totals.delayed += 1;
                self.future.push((round + delay, dst, src, frame.clone()));
            } else {
                self.inboxes[dst].push((src, frame.clone()));
            }
        }
    }

    /// Drain shard `dst`'s inbox for `round`: current-round deliveries plus
    /// any delayed frames that have come due, in a deterministic —
    /// possibly fault-scrambled — arrival order.
    pub fn collect(&mut self, round: u64, dst: usize) -> Vec<(usize, Vec<u8>)> {
        let mut arrivals = std::mem::take(&mut self.inboxes[dst]);
        let mut keep = Vec::new();
        for entry in self.future.drain(..) {
            if entry.0 <= round && entry.1 == dst {
                arrivals.push((entry.2, entry.3));
            } else {
                keep.push(entry);
            }
        }
        self.future = keep;
        // The reorder fault scrambles arrival order; the per-sender
        // sequence trackers are what straightens it back out.
        if !arrivals.is_empty() {
            let scramble = arrivals.iter().enumerate().any(|(i, (src, frame))| {
                let seq = frame
                    .get(4..12)
                    .map(|b| {
                        let mut buf = [0u8; 8];
                        buf.copy_from_slice(b);
                        u64::from_le_bytes(buf)
                    })
                    .unwrap_or(i as u64);
                self.plan.reorders(*src as u32, dst as u32, seq, 0)
            });
            if scramble {
                self.totals.reordered += 1;
                let seed = self.plan.seed;
                let mut keyed: Vec<(u64, (usize, Vec<u8>))> = arrivals
                    .into_iter()
                    .enumerate()
                    .map(|(i, m)| (mix_words(&[seed, TAG_REORDER, round, i as u64]), m))
                    .collect();
                keyed.sort_by_key(|&(k, _)| k);
                arrivals = keyed.into_iter().map(|(_, m)| m).collect();
            }
        }
        arrivals
    }

    /// True when no delayed deliveries are still in flight.
    pub fn quiescent(&self) -> bool {
        self.future.is_empty() && self.inboxes.iter().all(Vec::is_empty)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn sample_payloads() -> Vec<SyncPayload> {
        vec![
            SyncPayload::Delta {
                shard: 3,
                moves: vec![(0, 1), (7, 2), (7, 0)],
            },
            SyncPayload::Delta {
                shard: 0,
                moves: Vec::new(),
            },
            SyncPayload::Nack {
                shard: 1,
                missing_from: 2,
                missing_seq: 41,
            },
            SyncPayload::Digest {
                shard: 2,
                digest: 0xdead_beef_cafe_f00d,
            },
            SyncPayload::Resync {
                num_blocks: 4,
                assignment: vec![0, 1, 2, 3, 1, 0],
            },
        ]
    }

    #[test]
    fn codec_roundtrip() {
        for (i, payload) in sample_payloads().into_iter().enumerate() {
            let frame = encode_msg(i as u64 + 10, &payload);
            let (seq, decoded) = decode_msg(&frame).unwrap();
            assert_eq!(seq, i as u64 + 10);
            assert_eq!(decoded, payload);
        }
    }

    #[test]
    fn truncation_detected() {
        let frame = encode_msg(5, &sample_payloads()[0]);
        for cut in 0..frame.len() {
            assert!(decode_msg(&frame[..cut]).is_err(), "cut {cut} accepted");
        }
    }

    #[test]
    fn plan_parse_roundtrip() {
        let plan = NetFaultPlan::parse(
            "seed:9,drop:0.05, dup:0.2,reorder:0.5,corrupt:0.01,delay:0.3=2,silent:1@4,desync:0@8",
        )
        .unwrap();
        assert_eq!(plan.seed, 9);
        assert!(plan.is_silent(1, 4) && plan.is_silent(1, 9));
        assert!(!plan.is_silent(1, 3) && !plan.is_silent(0, 4));
        assert!(plan.desyncs_at(0, 8) && !plan.desyncs_at(0, 9));
        let reparsed = NetFaultPlan::parse(&plan.to_string()).unwrap();
        assert_eq!(reparsed, plan);
        assert_eq!(NetFaultPlan::parse("").unwrap(), NetFaultPlan::none());
        assert!(NetFaultPlan::none().is_null());
    }

    #[test]
    fn plan_parse_rejects_malformed() {
        for bad in [
            "drop",
            "drop:2.0",
            "drop:-0.1",
            "drop:x",
            "delay:0.5",
            "delay:0.5=0",
            "silent:1",
            "silent:x@2",
            "frob:0.1",
        ] {
            assert!(NetFaultPlan::parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn fault_draws_are_deterministic_and_rate_shaped() {
        let plan = NetFaultPlan {
            drop: 0.25,
            seed: 7,
            ..NetFaultPlan::none()
        };
        let hits: usize = (0..4000).filter(|&seq| plan.drops(0, 1, seq, 1)).count();
        // Deterministic and near the nominal rate.
        assert_eq!(
            hits,
            (0..4000).filter(|&seq| plan.drops(0, 1, seq, 1)).count()
        );
        assert!((800..1200).contains(&hits), "drop rate off: {hits}/4000");
        // Retransmits re-roll independently of the first attempt.
        assert!((0..4000).any(|seq| plan.drops(0, 1, seq, 1) != plan.drops(0, 1, seq, 2)));
    }

    #[test]
    fn emulated_net_drop_and_delay() {
        let plan = NetFaultPlan {
            drop: 1.0,
            ..NetFaultPlan::none()
        };
        let mut net = EmulatedNet::new(2, plan, CostModel::default());
        let frame = encode_msg(0, &sample_payloads()[0]);
        net.send(0, 0, 1, 0, 1, &frame);
        assert_eq!(net.totals.dropped, 1);
        assert!(net.collect(0, 1).is_empty());
        assert_eq!(net.totals.bytes, frame.len() as u64);
        assert!(net.totals.comm_cost > 0.0);

        let plan = NetFaultPlan {
            delay: 1.0,
            delay_rounds: 2,
            ..NetFaultPlan::none()
        };
        let mut net = EmulatedNet::new(2, plan, CostModel::default());
        net.send(0, 0, 1, 0, 1, &frame);
        assert!(net.collect(0, 1).is_empty());
        assert!(net.collect(1, 1).is_empty());
        let late = net.collect(2, 1);
        assert_eq!(late.len(), 1);
        assert!(net.quiescent());
    }

    #[test]
    fn emulated_net_corruption_is_always_detected() {
        let plan = NetFaultPlan {
            corrupt: 1.0,
            seed: 3,
            ..NetFaultPlan::none()
        };
        let mut net = EmulatedNet::new(2, plan, CostModel::default());
        for seq in 0..50 {
            let frame = encode_msg(seq, &sample_payloads()[(seq % 5) as usize]);
            net.send(0, 0, 1, seq, 1, &frame);
        }
        let arrivals = net.collect(0, 1);
        assert_eq!(arrivals.len(), 50);
        for (_, frame) in arrivals {
            assert!(decode_msg(&frame).is_err(), "corrupted frame decoded");
        }
        assert_eq!(net.totals.corrupted, 50);
    }

    #[test]
    fn peer_tracker_orders_and_dedups() {
        let mut t = PeerTracker::default();
        assert_eq!(t.offer(0), Offer::Apply);
        assert_eq!(t.offer(0), Offer::Duplicate);
        assert_eq!(t.offer(2), Offer::Future);
        assert_eq!(t.offer(1), Offer::Apply);
        assert_eq!(t.offer(2), Offer::Apply);
        t.skip_to(10);
        assert_eq!(t.offer(9), Offer::Duplicate);
        assert_eq!(t.offer(10), Offer::Apply);
    }

    #[test]
    fn digest_tracks_state_and_catches_corruption() {
        use hsbp_graph::Graph;
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let bm = Blockmodel::from_assignment(&g, vec![0, 0, 1, 1], 2);
        let same = Blockmodel::from_assignment(&g, vec![0, 0, 1, 1], 2);
        assert_eq!(blockmodel_digest(&bm), blockmodel_digest(&same));
        let other = Blockmodel::from_assignment(&g, vec![0, 1, 1, 0], 2);
        assert_ne!(blockmodel_digest(&bm), blockmodel_digest(&other));
        let mut corrupted = bm.clone();
        assert!(corrupted.inject_state_corruption(12));
        assert_ne!(blockmodel_digest(&bm), blockmodel_digest(&corrupted));
    }
}

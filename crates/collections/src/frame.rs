//! The length-prefixed, checksummed record format shared by the serve
//! write-ahead log and the exact-mode sync channel:
//!
//! ```text
//! [u32 payload_len][u64 seq][u64 fnv1a(payload)][payload]      little-endian
//! ```
//!
//! Callers own the payload encoding; this module owns the framing, so the
//! bytes on disk and on the wire are decided in one place.

use crate::fnv1a;

/// Bytes of the record header: `[u32 len][u64 seq][u64 checksum]`.
pub const HEADER_LEN: usize = 4 + 8 + 8;

/// Why no intact frame starts at the front of a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than the header, or fewer than the header promises.
    Truncated,
    /// The FNV-1a checksum does not match the payload.
    BadChecksum,
}

/// Frame `payload` under sequence number `seq`.
pub fn encode(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Decode the frame at the front of `bytes` into `(seq, payload,
/// consumed)`, where `consumed` is the frame's full length. Bytes past it
/// are left to the caller.
pub fn decode(bytes: &[u8]) -> Result<(u64, &[u8], usize), FrameError> {
    let header = bytes.get(..HEADER_LEN).ok_or(FrameError::Truncated)?;
    let mut len = [0u8; 4];
    len.copy_from_slice(&header[0..4]);
    let mut seq = [0u8; 8];
    seq.copy_from_slice(&header[4..12]);
    let mut sum = [0u8; 8];
    sum.copy_from_slice(&header[12..20]);
    let end = HEADER_LEN
        .checked_add(u32::from_le_bytes(len) as usize)
        .ok_or(FrameError::Truncated)?;
    let payload = bytes.get(HEADER_LEN..end).ok_or(FrameError::Truncated)?;
    if fnv1a(payload) != u64::from_le_bytes(sum) {
        return Err(FrameError::BadChecksum);
    }
    Ok((u64::from_le_bytes(seq), payload, end))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_leaves_trailing_bytes_to_the_caller() {
        let mut bytes = encode(9, b"payload");
        bytes.extend_from_slice(&encode(10, b""));
        let (seq, payload, consumed) = decode(&bytes).unwrap();
        assert_eq!(
            (seq, payload, consumed),
            (9, &b"payload"[..], HEADER_LEN + 7)
        );
        assert_eq!(decode(&bytes[consumed..]), Ok((10, &b""[..], HEADER_LEN)));
    }

    #[test]
    fn short_and_corrupt_frames_are_rejected() {
        let frame = encode(1, b"abc");
        for cut in 0..frame.len() {
            assert_eq!(
                decode(&frame[..cut]),
                Err(FrameError::Truncated),
                "cut {cut}"
            );
        }
        let mut flipped = frame.clone();
        flipped[HEADER_LEN + 1] ^= 0x40;
        assert_eq!(decode(&flipped), Err(FrameError::BadChecksum));
    }
}

//! On-disk record format of the write-ahead log.
//!
//! Every record is framed with a fixed 22-byte header followed by the
//! payload, all integers little-endian:
//!
//! ```text
//! offset  size  field
//! 0       4     magic      b"MLWA"
//! 4       2     version    format version (currently 1)
//! 6       4     len        payload length in bytes
//! 10      8     lsn        log sequence number (1-based, dense)
//! 18      4     crc        CRC32C over lsn (8 LE bytes) ++ payload
//! 22      len   payload    opaque bytes (the caller's serialized op)
//! ```
//!
//! The CRC covers the LSN as well as the payload so a bit flip in either
//! is caught; the magic + version guard against mis-framing after a torn
//! write corrupted the preceding record's `len`. Decoding classifies any
//! malformed suffix as a *torn tail* — the recovery reader truncates it
//! when it is the physical end of the newest segment, and reports hard
//! corruption when it is not.

/// Log sequence number. 1-based and dense: the n-th record ever appended
/// to a log carries LSN n, across segment boundaries and compactions.
pub type Lsn = u64;

/// Record magic bytes.
pub const MAGIC: [u8; 4] = *b"MLWA";

/// Record format version.
pub const FORMAT_VERSION: u16 = 1;

/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 22;

/// CRC32C (Castagnoli, reflected polynomial 0x82F63B78) — the checksum
/// iSCSI/ext4 use. Runs on the SSE4.2 `crc32` instruction when the CPU has
/// it, else on a 256-entry table; both give the same value, and the tests
/// hold the first to the second. Validated against the RFC 3720 vectors.
pub fn crc32c(data: &[u8]) -> u32 {
    crc32c_append(0, data)
}

/// Extends `crc`, the CRC32C of some bytes `a`, over `data`: returns the
/// CRC32C of `a ++ data`. `crc32c_append(0, data) == crc32c(data)`.
pub(crate) fn crc32c_append(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("sse4.2") {
        // SAFETY: the CPU was just found to support SSE4.2, the one
        // feature `sse42::update` is compiled for.
        return !unsafe { sse42::update(!crc, data) };
    }
    !update_table(!crc, data)
}

/// The CRC32C register after `data`, one table lookup per byte: the
/// fallback on CPUs without SSE4.2, and the oracle the hardware path is
/// tested against. `state` and the result are uninverted.
fn update_table(mut state: u32, data: &[u8]) -> u32 {
    const fn make_table() -> [u32; 256] {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u32;
            let mut j = 0;
            while j < 8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0x82F6_3B78
                } else {
                    crc >> 1
                };
                j += 1;
            }
            table[i] = crc;
            i += 1;
        }
        table
    }
    static TABLE: [u32; 256] = make_table();
    for &b in data {
        state = (state >> 8) ^ TABLE[((state ^ u32::from(b)) & 0xFF) as usize];
    }
    state
}

/// The CRC32C register update on the SSE4.2 `crc32` instruction, which
/// implements exactly the reflected Castagnoli step of [`update_table`].
#[cfg(target_arch = "x86_64")]
mod sse42 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};

    /// The register after `data`, eight bytes per instruction.
    ///
    /// # Safety
    ///
    /// The CPU must support SSE4.2.
    // SAFETY: `unsafe` because running `crc32` on a CPU without SSE4.2 is
    // undefined behaviour; `crc32c_append` calls only after detecting it.
    #[target_feature(enable = "sse4.2")]
    pub(super) unsafe fn update(state: u32, data: &[u8]) -> u32 {
        let (words, rest) = data.as_chunks::<8>();
        let mut state = u64::from(state);
        for word in words {
            state = _mm_crc32_u64(state, u64::from_le_bytes(*word));
        }
        let mut state = state as u32;
        for &b in rest {
            state = _mm_crc32_u8(state, b);
        }
        state
    }
}

/// CRC32C over the LSN (8 LE bytes) followed by the payload.
fn record_crc(lsn: Lsn, payload: &[u8]) -> u32 {
    crc32c_append(crc32c(&lsn.to_le_bytes()), payload)
}

/// Encodes one record (header + payload) into a fresh buffer.
pub fn encode(lsn: Lsn, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&lsn.to_le_bytes());
    out.extend_from_slice(&record_crc(lsn, payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Why a suffix of a segment failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TornReason {
    /// Fewer than [`HEADER_LEN`] bytes remain.
    TruncatedHeader,
    /// The header promises more payload bytes than the file holds.
    TruncatedPayload,
    /// The magic bytes do not match (mis-framed or overwritten).
    BadMagic,
    /// Unknown format version (bit flip or a future writer).
    BadVersion,
    /// Payload checksum mismatch (torn or bit-flipped write).
    BadCrc,
}

impl std::fmt::Display for TornReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            TornReason::TruncatedHeader => "truncated header",
            TornReason::TruncatedPayload => "truncated payload",
            TornReason::BadMagic => "bad magic",
            TornReason::BadVersion => "unknown format version",
            TornReason::BadCrc => "crc mismatch",
        };
        f.write_str(s)
    }
}

/// Result of decoding the record starting at `offset`.
#[derive(Debug, PartialEq, Eq)]
pub enum Decoded<'a> {
    /// A valid record; the next record (if any) starts at `next`.
    Record {
        /// The record's log sequence number.
        lsn: Lsn,
        /// Borrowed payload bytes.
        payload: &'a [u8],
        /// Byte offset one past this record.
        next: usize,
    },
    /// Clean end of the segment: `offset == buf.len()`.
    End,
    /// The bytes from `offset` on are not a valid record.
    Torn(TornReason),
}

/// Decodes the record at `offset` in `buf`.
pub fn decode(buf: &[u8], offset: usize) -> Decoded<'_> {
    if offset == buf.len() {
        return Decoded::End;
    }
    let rest = &buf[offset..];
    if rest.len() < HEADER_LEN {
        return Decoded::Torn(TornReason::TruncatedHeader);
    }
    if rest[0..4] != MAGIC {
        return Decoded::Torn(TornReason::BadMagic);
    }
    let version = u16::from_le_bytes([rest[4], rest[5]]);
    if version != FORMAT_VERSION {
        return Decoded::Torn(TornReason::BadVersion);
    }
    let len = u32::from_le_bytes([rest[6], rest[7], rest[8], rest[9]]) as usize;
    let lsn = Lsn::from_le_bytes([
        rest[10], rest[11], rest[12], rest[13], rest[14], rest[15], rest[16], rest[17],
    ]);
    let crc = u32::from_le_bytes([rest[18], rest[19], rest[20], rest[21]]);
    if rest.len() - HEADER_LEN < len {
        return Decoded::Torn(TornReason::TruncatedPayload);
    }
    let payload = &rest[HEADER_LEN..HEADER_LEN + len];
    if record_crc(lsn, payload) != crc {
        return Decoded::Torn(TornReason::BadCrc);
    }
    Decoded::Record {
        lsn,
        payload,
        next: offset + HEADER_LEN + len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both CRC32C paths over `data`, inverted as [`crc32c`] returns
    /// them: the table's, and the instruction's where the CPU has it.
    fn both_paths(data: &[u8]) -> (u32, Option<u32>) {
        let table = !update_table(!0, data);
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("sse4.2") {
            // SAFETY: SSE4.2 was just detected.
            return (table, Some(!unsafe { sse42::update(!0, data) }));
        }
        (table, None)
    }

    /// Asserts both paths give `want` over `data`, and so does [`crc32c`].
    fn assert_crc(data: &[u8], want: u32, what: &str) {
        let (table, hw) = both_paths(data);
        assert_eq!(table, want, "{what}: table path");
        if let Some(hw) = hw {
            assert_eq!(hw, want, "{what}: sse4.2 path");
        }
        assert_eq!(crc32c(data), want, "{what}: crc32c");
    }

    /// Deterministic pseudo-random bytes (splitmix64).
    fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed;
        (0..len.div_ceil(8))
            .flat_map(|_| {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)).to_le_bytes()
            })
            .take(len)
            .collect()
    }

    #[test]
    fn crc32c_known_vectors() {
        // The common check value, and RFC 3720 appendix B.4's vectors.
        assert_crc(b"123456789", 0xE306_9283, "check value");
        assert_crc(b"", 0, "empty");
        assert_crc(&[0u8; 32], 0x8A91_36AA, "32 zeros");
        assert_crc(&[0xFFu8; 32], 0x62A8_AB43, "32 ones");
        let up: Vec<u8> = (0..32).collect();
        assert_crc(&up, 0x46DD_794E, "incrementing");
        let down: Vec<u8> = (0..32).rev().collect();
        assert_crc(&down, 0x113F_DB5C, "decrementing");
        let mut pdu = [0u8; 48];
        for (at, b) in [
            (0, 0x01),
            (1, 0xC0),
            (16, 0x14),
            (22, 0x04),
            (27, 0x14),
            (31, 0x18),
            (32, 0x28),
            (40, 0x02),
        ] {
            pdu[at] = b;
        }
        assert_crc(&pdu, 0xD996_3A56, "iSCSI read PDU");
    }

    #[test]
    fn crc32c_paths_agree_at_every_length_and_offset() {
        let buf = seeded_bytes(0xC5C3_2C00, 1024 + 8);
        for start in 0..=7 {
            for len in 0..=1024 {
                let data = &buf[start..start + len];
                let (table, hw) = both_paths(data);
                if let Some(hw) = hw {
                    assert_eq!(hw, table, "offset {start}, length {len}");
                }
                assert_eq!(crc32c(data), table, "offset {start}, length {len}");
            }
        }
    }

    #[test]
    fn crc32c_paths_agree_on_large_buffers() {
        for (seed, len) in [(1, 4095), (2, 65_536), (3, 300_007), (4, 1 << 20)] {
            let data = seeded_bytes(seed, len);
            let (table, hw) = both_paths(&data);
            if let Some(hw) = hw {
                assert_eq!(hw, table, "seed {seed}, length {len}");
            }
        }
    }

    #[test]
    fn crc32c_append_over_any_split_equals_one_shot() {
        let data = seeded_bytes(0xA99E_0D00, 20_000);
        let whole = crc32c(&data);
        assert_eq!(crc32c_append(0, &data), whole);
        let mut cuts = seeded_bytes(7, 8 * 200)
            .chunks(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()) as usize % (data.len() + 1))
            .collect::<Vec<_>>();
        for round in cuts.chunks_mut(4) {
            round.sort_unstable();
            let mut crc = 0;
            let mut at = 0;
            for &cut in round.iter() {
                crc = crc32c_append(crc, &data[at..cut]);
                at = cut;
            }
            assert_eq!(crc32c_append(crc, &data[at..]), whole, "cuts {round:?}");
        }
        // The record CRC is the CRC of the LSN's bytes and the payload.
        let mut framed = 42u64.to_le_bytes().to_vec();
        framed.extend_from_slice(&data);
        assert_eq!(record_crc(42, &data), crc32c(&framed));
    }

    #[test]
    fn encode_decode_round_trip() {
        let rec = encode(7, b"hello wal");
        assert_eq!(rec.len(), HEADER_LEN + 9);
        match decode(&rec, 0) {
            Decoded::Record { lsn, payload, next } => {
                assert_eq!(lsn, 7);
                assert_eq!(payload, b"hello wal");
                assert_eq!(next, rec.len());
            }
            other => panic!("expected record, got {other:?}"),
        }
        assert_eq!(decode(&rec, rec.len()), Decoded::End);
    }

    #[test]
    fn empty_payload_round_trips() {
        let rec = encode(1, b"");
        match decode(&rec, 0) {
            Decoded::Record { lsn, payload, .. } => {
                assert_eq!(lsn, 1);
                assert!(payload.is_empty());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn multiple_records_chain() {
        let mut buf = encode(1, b"a");
        buf.extend_from_slice(&encode(2, b"bb"));
        let Decoded::Record { next, .. } = decode(&buf, 0) else {
            panic!()
        };
        match decode(&buf, next) {
            Decoded::Record { lsn, payload, next } => {
                assert_eq!((lsn, payload), (2, &b"bb"[..]));
                assert_eq!(decode(&buf, next), Decoded::End);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn torn_header_and_payload() {
        let rec = encode(3, b"payload");
        assert_eq!(
            decode(&rec[..10], 0),
            Decoded::Torn(TornReason::TruncatedHeader)
        );
        assert_eq!(
            decode(&rec[..HEADER_LEN + 3], 0),
            Decoded::Torn(TornReason::TruncatedPayload)
        );
    }

    #[test]
    fn bit_flips_are_caught() {
        let rec = encode(3, b"payload");
        // Flip one payload bit.
        let mut flipped = rec.clone();
        flipped[HEADER_LEN + 2] ^= 0x10;
        assert_eq!(decode(&flipped, 0), Decoded::Torn(TornReason::BadCrc));
        // Flip one LSN bit — the CRC covers the LSN too.
        let mut flipped = rec.clone();
        flipped[12] ^= 0x01;
        assert_eq!(decode(&flipped, 0), Decoded::Torn(TornReason::BadCrc));
        // Corrupt the magic.
        let mut flipped = rec.clone();
        flipped[0] = b'X';
        assert_eq!(decode(&flipped, 0), Decoded::Torn(TornReason::BadMagic));
        // Corrupt the version.
        let mut flipped = rec;
        flipped[4] = 0xFF;
        assert_eq!(decode(&flipped, 0), Decoded::Torn(TornReason::BadVersion));
    }
}

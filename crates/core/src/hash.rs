//! SHA-256 (FIPS 180-4), implemented from scratch for content addressing.
//!
//! Model artifacts are addressed by the SHA-256 of their bytes, so identical
//! re-uploads deduplicate and any corruption is detectable — the storage
//! substrate a real hub relies on. Validated against the FIPS test vectors
//! in this module's tests. On x86-64 CPUs with the SHA extensions the block
//! function runs on them; the portable one is the fallback elsewhere and
//! the oracle the tests compare the two against.

/// A 256-bit digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// Lower-case hex encoding.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    /// Parses a 64-character hex string.
    pub fn from_hex(s: &str) -> Option<Digest> {
        if s.len() != 64 {
            return None;
        }
        let mut out = [0u8; 32];
        for (i, chunk) in s.as_bytes().chunks(2).enumerate() {
            let hi = (chunk[0] as char).to_digit(16)?;
            let lo = (chunk[1] as char).to_digit(16)?;
            out[i] = ((hi << 4) | lo) as u8;
        }
        Some(Digest(out))
    }

    /// First 8 hex characters, for display.
    pub fn short(&self) -> String {
        self.to_hex()[..8].to_string()
    }

    /// Shard routing key: the first 8 digest bytes as a little-endian u64.
    /// SHA-256 output is uniform, so masking the low bits spreads models
    /// evenly over power-of-two shard counts, and the key is a pure
    /// function of artifact content — replay and reopen route identically.
    pub fn route_key(&self) -> u64 {
        u64::from_le_bytes([
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5], self.0[6], self.0[7],
        ])
    }
}

impl std::fmt::Debug for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Digest({})", self.short())
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Computes the SHA-256 digest of `data`: with the x86-64 SHA extensions
/// when the CPU has them, else with the portable block function. Both give
/// the same digest; the hash tests hold them to it.
pub fn sha256(data: &[u8]) -> Digest {
    #[cfg(target_arch = "x86_64")]
    if ni::available() {
        // SAFETY: `ni::available` just confirmed every CPU feature
        // `ni::compress` is compiled for.
        return digest_with(data, |h, blocks| unsafe { ni::compress(h, blocks) });
    }
    sha256_portable(data)
}

/// SHA-256 with the portable block function alone: the fallback on CPUs
/// without SHA extensions, and the oracle the hardware path is tested
/// against.
fn sha256_portable(data: &[u8]) -> Digest {
    digest_with(data, compress_portable)
}

/// Runs `compress` over the full 64-byte blocks of `data` in place, then
/// over the padded tail: the rest of `data`, `0x80`, zeros and the 64-bit
/// big-endian bit length, which take one block or two.
fn digest_with(data: &[u8], mut compress: impl FnMut(&mut [u32; 8], &[[u8; 64]])) -> Digest {
    let mut h = H0;
    let (blocks, rest) = data.as_chunks::<64>();
    compress(&mut h, blocks);
    let mut tail = [[0u8; 64]; 2];
    let used = if rest.len() < 56 { 1 } else { 2 };
    let flat = tail.as_flattened_mut();
    flat[..rest.len()].copy_from_slice(rest);
    flat[rest.len()] = 0x80;
    let bit_len = (data.len() as u64).wrapping_mul(8);
    flat[used * 64 - 8..used * 64].copy_from_slice(&bit_len.to_be_bytes());
    compress(&mut h, &tail[..used]);
    let mut out = [0u8; 32];
    for (i, word) in h.iter().enumerate() {
        out[i * 4..(i + 1) * 4].copy_from_slice(&word.to_be_bytes());
    }
    Digest(out)
}

/// The FIPS 180-4 compression function over `blocks`, one round at a time.
fn compress_portable(h: &mut [u32; 8], blocks: &[[u8; 64]]) {
    let mut w = [0u32; 64];
    for block in blocks {
        for (word, bytes) in w.iter_mut().zip(block.as_chunks::<4>().0) {
            *word = u32::from_be_bytes(*bytes);
        }
        for t in 16..64 {
            let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
            let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
            w[t] = w[t - 16]
                .wrapping_add(s0)
                .wrapping_add(w[t - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = *h;
        for t in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let temp1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[t])
                .wrapping_add(w[t]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }
        for (x, y) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *x = x.wrapping_add(y);
        }
    }
}

/// The compression function on the x86-64 SHA extensions (Intel's SHA-NI
/// layout: the state lives as `ABEF` / `CDGH` lane pairs, and each
/// `sha256rnds2` runs two rounds).
#[cfg(target_arch = "x86_64")]
mod ni {
    use super::K;
    use std::arch::x86_64::*;

    /// Whether this CPU has every feature [`compress`] is compiled for.
    pub(super) fn available() -> bool {
        std::is_x86_feature_detected!("sha")
            && std::is_x86_feature_detected!("sse2")
            && std::is_x86_feature_detected!("ssse3")
            && std::is_x86_feature_detected!("sse4.1")
    }

    /// `W[t..t + 4]` from the four message vectors before it.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
        _mm_sha256msg2_epu32(t, w3)
    }

    /// Four rounds: `wk` is `W[4i..4i + 4] + K[4i..4i + 4]`.
    #[inline]
    #[target_feature(enable = "sha,sse2")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, wk: __m128i) {
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0E>(wk));
    }

    /// The SHA-256 compression function over `blocks`, updating `h`.
    ///
    /// # Safety
    ///
    /// The CPU must support SHA, SSE2, SSSE3 and SSE4.1 ([`available`]).
    // SAFETY: `unsafe` because running these instructions on a CPU without
    // the features is undefined behaviour; `sha256` calls only after
    // `available` returned true.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress(h: &mut [u32; 8], blocks: &[[u8; 64]]) {
        // Byte-swaps each 32-bit lane: the message words are big-endian.
        let swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        // SAFETY: `h` is 32 readable bytes; `loadu` takes any alignment.
        let (dcba, hgfe) = unsafe {
            let p = h.as_ptr().cast::<__m128i>();
            (_mm_loadu_si128(p), _mm_loadu_si128(p.add(1)))
        };
        let cdab = _mm_shuffle_epi32::<0xB1>(dcba);
        let efgh = _mm_shuffle_epi32::<0x1B>(hgfe);
        let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
        let mut cdgh = _mm_blend_epi16::<0xF0>(efgh, cdab);
        for block in blocks {
            let (abef_in, cdgh_in) = (abef, cdgh);
            // SAFETY: a block is 64 readable bytes, four 16-byte loads;
            // `loadu` takes any alignment.
            let mut w = unsafe {
                let p = block.as_ptr().cast::<__m128i>();
                [0, 1, 2, 3].map(|i| _mm_shuffle_epi8(_mm_loadu_si128(p.add(i)), swap))
            };
            for i in 0..16 {
                if i >= 4 {
                    w[i % 4] = schedule(w[i % 4], w[(i + 1) % 4], w[(i + 2) % 4], w[(i + 3) % 4]);
                }
                // SAFETY: `K` has 64 entries, so `K[4i..4i + 4]` is in
                // bounds for `i < 16`; `loadu` takes any alignment.
                let k = unsafe { _mm_loadu_si128(K.as_ptr().add(4 * i).cast::<__m128i>()) };
                rounds4(&mut abef, &mut cdgh, _mm_add_epi32(w[i % 4], k));
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        let feba = _mm_shuffle_epi32::<0x1B>(abef);
        let dchg = _mm_shuffle_epi32::<0xB1>(cdgh);
        let dcba = _mm_blend_epi16::<0xF0>(feba, dchg);
        let hgef = _mm_alignr_epi8::<8>(dchg, feba);
        // SAFETY: `h` is 32 writable bytes; `storeu` takes any alignment.
        unsafe {
            let p = h.as_mut_ptr().cast::<__m128i>();
            _mm_storeu_si128(p, dcba);
            _mm_storeu_si128(p.add(1), hgef);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both paths: the dispatching `sha256` (the SHA extensions where the
    /// CPU has them) and the portable block function alone.
    const PATHS: [(&str, Hasher); 2] = [("sha256", sha256), ("sha256_portable", sha256_portable)];

    type Hasher = fn(&[u8]) -> Digest;

    /// FIPS 180-4 / NIST CAVS reference vectors, on both paths.
    #[test]
    fn fips_vectors() {
        for (path, hash) in PATHS {
            for (input, want) in [
                (
                    &b""[..],
                    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                ),
                (
                    b"abc",
                    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
                ),
                (
                    b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
                ),
            ] {
                assert_eq!(hash(input).to_hex(), want, "{path} on {input:?}");
            }
        }
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        for (path, hash) in PATHS {
            assert_eq!(
                hash(&data).to_hex(),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{path}"
            );
        }
    }

    /// Splitmix64: the seeded bytes and lengths of the differential test.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The hardware path against the portable one: every length through
    /// 1 KiB (each padding case, one to sixteen full blocks), 64 seeded
    /// lengths up to 1 MiB, and every start offset 1..=7 into a buffer, so
    /// the block loads are unaligned.
    #[test]
    fn hardware_matches_portable() {
        let mut rng = 0x5eed_0035;
        let buf: Vec<u8> = (0..(1 << 20) + 8)
            .map(|_| splitmix(&mut rng) as u8)
            .collect();
        let same =
            |data: &[u8]| assert_eq!(sha256(data), sha256_portable(data), "len {}", data.len());
        for len in 0..=1024 {
            same(&buf[..len]);
        }
        for _ in 0..64 {
            let len = (splitmix(&mut rng) % ((1 << 20) + 1)) as usize;
            same(&buf[..len]);
        }
        for offset in 1..=7 {
            for len in [0, 1, 55, 56, 63, 64, 65, 1000, 4096 + 17, 1 << 20] {
                same(&buf[offset..offset + len]);
            }
        }
    }

    #[test]
    fn padding_boundaries() {
        // Lengths that straddle the 55/56/64-byte padding edge cases must
        // all produce distinct, stable digests.
        let d55 = sha256(&[0u8; 55]);
        let d56 = sha256(&[0u8; 56]);
        let d64 = sha256(&[0u8; 64]);
        assert_ne!(d55, d56);
        assert_ne!(d56, d64);
    }

    #[test]
    fn hex_round_trip() {
        let d = sha256(b"model lake");
        let hex = d.to_hex();
        assert_eq!(Digest::from_hex(&hex), Some(d));
        assert_eq!(Digest::from_hex("xyz"), None);
        assert_eq!(Digest::from_hex(&"g".repeat(64)), None);
        assert_eq!(d.short().len(), 8);
        assert_eq!(format!("{d}"), hex);
        assert!(format!("{d:?}").starts_with("Digest("));
    }

    #[test]
    fn route_key_is_le_prefix_and_stable() {
        let d = sha256(b"model lake");
        let mut prefix = [0u8; 8];
        prefix.copy_from_slice(&d.0[..8]);
        assert_eq!(d.route_key(), u64::from_le_bytes(prefix));
        // Stable across calls and round trips (routing must be replayable).
        assert_eq!(
            Digest::from_hex(&d.to_hex()).map(|x| x.route_key()),
            Some(d.route_key())
        );
    }

    #[test]
    fn avalanche() {
        let a = sha256(b"model lake 1");
        let b = sha256(b"model lake 2");
        let differing_bytes = a.0.iter().zip(&b.0).filter(|(x, y)| x != y).count();
        assert!(differing_bytes > 24, "only {differing_bytes} bytes differ");
    }
}

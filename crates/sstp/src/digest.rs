//! One-way hashes for namespace summaries.
//!
//! §6.2 computes each namespace node's fixed-length summary "recursively
//! using the one-way hash function h (e.g., MD5)". MD5 (RFC 1321) is
//! implemented here from scratch — it is a *substrate dependency of the
//! paper*, not a security boundary; SSTP uses it purely as a collision-
//! resistant-enough summary so a digest mismatch means "this subtree
//! differs". A 64-bit FNV-1a is provided as a cheaper alternative and is
//! what the simulations default to (16 bytes vs 8 bytes per summary entry
//! changes packet sizes, which the session accounts for).

use std::fmt;

/// A namespace summary digest (truncated to 16 bytes max).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Digest {
    bytes: [u8; 16],
    len: u8,
}

impl Digest {
    /// Wraps a full MD5 digest.
    pub fn from_md5(bytes: [u8; 16]) -> Self {
        Digest { bytes, len: 16 }
    }

    /// Wraps a 64-bit FNV digest.
    pub fn from_u64(x: u64) -> Self {
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&x.to_be_bytes());
        Digest { bytes, len: 8 }
    }

    /// The digest bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }

    /// Length in bytes (8 for FNV, 16 for MD5).
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Digests are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.as_bytes() {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

/// The hash algorithm used for namespace summaries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum HashAlgorithm {
    /// RFC 1321 MD5 — the paper's example choice.
    Md5,
    /// 64-bit FNV-1a — smaller summaries, faster; the simulation default.
    #[default]
    Fnv64,
}

impl HashAlgorithm {
    /// A fresh streaming hasher for this algorithm.
    pub(crate) fn hasher(&self) -> Hasher {
        Hasher(match self {
            HashAlgorithm::Md5 => HashState::Md5(Md5State::new()),
            HashAlgorithm::Fnv64 => HashState::Fnv64(FNV_OFFSET),
        })
    }

    /// Hashes `data` with this algorithm.
    pub fn digest(&self, data: &[u8]) -> Digest {
        let mut h = self.hasher();
        h.write(data);
        h.finish()
    }

    /// Digest size in bytes — used in wire-format size accounting.
    pub fn digest_len(&self) -> usize {
        match self {
            HashAlgorithm::Md5 => 16,
            HashAlgorithm::Fnv64 => 8,
        }
    }
}

/// Streaming state of a summary hash: feed it the input in any number of
/// pieces and the digest equals the one-shot hash of their concatenation.
/// Holds no heap memory, so the namespace hashes a node's child slots
/// straight into it without building a buffer.
#[derive(Clone, Debug)]
pub(crate) struct Hasher(HashState);

#[derive(Clone, Debug)]
enum HashState {
    Md5(Md5State),
    /// The running 64-bit FNV-1a hash.
    Fnv64(u64),
}

#[cfg(test)]
thread_local! {
    /// Bytes this thread has fed to [`Hasher::write`]: lets the namespace
    /// tests pin how much a refresh hashes without timing anything.
    pub(crate) static BYTES_HASHED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl Hasher {
    /// Absorbs `data`.
    #[inline]
    pub fn write(&mut self, data: &[u8]) {
        #[cfg(test)]
        BYTES_HASHED.with(|n| n.set(n.get() + data.len() as u64));
        match &mut self.0 {
            HashState::Md5(s) => s.write(data),
            HashState::Fnv64(h) => *h = fnv1a64_fold(*h, data),
        }
    }

    /// The digest of everything written.
    pub fn finish(self) -> Digest {
        match self.0 {
            HashState::Md5(s) => Digest::from_md5(s.finish()),
            HashState::Fnv64(h) => Digest::from_u64(h),
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[inline]
fn fnv1a64_fold(mut h: u64, data: &[u8]) -> u64 {
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// 64-bit FNV-1a.
pub fn fnv1a64(data: &[u8]) -> u64 {
    fnv1a64_fold(FNV_OFFSET, data)
}

// --- MD5 (RFC 1321) -----------------------------------------------------

const MD5_S: [u32; 64] = [
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, //
    5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, //
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, //
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
];

const MD5_K: [u32; 64] = [
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
    0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
    0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
    0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
    0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
];

const MD5_INIT: [u32; 4] = [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476];

/// Streaming MD5: the four chaining words, the partial block not yet
/// compressed, and the message length so far.
#[derive(Clone, Debug)]
struct Md5State {
    words: [u32; 4],
    block: [u8; 64],
    /// Bytes of `block` in use (always < 64 between calls).
    filled: usize,
    /// Total bytes written.
    len: u64,
}

impl Md5State {
    fn new() -> Self {
        Md5State {
            words: MD5_INIT,
            block: [0; 64],
            filled: 0,
            len: 0,
        }
    }

    fn write(&mut self, mut data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        if self.filled > 0 {
            let take = data.len().min(64 - self.filled);
            self.block[self.filled..self.filled + take].copy_from_slice(&data[..take]);
            self.filled += take;
            data = &data[take..];
            if self.filled < 64 {
                return;
            }
            md5_compress(&mut self.words, &self.block);
            self.filled = 0;
        }
        // Whole blocks compress straight from the input.
        let mut blocks = data.chunks_exact(64);
        for block in &mut blocks {
            md5_compress(&mut self.words, block.try_into().expect("64-byte chunk"));
        }
        let rest = blocks.remainder();
        self.block[..rest.len()].copy_from_slice(rest);
        self.filled = rest.len();
    }

    fn finish(mut self) -> [u8; 16] {
        // Padding: 0x80, zeros, then the 64-bit little-endian bit length.
        let bit_len = self.len.wrapping_mul(8);
        self.block[self.filled] = 0x80;
        self.block[self.filled + 1..].fill(0);
        if self.filled + 1 > 56 {
            md5_compress(&mut self.words, &self.block);
            self.block.fill(0);
        }
        self.block[56..].copy_from_slice(&bit_len.to_le_bytes());
        md5_compress(&mut self.words, &self.block);
        md5_output(self.words)
    }
}

/// The digest bytes of the final chaining words (little-endian).
fn md5_output(words: [u32; 4]) -> [u8; 16] {
    let mut out = [0u8; 16];
    for (o, w) in out.chunks_exact_mut(4).zip(words) {
        o.copy_from_slice(&w.to_le_bytes());
    }
    out
}

/// One MD5 compression: folds a 64-byte block into the chaining words.
fn md5_compress(words: &mut [u32; 4], block: &[u8; 64]) {
    let mut m = [0u32; 16];
    for (w, b) in m.iter_mut().zip(block.chunks_exact(4)) {
        *w = u32::from_le_bytes(b.try_into().expect("4-byte chunk"));
    }
    let [mut a, mut b, mut c, mut d] = *words;
    for i in 0..64 {
        let (f, g) = match i / 16 {
            0 => ((b & c) | (!b & d), i),
            1 => ((d & b) | (!d & c), (5 * i + 1) % 16),
            2 => (b ^ c ^ d, (3 * i + 5) % 16),
            _ => (c ^ (b | !d), (7 * i) % 16),
        };
        let tmp = d;
        d = c;
        c = b;
        let sum = a.wrapping_add(f).wrapping_add(MD5_K[i]).wrapping_add(m[g]);
        b = b.wrapping_add(sum.rotate_left(MD5_S[i]));
        a = tmp;
    }
    words[0] = words[0].wrapping_add(a);
    words[1] = words[1].wrapping_add(b);
    words[2] = words[2].wrapping_add(c);
    words[3] = words[3].wrapping_add(d);
}

/// RFC 1321 MD5 of `data`.
pub fn md5(data: &[u8]) -> [u8; 16] {
    let mut s = Md5State::new();
    s.write(data);
    s.finish()
}

/// The buffer-building one-shot MD5 the streaming state replaced, kept
/// as the oracle for the streaming tests here and in `namespace`.
#[cfg(test)]
pub(crate) fn md5_padded_copy(data: &[u8]) -> [u8; 16] {
    let bit_len = (data.len() as u64).wrapping_mul(8);
    let mut msg = data.to_vec();
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&bit_len.to_le_bytes());
    let mut words = MD5_INIT;
    for chunk in msg.chunks_exact(64) {
        md5_compress(&mut words, chunk.try_into().unwrap());
    }
    md5_output(words)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn md5_hex(s: &str) -> String {
        md5(s.as_bytes())
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect()
    }

    /// The RFC 1321 appendix A.5 test suite.
    #[test]
    fn rfc1321_test_suite() {
        assert_eq!(md5_hex(""), "d41d8cd98f00b204e9800998ecf8427e");
        assert_eq!(md5_hex("a"), "0cc175b9c0f1b6a831c399e269772661");
        assert_eq!(md5_hex("abc"), "900150983cd24fb0d6963f7d28e17f72");
        assert_eq!(
            md5_hex("message digest"),
            "f96b697d7cb7938d525a2f31aaf161d0"
        );
        assert_eq!(
            md5_hex("abcdefghijklmnopqrstuvwxyz"),
            "c3fcd3d76192e4007dfb496cca67e13b"
        );
        assert_eq!(
            md5_hex("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"),
            "d174ab98d277d9f5a5611c2c9f419d9f"
        );
        assert_eq!(
            md5_hex(
                "12345678901234567890123456789012345678901234567890123456789012345678901234567890"
            ),
            "57edf4a22be3c955ac49da2e2107b67a"
        );
    }

    /// Streaming in pieces of any size equals the one-shot hash, which
    /// equals the padded-copy implementation it replaced — on the RFC
    /// vectors and around every padding boundary (55/56 fit or spill the
    /// length field, 63/64/65 and 119/120 the same one block later).
    #[test]
    fn streaming_md5_matches_one_shot() {
        let rfc: [&[u8]; 7] = [
            b"",
            b"a",
            b"abc",
            b"message digest",
            b"abcdefghijklmnopqrstuvwxyz",
            b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
            b"12345678901234567890123456789012345678901234567890123456789012345678901234567890",
        ];
        let sized: Vec<Vec<u8>> = [55usize, 56, 63, 64, 65, 119, 120]
            .iter()
            .map(|&n| (0..n).map(|i| (i * 7 + n) as u8).collect())
            .collect();
        for data in rfc.into_iter().chain(sized.iter().map(Vec::as_slice)) {
            let want = md5_padded_copy(data);
            assert_eq!(md5(data), want, "one-shot, {} bytes", data.len());
            for piece in [1usize, 3, 64] {
                let mut h = HashAlgorithm::Md5.hasher();
                for chunk in data.chunks(piece) {
                    h.write(chunk);
                }
                assert_eq!(
                    h.finish(),
                    Digest::from_md5(want),
                    "{} bytes in {piece}-byte pieces",
                    data.len()
                );
            }
        }
    }

    #[test]
    fn streaming_fnv_matches_one_shot() {
        let data: Vec<u8> = (0..200u8).collect();
        let mut h = HashAlgorithm::Fnv64.hasher();
        for chunk in data.chunks(3) {
            h.write(chunk);
        }
        assert_eq!(h.finish(), Digest::from_u64(fnv1a64(&data)));
    }

    #[test]
    fn md5_padding_boundaries() {
        // Lengths straddling the 56-byte padding boundary must all work.
        for n in 54..=70 {
            let data = vec![0x41u8; n];
            let d = md5(&data);
            assert_eq!(d.len(), 16);
            // Changing one byte changes the digest.
            let mut data2 = data.clone();
            data2[n / 2] ^= 1;
            assert_ne!(md5(&data), md5(&data2));
        }
    }

    #[test]
    fn fnv_known_values() {
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn digest_wrappers() {
        let m = HashAlgorithm::Md5.digest(b"abc");
        assert_eq!(m.len(), 16);
        assert_eq!(HashAlgorithm::Md5.digest_len(), 16);
        let f = HashAlgorithm::Fnv64.digest(b"abc");
        assert_eq!(f.len(), 8);
        assert_eq!(HashAlgorithm::Fnv64.digest_len(), 8);
        assert_ne!(m, f);
        assert!(!m.is_empty());
        assert_eq!(format!("{f:?}").len(), 16);
        assert_eq!(
            HashAlgorithm::Fnv64.digest(b"abc"),
            HashAlgorithm::Fnv64.digest(b"abc")
        );
    }

    #[test]
    fn digest_equality_is_content_based() {
        let a = Digest::from_u64(7);
        let b = Digest::from_u64(7);
        let c = Digest::from_u64(8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.as_bytes().len(), 8);
    }
}

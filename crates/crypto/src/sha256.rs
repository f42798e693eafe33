//! A from-scratch implementation of SHA-256 (FIPS 180-4).
//!
//! Used for block hashing, transaction identifiers and endorsement MACs
//! in the ledger substrate. An allocation-free streaming hasher over one
//! compression function with two bodies: the portable FIPS 180-4 rounds,
//! and the x86-64 SHA-extension kernel in the private `shani` module —
//! the one module of the workspace under `allow(unsafe_code)` — taken
//! whenever the CPU reports the extensions at run time. The NIST vectors
//! run against each body, and the hardware body is differential-tested
//! against the portable one in the unit tests below (DESIGN.md §4.17).

mod shani;

/// A 32-byte SHA-256 digest.
pub type Digest = [u8; 32];

/// Initial hash values: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09_e667,
    0xbb67_ae85,
    0x3c6e_f372,
    0xa54f_f53a,
    0x510e_527f,
    0x9b05_688c,
    0x1f83_d9ab,
    0x5be0_cd19,
];

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes.
const K: [u32; 64] = [
    0x428a_2f98,
    0x7137_4491,
    0xb5c0_fbcf,
    0xe9b5_dba5,
    0x3956_c25b,
    0x59f1_11f1,
    0x923f_82a4,
    0xab1c_5ed5,
    0xd807_aa98,
    0x1283_5b01,
    0x2431_85be,
    0x550c_7dc3,
    0x72be_5d74,
    0x80de_b1fe,
    0x9bdc_06a7,
    0xc19b_f174,
    0xe49b_69c1,
    0xefbe_4786,
    0x0fc1_9dc6,
    0x240c_a1cc,
    0x2de9_2c6f,
    0x4a74_84aa,
    0x5cb0_a9dc,
    0x76f9_88da,
    0x983e_5152,
    0xa831_c66d,
    0xb003_27c8,
    0xbf59_7fc7,
    0xc6e0_0bf3,
    0xd5a7_9147,
    0x06ca_6351,
    0x1429_2967,
    0x27b7_0a85,
    0x2e1b_2138,
    0x4d2c_6dfc,
    0x5338_0d13,
    0x650a_7354,
    0x766a_0abb,
    0x81c2_c92e,
    0x9272_2c85,
    0xa2bf_e8a1,
    0xa81a_664b,
    0xc24b_8b70,
    0xc76c_51a3,
    0xd192_e819,
    0xd699_0624,
    0xf40e_3585,
    0x106a_a070,
    0x19a4_c116,
    0x1e37_6c08,
    0x2748_774c,
    0x34b0_bcb5,
    0x391c_0cb3,
    0x4ed8_aa4a,
    0x5b9c_ca4f,
    0x682e_6ff3,
    0x748f_82ee,
    0x78a5_636f,
    0x84c8_7814,
    0x8cc7_0208,
    0x90be_fffa,
    0xa450_6ceb,
    0xbef9_a3f7,
    0xc671_78f2,
];

/// Streaming SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use fabriccrdt_crypto::sha256::Sha256;
///
/// let mut hasher = Sha256::new();
/// hasher.update(b"hello ");
/// hasher.update(b"world");
/// let digest = hasher.finalize();
/// assert_eq!(digest, fabriccrdt_crypto::sha256::digest(b"hello world"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sha256 {
    state: [u32; 8],
    /// Partially filled message block.
    buffer: [u8; 64],
    /// Number of valid bytes in `buffer`; always below 64.
    buffered: usize,
    /// Total message length in bytes.
    length: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0; 64],
            buffered: 0,
            length: 0,
        }
    }

    /// Feeds `data` into the hash computation.
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(compress_blocks, data);
    }

    /// Completes the computation and returns the digest, consuming the
    /// hasher.
    pub fn finalize(self) -> Digest {
        self.finalize_with(compress_blocks)
    }

    /// [`Sha256::update`] over an explicit compression kernel. Whole
    /// blocks go to the kernel straight from the caller's slice; only a
    /// trailing partial block is copied.
    #[inline]
    fn update_with(&mut self, compress: impl Fn(&mut [u32; 8], &[u8]), data: &[u8]) {
        self.length = self.length.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(input.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered < 64 {
                return;
            }
            compress(&mut self.state, &self.buffer);
            self.buffered = 0;
        }
        let (whole, tail) = input.split_at(input.len() - input.len() % 64);
        if !whole.is_empty() {
            compress(&mut self.state, whole);
        }
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffered = tail.len();
    }

    /// [`Sha256::finalize`] over an explicit compression kernel: pads in
    /// place — the 0x80 terminator, zeroes, and the bit length in the
    /// last eight bytes of the final block.
    #[inline]
    fn finalize_with(mut self, compress: impl Fn(&mut [u32; 8], &[u8])) -> Digest {
        self.buffer[self.buffered] = 0x80;
        self.buffer[self.buffered + 1..].fill(0);
        if self.buffered >= 56 {
            // No room left for the length: it goes in a block of its own.
            compress(&mut self.state, &self.buffer);
            self.buffer = [0; 64];
        }
        let bit_len = self.length.wrapping_mul(8);
        self.buffer[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buffer);

        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Folds `blocks` (a whole number of 64-byte blocks) into `state` with
/// the fastest kernel this CPU has. Both kernels compute the same
/// function, so nothing selects between them but the hardware.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    if !shani::compress_blocks(state, blocks) {
        compress_blocks_portable(state, blocks);
    }
}

/// The FIPS 180-4 rounds in plain Rust: the kernel of every CPU without
/// the x86 SHA extensions, and the oracle the hardware kernel is
/// differential-tested against.
fn compress_blocks_portable(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }

        for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *word = word.wrapping_add(add);
        }
    }
}

/// Which compression kernel this process hashes with: `"sha-ni"` on an
/// x86-64 CPU with the SHA extensions, `"portable"` everywhere else. For
/// reports only — a host-time artifact that does not say which kernel
/// produced it cannot be compared with another.
pub fn kernel() -> &'static str {
    if shani::available() {
        "sha-ni"
    } else {
        "portable"
    }
}

/// Computes the SHA-256 digest of `data` in one call.
///
/// # Examples
///
/// ```
/// let d = fabriccrdt_crypto::sha256::digest(b"");
/// assert_eq!(
///     fabriccrdt_crypto::hex::encode(&d),
///     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
/// );
/// ```
pub fn digest(data: &[u8]) -> Digest {
    let mut hasher = Sha256::new();
    hasher.update(data);
    hasher.finalize()
}

/// [`digest`] through the portable kernel whatever the CPU offers, so a
/// micro-benchmark can report both kernels side by side. Nothing on a
/// commit path calls it.
pub fn digest_portable(data: &[u8]) -> Digest {
    let mut hasher = Sha256::new();
    hasher.update_with(compress_blocks_portable, data);
    hasher.finalize_with(compress_blocks_portable)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    type Kernel = fn(&mut [u32; 8], &[u8]);

    /// The hardware kernel, or `None` (after saying so) on a CPU without
    /// it — a skipped half must not read as a passed one.
    fn hardware_kernel(test: &str) -> Option<Kernel> {
        if !shani::available() {
            eprintln!("{test}: SKIPPED for the sha-ni kernel, this CPU lacks the SHA extensions");
            return None;
        }
        Some(|state, blocks| assert!(shani::compress_blocks(state, blocks)))
    }

    /// Both bodies by name, not through the run-time switch.
    fn kernels(test: &str) -> Vec<(&'static str, Kernel)> {
        let mut all: Vec<(&str, Kernel)> = vec![("portable", compress_blocks_portable)];
        all.extend(hardware_kernel(test).map(|k| ("sha-ni", k)));
        all
    }

    fn digest_chunked(kernel: Kernel, data: &[u8], chunk: usize) -> Digest {
        let mut h = Sha256::new();
        for piece in data.chunks(chunk) {
            h.update_with(kernel, piece);
        }
        h.finalize_with(kernel)
    }

    fn lcg_bytes(len: usize) -> Vec<u8> {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (x >> 56) as u8
            })
            .collect()
    }

    /// Where the OS lists the SHA extensions, detection must find them:
    /// otherwise every hardware half below skips and the run still
    /// passes. Prints the kernel so `ci.sh` shows which one it tested.
    #[test]
    fn detection_agrees_with_cpuinfo() {
        println!("sha256 kernel: {}", kernel());
        let Ok(cpuinfo) = std::fs::read_to_string("/proc/cpuinfo") else {
            return;
        };
        let listed = cpuinfo.split_whitespace().any(|flag| flag == "sha_ni");
        assert_eq!(shani::available(), listed, "/proc/cpuinfo lists sha_ni");
    }

    #[test]
    fn nist_vectors_on_each_kernel() {
        let million_a = vec![b'a'; 1_000_000];
        let vectors: [(&[u8], &str); 5] = [
            (
                b"",
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
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
                  hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
            (
                &million_a,
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ];
        for (name, kernel) in kernels("nist_vectors_on_each_kernel") {
            for (message, expect) in vectors {
                let got = digest_chunked(kernel, message, usize::MAX);
                assert_eq!(hex::encode(&got), expect, "{name}, {} bytes", message.len());
            }
        }
        // The public entry points agree with whichever kernel they chose.
        for (message, expect) in vectors {
            assert_eq!(hex::encode(&digest(message)), expect);
            assert_eq!(hex::encode(&digest_portable(message)), expect);
        }
    }

    #[test]
    fn kernels_agree_on_raw_state() {
        let Some(hardware) = hardware_kernel("kernels_agree_on_raw_state") else {
            return;
        };
        let data = lcg_bytes(64 * 9);
        for blocks in 0..=9 {
            // From the initial state and from an arbitrary one.
            for start in [H0, [0xdead_beef; 8]] {
                let (mut a, mut b) = (start, start);
                compress_blocks_portable(&mut a, &data[..64 * blocks]);
                hardware(&mut b, &data[..64 * blocks]);
                assert_eq!(a, b, "{blocks} blocks");
            }
        }
    }

    #[test]
    fn kernels_agree_at_every_length_and_split() {
        let Some(hardware) = hardware_kernel("kernels_agree_at_every_length_and_split") else {
            return;
        };
        let data = lcg_bytes(260);
        for len in 0..=259 {
            let message = &data[..len];
            let expect = digest_chunked(compress_blocks_portable, message, usize::MAX);
            for split in 0..=len {
                let mut h = Sha256::new();
                h.update_with(hardware, &message[..split]);
                h.update_with(hardware, &message[split..]);
                assert_eq!(h.finalize_with(hardware), expect, "len {len} split {split}");
            }
        }
    }

    #[test]
    fn padding_boundaries_match_one_byte_at_a_time_on_each_kernel() {
        // 55 is the longest message whose padding fits its own block, 56
        // the shortest that needs a second; 119 / 120 are the same edge
        // one block on.
        let data = lcg_bytes(128);
        for (name, kernel) in kernels("padding_boundaries") {
            for len in [55, 56, 57, 63, 64, 65, 119, 120, 128] {
                let oneshot = digest_chunked(kernel, &data[..len], usize::MAX);
                let bytewise = digest_chunked(compress_blocks_portable, &data[..len], 1);
                assert_eq!(oneshot, bytewise, "{name}, len {len}");
            }
        }
    }

    #[test]
    fn one_mib_in_uneven_updates_on_each_kernel() {
        let data = lcg_bytes(1 << 20);
        let expect = digest_chunked(compress_blocks_portable, &data, usize::MAX);
        for (name, kernel) in kernels("one_mib_in_uneven_updates_on_each_kernel") {
            for chunk in [1, 63, 64, 65, 4096] {
                assert_eq!(
                    digest_chunked(kernel, &data, chunk),
                    expect,
                    "{name}, {chunk}-byte updates"
                );
            }
        }
    }

    #[test]
    fn streaming_matches_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0..257u16).map(|i| (i % 251) as u8).collect();
        let expect = digest(&data);
        for split in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), expect, "split at {split}");
        }
    }

    #[test]
    fn streaming_matches_oneshot_many_small_updates() {
        let data: Vec<u8> = (0..1000u16).map(|i| (i * 7 % 256) as u8).collect();
        let mut h = Sha256::new();
        for chunk in data.chunks(3) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), digest(&data));
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(digest(b"block-1"), digest(b"block-2"));
    }

    #[test]
    fn clone_preserves_state() {
        let mut h = Sha256::new();
        h.update(b"prefix");
        let h2 = h.clone();
        h.update(b"-a");
        let mut h2 = h2;
        h2.update(b"-a");
        assert_eq!(h.finalize(), h2.finalize());
    }
}

//! The x86-64 SHA-extension compression kernel and its run-time
//! dispatch — the one module of the workspace that may contain `unsafe`
//! (DESIGN.md §4.17). Everything the `unsafe` relies on lives here: the
//! feature probe and the only call of the `#[target_feature]` function.
#![allow(unsafe_code)]

/// Whether this CPU has every extension the kernel is compiled for.
/// Probed once per process; `false` on every other architecture.
pub(super) fn available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE.get_or_init(|| {
            is_x86_feature_detected!("sha")
                && is_x86_feature_detected!("sse2")
                && is_x86_feature_detected!("ssse3")
                && is_x86_feature_detected!("sse4.1")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Folds `blocks` (a whole number of 64-byte blocks) into `state` with
/// the SHA extensions and returns `true`, or returns `false` with
/// `state` untouched when the CPU lacks them.
pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if available() {
        // SAFETY: `x86::compress_blocks` is compiled with
        // `target_feature(enable = "sha,sse2,ssse3,sse4.1")` and touches
        // memory only through its two references; `available()` has just
        // confirmed with `is_x86_feature_detected!` that this CPU
        // implements all four extensions.
        unsafe { x86::compress_blocks(state, blocks) };
        return true;
    }
    let _ = (state, blocks);
    false
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_extract_epi32, _mm_set_epi32,
        _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
        _mm_shuffle_epi32, _mm_shuffle_epi8,
    };

    use super::super::K;

    /// Four consecutive words as one vector, `w[0]` in the low lane.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn words(w: &[u32]) -> __m128i {
        _mm_set_epi32(w[3] as i32, w[2] as i32, w[1] as i32, w[0] as i32)
    }

    /// Schedule words 4g .. 4g + 4 of one block, `g < 4`: sixteen message
    /// bytes read as four big-endian words.
    #[inline]
    #[target_feature(enable = "sse2,ssse3")]
    fn message(block: &[u8], g: usize) -> __m128i {
        let b = &block[16 * g..16 * g + 16];
        let le = |i: usize| u32::from_le_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]]);
        // Byte shuffle turning four little-endian lanes big-endian.
        let big_endian = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        _mm_shuffle_epi8(words(&[le(0), le(4), le(8), le(12)]), big_endian)
    }

    /// Schedule words t .. t + 4, `t >= 16`, from the four groups before
    /// them (`w16` is words t - 16 .. t - 12, and so on up to `w4`).
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3")]
    fn schedule(w16: __m128i, w12: __m128i, w8: __m128i, w4: __m128i) -> __m128i {
        let partial = _mm_add_epi32(_mm_sha256msg1_epu32(w16, w12), _mm_alignr_epi8::<4>(w4, w8));
        _mm_sha256msg2_epu32(partial, w4)
    }

    /// Rounds 4g .. 4g + 4 over schedule words `w`.
    #[inline]
    #[target_feature(enable = "sha,sse2")]
    fn rounds(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, g: usize) {
        let wk = _mm_add_epi32(w, words(&K[4 * g..4 * g + 4]));
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0E>(wk));
    }

    /// The SHA-256 compression function over every 64-byte block of
    /// `blocks`, after Intel's reference sequence for the SHA extensions:
    /// `sha256rnds2` runs two rounds on the state held as the lane
    /// vectors ABEF / CDGH, `sha256msg1` / `sha256msg2` extend the
    /// message schedule four words at a time.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0);
        let dcba = words(&state[..4]);
        let hgfe = words(&state[4..]);
        let cdab = _mm_shuffle_epi32::<0xB1>(dcba);
        let efgh = _mm_shuffle_epi32::<0x1B>(hgfe);
        let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
        let mut cdgh = _mm_blend_epi16::<0xF0>(efgh, cdab);

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let (mut w0, mut w1) = (message(block, 0), message(block, 1));
            let (mut w2, mut w3) = (message(block, 2), message(block, 3));
            rounds(&mut abef, &mut cdgh, w0, 0);
            rounds(&mut abef, &mut cdgh, w1, 1);
            rounds(&mut abef, &mut cdgh, w2, 2);
            rounds(&mut abef, &mut cdgh, w3, 3);
            for g in [4, 8, 12] {
                w0 = schedule(w0, w1, w2, w3);
                rounds(&mut abef, &mut cdgh, w0, g);
                w1 = schedule(w1, w2, w3, w0);
                rounds(&mut abef, &mut cdgh, w1, g + 1);
                w2 = schedule(w2, w3, w0, w1);
                rounds(&mut abef, &mut cdgh, w2, g + 2);
                w3 = schedule(w3, w0, w1, w2);
                rounds(&mut abef, &mut cdgh, w3, g + 3);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32::<0x1B>(abef);
        let dchg = _mm_shuffle_epi32::<0xB1>(cdgh);
        let dcba = _mm_blend_epi16::<0xF0>(feba, dchg);
        let hgfe = _mm_alignr_epi8::<8>(dchg, feba);
        *state = [
            _mm_extract_epi32::<0>(dcba) as u32,
            _mm_extract_epi32::<1>(dcba) as u32,
            _mm_extract_epi32::<2>(dcba) as u32,
            _mm_extract_epi32::<3>(dcba) as u32,
            _mm_extract_epi32::<0>(hgfe) as u32,
            _mm_extract_epi32::<1>(hgfe) as u32,
            _mm_extract_epi32::<2>(hgfe) as u32,
            _mm_extract_epi32::<3>(hgfe) as u32,
        ];
    }
}

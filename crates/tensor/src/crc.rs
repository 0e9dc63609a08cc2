//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320): the integrity
//! check of CEMT v2 checkpoint entries and files, of the serving shards'
//! stored checksums, and of the dense tiers' row checksums.
//!
//! CRC-32 detects every burst error up to 32 bits, so any single flipped or
//! dropped byte in a checked payload is guaranteed to be caught.
//!
//! # Kernel
//!
//! The hash sits on the serving hot path: every wave re-verifies each
//! probed shard in full, and with a one-byte-per-step table loop that check
//! was 96 % of a sharded serving call (about 600 MB/s hashing roughly
//! 10 MB per 8-request wave, against 2.6 % for the GEMM and top-k that rank
//! the images). Two layers make it fast while every digest stays
//! bit-identical to the bytewise definition, so stored CRCs and existing
//! files keep validating:
//!
//! * **Slicing-by-8.** Eight 256-entry tables, built at compile time, fold
//!   a whole 8-byte block per step: `TABLES[k]` maps a byte to its CRC
//!   contribution when `k` more bytes follow it in the block, so the eight
//!   lookups are independent and only one xor chain links the blocks.
//! * **Three lanes.** One lane is still bound by that chain (load, xor,
//!   next block). An input with at least `LANE_MIN_BLOCKS` (64) blocks per
//!   lane (1,536 bytes) is cut into three consecutive equal thirds that
//!   one loop hashes side by side, the second and third from a zero state,
//!   so the three chains overlap. The lanes are joined with zlib's
//!   shift-combine: the CRC register is linear, so feeding `n` more bytes
//!   to a state `s` gives `s · x^(8n) mod P` plus the state those bytes
//!   reach from zero. `multmodp` multiplies modulo `P`, and `x^(8n)`
//!   comes from a compile-time table of `x^(2^k) mod P` by repeated
//!   squaring. Shorter inputs, such as a 768-byte dense score row, take
//!   the single lane.
//!
//! [`Hasher::update_u32s`] and [`Hasher::update_f32s`] read 4-byte words
//! as their little-endian bytes straight from the slice, so a shard or a
//! score row is hashed without first being copied into a byte buffer.

/// The reflected CRC-32 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Three independent lanes keep three lookup chains in flight.
const LANES: usize = 3;

/// Minimum 8-byte blocks per lane before an input is split across the
/// lanes; shorter inputs take one lane.
const LANE_MIN_BLOCKS: usize = 64;

/// `TABLES[0]` is the classic bytewise table; `TABLES[k]` folds a byte
/// followed by `k` zero bytes.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// `X2N[k] = x^(2^k) mod P`. The order of `x` modulo `P` divides
/// `2^32 - 1`, so `x^(2^32) = x` and the table wraps after 32 entries.
const X2N: [u32; 32] = build_x2n();

const fn build_x2n() -> [u32; 32] {
    let mut table = [0u32; 32];
    let mut p = 1u32 << 30; // x^1; bit 31 holds x^0
    let mut k = 0;
    while k < 32 {
        table[k] = p;
        p = multmodp(p, p);
        k += 1;
    }
    table
}

/// `a(x) · b(x) mod P`, both in the reflected representation (bit 31 holds
/// the `x^0` coefficient).
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut product = 0u32;
    let mut m = 1u32 << 31;
    while m != 0 {
        if a & m != 0 {
            product ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
        m >>= 1;
    }
    product
}

/// `x^(8n) mod P`: the factor that carries a CRC state over `n` bytes.
fn shift_bytes(mut n: usize) -> u32 {
    let mut factor = 1u32 << 31; // x^0
    let mut k = 3; // 8n = n · 2^3
    while n != 0 {
        if n & 1 != 0 {
            factor = multmodp(X2N[k % 32], factor);
        }
        n >>= 1;
        k += 1;
    }
    factor
}

fn fold_byte(crc: u32, byte: u8) -> u32 {
    (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize]
}

/// One slicing-by-8 step over a block given as its two little-endian words.
#[inline(always)]
fn fold_block(crc: u32, [lo, hi]: [u32; 2]) -> u32 {
    let lo = lo ^ crc;
    TABLES[7][(lo & 0xFF) as usize]
        ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
        ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
        ^ TABLES[4][(lo >> 24) as usize]
        ^ TABLES[3][(hi & 0xFF) as usize]
        ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
        ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
        ^ TABLES[0][(hi >> 24) as usize]
}

/// A slice element hashed as its little-endian bytes. The `block` readers
/// are `#[inline(always)]`: without it the byte path runs at half speed.
trait LeBytes: Copy {
    /// Elements per 8-byte block.
    const PER_BLOCK: usize;
    /// One block (`PER_BLOCK` elements) as two little-endian words.
    fn block(chunk: &[Self]) -> [u32; 2];
    fn fold_tail(crc: u32, tail: &[Self]) -> u32;
}

impl LeBytes for u8 {
    const PER_BLOCK: usize = 8;
    #[inline(always)]
    fn block(c: &[u8]) -> [u32; 2] {
        [u32::from_le_bytes([c[0], c[1], c[2], c[3]]), u32::from_le_bytes([c[4], c[5], c[6], c[7]])]
    }
    fn fold_tail(crc: u32, tail: &[u8]) -> u32 {
        tail.iter().fold(crc, |crc, &b| fold_byte(crc, b))
    }
}

impl LeBytes for u32 {
    const PER_BLOCK: usize = 2;
    #[inline(always)]
    fn block(c: &[u32]) -> [u32; 2] {
        [c[0], c[1]]
    }
    fn fold_tail(crc: u32, tail: &[u32]) -> u32 {
        tail.iter().flat_map(|w| w.to_le_bytes()).fold(crc, fold_byte)
    }
}

impl LeBytes for f32 {
    const PER_BLOCK: usize = 2;
    #[inline(always)]
    fn block(c: &[f32]) -> [u32; 2] {
        [c[0].to_bits(), c[1].to_bits()]
    }
    fn fold_tail(crc: u32, tail: &[f32]) -> u32 {
        tail.iter().flat_map(|v| v.to_le_bytes()).fold(crc, fold_byte)
    }
}

/// Advance the CRC register `crc` over `data`, in one lane or three.
fn fold<T: LeBytes>(crc: u32, data: &[T]) -> u32 {
    let per_lane = data.len() / T::PER_BLOCK / LANES;
    if per_lane < LANE_MIN_BLOCKS {
        return fold_lane(crc, data);
    }
    let lane = per_lane * T::PER_BLOCK;
    let (a, rest) = data.split_at(lane);
    let (b, rest) = rest.split_at(lane);
    let (c, tail) = rest.split_at(lane);
    let (mut sa, mut sb, mut sc) = (crc, 0, 0);
    for ((x, y), z) in a
        .chunks_exact(T::PER_BLOCK)
        .zip(b.chunks_exact(T::PER_BLOCK))
        .zip(c.chunks_exact(T::PER_BLOCK))
    {
        sa = fold_block(sa, T::block(x));
        sb = fold_block(sb, T::block(y));
        sc = fold_block(sc, T::block(z));
    }
    let shift = shift_bytes(std::mem::size_of_val(b));
    let joined = multmodp(shift, multmodp(shift, sa) ^ sb) ^ sc;
    fold_lane(joined, tail)
}

fn fold_lane<T: LeBytes>(crc: u32, data: &[T]) -> u32 {
    let mut blocks = data.chunks_exact(T::PER_BLOCK);
    let crc = (&mut blocks).fold(crc, |crc, block| fold_block(crc, T::block(block)));
    T::fold_tail(crc, blocks.remainder())
}

/// Incremental CRC-32 state. Feed bytes with [`Hasher::update`] (or 4-byte
/// words with [`Hasher::update_u32s`] / [`Hasher::update_f32s`]), read the
/// digest with [`Hasher::finalize`].
#[derive(Debug, Clone)]
pub struct Hasher {
    state: u32,
}

impl Default for Hasher {
    fn default() -> Self {
        Hasher::new()
    }
}

impl Hasher {
    pub fn new() -> Self {
        Hasher { state: 0xFFFF_FFFF }
    }

    pub fn update(&mut self, bytes: &[u8]) {
        self.state = fold(self.state, bytes);
    }

    /// Same digest as [`Hasher::update`] over every word's `to_le_bytes`,
    /// without the byte copy.
    pub fn update_u32s(&mut self, words: &[u32]) {
        self.state = fold(self.state, words);
    }

    /// Same digest as [`Hasher::update`] over every value's `to_le_bytes`
    /// (the raw bits: NaN payloads and `-0.0` hash as stored), without the
    /// byte copy.
    pub fn update_f32s(&mut self, values: &[f32]) {
        self.state = fold(self.state, values);
    }

    pub fn finalize(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Hasher::new();
    h.update(bytes);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::StateDict;
    use crate::Tensor;
    use proptest::prelude::*;

    /// Smallest input that takes the three-lane path.
    const LANE_BYTES: usize = LANES * LANE_MIN_BLOCKS * 8;

    /// Bit-at-a-time CRC-32: the definition every kernel path must match.
    fn reference(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            }
        }
        !crc
    }

    /// Deterministic test bytes: the top byte of a xorshift64 stream.
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 56) as u8
            })
            .collect()
    }

    fn le_bytes_of<T: Copy, const N: usize>(values: &[T], to_le: impl Fn(T) -> [u8; N]) -> Vec<u8> {
        values.iter().flat_map(|&v| to_le(v)).collect()
    }

    #[test]
    fn known_vectors() {
        // Standard check value for the ASCII digits "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let mut h = Hasher::new();
        h.update(b"123");
        h.update(b"456789");
        assert_eq!(h.finalize(), crc32(b"123456789"));
    }

    #[test]
    fn single_byte_flips_change_digest() {
        let base = b"the quick brown fox jumps over the lazy dog".to_vec();
        let reference = crc32(&base);
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut corrupted = base.clone();
                corrupted[i] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), reference, "flip at byte {i} bit {bit}");
            }
        }
    }

    #[test]
    fn every_length_to_4_kib_matches_the_bitwise_reference() {
        let data = noise(0xC4C3_2001, 4096);
        for len in 0..=data.len() {
            assert_eq!(crc32(&data[..len]), reference(&data[..len]), "length {len}");
        }
    }

    /// Both sides of the lane threshold, by a byte and by a block, through
    /// all three entry points.
    #[test]
    fn lane_threshold_edges_match_the_reference() {
        for len in [LANE_BYTES - 8, LANE_BYTES - 1, LANE_BYTES, LANE_BYTES + 1, LANE_BYTES + 8] {
            let data = noise(len as u64, len);
            assert_eq!(crc32(&data), reference(&data), "bytes, length {len}");
            let words: Vec<u32> =
                data.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().unwrap())).collect();
            let words_bytes = &data[..words.len() * 4];
            let mut h = Hasher::new();
            h.update_u32s(&words);
            assert_eq!(h.finalize(), reference(words_bytes), "u32s, length {len}");
            let values: Vec<f32> = words.iter().map(|&w| f32::from_bits(w)).collect();
            let mut h = Hasher::new();
            h.update_f32s(&values);
            assert_eq!(h.finalize(), reference(words_bytes), "f32s, length {len}");
        }
    }

    #[test]
    fn shift_factors_match_feeding_zero_bytes() {
        // x^(2^32) = x, which lets `shift_bytes` wrap its table index.
        assert_eq!(multmodp(X2N[31], X2N[31]), X2N[0]);
        let state = 0x1234_5678;
        for n in [0usize, 1, 7, 8, 513, 4096] {
            assert_eq!(multmodp(shift_bytes(n), state), fold_lane(state, &vec![0u8; n]), "n = {n}");
        }
    }

    /// Pinned at the bytewise kernel this one replaced: a laned digest of a
    /// large buffer, and a whole CEMT v2 container (entry CRCs, file CRC
    /// and footer), so files and stored CRCs written before still validate.
    #[test]
    fn golden_digests_are_unchanged() {
        let mib = noise(0x1234_5678, 1 << 20);
        assert_eq!(crc32(&mib), 0x7732_3D2B);
        assert_eq!(reference(&mib), 0x7732_3D2B);

        let mut dict = StateDict::new();
        let weights: Vec<f32> =
            (0..64 * 48).map(|i| ((i * 7919) % 1000) as f32 / 8.0 - 62.5).collect();
        dict.insert("encoder.weight", Tensor::from_vec(weights, &[64, 48]));
        let bias: Vec<f32> = (0..48).map(|i| i as f32 * -0.5).collect();
        dict.insert("encoder.bias", Tensor::from_vec(bias, &[48]));
        dict.insert_meta("epochs_done", 7);
        let bytes = dict.to_bytes();
        assert_eq!(bytes.len(), 12_589);
        assert_eq!(crc32(&bytes), 0x54BB_EE33);
        let footer = &bytes[bytes.len() - 8..bytes.len() - 4];
        assert_eq!(u32::from_le_bytes(footer.try_into().unwrap()), 0xE23D_78BC);
        StateDict::from_bytes(&bytes).expect("the pinned container must still validate");
    }

    /// NaN payloads (quiet, signalling, negative), both zeros, subnormals
    /// and infinities: word hashing reads the raw bits like `to_le_bytes`.
    const SPECIAL_BITS: [u32; 9] = [
        0x7FC0_0000,
        0x7FC0_1234,
        0xFF80_0001,
        0x8000_0000,
        0x0000_0000,
        0x0000_0001,
        0x0040_0000,
        0x7F80_0000,
        0xFF80_0000,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn update_at_random_split_points_matches_the_reference(
            len in 0usize..4097,
            cuts in prop::collection::vec(0usize..4097, 0..5),
            seed in 0u64..1000,
        ) {
            let data = noise(seed, len);
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (len + 1)).collect();
            cuts.sort_unstable();
            let mut h = Hasher::new();
            let mut start = 0;
            for cut in cuts.into_iter().chain([len]) {
                h.update(&data[start..cut]);
                start = cut;
            }
            prop_assert_eq!(h.finalize(), reference(&data));
        }

        #[test]
        fn word_updates_match_update_over_le_bytes(
            bits in prop::collection::vec(0u32..=u32::MAX, 0..1200),
            specials in prop::collection::vec((0usize..1200, 0usize..SPECIAL_BITS.len()), 0..16),
        ) {
            let mut bits = bits;
            for (at, which) in specials {
                if let Some(slot) = bits.get_mut(at) {
                    *slot = SPECIAL_BITS[which];
                }
            }
            let mut bytewise = Hasher::new();
            bytewise.update(&le_bytes_of(&bits, u32::to_le_bytes));
            let mut words = Hasher::new();
            words.update_u32s(&bits);
            prop_assert_eq!(words.finalize(), bytewise.finalize());

            let values: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
            let mut bytewise = Hasher::new();
            bytewise.update(&le_bytes_of(&values, f32::to_le_bytes));
            let mut floats = Hasher::new();
            floats.update_f32s(&values);
            prop_assert_eq!(floats.finalize(), bytewise.finalize());
        }
    }
}

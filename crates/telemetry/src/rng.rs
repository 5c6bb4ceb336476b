//! The simulation's seeded generators: the SplitMix64 finaliser
//! ([`mix64`]), the SplitMix64 stream built on it ([`SplitMix64`]), and
//! xoshiro256++ seeded from that stream ([`SeededRng`]).
//!
//! Every seeded stream in the workspace comes from here: smart-meter
//! traces, SCBR publications, GenPack's cluster mix, fault sampling,
//! restart jitter, span ids, shard-ring points and property-test cases.
//! The same seed yields the same stream on every platform. Nothing here is
//! fit for secrets: keys and nonces come from
//! `securecloud_crypto::random_array`, which is keyed from the OS.

use std::ops::Range;

/// The SplitMix64 increment: 2⁶⁴/φ, rounded to odd.
pub const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The SplitMix64 finaliser: a cheap, well-distributed 64-bit mixer.
#[inline]
#[must_use]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// SplitMix64: a Weyl sequence stepped by [`GOLDEN_GAMMA`], each state
/// finalised by [`mix64`]. Seeds [`SeededRng`], and draws fault samples
/// and restart jitter where one word of state is enough.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator starting from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        mix64(self.state)
    }

    /// A value in `[0, bound)`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "SplitMix64::below requires a positive bound");
        self.next_u64() % bound
    }
}

/// xoshiro256++, seeded by four [`SplitMix64`] draws: the generator behind
/// every seeded workload stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeededRng {
    s: [u64; 4],
}

impl SeededRng {
    /// The generator for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut seeder = SplitMix64::new(seed);
        SeededRng {
            s: std::array::from_fn(|_| seeder.next_u64()),
        }
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A value drawn from `range` (half-open) with one 64-bit draw.
    pub fn gen_range<T: Uniform>(&mut self, range: Range<T>) -> T {
        assert!(range.start < range.end, "gen_range: empty range");
        T::sample(self.next_u64(), range.start, range.end)
    }

    /// `true` with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p out of [0,1]");
        unit(self.next_u64()) < p
    }
}

/// The top 53 bits of `draw` as a float in `[0, 1)`.
fn unit(draw: u64) -> f64 {
    (draw >> 11) as f64 / (1u64 << 53) as f64
}

/// A type [`SeededRng::gen_range`] draws from.
pub trait Uniform: PartialOrd {
    /// Maps one 64-bit draw into `[low, high)`.
    fn sample(draw: u64, low: Self, high: Self) -> Self;
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl Uniform for $t {
            fn sample(draw: u64, low: Self, high: Self) -> Self {
                let span = (high as i128 - low as i128) as u128;
                ((draw as u128 % span) as i128 + low as i128) as $t
            }
        }
    )*};
}

uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! uniform_float {
    ($($t:ty),*) => {$(
        impl Uniform for $t {
            fn sample(draw: u64, low: Self, high: Self) -> Self {
                low + (unit(draw) as $t) * (high - low)
            }
        }
    )*};
}

uniform_float!(f32, f64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_42_streams_are_pinned() {
        let mut rng = SeededRng::new(42);
        let words: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            words,
            [
                0xd076_4d4f_4476_689f,
                0x519e_4174_576f_3791,
                0xfbe0_7cfb_0c24_ed8c,
                0xb37d_9f60_0cd8_35b8
            ]
        );

        let mut rng = SeededRng::new(42);
        let ints: Vec<i64> = (0..4).map(|_| rng.gen_range(-1_000i64..1_000)).collect();
        let sizes: Vec<usize> = (0..4).map(|_| rng.gen_range(3usize..17)).collect();
        let wide: Vec<u64> = (0..4).map(|_| rng.gen_range(1u64..u64::MAX)).collect();
        let floats: Vec<u64> = (0..4)
            .map(|_| rng.gen_range(0.25f64..2.0).to_bits())
            .collect();
        let coins: Vec<bool> = (0..8).map(|_| rng.gen_bool(0.3)).collect();
        assert_eq!(ints, [951, -247, 100, 464]);
        assert_eq!(sizes, [12, 10, 3, 5]);
        assert_eq!(
            wide,
            [
                0x352c_f3da_f095_ccc8,
                0xeeef_d632_19b4_a0d5,
                0x8f3d_fa98_020e_7943,
                0xd99b_8e00_792f_360e
            ]
        );
        assert_eq!(
            floats,
            [
                0x3ff7_0a49_5049_35dd,
                0x3fd7_c993_e1e7_c6f4,
                0x3fee_9275_7694_75b1,
                0x3ff3_49c1_69b6_c8c2
            ]
        );
        assert_eq!(coins, [true, true, false, false, true, false, false, false]);
    }

    #[test]
    fn split_mix_stream_is_pinned() {
        let mut rng = SplitMix64::new(1);
        let words: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            words,
            [
                0x910a_2dec_8902_5cc1,
                0xbeeb_8da1_658e_ec67,
                0xf893_a2ee_fb32_555e,
                0x71c1_8690_ee42_c90b
            ]
        );
    }

    #[test]
    fn finalisers_are_pinned() {
        // `context.rs`: one id-minting step.
        assert_eq!(
            mix64(0x0123_4567_89ab_cdef_u64.wrapping_add(GOLDEN_GAMMA)),
            0x157a_3807_a48f_aa9d
        );
        // `shard.rs`: one key's ring position.
        assert_eq!(
            mix64(crate::fnv1a(crate::FNV_OFFSET, b"meter/000042")),
            0x5b86_2a32_7e3b_5ba7
        );
    }

    #[test]
    fn draws_stay_in_bounds() {
        let mut rng = SeededRng::new(7);
        for _ in 0..1000 {
            let v = rng.gen_range(-20i64..20);
            assert!((-20..20).contains(&v));
            let f = rng.gen_range(0.25..2.0);
            assert!((0.25..2.0).contains(&f));
            let u = rng.gen_range(0..5);
            assert!((0..5).contains(&u));
        }
        let mut split = SplitMix64::new(7);
        for _ in 0..1000 {
            assert!(split.below(1000) < 1000);
        }
    }

    #[test]
    fn gen_bool_respects_extremes() {
        let mut rng = SeededRng::new(9);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
        let trues = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2_000..4_000).contains(&trues), "got {trues}");
    }
}

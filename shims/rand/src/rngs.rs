//! Concrete generators (`rand::rngs` stand-in).

use crate::{RngCore, SeedableRng};

/// The workspace's standard deterministic generator: xoshiro256++
/// (Blackman & Vigna), state-expanded from the seed with SplitMix64.
///
/// Statistically solid for simulation workloads; **not** the real
/// `StdRng` (ChaCha12) and not a CSPRNG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        // SplitMix64 expansion guarantees a nonzero xoshiro state for
        // every seed, including 0.
        StdRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }
}

impl RngCore for StdRng {
    fn next_u64(&mut self) -> u64 {
        let s = &self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        step(&mut self.s);
        result
    }
}

/// xoshiro256's state transition. It is linear over GF(2), which is what
/// makes [`StdRng::advance`] possible.
fn step(s: &mut [u64; 4]) {
    let t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = s[3].rotate_left(45);
}

/// A polynomial over GF(2) of degree below 256; bit `i` of word `i / 64`
/// is the coefficient of `x^(64·(i / 64) + i % 64)`.
type Poly = [u64; 4];

/// The characteristic polynomial `P` of [`step`] without its leading
/// `x^256` term. Berlekamp–Massey over 512 output bits of the state finds
/// it (the `characteristic_polynomial_is_berlekamp_massey` test reruns
/// that); `P` is primitive, which is why xoshiro256 has period `2^256 − 1`.
const CHAR_POLY: Poly = [
    0x9d11_6f2b_b0f0_f001,
    0x0280_002b_cefd_1a5e,
    0x04b4_edcf_2625_9f85,
    0x0003_c03c_3f3e_cb19,
];

/// `a · x mod P`.
fn times_x(a: Poly) -> Poly {
    let carry = a[3] >> 63;
    let mut r =
        [a[0] << 1, a[1] << 1 | a[0] >> 63, a[2] << 1 | a[1] >> 63, a[3] << 1 | a[2] >> 63];
    if carry == 1 {
        r.iter_mut().zip(CHAR_POLY).for_each(|(w, p)| *w ^= p);
    }
    r
}

/// `a² mod P`. Squaring over GF(2) spreads bit `i` to bit `2i`; each bit
/// `j ≥ 256` of the square is then folded down as `x^(j−256) · (P − x^256)`,
/// highest first, since that touches only bits below `j`.
fn square(a: Poly) -> Poly {
    /// Bits `0..32` of `w` moved to the even positions `0..64`.
    fn spread(w: u64) -> u64 {
        let mut w = w & 0xffff_ffff;
        w = (w | w << 16) & 0x0000_ffff_0000_ffff;
        w = (w | w << 8) & 0x00ff_00ff_00ff_00ff;
        w = (w | w << 4) & 0x0f0f_0f0f_0f0f_0f0f;
        w = (w | w << 2) & 0x3333_3333_3333_3333;
        (w | w << 1) & 0x5555_5555_5555_5555
    }
    let mut wide = [0u64; 8];
    for (i, &w) in a.iter().enumerate() {
        wide[2 * i] = spread(w);
        wide[2 * i + 1] = spread(w >> 32);
    }
    for j in (256..512).rev() {
        if wide[j / 64] >> (j % 64) & 1 == 0 {
            continue;
        }
        wide[j / 64] ^= 1 << (j % 64);
        let (q, r) = ((j - 256) / 64, (j - 256) % 64);
        for (k, &p) in CHAR_POLY.iter().enumerate() {
            wide[q + k] ^= p << r;
            if r > 0 && q + k + 1 < 8 {
                wide[q + k + 1] ^= p >> (64 - r);
            }
        }
    }
    [wide[0], wide[1], wide[2], wide[3]]
}

impl StdRng {
    /// Moves the generator `steps` outputs ahead, exactly as `steps` calls
    /// of [`RngCore::next_u64`] would, in time logarithmic in `steps`.
    ///
    /// The state transition is a linear map `T` over GF(2)^256 whose
    /// characteristic polynomial `P` has degree 256, so `T^k = r(T)` with
    /// `r = x^k mod P` (Haramoto et al., "Efficient Jump Ahead for
    /// F2-Linear Random Number Generators", 2008). `r` costs one squaring
    /// per bit of `steps`, and applying it 256 state steps.
    pub fn advance(&mut self, steps: u64) {
        let mut r: Poly = [1, 0, 0, 0];
        for bit in (0..u64::BITS - steps.leading_zeros()).rev() {
            r = square(r);
            if steps >> bit & 1 == 1 {
                r = times_x(r);
            }
        }
        let mut jumped = [0u64; 4];
        let mut s = self.s;
        for i in 0..256 {
            if r[i / 64] >> (i % 64) & 1 == 1 {
                jumped.iter_mut().zip(s).for_each(|(j, w)| *j ^= w);
            }
            step(&mut s);
        }
        self.s = jumped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeedableRng;

    fn stepped(mut rng: StdRng, steps: u64) -> StdRng {
        for _ in 0..steps {
            rng.next_u64();
        }
        rng
    }

    fn advanced(mut rng: StdRng, steps: u64) -> StdRng {
        rng.advance(steps);
        rng
    }

    #[test]
    fn advance_equals_stepping() {
        for seed in [0, 1, 7919] {
            let rng = StdRng::seed_from_u64(seed);
            for steps in [0, 1, 2, 63, 64, 255, 256, 257, 511, 512, 513, 4096] {
                assert_eq!(advanced(rng.clone(), steps), stepped(rng.clone(), steps));
            }
        }
        let mut pick = StdRng::seed_from_u64(99);
        for _ in 0..32 {
            let rng = StdRng::seed_from_u64(pick.next_u64());
            let steps = pick.next_u64() % 100_000;
            assert_eq!(advanced(rng.clone(), steps), stepped(rng, steps), "{steps}");
        }
    }

    #[test]
    fn advances_compose() {
        let mut pick = StdRng::seed_from_u64(3);
        for _ in 0..16 {
            let rng = StdRng::seed_from_u64(pick.next_u64());
            let (a, b) = (pick.next_u64() >> 2, pick.next_u64() >> 2);
            let twice = advanced(advanced(rng.clone(), a), b);
            assert_eq!(twice, advanced(rng, a + b), "{a} + {b}");
        }
    }

    #[test]
    fn two_to_the_128_is_the_reference_jump() {
        // xoshiro256's reference `jump()` applies x^(2^128) mod P with
        // these coefficients; squaring x 128 times must reproduce them.
        let mut r: Poly = [2, 0, 0, 0];
        for _ in 0..128 {
            r = square(r);
        }
        assert_eq!(
            r,
            [
                0x180e_c6d3_3cfd_0aba,
                0xd5a6_1266_f0c9_392c,
                0xa958_2618_e03f_c9aa,
                0x39ab_dc45_29b1_661c
            ]
        );
    }

    #[test]
    fn characteristic_polynomial_is_berlekamp_massey() {
        // Bit 0 of the state's first word over 512 steps; its shortest
        // linear recurrence `s_n = Σ c_i s_(n−i)`, i = 1..=L, has L = 256
        // and gives P = x^L + Σ c_i x^(L−i).
        let mut s = StdRng::seed_from_u64(12345).s;
        let bits: Vec<u8> = (0..512)
            .map(|_| {
                let b = (s[0] & 1) as u8;
                step(&mut s);
                b
            })
            .collect();
        let (mut c, mut b) = (vec![0u8; 513], vec![0u8; 513]);
        c[0] = 1;
        b[0] = 1;
        let (mut len, mut gap) = (0, 1);
        for n in 0..bits.len() {
            let d = (1..=len).fold(bits[n], |d, i| d ^ (c[i] & bits[n - i]));
            if d == 0 {
                gap += 1;
                continue;
            }
            let prev = c.clone();
            for i in gap..c.len() {
                c[i] ^= b[i - gap];
            }
            if 2 * len <= n {
                len = n + 1 - len;
                b = prev;
                gap = 1;
            } else {
                gap += 1;
            }
        }
        assert_eq!(len, 256);
        let mut p: Poly = [0; 4];
        for j in 0..256 {
            p[j / 64] |= u64::from(c[256 - j]) << (j % 64);
        }
        assert_eq!(p, CHAR_POLY);
    }
}

//! The one product kernel behind [`Matrix::matmul`], [`Matrix::matmul_nt`]
//! and [`Matrix::matmul_tn`].
//!
//! Every output entry is the left-to-right sum, from `+0.0`, of
//! `a[i][k] * b[k][j]` over ascending `k`: one rounding for each product and
//! one for each sum. No term is skipped and nothing is fused into a
//! multiply-add, so `0 · NaN` and `0 · ∞` propagate as IEEE 754 requires.
//! A block of output columns stays in registers while `k` ascends, and the
//! vector lanes run across those columns, never across `k`; so no tier
//! reorders a sum, and every tier yields the same bits.
//!
//! The body is compiled for the baseline target and, on x86-64, under
//! `#[target_feature]` for AVX and AVX-512F. The process runs the widest
//! tier its CPU reports, detected once ([`Tier::widest`]).
//!
//! [`Matrix::matmul`]: super::Matrix::matmul
//! [`Matrix::matmul_nt`]: super::Matrix::matmul_nt
//! [`Matrix::matmul_tn`]: super::Matrix::matmul_tn

use std::sync::OnceLock;

/// The left factor of a product, read in place through strides: entry
/// `(i, k)` is `data[i * row_stride + k * k_stride]`. A row-major matrix is
/// read with `(cols, 1)`, its transpose with `(1, cols)`.
#[derive(Clone, Copy)]
pub(super) struct Lhs<'a> {
    pub(super) data: &'a [f64],
    pub(super) row_stride: usize,
    pub(super) k_stride: usize,
}

/// A compiled copy of the kernel that this CPU can run. The field is
/// private, so a `Tier` comes only from [`Tier::offered`], which checks the
/// CPU first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) struct Tier(Isa);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Isa {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Tier {
    /// Every tier this CPU offers, narrowest first.
    pub(super) fn offered() -> Vec<Tier> {
        #[allow(unused_mut)] // only x86-64 has wider tiers
        let mut tiers = vec![Tier(Isa::Portable)];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx") {
                tiers.push(Tier(Isa::Avx));
            }
            if is_x86_feature_detected!("avx512f") {
                tiers.push(Tier(Isa::Avx512));
            }
        }
        tiers
    }

    /// The widest tier this CPU offers, detected once per process.
    pub(super) fn widest() -> Tier {
        static WIDEST: OnceLock<Tier> = OnceLock::new();
        *WIDEST.get_or_init(|| {
            *Tier::offered()
                .last()
                .expect("the portable tier is always offered")
        })
    }

    /// Writes `lhs · rhs` into `out`, where `rhs` is `inner × cols`
    /// row-major and `out` is a zero-filled `rows × cols`; `lhs` must hold
    /// every entry `(i, k)` for `i < rows`, `k < inner`.
    pub(super) fn product(self, lhs: Lhs<'_>, rhs: &[f64], cols: usize, out: &mut [f64]) {
        match self.0 {
            Isa::Portable => portable(lhs, rhs, cols, out),
            // SAFETY: a `Tier` holding `Isa::Avx` is made only by `offered`,
            // after `is_x86_feature_detected!("avx")` reported AVX at run time.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx => unsafe { avx(lhs, rhs, cols, out) },
            // SAFETY: a `Tier` holding `Isa::Avx512` is made only by
            // `offered`, after `is_x86_feature_detected!("avx512f")` reported
            // AVX-512F at run time.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => unsafe { avx512(lhs, rhs, cols, out) },
        }
    }
}

// One compiled copy per tier (`inline(never)`), so every caller of a tier
// runs the same instructions. A 32-wide block of accumulators would fill all
// sixteen of the baseline target's 128-bit registers, so that tier runs
// 16-wide blocks; 32 fits AVX's 256-bit and AVX-512's 512-bit registers.

#[inline(never)]
fn portable(lhs: Lhs<'_>, rhs: &[f64], cols: usize, out: &mut [f64]) {
    body::<16>(lhs, rhs, cols, out);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline(never)]
fn avx(lhs: Lhs<'_>, rhs: &[f64], cols: usize, out: &mut [f64]) {
    body::<32>(lhs, rhs, cols, out);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline(never)]
fn avx512(lhs: Lhs<'_>, rhs: &[f64], cols: usize, out: &mut [f64]) {
    body::<32>(lhs, rhs, cols, out);
}

/// Each output row in blocks of `W`, 16 and 8 columns. Fewer than 8 columns
/// left of a row at least 8 wide run as one more 8-block ending at the last
/// column; it recomputes the columns it overlaps, to the same bits. A row
/// narrower than 8 runs in blocks of 4, 2 and 1.
#[inline(always)]
fn body<const W: usize>(lhs: Lhs<'_>, rhs: &[f64], cols: usize, out: &mut [f64]) {
    if cols == 0 || rhs.is_empty() {
        return; // an empty sum: `out` stays +0.0
    }
    for (i, orow) in out.chunks_exact_mut(cols).enumerate() {
        let a = &lhs.data[i * lhs.row_stride..];
        let j = blocks::<W>(a, lhs.k_stride, rhs, orow, 0);
        let j = blocks::<16>(a, lhs.k_stride, rhs, orow, j);
        let j = blocks::<8>(a, lhs.k_stride, rhs, orow, j);
        if j < cols && cols >= 8 {
            blocks::<8>(a, lhs.k_stride, rhs, orow, cols - 8);
        } else {
            let j = blocks::<4>(a, lhs.k_stride, rhs, orow, j);
            let j = blocks::<2>(a, lhs.k_stride, rhs, orow, j);
            blocks::<1>(a, lhs.k_stride, rhs, orow, j);
        }
    }
}

/// Fills `orow[j..]` in blocks of `B` columns while a whole block fits, and
/// returns the first column left. `a` starts at the row's `k = 0` entry.
#[inline(always)]
fn blocks<const B: usize>(
    a: &[f64],
    k_stride: usize,
    rhs: &[f64],
    orow: &mut [f64],
    mut j: usize,
) -> usize {
    let cols = orow.len();
    while cols - j >= B {
        let mut acc = [0.0f64; B];
        for (&a_k, b_k) in a.iter().step_by(k_stride).zip(rhs.chunks_exact(cols)) {
            let b: &[f64; B] = b_k[j..j + B].try_into().expect("the block lies in the row");
            for (s, &b) in acc.iter_mut().zip(b) {
                *s += a_k * b;
            }
        }
        orow[j..j + B].copy_from_slice(&acc);
        j += B;
    }
    j
}

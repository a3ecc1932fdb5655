//! Property-based tests for the numeric substrate: algebraic laws of the
//! matrix type, distribution invariants of the RNG, and autograd consistency
//! under random compositions.

use fexiot_tensor::{linalg, Forward, Matrix, Rng, Tape};
use proptest::prelude::*;

fn small_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-10.0..10.0f64, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_associative(a in small_matrix(3, 4), b in small_matrix(4, 2), c in small_matrix(2, 5)) {
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        prop_assert!(left.max_abs_diff(&right) < 1e-9);
    }

    #[test]
    fn matmul_distributes_over_add(a in small_matrix(3, 3), b in small_matrix(3, 3), c in small_matrix(3, 3)) {
        let left = a.matmul(&b.add(&c));
        let right = a.matmul(&b).add(&a.matmul(&c));
        prop_assert!(left.max_abs_diff(&right) < 1e-9);
    }

    #[test]
    fn transpose_reverses_product(a in small_matrix(3, 4), b in small_matrix(4, 2)) {
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        prop_assert!(left.max_abs_diff(&right) < 1e-9);
    }

    #[test]
    fn solve_then_multiply_roundtrips(seed in 0u64..1000) {
        let mut rng = Rng::seed_from_u64(seed);
        // Diagonally dominant => comfortably nonsingular.
        let n = 4;
        let mut a = Matrix::random_normal(n, n, 0.0, 1.0, &mut rng);
        for i in 0..n {
            a[(i, i)] += 8.0;
        }
        let x_true = Matrix::random_normal(n, 1, 0.0, 1.0, &mut rng);
        let b = a.matmul(&x_true);
        let x = linalg::solve(&a, &b).expect("nonsingular");
        prop_assert!(x.max_abs_diff(&x_true) < 1e-6);
    }

    #[test]
    fn rng_usize_in_range(seed in 0u64..1000, n in 1usize..500) {
        let mut rng = Rng::seed_from_u64(seed);
        for _ in 0..50 {
            prop_assert!(rng.usize(n) < n);
        }
    }

    #[test]
    fn dirichlet_is_simplex(seed in 0u64..500, k in 2usize..10, alpha in 0.05f64..20.0) {
        let mut rng = Rng::seed_from_u64(seed);
        let d = rng.dirichlet(&vec![alpha; k]);
        prop_assert_eq!(d.len(), k);
        prop_assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(d.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn softmax_rows_are_distributions(m in small_matrix(4, 6)) {
        let mut tape = Tape::new();
        let v = tape.constant(m);
        let s = tape.softmax_row(v);
        let out = tape.value(s);
        for r in 0..out.rows() {
            let sum: f64 = out.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
            prop_assert!(out.row(r).iter().all(|&p| p >= 0.0));
        }
    }

    #[test]
    fn backward_of_linear_matches_coefficients(w in small_matrix(3, 3), x in small_matrix(2, 3)) {
        // loss = sum(x W); d loss / d W = x^T * ones.
        let mut tape = Tape::new();
        let wv = tape.param(w.clone());
        let xv = tape.constant(x.clone());
        let y = tape.matmul(xv, wv);
        let loss = tape.sum_all(y);
        let grads = tape.backward(loss);
        let g = grads.get(wv, &w);
        let expected = x.transpose().matmul(&Matrix::ones(2, 3));
        prop_assert!(g.max_abs_diff(&expected) < 1e-9);
    }
}

// ---- fixed-layout matrix frames (the fexiot-store zero-copy codec) ----

use fexiot_tensor::codec::{ByteReader, ByteWriter};

/// Deterministic matrix from a seed, covering degenerate shapes (0×N, N×0)
/// and the full f64 special-value zoo. The codec must roundtrip bit
/// patterns, not values, so NaN and signed zero are compared via `to_bits`.
fn seeded_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = Rng::seed_from_u64(seed);
    let data = (0..rows * cols)
        .map(|_| match rng.usize(10) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -0.0,
            4 => f64::MIN_POSITIVE / 2.0, // subnormal
            _ => rng.uniform(-1e12, 1e12),
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

fn bits_equal(a: &Matrix, b: &Matrix) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fixed_frame_roundtrips_bit_exactly(rows in 0usize..7, cols in 0usize..7, seed in 0u64..10_000) {
        let m = seeded_matrix(rows, cols, seed);
        let mut w = ByteWriter::new();
        w.write_matrix_fixed(&m);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = r.read_matrix_fixed().expect("well-formed frame");
        prop_assert!(bits_equal(&m, &back));
        prop_assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn fixed_frame_encoding_is_byte_stable(rows in 0usize..7, cols in 0usize..7, seed in 0u64..10_000) {
        let m = seeded_matrix(rows, cols, seed);
        let mut w1 = ByteWriter::new();
        w1.write_matrix_fixed(&m);
        let mut w2 = ByteWriter::new();
        w2.write_matrix_fixed(&m);
        prop_assert_eq!(w1.into_bytes(), w2.into_bytes());
    }

    #[test]
    fn fixed_frame_list_roundtrips(count in 0usize..5, seed in 0u64..10_000) {
        let mut rng = Rng::seed_from_u64(seed ^ 0xF1F1);
        let ms: Vec<Matrix> = (0..count)
            .map(|i| seeded_matrix(rng.usize(7), rng.usize(7), seed.wrapping_add(i as u64)))
            .collect();
        let mut w = ByteWriter::new();
        w.write_matrices_fixed(&ms);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = r.read_matrices_fixed().expect("well-formed frames");
        prop_assert_eq!(ms.len(), back.len());
        for (a, b) in ms.iter().zip(&back) {
            prop_assert!(bits_equal(a, b));
        }
    }

    #[test]
    fn truncated_fixed_frame_is_a_clean_error(rows in 1usize..7, cols in 1usize..7, seed in 0u64..10_000, cut in 1usize..64) {
        let m = seeded_matrix(rows, cols, seed);
        let mut w = ByteWriter::new();
        w.write_matrix_fixed(&m);
        let bytes = w.into_bytes();
        let cut = cut.min(bytes.len() - 1).max(1);
        let mut r = ByteReader::new(&bytes[..bytes.len() - cut]);
        prop_assert!(r.read_matrix_fixed().is_err());
    }

    #[test]
    fn payload_bit_flip_fails_the_checksum(rows in 1usize..7, cols in 1usize..7, seed in 0u64..10_000, byte in 0usize..1024, bit in 0u8..8) {
        let m = seeded_matrix(rows, cols, seed);
        let mut w = ByteWriter::new();
        w.write_matrix_fixed(&m);
        let mut bytes = w.into_bytes();
        // Flip strictly inside the payload region (the header is 32 bytes:
        // magic, rows, cols, checksum). A changed payload byte must fail the
        // FNV verification — Ok here means corruption slipped through.
        let idx = 32 + byte % (bytes.len() - 32);
        bytes[idx] ^= 1 << bit;
        let mut r = ByteReader::new(&bytes);
        prop_assert!(r.read_matrix_fixed().is_err(), "corrupt payload slipped past the checksum");
    }
}

// ---- transpose-free products (the autograd MatMul backward) ----

/// [`seeded_matrix`] with explicit `+0.0` entries mixed in, so the kernels'
/// zero-skip meets zeros next to NaN, ±Inf, −0.0 and subnormals.
fn seeded_sparse_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut m = seeded_matrix(rows, cols, seed);
    let mut rng = Rng::seed_from_u64(seed ^ 0x5A5A);
    for v in m.as_mut_slice() {
        if rng.usize(3) == 0 {
            *v = 0.0;
        }
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // `matmul_tn` equals a matmul of the explicit transpose bit for bit:
    // same per-entry summation order. Its buffer form, and the transpose's,
    // written into a buffer that held another matrix, give the same bits.
    // Shapes from 0 to 9 cover empty factors and the blocks' tails.
    #[test]
    fn transpose_free_products_match_explicit_transposes(
        n in 0usize..10,
        m in 0usize..10,
        p in 0usize..10,
        seed in 0u64..10_000,
    ) {
        let c = seeded_sparse_matrix(m, n, seed.wrapping_add(2));
        let d = seeded_sparse_matrix(m, p, seed.wrapping_add(3));
        let expect = c.transpose().matmul(&d);
        prop_assert!(bits_equal(&c.matmul_tn(&d), &expect));
        let mut out = seeded_matrix(p + 1, n, seed.wrapping_add(4));
        c.matmul_tn_into(&d, &mut out);
        prop_assert!(bits_equal(&out, &expect));
        let mut t = seeded_matrix(p, m + 2, seed.wrapping_add(5));
        d.transpose_into(&mut t);
        prop_assert!(bits_equal(&t, &d.transpose()));
    }
}

//! Property-based tests for the NLP substrate: tokenizer invariants,
//! embedding determinism, DTW metric properties, and Jenks consistency.

use fexiot_nlp::dtw::dtw_distance;
use fexiot_nlp::jenks;
use fexiot_nlp::tokenize::{analyze, tokenize};
use fexiot_nlp::{Lexicon, PairFeatureExtractor, WordEmbedder, PAIR_FEATURE_DIM};
use fexiot_tensor::matrix::Matrix;
use proptest::prelude::*;

fn rows_to_matrix(rows: &[Vec<f64>], cols: usize) -> Matrix {
    if rows.is_empty() {
        Matrix::zeros(0, cols)
    } else {
        Matrix::from_rows(rows)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tokenizer_output_is_lowercase_alphanumeric(s in ".{0,80}") {
        for tok in tokenize(&s) {
            prop_assert!(!tok.is_empty());
            prop_assert!(tok.chars().all(|c| c.is_alphanumeric() || c == '_'));
            // ASCII letters are lowercased; some Unicode letters (e.g. math
            // alphanumerics) have no lowercase mapping and pass through.
            prop_assert!(!tok.chars().any(|c| c.is_ascii_uppercase()));
        }
    }

    #[test]
    fn analyze_never_panics_and_preserves_token_count_bound(s in ".{0,120}") {
        let lex = Lexicon::new();
        let toks = analyze(&s, &lex);
        prop_assert!(toks.len() <= tokenize(&s).len());
    }

    #[test]
    fn embeddings_unit_norm_for_any_word(w in "[a-z]{1,15}") {
        let lex = Lexicon::new();
        let emb = WordEmbedder::with_dim(16);
        let v = emb.embed(&w, &lex);
        let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        prop_assert!((norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dtw_is_symmetric_and_nonnegative(
        a in proptest::collection::vec(proptest::collection::vec(-1.0..1.0f64, 3), 0..5),
        b in proptest::collection::vec(proptest::collection::vec(-1.0..1.0f64, 3), 0..5),
    ) {
        let (a, b) = (rows_to_matrix(&a, 3), rows_to_matrix(&b, 3));
        let d_ab = dtw_distance(&a, &b);
        let d_ba = dtw_distance(&b, &a);
        prop_assert!((d_ab - d_ba).abs() < 1e-9);
        prop_assert!(d_ab >= 0.0);
    }

    #[test]
    fn dtw_identity_of_indiscernibles(
        a in proptest::collection::vec(proptest::collection::vec(0.1..1.0f64, 3), 1..5),
    ) {
        let a = rows_to_matrix(&a, 3);
        prop_assert!(dtw_distance(&a, &a) < 1e-9);
    }

    #[test]
    fn jenks_breaks_sorted_and_classify_total(vals in proptest::collection::vec(-100.0..100.0f64, 1..40), k in 1usize..6) {
        let breaks = jenks::jenks_breaks(&vals, k);
        prop_assert!(breaks.windows(2).all(|w| w[0] <= w[1]));
        for &v in &vals {
            let class = jenks::classify(v, &breaks);
            prop_assert!(class <= breaks.len());
        }
    }

    #[test]
    fn pair_features_bounded(sa in "[a-z ]{5,60}", sb in "[a-z ]{5,60}") {
        let lex = Lexicon::new();
        let ex = PairFeatureExtractor::with_word_dim(8);
        let a = fexiot_nlp::parse_rule(&sa, &lex);
        let b = fexiot_nlp::parse_rule(&sb, &lex);
        let f = ex.pair_features(&a, &b, &lex);
        prop_assert_eq!(f.len(), PAIR_FEATURE_DIM);
        prop_assert!(f.iter().all(|v| v.is_finite()));
        prop_assert!(f.iter().all(|&v| (-1.0..=1.0).contains(&v)));
    }
}

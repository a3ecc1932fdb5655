//! Regression lock for training: the parameters after seeded contrastive
//! training of a GCN, a GIN and a MAGNN encoder, and after seeded MLP and
//! LSTM fits, must hash to constants recorded before backward learned to
//! skip constant-fed nodes — at width 1 and at width 4. Each hash is
//! FNV-1a over the f64 bits of every parameter (the MLP's, through its
//! class probabilities on the training rows) and of the returned loss.
//! Re-run with `FEXIOT_PRINT_GOLDEN=1 cargo test -q -p fexiot --test
//! train_golden -- --nocapture` to regenerate after an *intentional*
//! numerical change.

use fexiot::build_encoder;
use fexiot_gnn::{train_contrastive, ContrastiveConfig, EncoderKind};
use fexiot_graph::dataset::generate_dataset_with;
use fexiot_graph::{DatasetConfig, FeatureConfig, GraphDataset};
use fexiot_ml::{Lstm, Mlp, MlpConfig};
use fexiot_par::ParPool;
use fexiot_tensor::codec::{fnv1a_extend, FNV1A_OFFSET};
use fexiot_tensor::{Matrix, Rng};

const WIDTHS: [usize; 2] = [1, 4];

/// FNV-1a over the little-endian bits of every matrix entry, then `tail`.
fn digest<'a>(matrices: impl IntoIterator<Item = &'a Matrix>, tail: f64) -> u64 {
    let mut h = FNV1A_OFFSET;
    for m in matrices {
        for v in m.as_slice() {
            h = fnv1a_extend(h, &v.to_bits().to_le_bytes());
        }
    }
    fnv1a_extend(h, &tail.to_bits().to_le_bytes())
}

fn check(name: &str, golden: u64, run: impl Fn(usize) -> u64) {
    for width in WIDTHS {
        let got = run(width);
        if std::env::var("FEXIOT_PRINT_GOLDEN").is_ok() {
            println!("{name} at width {width}: 0x{got:016X}");
            continue;
        }
        assert_eq!(
            got, golden,
            "{name}: trained parameters drifted at width {width} (got 0x{got:016X})"
        );
    }
}

/// Contrastive training of one encoder on a seeded 60-graph dataset,
/// featurized on a pool of `width`.
fn contrastive(kind: EncoderKind, seed: u64, width: usize) -> u64 {
    let pool = ParPool::new(width);
    let mut data = if kind == EncoderKind::Magnn {
        DatasetConfig::small_hetero()
    } else {
        DatasetConfig::small_ifttt()
    };
    data.graph_count = 60;
    let mut rng = Rng::seed_from_u64(seed);
    let ds = generate_dataset_with(&pool, &data, &mut rng);
    let labels: Vec<usize> = ds.graphs.iter().map(GraphDataset::class_of).collect();
    let mut encoder = build_encoder(&kind, FeatureConfig::small(), &[16, 16], 8, &mut rng);
    let config = ContrastiveConfig {
        epochs: 2,
        pairs_per_epoch: 24,
        seed,
        ..ContrastiveConfig::default()
    };
    let loss = train_contrastive(&mut encoder, &ds.graphs, &labels, &config);
    digest(encoder.params(), loss)
}

#[test]
fn gcn_contrastive_training_bit_identical() {
    check("GCN", 0x3D81_22D1_1F83_E733, |w| {
        contrastive(EncoderKind::Gcn, 7, w)
    });
}

#[test]
fn gin_contrastive_training_bit_identical() {
    check("GIN", 0xE94D_4702_9706_D1AE, |w| {
        contrastive(EncoderKind::Gin, 8, w)
    });
}

#[test]
fn magnn_contrastive_training_bit_identical() {
    check("MAGNN", 0x6E8E_98B7_DB66_9D8F, |w| {
        contrastive(EncoderKind::Magnn, 9, w)
    });
}

#[test]
fn mlp_fit_bit_identical() {
    let mut rng = Rng::seed_from_u64(11);
    let x = Matrix::random_normal(48, 6, 0.0, 1.0, &mut rng);
    let y: Vec<usize> = (0..x.rows())
        .map(|r| usize::from(x.row(r)[0] + 0.5 * x.row(r)[1] > 0.0))
        .collect();
    let config = MlpConfig {
        hidden: vec![8, 4],
        epochs: 6,
        batch_size: 8,
        class_weights: vec![1.0, 2.0],
        seed: 12,
        ..MlpConfig::default()
    };
    check("MLP", 0x2B53_F324_869D_782D, |width| {
        fexiot_par::set_threads(width);
        let mlp = Mlp::fit(&x, &y, config.clone());
        digest([&mlp.predict_proba(&x)], 0.0)
    });
}

#[test]
fn lstm_fit_bit_identical() {
    // Six sequences of one-hot tokens over a 4-token vocabulary.
    let mut rng = Rng::seed_from_u64(13);
    let tokens: Vec<Vec<usize>> = (0..6)
        .map(|_| (0..6).map(|_| rng.usize(4)).collect())
        .collect();
    let one_hot = |t: usize| {
        (0..4)
            .map(|i| f64::from(u8::from(i == t)))
            .collect::<Vec<f64>>()
    };
    let sequences: Vec<Vec<Vec<f64>>> = tokens
        .iter()
        .map(|s| s[..5].iter().map(|&t| one_hot(t)).collect())
        .collect();
    let targets: Vec<Vec<usize>> = tokens.iter().map(|s| s[1..].to_vec()).collect();
    check("LSTM", 0x5EFD_3816_502F_0240, |width| {
        fexiot_par::set_threads(width);
        let mut lstm = Lstm::new(4, 6, 4, &mut Rng::seed_from_u64(14));
        let loss = lstm.fit_next_step(&sequences, &targets, 4, 0.02);
        digest(&lstm.params, loss)
    });
}

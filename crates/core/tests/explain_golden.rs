//! Regression lock for explanations: for one GIN, one GCN and one MAGNN
//! model trained from fixed seeds, every search method's node set, reward
//! bits and evaluation count, plus the bits of the SHAP, Monte-Carlo
//! Shapley and fidelity primitives on fixed inputs, must match constants
//! recorded before the coalition cache landed — at width 1 and at width 4.
//! Re-run with `FEXIOT_PRINT_GOLDEN=1 cargo test -q -p fexiot --test
//! explain_golden -- --nocapture` to regenerate after an *intentional*
//! numerical change.

use fexiot::{FexIot, FexIotConfig};
use fexiot_explain::{
    explain, fexiot_config, fidelity, mcts_gnn_config, monte_carlo_shapley, shap_value,
    subgraphx_config, SearchConfig, ShapConfig,
};
use fexiot_gnn::EncoderKind;
use fexiot_graph::{generate_dataset, DatasetConfig, InteractionGraph};
use fexiot_tensor::Rng;

/// One trained model and two held-out graphs (6 and 9 rules) to explain.
fn fixture(kind: EncoderKind, seed: u64) -> (FexIot, Vec<InteractionGraph>) {
    let mut rng = Rng::seed_from_u64(seed);
    let mut data = if kind == EncoderKind::Magnn {
        DatasetConfig::small_hetero()
    } else {
        DatasetConfig::small_ifttt()
    };
    data.graph_count = 80;
    let ds = generate_dataset(&data, &mut rng);
    let (train, test) = ds.train_test_split(0.75, &mut rng);
    let mut cfg = FexIotConfig::default().with_encoder(kind).with_seed(seed);
    cfg.hidden = vec![16, 16];
    cfg.contrastive.epochs = 2;
    cfg.contrastive.pairs_per_epoch = 32;
    let model = FexIot::train(&train, cfg);
    let targets = [6, 9]
        .iter()
        .map(|&n| {
            let g = test
                .graphs
                .iter()
                .chain(&train.graphs)
                .find(|g| g.node_count() == n);
            g.expect("a graph of the wanted size").clone()
        })
        .collect();
    (model, targets)
}

/// Everything one model's explanations produce, as exactly comparable
/// integers: per (graph, method) the node set, reward bits and evaluation
/// count; then per graph the SHAP, Monte-Carlo Shapley and fidelity bits.
#[derive(Debug, PartialEq)]
struct Observed {
    searches: Vec<(Vec<usize>, u64, usize)>,
    primitives: Vec<(u64, u64, u64)>,
}

fn observe(model: &FexIot, targets: &[InteractionGraph]) -> Observed {
    let scorer = model.scorer();
    let methods: [SearchConfig; 3] = [
        fexiot_config(5, 3, 32),
        subgraphx_config(3, 3, 16),
        mcts_gnn_config(5, 3),
    ];
    let mut searches = Vec::new();
    let mut primitives = Vec::new();
    for g in targets {
        for cfg in &methods {
            let e = explain(scorer, g, cfg);
            searches.push((e.nodes, e.score.to_bits(), e.evaluations));
        }
        let nodes: Vec<usize> = (0..3).collect();
        let mut rng = Rng::seed_from_u64(17);
        let shap = shap_value(scorer, g, &nodes, &ShapConfig { samples: 32 }, &mut rng);
        let mc = monte_carlo_shapley(scorer, g, &nodes, 24, &mut rng);
        let fid = fidelity(scorer, g, &nodes);
        primitives.push((shap.to_bits(), mc.to_bits(), fid.to_bits()));
    }
    Observed {
        searches,
        primitives,
    }
}

fn check(name: &str, kind: EncoderKind, seed: u64, golden: &Observed) {
    let (model, targets) = fixture(kind, seed);
    let saved = fexiot_par::pool().threads();
    for width in [1, 4] {
        fexiot_par::set_threads(width);
        let got = observe(&model, &targets);
        if std::env::var("FEXIOT_PRINT_GOLDEN").is_ok() {
            println!("// {name} at width {width}\nsearches: vec![");
            for (nodes, score, evals) in &got.searches {
                println!("    (vec!{nodes:?}, 0x{score:016X}, {evals}),");
            }
            println!("],\nprimitives: vec![");
            for (shap, mc, fid) in &got.primitives {
                println!("    (0x{shap:016X}, 0x{mc:016X}, 0x{fid:016X}),");
            }
            println!("],");
            continue;
        }
        assert_eq!(
            &got, golden,
            "{name}: explanations drifted at width {width}"
        );
    }
    fexiot_par::set_threads(saved);
}

#[test]
fn gin_explanations_bit_identical() {
    check(
        "GIN",
        EncoderKind::Gin,
        42,
        &Observed {
            searches: vec![
                (vec![0, 1, 4], 0xBF87DD4F18E0A37B, 51),
                (vec![0, 1, 4], 0xBF8C86179BF1E5F2, 30),
                (vec![0, 1, 4], 0x3FE07BB72AC45FD2, 50),
                (vec![6, 7, 8], 0xBF136ADD8FA682DD, 200),
                (vec![6, 7, 8], 0xBF3CAD3D109B1600, 120),
                (vec![6, 7, 8], 0x3FE0B58E44292BF5, 200),
            ],
            primitives: vec![
                (0xBF92B579E0545230, 0xBF914068E95898B5, 0xBF986540CD778F30),
                (0xBF6F674BD966B8C9, 0xBF6F672488CF58A0, 0xBF6F68375A9F0C00),
            ],
        },
    );
}

#[test]
fn gcn_explanations_bit_identical() {
    check(
        "GCN",
        EncoderKind::Gcn,
        43,
        &Observed {
            searches: vec![
                (vec![0, 1, 2], 0x3F8D3C7F48A1B1CA, 51),
                (vec![0, 1, 3], 0xBF9BFB8D53C3DAD9, 30),
                (vec![0, 1, 2], 0x3FE1912FF80C8DC3, 55),
                (vec![2, 4, 5], 0x3FA53B698D246296, 200),
                (vec![2, 4, 5], 0x3FA531A224E77C00, 120),
                (vec![2, 4, 5], 0x3FE1C509C366BDF3, 200),
            ],
            primitives: vec![
                (0x3F830606146E690E, 0x3F916A20C33E4614, 0xBF6F7BC1C54A8480),
                (0xBFA484AD0A42D1BC, 0xBFA474B07F07F7E0, 0xBFA4BA83C6F02500),
            ],
        },
    );
}

#[test]
fn magnn_explanations_bit_identical() {
    check(
        "MAGNN",
        EncoderKind::Magnn,
        44,
        &Observed {
            searches: vec![
                (vec![0, 1, 2], 0x3FD744283479557A, 65),
                (vec![0, 1, 2], 0x3FD748A6F0E62029, 39),
                (vec![0, 1, 2], 0x3FE5869B0A58E732, 65),
                (vec![0, 4, 5], 0x3FA41D328B1908DC, 125),
                (vec![0, 4, 5], 0x3FA01DE1A9FBEFE1, 71),
                (vec![0, 4, 5], 0x3FD5F0C0C0BA8E96, 125),
            ],
            primitives: vec![
                (0x3FD732DF54FE34C5, 0x3FD74042205F2E84, 0x3FD6F04206379772),
                (0xBF99F290C1226009, 0xBF9365BF574E7C04, 0xBFA81688C4535380),
            ],
        },
    );
}

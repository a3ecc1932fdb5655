//! Quickstart: generate a labeled interaction-graph dataset, train the FexIoT
//! pipeline, evaluate detection quality, and explain one detection.
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! Accepts `--threads N` to pin the deterministic parallel execution width
//! (default: `FEXIOT_THREADS`, else all cores; output is bit-identical at any
//! width) and the shared observability flags (`fexiot_obs::cli::OBS_FLAGS`;
//! a bad flag prints the usage line generated from them): `--obs-out DIR`
//! writes a `fexiot-obs/v4` run report (span timings + metrics) under DIR,
//! `--obs-stream FILE` streams `fexiot-obs-events/v1` JSONL events live to
//! FILE (`--obs-stream-timing exclude` drops wall-clock fields, making
//! same-seed streams byte-identical), `--obs-flame FILE` writes
//! flamegraph-compatible collapsed stacks, `--obs-summary` prints the span
//! tree after the run, and `--obs-slo FILE` / `--obs-timeseries` attach the
//! fleet-health telemetry surfaces (the quickstart has no federated rounds,
//! so SLO rules report NODATA and the time-series stays empty — the flags
//! exercise parsing, verdict printing, and report sections).

use fexiot::{FexIot, FexIotConfig};
use fexiot_graph::{generate_dataset, DatasetConfig};
use fexiot_obs::cli::{parse_env, Spec, OBS_FLAGS, THREADS};
use fexiot_tensor::Rng;

fn main() {
    let args = parse_env(&Spec::new("", &[&[THREADS], OBS_FLAGS]));
    // The pool is pinned (from --threads, else FEXIOT_THREADS) before any
    // stage touches it.
    if let Err(e) = fexiot::set_threads_from(args.value("threads")) {
        eprintln!("{e}");
        std::process::exit(2);
    }
    let obs = fexiot_obs::ObsCli::from_args(&args);
    let telemetry = match obs.fleet_telemetry() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    obs.begin("quickstart").expect("set up observability");

    demo();

    if obs.enabled() {
        println!();
    }
    // No federated rounds here, so there is no causal trace to hand over;
    // `--obs-trace` still writes a valid (empty) graph for tooling smoke
    // tests.
    obs.finish("quickstart", None, telemetry.as_ref(), None, None)
        .expect("export observability");
    if telemetry.is_some_and(|t| t.slo_failed()) {
        eprintln!("SLO gate failed (see verdict lines above)");
        std::process::exit(3);
    }
}

fn demo() {
    let mut rng = Rng::seed_from_u64(42);

    // 1. Build a homogeneous (IFTTT-style) dataset of interaction graphs.
    let mut dataset_cfg = DatasetConfig::small_ifttt();
    dataset_cfg.graph_count = 200;
    let dataset = generate_dataset(&dataset_cfg, &mut rng);
    let stats = dataset.stats();
    println!(
        "dataset: {} graphs ({} vulnerable), {}-{} nodes each",
        stats.total, stats.vulnerable, stats.min_nodes, stats.max_nodes
    );

    let (train, test) = dataset.train_test_split(0.8, &mut rng);

    // 2. Train: contrastive GIN encoder + linear head + MAD drift filter.
    let model = FexIot::train(&train, FexIotConfig::default().with_seed(42));
    println!("model size: {:.2} KB", model.model_bytes() as f64 / 1024.0);

    // 3. Evaluate detection.
    let metrics = model.evaluate(&test);
    println!("detection on held-out graphs: {metrics}");

    // 4. Pick a detected-vulnerable graph and explain it.
    let Some(target) = test
        .graphs
        .iter()
        .find(|g| g.node_count() >= 5 && model.detect(g).vulnerable)
    else {
        println!("no vulnerable detection in the test split (try another seed)");
        return;
    };
    let truth = target.label.as_ref().expect("labeled dataset");
    println!(
        "\nexplaining a {}-node graph (ground truth: {})",
        target.node_count(),
        if truth.vulnerable {
            truth
                .kinds
                .iter()
                .map(|k| k.name())
                .collect::<Vec<_>>()
                .join(", ")
        } else {
            "benign (model false positive)".to_string()
        }
    );

    let explanation = model.explain(target);
    println!(
        "explanation: {} of {} nodes, SHAP score {:.3} ({} model evaluations)",
        explanation.nodes.len(),
        target.node_count(),
        explanation.score,
        explanation.evaluations
    );
    for &i in &explanation.nodes {
        println!(
            "  rule {:>4}: {}",
            target.nodes[i].rule.id, target.nodes[i].rule.text
        );
    }

    // 5. Drift screening: how many held-out samples fall outside the
    //    training distribution and should be inspected manually?
    let drifting = model.filter_drifting(&test);
    println!(
        "\ndrift filter: {}/{} held-out graphs flagged as drifting",
        drifting.len(),
        test.len()
    );
}

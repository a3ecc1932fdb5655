//! Regression lock for `serve` with a trained model: a MAGNN `FexIot`
//! trained from a fixed seed detects a seeded fleet streamed under the
//! block policy and shedding at mailbox capacity 4. The detections digest
//! and the vulnerable and drifting counts must match constants recorded
//! before the detect stage reused verdicts across unchanged home states —
//! at width 1 and at width 4. Re-run with `FEXIOT_PRINT_GOLDEN=1 cargo test
//! -q -p fexiot --test serve_golden -- --nocapture` to regenerate after an
//! *intentional* behaviour change.

use std::sync::Arc;

use fexiot::{FexIot, FexIotConfig};
use fexiot_gnn::EncoderKind;
use fexiot_graph::{generate_dataset, DatasetConfig, InteractionGraph};
use fexiot_obs::Registry;
use fexiot_stream::{
    replay_fleet, run_stream, Detector, FleetConfig, Overflow, StreamConfig, StreamVerdict,
};
use fexiot_tensor::Rng;

/// The trained model as the streaming detector, as `fexiot-cli serve`
/// wraps it.
struct ModelDetector<'a>(&'a FexIot);

impl Detector for ModelDetector<'_> {
    fn detect(&self, graph: &InteractionGraph) -> StreamVerdict {
        let d = self.0.detect(graph);
        StreamVerdict {
            vulnerable: d.vulnerable,
            score: d.score,
            drifting: d.drifting,
        }
    }
}

fn model() -> FexIot {
    let mut rng = Rng::seed_from_u64(45);
    let mut data = DatasetConfig::small_hetero();
    data.graph_count = 80;
    let ds = generate_dataset(&data, &mut rng);
    let mut cfg = FexIotConfig::default()
        .with_encoder(EncoderKind::Magnn)
        .with_seed(45);
    cfg.hidden = vec![16, 16];
    cfg.contrastive.epochs = 2;
    cfg.contrastive.pairs_per_epoch = 32;
    FexIot::train(&ds, cfg)
}

/// `(detections digest, vulnerable, drifting)` of one run.
type Observed = (u64, u64, u64);

fn check(overflow: Overflow, golden: Observed) {
    let model = model();
    let mut fleet_cfg = FleetConfig {
        homes: 8,
        home_size: 6,
        seed: 42,
        ..FleetConfig::default()
    };
    fleet_cfg.sim.duration *= 2;
    let fleet = replay_fleet(&fleet_cfg);
    let cfg = StreamConfig {
        overflow,
        mailbox_cap: 4,
        ..StreamConfig::default()
    };
    let saved = fexiot_par::pool().threads();
    for width in [1, 4] {
        fexiot_par::set_threads(width);
        let reg = Arc::new(Registry::with_enabled(true));
        let detector = ModelDetector(&model);
        let s = run_stream(&fleet.graphs, &fleet.events, &detector, &cfg, &reg, None).stats;
        let got = (s.digest, s.vulnerable, s.drifting);
        if std::env::var("FEXIOT_PRINT_GOLDEN").is_ok() {
            println!(
                "// {} at width {width}: {} events, {} detected, {} shed\n(0x{:016X}, {}, {}),",
                overflow.name(),
                s.events,
                s.detected,
                s.shed,
                got.0,
                got.1,
                got.2
            );
            continue;
        }
        assert_eq!(
            got,
            golden,
            "{}: detections drifted at width {width}",
            overflow.name()
        );
    }
    fexiot_par::set_threads(saved);
}

#[test]
fn block_policy_model_detections_are_bit_identical() {
    // 164 events, all detected.
    check(Overflow::Block, (0xB53878AB2839747F, 12, 99));
}

#[test]
fn shed_policy_model_detections_are_bit_identical() {
    // 164 events, 84 detected, 80 shed.
    check(Overflow::Shed, (0x4E0988444A2FA248, 5, 42));
}

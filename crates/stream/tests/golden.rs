//! Regression lock for `serve`: two fixed fleets — one under the block
//! policy, one shedding at mailbox capacity 4 — must keep their detections
//! digest and the FNV-1a 64 digests of every deterministic export
//! (`deterministic_json`, the report's `stream` section, the time-series
//! and SLO sections, and the critical path) bit-identical. Re-run with
//! `FEXIOT_PRINT_GOLDEN=1 cargo test -q -p fexiot-stream --test golden --
//! --nocapture` to regenerate after an *intentional* behaviour change.

mod common;

use fexiot_obs::trace::critical_path_to_json;
use fexiot_stream::{replay_fleet, FleetConfig, Overflow, StreamConfig};
use fexiot_tensor::codec::{fnv1a_extend, FNV1A_OFFSET};

/// `(detections digest, report, stream section, time-series, SLO,
/// critical path)`: the first is the run's own digest, the rest are
/// FNV-1a 64 over each export's text.
type Digests = [u64; 6];

fn observe(fleet_cfg: &FleetConfig, cfg: &StreamConfig) -> Digests {
    let run = common::run(&replay_fleet(fleet_cfg), cfg);
    let text = |s: &str| fnv1a_extend(FNV1A_OFFSET, s.as_bytes());
    [
        run.digest,
        text(&run.report),
        text(&run.stream_section),
        text(&run.timeseries),
        text(&run.slo),
        text(&critical_path_to_json(&run.critical_path).to_string()),
    ]
}

fn check(name: &str, fleet_cfg: &FleetConfig, cfg: &StreamConfig, golden: &Digests) {
    let got = observe(fleet_cfg, cfg);
    if std::env::var("FEXIOT_PRINT_GOLDEN").is_ok() {
        println!("        // {name}");
        for d in &got {
            println!("        0x{d:016X},");
        }
        return;
    }
    assert_eq!(&got, golden, "{name}: serve exports drifted");
}

#[test]
fn block_policy_fleet_is_bit_identical() {
    // The CI slow-shard leg: a backpressured run whose stalls reach the
    // critical path and trip the latency rule.
    let mut fleet = FleetConfig {
        homes: 6,
        home_size: 6,
        seed: 42,
        ..FleetConfig::default()
    };
    fleet.sim.duration *= 4;
    check(
        "block",
        &fleet,
        &StreamConfig {
            shards: 2,
            slow_shard: Some(1),
            mailbox_cap: 8,
            ..StreamConfig::default()
        },
        &[
            // block
            0x21F22156AB4E5469,
            0x1BE6A4899BA062E3,
            0xAE28E41A2A83C67B,
            0x9973F56BBF3D0B42,
            0x89356ABEB77FECE7,
            0xB126F9D215857846,
        ],
    );
}

#[test]
fn shed_policy_fleet_is_bit_identical() {
    check(
        "shed",
        &FleetConfig {
            homes: 5,
            home_size: 5,
            seed: 23,
            ..FleetConfig::default()
        },
        &StreamConfig {
            overflow: Overflow::Shed,
            mailbox_cap: 4,
            round_events: 24,
            ..StreamConfig::default()
        },
        &[
            // shed
            0xF8654A3FAF800408,
            0x0EC9085E4477F2EE,
            0xBBE0CBBFAC576656,
            0x329B8B8017332DE3,
            0xB80A68980832B6BC,
            0x89A0DFDBAA007902,
        ],
    );
}

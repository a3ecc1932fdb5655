//! Robustness sweep: accuracy vs fault rate for FedAvg and FexIoT.
//! `cargo run --release --bin robustness [--full]`
//!
//! Also writes an observability run report (per-cell spans, per-round
//! telemetry counters) to `results/obs/robustness.json`.

use fexiot_bench::{print_table, robustness, Scale};

fn main() {
    let scale = Scale::from_env();
    fexiot_obs::set_global_enabled(true);
    let points = robustness::run(scale);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.strategy.to_string(),
                format!("{:.0}%", p.dropout * 100.0),
                format!("{:.3}", p.accuracy),
                format!("{:.3}", p.f1),
                format!("{:.0}%", p.participation * 100.0),
                format!("{}", p.quarantined),
                format!("{:.2}", p.total_mb),
                format!("{}", p.critical_ticks),
            ]
        })
        .collect();
    print_table(
        &format!("Robustness: accuracy vs fault rate ({scale:?} scale)"),
        &[
            "Method",
            "Dropout",
            "Accuracy",
            "F1",
            "Participation",
            "Quarantined",
            "Comm (MB)",
            "Crit. ticks",
        ],
        &rows,
    );
    for strategy in ["FedAvg", "FexIoT"] {
        println!(
            "{strategy}: accuracy degradation from 0% to 50% dropout: {:+.3}",
            robustness::degradation(&points, strategy)
        );
    }

    // Fleet-scale sweep: sampled cohorts, hierarchical aggregators with
    // failover, and quorum-gated rounds across growing federation sizes.
    let fleet = robustness::run_fleet(scale);
    let fleet_rows: Vec<Vec<String>> = fleet
        .iter()
        .map(|p| {
            vec![
                format!("{}", p.clients),
                format!("{:.0}%", p.dropout * 100.0),
                format!("{:.3}", p.accuracy),
                format!("{:.2}", p.bytes_per_round / (1024.0 * 1024.0)),
                format!("{:.0}%", p.participation * 100.0),
                format!("{}", p.quorum_aborts),
                format!("{}", p.agg_down_rounds),
            ]
        })
        .collect();
    print_table(
        &format!("Fleet scale: sampled + quorum-gated federation ({scale:?} scale)"),
        &[
            "Clients",
            "Dropout",
            "Accuracy",
            "MB/round",
            "Participation",
            "Quorum aborts",
            "Agg-down rounds",
        ],
        &fleet_rows,
    );
    let snap = fexiot_obs::global().snapshot();
    match fexiot_obs::write_report(
        std::path::Path::new("results/obs"),
        "robustness",
        &snap,
        &Default::default(),
    ) {
        Ok(path) => println!("obs report written to {}", path.display()),
        Err(e) => eprintln!("cannot write obs report: {e}"),
    }
}

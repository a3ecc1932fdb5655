//! Table III: runtime efficiency — graph-construction time, per-graph
//! prediction time, per-graph vulnerability-analysis time, and model size,
//! for the homogeneous (IFTTT) and heterogeneous datasets.

use crate::scale::Scale;
use fexiot::{FexIot, FexIotConfig};
use fexiot_explain::{explain, fexiot_config};
use fexiot_gnn::EncoderKind;
use fexiot_graph::{generate_dataset, DatasetConfig};
use fexiot_tensor::rng::Rng;
use std::hint::black_box;
use std::time::Instant;

/// One Table III row.
#[derive(Debug, Clone)]
pub struct Table3Row {
    pub dataset: &'static str,
    pub graph_construction_s: f64,
    pub prediction_s: f64,
    pub analysis_s: f64,
    pub model_mb: f64,
    pub graphs: usize,
}

/// Measures the pipeline stages on both datasets.
pub fn run(scale: Scale) -> Vec<Table3Row> {
    let specs: [(&'static str, DatasetConfig, EncoderKind, usize); 2] = [
        (
            "IFTTT",
            DatasetConfig::small_ifttt(),
            EncoderKind::Gin,
            scale.pick(240, 6000),
        ),
        (
            "Hetero.",
            DatasetConfig::small_hetero(),
            EncoderKind::Magnn,
            scale.pick(400, 12758),
        ),
    ];

    specs
        .into_iter()
        .map(|(name, mut ds_cfg, encoder, count)| {
            ds_cfg.graph_count = count;
            if scale == Scale::Full {
                ds_cfg.features = fexiot_graph::FeatureConfig::paper();
            }
            let mut rng = Rng::seed_from_u64(120);

            // Stage 1: dataset (graph) construction.
            let t0 = Instant::now();
            let ds = generate_dataset(&ds_cfg, &mut rng);
            let graph_construction_s = t0.elapsed().as_secs_f64();

            // Train a model (untimed — the paper reports inference costs).
            let mut cfg = FexIotConfig::default().with_encoder(encoder).with_seed(120);
            if scale == Scale::Full {
                cfg.features = fexiot_graph::FeatureConfig::paper();
            }
            cfg.contrastive.epochs = scale.pick(6, 12);
            let model = FexIot::train(&ds, cfg);

            // Stages 2 and 3: per-graph prediction and vulnerability-analysis
            // (explanation) time, each the median of several timed passes.
            let passes = scale.pick(9, 3);
            let probe: Vec<_> = ds.graphs.iter().take(scale.pick(60, 300)).collect();
            let prediction_s = median_per_item(passes, &probe, |g| {
                black_box(model.detect(g));
            });
            let targets: Vec<_> = ds
                .graphs
                .iter()
                .filter(|g| g.node_count() >= 5)
                .take(scale.pick(6, 20))
                .collect();
            let search_cfg = fexiot_config(scale.pick(3, 8), 3, scale.pick(16, 64));
            let analysis_s = median_per_item(passes, &targets, |g| {
                black_box(explain(model.scorer(), g, &search_cfg));
            });

            Table3Row {
                dataset: name,
                graph_construction_s,
                prediction_s,
                analysis_s,
                model_mb: model.model_bytes() as f64 / (1024.0 * 1024.0),
                graphs: ds.len(),
            }
        })
        .collect()
}

/// The median over `passes` timed passes of `f` over every item, per item,
/// in seconds: one pass of a few milliseconds is at the mercy of whatever
/// else the machine runs.
fn median_per_item<T>(passes: usize, items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let mut times: Vec<f64> = (0..passes)
        .map(|_| {
            let t = Instant::now();
            items.iter().for_each(&mut f);
            t.elapsed().as_secs_f64() / items.len().max(1) as f64
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_report_positive_timings() {
        let rows = run(Scale::Small);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.graph_construction_s > 0.0);
            assert!(r.prediction_s > 0.0);
            assert!(r.analysis_s > 0.0);
            assert!(r.model_mb > 0.0);
            // Analysis dominates prediction, as in the paper.
            assert!(r.analysis_s > r.prediction_s, "{r:?}");
        }
        // Heterogeneous construction is costlier than homogeneous (Table III
        // shape: 976.99 s vs 17.19 s at paper scale).
        assert!(rows[1].graph_construction_s > rows[0].graph_construction_s * 0.5);
    }
}

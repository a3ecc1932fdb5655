//! Top-level configuration for the FexIoT pipeline.

use fexiot_gnn::{ContrastiveConfig, EncoderKind};
use fexiot_graph::FeatureConfig;
use fexiot_ml::DEFAULT_DRIFT_THRESHOLD;

/// Pins the data-parallel width from a `--threads` value or, when there is
/// none, from `FEXIOT_THREADS`. Whichever is given must be a positive
/// integer; the error names it and its value. With neither, the pool keeps
/// its default of every core.
pub fn set_threads_from(flag: Option<&str>) -> Result<(), String> {
    let (source, value) = match flag {
        Some(v) => ("--threads", v.to_string()),
        None => match std::env::var_os(fexiot_par::THREADS_ENV) {
            Some(v) => (fexiot_par::THREADS_ENV, v.to_string_lossy().into_owned()),
            None => return Ok(()),
        },
    };
    match value.parse::<usize>() {
        Ok(t) if t > 0 => {
            fexiot_par::set_threads(t);
            Ok(())
        }
        _ => Err(format!(
            "{source} expects a positive integer, got {value:?}"
        )),
    }
}

/// Largest `explain_iterations` and `shap_samples` a saved model may carry:
/// each SHAP value scores `shap_samples` coalitions, so a corrupt count
/// would make every explanation effectively endless. The paper settings
/// use 5 and 32; the largest value anywhere in this repository is 256.
pub const MAX_EXPLAIN_BUDGET: usize = 1 << 16;

/// End-to-end pipeline configuration with a builder API.
#[derive(Debug, Clone)]
pub struct FexIotConfig {
    /// Embedding dims for node features.
    pub features: FeatureConfig,
    /// Which GNN encoder backs the representation model.
    pub encoder: EncoderKind,
    /// GNN hidden widths.
    pub hidden: Vec<usize>,
    /// Graph-embedding dimensionality.
    pub embed_dim: usize,
    /// Contrastive-training schedule.
    pub contrastive: ContrastiveConfig,
    /// MAD drift threshold `T_M` (paper: 3).
    pub drift_threshold: f64,
    /// Explanation search: MCBS iterations (at most [`MAX_EXPLAIN_BUDGET`]
    /// in a saved model).
    pub explain_iterations: usize,
    /// Explanation search: smallest subgraph size `N_min`.
    pub explain_min_nodes: usize,
    /// Kernel-SHAP samples per reward evaluation (at most
    /// [`MAX_EXPLAIN_BUDGET`] in a saved model).
    pub shap_samples: usize,
    pub seed: u64,
}

impl Default for FexIotConfig {
    fn default() -> Self {
        Self {
            features: FeatureConfig::small(),
            encoder: EncoderKind::Gin,
            hidden: vec![32, 32],
            embed_dim: 16,
            contrastive: ContrastiveConfig {
                epochs: 10,
                pairs_per_epoch: 128,
                lr: 2e-3,
                ..Default::default()
            },
            drift_threshold: DEFAULT_DRIFT_THRESHOLD,
            explain_iterations: 5,
            explain_min_nodes: 3,
            shap_samples: 32,
            seed: 0,
        }
    }
}

impl FexIotConfig {
    /// Paper-fidelity dims (300-d word / 512-d sentence embeddings, 3-layer GNN).
    pub fn paper() -> Self {
        Self {
            features: FeatureConfig::paper(),
            hidden: vec![64, 64, 64],
            embed_dim: 32,
            ..Default::default()
        }
    }

    pub fn with_encoder(mut self, encoder: EncoderKind) -> Self {
        self.encoder = encoder;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.contrastive.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let cfg = FexIotConfig::default()
            .with_encoder(EncoderKind::Gcn)
            .with_seed(7);
        assert_eq!(cfg.encoder, EncoderKind::Gcn);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.contrastive.seed, 7);
    }

    #[test]
    fn paper_config_uses_paper_dims() {
        let cfg = FexIotConfig::paper();
        assert_eq!(cfg.features.word_dim, 300);
        assert_eq!(cfg.features.sentence_dim, 512);
        assert_eq!(cfg.hidden.len(), 3);
    }
}

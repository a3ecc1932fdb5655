//! # fexiot-explain
//!
//! Vulnerability-cause explanation for the FexIoT reproduction (paper §III-C):
//! kernel SHAP over graph coalitions (Eqs. 5-6), the SHAP-guided Monte-Carlo
//! beam search of Algorithm 2, the SubgraphX and MCTS_GNN baselines, and the
//! Fidelity/Sparsity quality metrics of Fig. 9.

#![forbid(unsafe_code)]

mod coalition;
pub mod model;
pub mod quality;
pub mod search;
pub mod shap;

pub use model::{mask_graph, GraphScorer};
pub use quality::{fidelity, quality, sparsity, QualityPoint};
pub use search::{
    explain, fexiot_config, mcts_gnn_config, subgraphx_config, Explanation, RewardKind,
    SearchConfig,
};
pub use shap::{monte_carlo_shapley, shap_value, ShapConfig};

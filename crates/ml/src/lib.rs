//! # fexiot-ml
//!
//! Classic machine-learning substrate for the FexIoT reproduction: the
//! correlation-discovery classifiers of Fig. 3 (MLP, RandomForest, KNN,
//! GradientBoost), the per-client SGDClassifier head, k-means and t-SNE for
//! the representation analysis of Fig. 6, the Table II comparison baselines
//! (DeepLog LSTM, HAWatcher templates, IsolationForest), and the MAD-based
//! drifting-pattern detector of §III-B3.

#![forbid(unsafe_code)]

pub mod deeplog;
pub mod drift;
pub mod forest;
pub mod gboost;
pub mod hawatcher;
pub mod iforest;
pub mod kmeans;
pub mod knn;
pub mod lstm;
pub mod metrics;
pub mod mlp;
pub mod sgd;
pub mod tree;
pub mod tsne;

pub use deeplog::{DeepLog, DeepLogConfig};
pub use drift::{DriftDetector, DEFAULT_DRIFT_THRESHOLD};
pub use forest::{ForestConfig, RandomForest};
pub use gboost::{GBoostConfig, GradientBoost};
pub use hawatcher::{HaWatcher, HaWatcherConfig};
pub use iforest::{IForestConfig, IsolationForest};
pub use kmeans::{binary_cosine_split, kmeans, KMeansResult};
pub use knn::Knn;
pub use lstm::Lstm;
pub use metrics::{ConfusionMatrix, Metrics};
pub use mlp::{Mlp, MlpConfig};
pub use sgd::{SgdClassifier, SgdConfig};
pub use tsne::{tsne, TsneConfig};

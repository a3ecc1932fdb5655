//! # fexiot
//!
//! A from-scratch Rust reproduction of **FexIoT** — *Federated IoT
//! Interaction Vulnerability Analysis* (ICDE 2023): federated, explainable
//! GNN-based detection of interaction vulnerabilities in smart-home
//! automation across heterogeneous closed-source platforms.
//!
//! The pipeline: rule descriptions + event logs are fused into interaction
//! graphs ([`fexiot_graph`]), encoded by contrastive GNNs ([`fexiot_gnn`]),
//! trained federatedly with layer-wise clustering ([`fexiot_fed`]), screened
//! for drifting patterns ([`fexiot_ml::DriftDetector`]), and explained by a
//! SHAP-guided Monte-Carlo beam search ([`fexiot_explain`]).
//!
//! ## Quickstart
//!
//! ```
//! use fexiot::{FexIot, FexIotConfig};
//! use fexiot_graph::{generate_dataset, DatasetConfig};
//! use fexiot_tensor::Rng;
//!
//! let mut rng = Rng::seed_from_u64(42);
//! let mut cfg = DatasetConfig::small_ifttt();
//! cfg.graph_count = 60;
//! let dataset = generate_dataset(&cfg, &mut rng);
//! let (train, test) = dataset.train_test_split(0.8, &mut rng);
//!
//! let model = FexIot::train(&train, FexIotConfig::default());
//! let metrics = model.evaluate(&test);
//! assert!(metrics.accuracy > 0.5);
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod federation;
pub mod pipeline;
pub mod warm;

pub use config::{set_threads_from, FexIotConfig};
pub use federation::{build_federation, build_federation_with_data, FederationConfig};
pub use pipeline::{build_encoder, Detection, FexIot};
pub use warm::{dataset_identity, load_or_generate_dataset, load_or_train_model, model_identity};

// Re-export the sub-crates for downstream users of the facade.
pub use fexiot_explain as explain;
pub use fexiot_fed as fed;
pub use fexiot_gnn as gnn;
pub use fexiot_graph as graph;
pub use fexiot_ml as ml;
pub use fexiot_nlp as nlp;
pub use fexiot_store as store;
pub use fexiot_tensor as tensor;

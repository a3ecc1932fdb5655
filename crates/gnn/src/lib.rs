//! # fexiot-gnn
//!
//! Graph neural network encoders for the FexIoT reproduction: GCN, GIN-0,
//! and a simplified MAGNN for heterogeneous five-platform graphs, plus the
//! siamese contrastive trainer of Eq. (2) whose representations feed each
//! client's linear classification head.

#![forbid(unsafe_code)]

pub mod encoder;
pub mod gcn;
pub mod gin;
pub mod magnn;
pub mod serialize;
pub mod trainer;

pub use encoder::{Encoder, EncoderKind};
pub use gcn::Gcn;
pub use gin::Gin;
pub use magnn::Magnn;
pub use serialize::{encoder_from_bytes, encoder_to_bytes};
pub use trainer::{
    binary_labels, embed_all, head_feature_dim, head_features, head_features_all,
    train_contrastive, ContrastiveConfig, ContrastiveRun,
};

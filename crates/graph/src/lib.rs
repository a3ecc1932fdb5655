//! # fexiot-graph
//!
//! Interaction-graph substrate for the FexIoT reproduction: the structured
//! smart-home world model (devices, physical channels, automation rules),
//! synthetic rule corpora for the five platforms, interaction-graph
//! construction with ground-truth "action-trigger" correlations, the six
//! iRuler vulnerability classes (detectors + injectors), a discrete-event
//! home simulator producing raw event logs, the log cleaner, the five
//! HAWatcher attacks, online-graph fusion, and federated dataset splitting.

#![forbid(unsafe_code)]

pub mod attacks;
pub mod builder;
pub mod corpus;
pub mod dataset;
pub mod device;
pub mod events;
pub mod graph;
pub mod online;
pub mod rule;
pub mod serialize;
pub mod vuln;

pub use builder::{runtime_slot, CorpusIndex, FeatureConfig, GraphBuilder, RUNTIME_FEATURE_DIMS};
pub use corpus::{CorpusConfig, CorpusGenerator};
pub use dataset::{generate_dataset, DatasetConfig, GraphDataset};
pub use device::{Channel, Device, DeviceKind, Location};
pub use graph::{GraphLabel, InteractionGraph, RuleNode};
pub use rule::{Command, Platform, Rule, Trigger};
pub use vuln::{detect_vulnerabilities, VulnKind};

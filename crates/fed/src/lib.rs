//! # fexiot-fed
//!
//! Federated-learning simulator for the FexIoT reproduction: clients holding
//! non-i.i.d. interaction-graph datasets, local contrastive GNN training, a
//! server implementing FedAvg / FMTL / GCFL+ / the paper's layer-wise
//! recursive clustering (Algorithm 1), and byte-level communication
//! accounting for the Fig. 7 cost analysis.

#![forbid(unsafe_code)]

pub mod client;
pub mod comm;
pub mod dp;
pub mod faults;
pub mod secure_agg;
pub mod sim;
pub mod strategy;
pub mod sybil;
pub mod topology;

pub use client::Client;
pub use comm::CommStats;
pub use dp::{DpConfig, PrivacyAccountant};
pub use faults::{
    AggRoundFaults, AggStatus, Corruption, FaultInjector, FaultPlan, Participation, RoundFaults,
};
pub use secure_agg::secure_weighted_average;
pub use sim::{FedConfig, FedError, FedSim, RoundReport, RoundTelemetry};
pub use strategy::Strategy;
pub use sybil::{flag_sybils, foolsgold_weights};
pub use topology::{ClientSampler, Failover, Sampling, Topology};

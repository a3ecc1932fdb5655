//! `fexiot-stream`: the online serving layer — a bounded-mailbox actor
//! runtime that consumes per-home event streams, maintains interaction
//! graphs incrementally, and gives every event a vulnerability verdict,
//! running the detector once per distinct home state.
//!
//! The batch pipeline (featurize → train → detect) answers "is this graph
//! vulnerable *now*"; the paper's deployment story is a service watching
//! fleets of homes continuously. This crate is that service, built with
//! observability as its spine: every actor edge is a counted bounded
//! mailbox, backpressure feeds the critical-path machinery, latency is a
//! first-class histogram, and the whole pipeline runs on deterministic
//! virtual time so its metrics and outputs are byte-identical across
//! `--threads` widths (see [`service`] for the argument).
//!
//! Module map:
//! * [`mailbox`] — bounded FIFOs with counted block/shed overflow policies;
//! * [`wire`] — the `fexiot-obs-events/v1` JSONL wire protocol for home
//!   events;
//! * [`source`] — the seeded corpus-replay fleet;
//! * [`service`] — the virtual-time scheduler and instrumented pipeline,
//!   which keeps each home's graph current with a [`HomeMaintainer`]
//!   (`fexiot_graph::online`'s incremental fusion, re-exported here).
//!
//! Detection is pluggable through [`Detector`] so the crate stays below
//! `fexiot-core` in the dependency graph (the CLI adapts the trained
//! `FexIot` model; tests and benches can use the cheap built-in
//! [`RuntimeDetector`]).

#![forbid(unsafe_code)]

pub mod mailbox;
pub mod service;
pub mod source;
pub mod wire;

pub use fexiot_graph::online::HomeMaintainer;
pub use mailbox::{Mailbox, Overflow, PushOutcome};
pub use service::{
    run_stream, ActorStats, StreamConfig, StreamOutcome, StreamStats, LATENCY_TICK_EDGES,
};
pub use source::{replay_fleet, Fleet, FleetConfig};
pub use wire::{parse_wire, write_wire, HomeEvent};

use fexiot_graph::runtime_slot as slot;
use fexiot_graph::{detect_vulnerabilities, InteractionGraph, RUNTIME_FEATURE_DIMS};

/// Verdict for one streamed event's graph state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamVerdict {
    pub vulnerable: bool,
    /// Anomaly score in `[0, 1]` (detector-specific scale).
    pub score: f64,
    /// True when the detector considers the sample out-of-distribution.
    pub drifting: bool,
}

/// A per-event detector. Implementations must be pure functions of the
/// graph (no RNG, no shared mutable state) — the width-invariance of the
/// whole pipeline rests on it, and so does verdict reuse: the service calls
/// the detector once per home revision and reuses that verdict for later
/// events at the same revision, so side effects such as call counts see
/// one call per revision, not one per event.
pub trait Detector {
    fn detect(&self, graph: &InteractionGraph) -> StreamVerdict;
}

/// The built-in lightweight detector: flags structural vulnerabilities
/// (rule-semantics analysis) and runtime anomalies read directly off the
/// maintained feature block — low trigger consistency or completion is the
/// signature of fake/stealthy commands and command failures. Deterministic,
/// allocation-light, and independent of any trained model, so the serving
/// machinery can be exercised (and benchmarked) in isolation.
#[derive(Debug, Clone)]
pub struct RuntimeDetector {
    /// Anomaly score at or above which the graph is flagged vulnerable.
    pub threshold: f64,
}

impl Default for RuntimeDetector {
    fn default() -> Self {
        Self { threshold: 0.5 }
    }
}

impl Detector for RuntimeDetector {
    fn detect(&self, graph: &InteractionGraph) -> StreamVerdict {
        let mut score: f64 = 0.0;
        for node in &graph.nodes {
            let dims = node.features.len();
            if dims < RUNTIME_FEATURE_DIMS {
                continue;
            }
            let block = dims - RUNTIME_FEATURE_DIMS;
            let consistency = node.features[block + slot::CONSISTENCY];
            let completion = node.features[block + slot::COMPLETION];
            score = score.max(1.0 - consistency).max(1.0 - completion);
        }
        let structural = !detect_vulnerabilities(graph).is_empty();
        StreamVerdict {
            vulnerable: structural || score >= self.threshold,
            score,
            drifting: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fexiot_graph::{CorpusConfig, CorpusGenerator, CorpusIndex, FeatureConfig, GraphBuilder};
    use fexiot_tensor::rng::Rng;

    #[test]
    fn runtime_detector_is_pure_and_in_range() {
        let mut rng = Rng::seed_from_u64(3);
        let mut gen = CorpusGenerator::new();
        let rules = gen.generate(&CorpusConfig::small(), &mut rng);
        let index = CorpusIndex::build(rules);
        let builder = GraphBuilder::new(FeatureConfig::small());
        let graph = builder.sample_graph(&index, 6, &mut rng);
        let det = RuntimeDetector::default();
        let a = det.detect(&graph);
        let b = det.detect(&graph);
        assert_eq!(a, b);
        assert!((0.0..=1.0).contains(&a.score));
    }
}

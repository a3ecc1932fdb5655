//! Event sources for the streaming service.
//!
//! The service consumes a time-ordered sequence of [`HomeEvent`]s plus the
//! fleet's offline interaction graphs. Two sources exist:
//!
//! * **Replay** ([`replay_fleet`]): seeds a rule corpus, samples one offline
//!   graph per home, simulates each home's device activity
//!   ([`HomeSimulator`]), cleans the logs, and merges them into one stream
//!   ordered by `(time, home)`. Fully deterministic in the seed.
//! * **Wire** ([`crate::wire::parse_wire`]): reads a recorded
//!   `fexiot-obs-events/v1` stream. The offline graphs still come from the
//!   seeded fleet build, so a wire file pairs with the `(homes, home_size,
//!   seed)` triple that recorded it.

use fexiot_graph::events::{clean_log, HomeSimulator, SimConfig};
use fexiot_graph::{
    CorpusConfig, CorpusGenerator, CorpusIndex, FeatureConfig, GraphBuilder, InteractionGraph,
};
use fexiot_tensor::rng::Rng;

use crate::wire::HomeEvent;

/// RNG domain separator: the replay source draws from its own stream so
/// existing pipelines sharing a seed are unaffected.
const REPLAY_SALT: u64 = 0x57_12_EA_0B_5E_ED;

/// Configuration of the seeded replay fleet.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of homes streaming events.
    pub homes: usize,
    /// Rules per home graph.
    pub home_size: usize,
    /// Master seed; same seed ⇒ byte-identical fleet and event stream.
    pub seed: u64,
    /// Per-home simulation horizon.
    pub sim: SimConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            homes: 6,
            home_size: 6,
            seed: 7,
            sim: SimConfig::short(),
        }
    }
}

/// A fleet ready to stream: offline graphs plus the merged event sequence.
#[derive(Debug, Clone)]
pub struct Fleet {
    /// Offline interaction graph per home (index = home id).
    pub graphs: Vec<InteractionGraph>,
    /// Time-ordered merged event stream across all homes.
    pub events: Vec<HomeEvent>,
}

/// Builds the seeded replay fleet: corpus → per-home offline graphs →
/// simulated, cleaned, merged event stream.
pub fn replay_fleet(cfg: &FleetConfig) -> Fleet {
    let mut rng = Rng::seed_from_u64(cfg.seed ^ REPLAY_SALT);
    let mut gen = CorpusGenerator::new();
    let rules = gen.generate(&CorpusConfig::small(), &mut rng);
    let index = CorpusIndex::build(rules);
    let builder = GraphBuilder::new(FeatureConfig::small());

    // Sampling consumes the RNG stream `sample_graph` would; the homes are
    // then featurized in one batch, each distinct rule once.
    let mut graphs: Vec<InteractionGraph> = (0..cfg.homes)
        .map(|_| builder.sample_structure(&index, cfg.home_size, &mut rng))
        .collect();
    builder.fill_features_batch(&mut graphs);

    let mut events = Vec::new();
    for (home, graph) in graphs.iter().enumerate() {
        let rules: Vec<_> = graph.nodes.iter().map(|n| n.rule.clone()).collect();
        let mut sim = HomeSimulator::new(rules);
        let raw = sim.run(&cfg.sim, &mut rng);
        for ev in clean_log(&raw) {
            events.push(HomeEvent { home, event: ev });
        }
    }
    // Merge into one fleet-wide stream. The sort is stable and the key is
    // (time, home), so simultaneous events across homes interleave
    // deterministically and each home's log order is preserved.
    events.sort_by_key(|e| (e.event.time, e.home));
    Fleet { graphs, events }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_is_deterministic_in_the_seed() {
        let cfg = FleetConfig {
            homes: 3,
            ..FleetConfig::default()
        };
        let a = replay_fleet(&cfg);
        let b = replay_fleet(&cfg);
        assert_eq!(a.events, b.events);
        assert_eq!(a.graphs.len(), 3);
        for (ga, gb) in a.graphs.iter().zip(&b.graphs) {
            assert_eq!(ga, gb);
        }
        let other = replay_fleet(&FleetConfig {
            seed: 8,
            homes: 3,
            ..FleetConfig::default()
        });
        assert_ne!(a.events, other.events);
    }

    #[test]
    fn events_are_time_ordered_and_non_empty() {
        let fleet = replay_fleet(&FleetConfig::default());
        assert!(
            fleet.events.len() > 50,
            "replay produced {} events",
            fleet.events.len()
        );
        for pair in fleet.events.windows(2) {
            assert!(pair[0].event.time <= pair[1].event.time);
        }
        assert!(fleet.events.iter().any(|e| e.home != 0));
    }
}

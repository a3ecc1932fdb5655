//! Per-round cost attribution and critical-path analysis for federated runs.
//!
//! The simulator has no real network, so the "time" attributed here is
//! **deterministic simulated ticks**, not wall-clock: straggler rounds of
//! delay (bounded by the staleness window) plus exponential-backoff ticks
//! spent on lossy-link retries. That keeps the critical path a pure function
//! of the seeded `FaultPlan` — same seed, same path — which is what lets the
//! e2e tests assert "round 3's slowest chain is the scripted straggler".

use crate::json::Json;

/// Simulated ticks one client accrued in one round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientTicks {
    pub client: usize,
    /// Rounds of straggler delay the server waited out (staleness-bounded).
    pub straggler: u64,
    /// Exponential-backoff ticks spent re-sending on lossy links.
    pub backoff: u64,
    /// Ticks the client's update sat at a straggling edge aggregator.
    pub agg: u64,
    /// Retransmissions beyond the first attempt (uploads + downloads).
    pub retries: u64,
}

impl ClientTicks {
    fn total(&self) -> u64 {
        self.straggler + self.backoff + self.agg
    }
}

/// One critical-path entry: the slowest client chain of one round.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPathEntry {
    pub round: usize,
    /// `None` when no client accrued any cost (an all-clear round).
    pub client: Option<usize>,
    pub total_ticks: u64,
    pub straggler_ticks: u64,
    pub backoff_ticks: u64,
    pub agg_ticks: u64,
    pub retries: u64,
    /// Dominant cost source: `straggler`, `backoff`, `aggregator`, or
    /// `idle`.
    pub cause: &'static str,
}

/// One round's critical path: the client with the highest simulated-tick
/// cost, ties broken by lowest client id (so the result is deterministic
/// whatever order the clients come in). A round where nobody accrued cost
/// is an `idle` entry with `client: None`.
pub fn slowest_client(
    round: usize,
    clients: impl IntoIterator<Item = ClientTicks>,
) -> CriticalPathEntry {
    let slowest = clients
        .into_iter()
        .filter(|c| c.total() > 0)
        .min_by_key(|c| (std::cmp::Reverse(c.total()), c.client));
    let c = slowest.unwrap_or_default();
    CriticalPathEntry {
        round,
        client: slowest.map(|c| c.client),
        total_ticks: c.total(),
        straggler_ticks: c.straggler,
        backoff_ticks: c.backoff,
        agg_ticks: c.agg,
        retries: c.retries,
        // The aggregator tier only wins a strict majority of the ticks;
        // client-side causes keep their original priority order so
        // flat-topology paths are byte-identical.
        cause: if slowest.is_none() {
            "idle"
        } else if c.agg > c.straggler && c.agg > c.backoff {
            "aggregator"
        } else if c.straggler >= c.backoff {
            "straggler"
        } else {
            "backoff"
        },
    }
}

/// Serializes a critical path as the report's `critical_path` array.
pub fn critical_path_to_json(path: &[CriticalPathEntry]) -> Json {
    Json::Arr(
        path.iter()
            .map(|e| {
                Json::Obj(vec![
                    ("round".into(), Json::UInt(e.round as u64)),
                    (
                        "client".into(),
                        e.client.map(|c| Json::UInt(c as u64)).unwrap_or(Json::Null),
                    ),
                    ("total_ticks".into(), Json::UInt(e.total_ticks)),
                    ("straggler_ticks".into(), Json::UInt(e.straggler_ticks)),
                    ("backoff_ticks".into(), Json::UInt(e.backoff_ticks)),
                    ("agg_ticks".into(), Json::UInt(e.agg_ticks)),
                    ("retries".into(), Json::UInt(e.retries)),
                    ("cause".into(), Json::Str(e.cause.into())),
                ])
            })
            .collect(),
    )
}

/// One human-readable line per round, for the summary tree.
pub fn render_critical_path(path: &[CriticalPathEntry]) -> String {
    let mut out = String::from("critical path (simulated ticks)\n");
    for e in path {
        let line = match e.client {
            Some(c) => format!(
                "  round[{}]  client[{}]  {} ticks (straggler {}, backoff {}, agg {}, retries {}) <- {}\n",
                e.round,
                c,
                e.total_ticks,
                e.straggler_ticks,
                e.backoff_ticks,
                e.agg_ticks,
                e.retries,
                e.cause
            ),
            None => format!("  round[{}]  idle (no client accrued cost)\n", e.round),
        };
        out.push_str(&line);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(client: usize, straggler: u64, backoff: u64) -> ClientTicks {
        ClientTicks {
            client,
            straggler,
            backoff,
            retries: backoff.min(3),
            ..Default::default()
        }
    }

    #[test]
    fn picks_the_slowest_client_per_round() {
        let busy = slowest_client(0, [cost(0, 0, 1), cost(1, 2, 1), cost(2, 0, 0)]);
        assert_eq!(busy.client, Some(1));
        assert_eq!(busy.total_ticks, 3);
        assert_eq!(busy.cause, "straggler");
        let idle = slowest_client(1, [cost(0, 0, 0), cost(1, 0, 0)]);
        assert_eq!((idle.round, idle.client), (1, None));
        assert_eq!(idle.cause, "idle");
        assert_eq!(slowest_client(2, []).cause, "idle");
    }

    #[test]
    fn ties_break_to_the_lowest_client_id() {
        let path = slowest_client(7, [cost(2, 1, 1), cost(0, 2, 0), cost(1, 0, 2)]);
        assert_eq!(path.client, Some(0));
        assert_eq!(path.round, 7);
    }

    #[test]
    fn backoff_dominant_cost_is_labelled_backoff() {
        assert_eq!(slowest_client(0, [cost(0, 1, 4)]).cause, "backoff");
    }

    #[test]
    fn aggregator_dominant_cost_is_labelled_aggregator() {
        let mut slow = cost(3, 1, 1);
        slow.agg = 4;
        let path = slowest_client(2, [cost(0, 2, 0), slow]);
        assert_eq!(path.client, Some(3));
        assert_eq!(path.total_ticks, 6);
        assert_eq!(path.agg_ticks, 4);
        assert_eq!(path.cause, "aggregator");
        // Ties between aggregator and client causes keep the client label.
        let mut tied = cost(1, 3, 0);
        tied.agg = 3;
        assert_eq!(slowest_client(0, [tied]).cause, "straggler");
    }
}

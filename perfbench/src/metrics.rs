//! The metric catalogue: every name the benchmark reports, with its unit
//! and direction. `BENCHMARK.json` lists the same names; a test keeps the
//! two in step.

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn def(name: &'static str, unit: &'static str, higher_is_better: bool) -> Def {
    Def {
        name,
        unit,
        higher_is_better,
    }
}

/// What a user of each workload sees. Every workload reports all of them:
/// a "call" is the timed library call (one explanation, one `run_stream`
/// over the fleet, one federated round, the first of each replay with the
/// federation's build, one train-and-persist cycle), and an "op" is
/// the unit of work it completes (explanations, events, rounds, cycles).
/// Timings leave out spells of heavy machine load and are scaled to
/// nominal speed (see `reference`).
/// `accuracy` is the quality of what the workload produces: mean
/// explanation fidelity mapped to [0, 1] for `explain`, held-out model
/// accuracy for the others.
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s", false),
    def("peak_rss_mb", "MB", false),
    def("call_p50_ms", "ms", false),
    def("accuracy", "fraction", true),
    def("warm_load_ms", "ms", false),
];

/// Per-layer metrics of the traced run, named `<crate>.<what>`. Layers a
/// workload does not run report 0.
pub const PER_LAYER: &[Def] = &[
    def("tensor.matmul.us", "us", false),
    def("tensor.wls.us", "us", false),
    def("nlp.index.ms", "ms", false),
    def("graph.corpus.ms", "ms", false),
    def("graph.fuse.ms", "ms", false),
    def("graph.graphs", "count", true),
    def("graph.replay.ms", "ms", false),
    def("gnn.train.ms", "ms", false),
    def("gnn.pairs", "count", true),
    def("gnn.train.us_per_pair", "us", false),
    def("gnn.embed.us", "us", false),
    def("ml.fit.ms", "ms", false),
    def("explain.calls", "count", true),
    def("explain.p90_ms", "ms", false),
    def("explain.evals", "count", false),
    def("explain.shap.us", "us", false),
    def("explain.score.us", "us", false),
    def("explain.mask.us", "us", false),
    def("explain.score.share", "%", false),
    def("stream.events", "count", true),
    def("stream.ticks", "ticks", false),
    def("stream.stall_ticks", "ticks", false),
    def("stream.shed", "count", false),
    def("stream.max_depth", "count", false),
    def("stream.detect.calls", "count", true),
    def("stream.detect.ms", "ms", false),
    def("stream.maintain.us", "us", false),
    def("stream.residual.ms", "ms", false),
    def("stream.p99_ticks", "ticks", false),
    def("fed.round.ms", "ms", false),
    def("fed.client.busy_ms", "ms", false),
    def("fed.client.max_ms", "ms", false),
    def("fed.aggregate.ms", "ms", false),
    def("fed.parallel_eff", "ratio", true),
    def("fed.comm.bytes", "bytes", false),
    def("fed.comm.messages", "count", false),
    def("store.put.ms", "ms", false),
    def("store.get.ms", "ms", false),
    def("store.bytes_written", "bytes", false),
    def("store.bytes_read", "bytes", false),
    def("store.hits", "count", true),
    def("store.misses", "count", false),
    def("store.corrupt", "count", false),
    def("core.train.ms", "ms", false),
    def("core.detect.us", "us", false),
    def("core.load.ms", "ms", false),
    def("par.fanout.us", "us", false),
    def("par.fanouts", "count", false),
    def("par.speedup_2v1", "ratio", true),
    def("obs.absorb.us", "us", false),
    def("obs.overhead_pct", "%", false),
    def("unattributed_pct", "%", false),
];

/// Values for one catalogue, in catalogue order.
pub struct Metrics {
    defs: &'static [Def],
    values: Vec<f64>,
}

impl Metrics {
    /// End-to-end metrics start unset (NaN): each must be measured.
    pub fn end_to_end() -> Self {
        Self {
            defs: END_TO_END,
            values: vec![f64::NAN; END_TO_END.len()],
        }
    }

    /// Per-layer metrics start at 0, the value of a layer not run.
    pub fn per_layer() -> Self {
        Self {
            defs: PER_LAYER,
            values: vec![0.0; PER_LAYER.len()],
        }
    }

    /// # Panics
    /// Panics on a name outside the catalogue (a benchmark bug).
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        self.values[i] = value;
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        let i = self.defs.iter().position(|d| d.name == name)?;
        Some(self.values[i])
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static Def, f64)> + '_ {
        self.defs.iter().zip(self.values.iter().copied())
    }

    /// Metrics left unmeasured or not finite.
    pub fn problems(&self) -> Vec<String> {
        self.iter()
            .filter(|(_, v)| !v.is_finite())
            .map(|(d, v)| format!("metric {} is {v}", d.name))
            .collect()
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .iter()
            .map(|(d, v)| {
                let v = if v.is_finite() { v } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    d.name, d.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

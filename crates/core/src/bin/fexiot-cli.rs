//! `fexiot-cli` — drive the FexIoT pipeline from the command line.
//!
//! ```text
//! fexiot-cli train    [--graphs N] [--seed S] [--encoder gin|gcn|magnn]
//!                     [--out MODEL] [--store DIR]    # at least one sink
//! fexiot-cli eval     (--model MODEL | --store DIR) [--graphs N] [--seed S]
//!                     [--train-graphs N] [--train-seed S] [--encoder E]
//! fexiot-cli detect   (--model MODEL | --store DIR) [--seed S]  # one fresh home
//! fexiot-cli explain  (--model MODEL | --store DIR) [--seed S]  # one detection
//! fexiot-cli federate [--clients N] [--rounds R] [--strategy fexiot|fedavg|fmtl|gcfl|local]
//!                     [--dropout P] [--msg-loss P] [--straggler P] [--corrupt P]
//!                     [--sample-frac F | --sample-k K]      # per-round cohort sampling
//!                     [--aggregators N] [--failover reassign|skip]
//!                     [--agg-dropout P] [--agg-crash P] [--agg-straggler P]
//!                     [--quorum F] [--deadline-ticks T]     # quorum-gated rounds
//!                     [--store DIR | --checkpoint-dir DIR]  # checkpoint + resume
//! fexiot-cli serve    [--replay | --input FILE] [--model MODEL | --store DIR]
//!                     [--homes N] [--home-size K] [--seed S] [--sim-scale M]
//!                     [--shards N] [--mailbox-cap C] [--overflow block|shed]
//!                     [--ingest-rate R] [--maintain-rate R] [--detect-rate R]
//!                     [--round-events E] [--slow-shard I] [--record FILE]
//! fexiot-cli store list --store DIR                  # inspect cached artifacts
//! fexiot-cli store gc   --store DIR                  # drop broken entries / orphan blobs
//! ```
//!
//! `--store DIR` opens the persistent artifact store (`fexiot-store`): a
//! content-addressed blob directory under a versioned manifest, keyed by
//! configuration identity (seed, scale, encoder, feature dims, schema
//! version — never thread width). A warm run loads its dataset and model
//! from the store and skips corpus generation, featurization, and training
//! entirely; stdout is byte-identical to the cold run because every warm
//! note goes to stderr and skipped stages consume no shared RNG. `eval`,
//! `detect`, and `explain` resolve their model from the registry (training
//! on demand on a miss, keyed by `--train-seed`/`--train-graphs`/
//! `--encoder`); `serve` hot-loads only and fails cleanly when the model
//! is absent. `federate --store DIR` persists per-round checkpoints under
//! the same manifest and resumes from the latest round for its identity
//! (`--checkpoint-dir` is kept as an alias). Corrupt blobs are detected by
//! hash verification, reported on stderr naming the artifact, and rebuilt
//! cold. See DESIGN.md §Artifact store.
//!
//! `serve` runs the streaming detection service (`fexiot-stream`): a seeded
//! replay fleet (or a recorded `fexiot-obs-events/v1` wire file via
//! `--input`) streams per-home events through the bounded-mailbox actor
//! pipeline — incremental graph maintenance, then detection shards drained
//! in shard order. `--model` plugs the trained detector in
//! (default: the lightweight runtime-feature detector); `--record` writes
//! the replayed stream to a wire file; `--slow-shard` injects a slow
//! detection shard to exercise backpressure and the streaming SLO gate.
//!
//! Every subcommand accepts `--threads N` to pin the deterministic parallel
//! execution width (default: `FEXIOT_THREADS`, else the machine's available
//! parallelism; results are bit-identical at any width — see DESIGN.md
//! §Execution model), plus the shared observability flags (parsed by
//! [`fexiot_obs::cli::ObsCli`]): `--obs-summary` (print the span tree and
//! metric digests after the run), `--obs-out DIR` (write a `fexiot-obs/v4`
//! JSON run report under DIR), `--obs-stream FILE` (stream
//! `fexiot-obs-events/v1` JSONL events live to FILE;
//! `--obs-stream-timing exclude` drops wall-clock fields so same-seed
//! streams are byte-identical), `--obs-flame FILE` (write
//! flamegraph-compatible collapsed stacks, value = exclusive µs per span
//! path), `--obs-timeseries [CAP]` (collect the per-round fleet time-series
//! into the report's `timeseries` section), `--obs-slo FILE` (evaluate
//! the SLO rules in FILE each round; a failing rule prints its verdict and
//! exits with code 3), and `--obs-trace FILE` (record the federated run's
//! causal fault graph — `fexiot-obs-causal/v1` — for
//! `obs-export --chrome-trace` and root-cause attribution;
//! `--obs-trace-timing exclude` drops wall-clock fields so same-seed traces
//! are byte-identical); see DESIGN.md §Observability.
//!
//! Datasets are generated from the synthetic corpus (see DESIGN.md); models
//! are checkpointed with the first-party codec, so `train` on one machine and
//! `eval`/`explain` on another reproduce identical decisions.

use fexiot::fed::{Corruption, Failover, FaultPlan, Sampling, Strategy, Topology};
use fexiot::store::{ArtifactKind, Store, StoreError};
use fexiot::{build_federation, warm, FederationConfig, FexIot, FexIotConfig};
use fexiot_gnn::EncoderKind;
use fexiot_graph::GraphDataset;
use fexiot_ml::Metrics;
use fexiot_tensor::codec::fnv1a;
use fexiot_tensor::Rng;
use std::process::ExitCode;

struct Args {
    values: Vec<(String, String)>,
    command: String,
}

impl Args {
    fn parse() -> Option<Args> {
        let mut argv = std::env::args().skip(1);
        let mut command = argv.next()?;
        let mut rest: Vec<String> = argv.collect();
        // `store` takes an action word (`store list`, `store gc`) — the one
        // place a positional is meaningful. Fold it into the command so the
        // flag parser below stays positional-free.
        if command == "store" {
            if let Some(action) = rest.first().filter(|a| !a.starts_with("--")) {
                command = format!("store {action}");
                rest.remove(0);
            }
        }
        Self::parse_from(command, rest)
    }

    /// Parses a flag list (everything after the subcommand). Split out from
    /// [`Args::parse`] so tests can drive the parser without a process.
    fn parse_from(command: String, mut argv: Vec<String>) -> Option<Args> {
        let mut values = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let key = std::mem::take(&mut argv[i]);
            if let Some(name) = key.strip_prefix("--") {
                // A following `--token` (or nothing) means this flag is
                // boolean, e.g. `--obs-summary`.
                match argv.get(i + 1).filter(|v| !v.starts_with("--")) {
                    Some(value) => {
                        values.push((name.to_string(), value.clone()));
                        i += 2;
                    }
                    None => {
                        values.push((name.to_string(), String::new()));
                        i += 1;
                    }
                }
            } else {
                eprintln!("unexpected argument: {key}");
                return None;
            }
        }
        Some(Args { values, command })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn get_usize(&self, name: &str, default: usize) -> usize {
        self.get_num(name).unwrap_or(default)
    }

    fn get_u64(&self, name: &str, default: u64) -> u64 {
        self.get_num(name).unwrap_or(default)
    }

    fn get_f64(&self, name: &str, default: f64) -> f64 {
        self.get_num(name).unwrap_or(default)
    }

    /// A count flag that must be at least 1. Zero is a usage error like an
    /// unparsable number, never clamped: the process exits 2 naming the flag.
    fn get_positive(&self, name: &str, default: usize) -> usize {
        let v = self.get_usize(name, default);
        if v == 0 {
            eprintln!("--{name} must be at least 1, got 0");
            std::process::exit(2);
        }
        v
    }

    /// A real-valued flag that must satisfy `ok` (NaN fails every range).
    /// A value outside it is a usage error, never clamped: the process exits
    /// 2 naming the flag, the value and the `range`.
    fn get_f64_in(&self, name: &str, default: f64, ok: fn(f64) -> bool, range: &str) -> f64 {
        let v = self.get_f64(name, default);
        if !ok(v) {
            let raw = self.get(name).unwrap_or_default();
            eprintln!("--{name} must be {range}, got {raw:?}");
            std::process::exit(2);
        }
        v
    }

    /// A probability or fraction flag: a value in [0, 1].
    fn get_unit(&self, name: &str, default: f64) -> f64 {
        self.get_f64_in(name, default, |p| (0.0..=1.0).contains(&p), "in [0, 1]")
    }

    /// A numeric flag's value, `None` when the flag is absent. A value that
    /// does not parse is a usage error, never a silent default: the process
    /// exits 2 naming the flag and the value.
    fn get_num<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        let v = self.get(name)?;
        match v.parse() {
            Ok(x) => Some(x),
            Err(_) => {
                eprintln!("--{name} expects a number, got {v:?}");
                std::process::exit(2);
            }
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  fexiot-cli train    [--graphs N] [--seed S] [--encoder gin|gcn|magnn] [--out MODEL] [--store DIR]\n  fexiot-cli eval     (--model MODEL | --store DIR) [--graphs N] [--seed S]\n                      [--train-graphs N] [--train-seed S] [--encoder E]  (registry identity)\n  fexiot-cli detect   (--model MODEL | --store DIR) [--seed S]\n  fexiot-cli explain  (--model MODEL | --store DIR) [--seed S]\n  fexiot-cli federate [--clients N] [--rounds R] [--strategy fexiot|fedavg|fmtl|gcfl|local]\n                      [--graphs N] [--seed S] [--alpha A]\n                      [--dropout P] [--msg-loss P] [--straggler P] [--corrupt P]\n                      [--sample-frac F | --sample-k K]  (per-round cohort sampling)\n                      [--aggregators N] [--failover reassign|skip]\n                      [--agg-dropout P] [--agg-crash P] [--agg-straggler P]\n                      [--quorum F] [--deadline-ticks T]  (quorum-gated rounds)\n                      [--store DIR | --checkpoint-dir DIR]  (checkpoints; resumes from the latest round)\n  fexiot-cli serve    [--replay | --input FILE] [--model MODEL | --store DIR]  (streaming detection)\n                      [--homes N] [--home-size K] [--seed S] [--sim-scale M]\n                      [--shards N] [--mailbox-cap C] [--overflow block|shed]\n                      [--ingest-rate R] [--maintain-rate R] [--detect-rate R]\n                      [--round-events E] [--slow-shard I] [--record FILE]\n  fexiot-cli store list --store DIR  (list cached artifacts)\n  fexiot-cli store gc   --store DIR  (drop broken entries and orphan blobs)\n  any subcommand: [--threads N]  (parallel width; default FEXIOT_THREADS or all cores)\n                  [--store DIR]  (artifact store: warm-start datasets/models; see DESIGN.md)\n                  [--obs-summary] [--obs-out DIR] [--obs-flame FILE]\n                  [--obs-stream FILE] [--obs-stream-timing include|exclude]\n                  [--obs-trace FILE] [--obs-trace-timing include|exclude]  (observability export)"
    );
    ExitCode::from(2)
}

/// Store-aware dataset builder: warm-loads the featurized graphs from the
/// artifact store when possible, generates (and caches) them otherwise.
/// Warm notes go to stderr only — stdout stays byte-identical either way.
/// Callers read `graphs` with [`Args::get_positive`] before any other work,
/// so a zero count exits 2 before a model is loaded or trained.
fn make_dataset(
    args: &Args,
    graphs: usize,
    hetero: bool,
    store: &mut Option<Store>,
) -> GraphDataset {
    let out =
        warm::load_or_generate_dataset(store.as_mut(), args.get_u64("seed", 42), graphs, hetero);
    for note in &out.notes {
        eprintln!("{note}");
    }
    out.value
}

fn load_model(args: &Args) -> Result<FexIot, String> {
    let path = args.get("model").ok_or("--model is required")?;
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    FexIot::load_from_bytes(&bytes).map_err(|e| format!("corrupt model {path}: {e}"))
}

/// Opens the artifact store named by `--store DIR` (None without the flag).
fn open_store(args: &Args) -> Result<Option<Store>, String> {
    let Some(dir) = args.get("store") else {
        return Ok(None);
    };
    if dir.is_empty() {
        return Err("--store wants a directory".into());
    }
    let store = Store::open(std::path::Path::new(dir)).map_err(|e| e.to_string())?;
    if let Some(note) = &store.recovered {
        eprintln!("store: {note}");
    }
    Ok(Some(store))
}

/// Model resolution shared by eval/detect/explain/serve: an explicit
/// `--model PATH` always wins; otherwise the `--store` registry supplies
/// the model keyed by (`--train-seed`, `--train-graphs`, `--encoder`).
/// `train_if_missing` distinguishes the analysis arms (train on demand,
/// then cache) from `serve` (hot-load only — a serving process must never
/// silently absorb a training run).
fn resolve_model(
    args: &Args,
    store: &mut Option<Store>,
    train_if_missing: bool,
    default_encoder: &str,
) -> Result<FexIot, String> {
    if args.get("model").is_some() {
        return load_model(args);
    }
    let Some(store) = store.as_mut() else {
        return Err("--model MODEL or --store DIR is required".into());
    };
    let encoder_name = args.get("encoder").unwrap_or(default_encoder);
    let encoder = warm::parse_encoder(encoder_name)
        .ok_or_else(|| format!("unknown encoder {encoder_name}"))?;
    let train_seed = args.get_u64("train-seed", args.get_u64("seed", 42));
    let train_graphs = args.get_positive("train-graphs", 300);
    if train_if_missing {
        let out = warm::load_or_train_model(Some(store), train_seed, train_graphs, encoder);
        for note in &out.notes {
            eprintln!("{note}");
        }
        return Ok(out.value);
    }
    let id = warm::model_identity(train_seed, train_graphs, encoder);
    let bytes = store.get(ArtifactKind::Model, &id).map_err(|e| {
        format!(
            "{e}; serve hot-loads only — train it first with \
             `fexiot-cli train --store DIR` using matching \
             --seed/--graphs/--encoder"
        )
    })?;
    eprintln!("store: hot-loaded model {}", id.key(ArtifactKind::Model));
    FexIot::load_from_bytes(&bytes).map_err(|e| format!("corrupt model in store: {e}"))
}

fn main() -> ExitCode {
    let Some(args) = Args::parse() else {
        return usage();
    };
    // `--threads N` (else FEXIOT_THREADS) pins the data-parallel width
    // before any stage runs; without either the pool uses every core.
    if let Err(e) = fexiot::set_threads_from(args.get("threads")) {
        eprintln!("{e}");
        return ExitCode::from(2);
    }
    // The shared helper owns the `--obs-*` namespace: known-flag validation,
    // stream/report/flame lifecycle (see fexiot_obs::cli).
    let obs = match fexiot_obs::ObsCli::from_pairs(&args.values) {
        Ok(obs) => obs,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    let run_name = format!("cli-{}", args.command);
    if let Err(e) = obs.begin(&run_name) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }

    // Fleet-health telemetry (`--obs-timeseries` / `--obs-slo`): built here,
    // carried by the federate run, and handed back for export + the SLO
    // exit-code gate below.
    let mut telemetry = match obs.fleet_telemetry() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    // Federate fills this with its per-round critical path so the summary
    // and the exported report carry the straggler/backoff attribution.
    let mut critical_path: Option<Vec<fexiot_obs::CriticalPathEntry>> = None;
    // With `--obs-trace`, federate records its causal fault graph and hands
    // it back here for export (and for the report's root_cause section).
    let trace_run = obs.trace.is_some().then(|| run_name.clone());
    let mut trace: Option<fexiot_obs::CausalGraph> = None;
    // Serve fills this with its run summary for the report's `stream` section.
    let mut stream_section: Option<fexiot_obs::Json> = None;
    let code = run(
        &args,
        trace_run.as_deref(),
        &mut critical_path,
        &mut telemetry,
        &mut trace,
        &mut stream_section,
    );

    if let Err(e) = obs.finish(
        &run_name,
        critical_path.as_deref(),
        telemetry.as_ref(),
        trace.as_ref(),
        stream_section,
    ) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    // A failed SLO rule is a run verdict: report it on stderr and exit
    // nonzero (distinct from the generic FAILURE code so CI can tell an SLO
    // breach from an infrastructure error). The federate arm only hands
    // telemetry back after a successful run, so this never masks a failure
    // code from `run`.
    if telemetry.as_ref().is_some_and(|t| t.slo_failed()) {
        eprintln!("SLO gate failed (see verdict lines above)");
        return ExitCode::from(3);
    }
    code
}

fn run(
    args: &Args,
    trace_run: Option<&str>,
    critical_path: &mut Option<Vec<fexiot_obs::CriticalPathEntry>>,
    telemetry: &mut Option<fexiot_obs::FleetTelemetry>,
    trace: &mut Option<fexiot_obs::CausalGraph>,
    stream_section: &mut Option<fexiot_obs::Json>,
) -> ExitCode {
    let mut store = match open_store(args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match args.command.as_str() {
        "train" => {
            let out_path = args.get("out");
            if out_path.is_none() && store.is_none() {
                eprintln!("train: --out MODEL or --store DIR is required");
                return usage();
            }
            let encoder_name = args.get("encoder").unwrap_or("gin");
            let Some(encoder) = warm::parse_encoder(encoder_name) else {
                eprintln!("unknown encoder {encoder_name}");
                return usage();
            };
            let seed = args.get_u64("seed", 42);
            let graphs = args.get_positive("graphs", 300);
            let hetero = encoder == EncoderKind::Magnn;
            let ds = make_dataset(args, graphs, hetero, &mut store);
            let mut rng = Rng::seed_from_u64(seed ^ 0x5EED);
            let (train, test) = ds.train_test_split(0.8, &mut rng);
            println!(
                "training on {} graphs ({} vulnerable), holding out {}",
                train.len(),
                train.vulnerable_count(),
                test.len()
            );
            // Registry warm path: a model already cached under this exact
            // identity skips training; the held-out line below is computed
            // from the loaded model on the same deterministic split, so the
            // warm run's stdout is bit-identical to the cold run's.
            let id = warm::model_identity(seed, graphs, encoder.clone());
            let mut model = None;
            if let Some(s) = store.as_ref() {
                match s.get(ArtifactKind::Model, &id) {
                    Ok(bytes) => match FexIot::load_from_bytes(&bytes) {
                        Ok(m) => {
                            eprintln!("store: warm model hit; skipping training");
                            model = Some(m);
                        }
                        Err(e) => {
                            eprintln!("store: corrupt model payload ({e}); retraining cold")
                        }
                    },
                    Err(StoreError::Missing { .. }) => {}
                    Err(e) => eprintln!("{e}; retraining cold"),
                }
            }
            let model = match model {
                Some(m) => m,
                None => {
                    let cfg = FexIotConfig::default()
                        .with_encoder(encoder)
                        .with_seed(seed);
                    let m = FexIot::train(&train, cfg);
                    if let Some(s) = store.as_mut() {
                        if let Err(e) = s.put(ArtifactKind::Model, &id, &m.save_to_bytes()) {
                            eprintln!("store: cannot cache model: {e}");
                        }
                    }
                    m
                }
            };
            println!("held-out: {}", model.evaluate(&test));
            let bytes = model.save_to_bytes();
            if let Some(out) = out_path {
                if let Err(e) = std::fs::write(out, &bytes) {
                    eprintln!("cannot write {out}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("saved {} KB to {out}", bytes.len() / 1024);
            }
            ExitCode::SUCCESS
        }
        "eval" => {
            let graphs = args.get_positive("graphs", 120);
            let model = match resolve_model(args, &mut store, true, "gin") {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            let ds = make_dataset(args, graphs, false, &mut store);
            // The report is accumulated and digested so warm/cold identity
            // is checkable from the last stdout line alone.
            let mut report = String::new();
            report.push_str(&format!("evaluating on {} fresh graphs\n", ds.len()));
            report.push_str(&format!("{}\n", model.evaluate(&ds)));
            let drifting = model.filter_drifting(&ds);
            report.push_str(&format!(
                "drift filter flagged {}/{} graphs\n",
                drifting.len(),
                ds.len()
            ));
            print!("{report}");
            println!("report digest fnv1a:{:016x}", fnv1a(report.as_bytes()));
            ExitCode::SUCCESS
        }
        "detect" => {
            let graphs = args.get_positive("graphs", 20);
            let model = match resolve_model(args, &mut store, true, "gin") {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            let ds = make_dataset(args, graphs, false, &mut store);
            let mut report = String::new();
            for (i, g) in ds.graphs.iter().enumerate() {
                let d = model.detect(g);
                report.push_str(&format!(
                    "graph {i:>2} ({} rules): {}  p={:.3}{}\n",
                    g.node_count(),
                    if d.vulnerable {
                        "VULNERABLE"
                    } else {
                        "benign    "
                    },
                    d.score,
                    if d.drifting {
                        "  [drifting - inspect manually]"
                    } else {
                        ""
                    }
                ));
            }
            print!("{report}");
            println!("detections digest fnv1a:{:016x}", fnv1a(report.as_bytes()));
            ExitCode::SUCCESS
        }
        "explain" => {
            let graphs = args.get_positive("graphs", 60);
            let model = match resolve_model(args, &mut store, true, "gin") {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            let ds = make_dataset(args, graphs, false, &mut store);
            let Some(target) = ds
                .graphs
                .iter()
                .find(|g| g.node_count() >= 4 && model.detect(g).vulnerable)
            else {
                println!("no vulnerable detection in the generated sample; try another --seed");
                return ExitCode::SUCCESS;
            };
            let e = model.explain(target);
            println!(
                "explaining a {}-rule home; root-cause subgraph ({} rules, score {:.3}):",
                target.node_count(),
                e.nodes.len(),
                e.score
            );
            for &i in &e.nodes {
                println!(
                    "  rule {:>4}: {}",
                    target.nodes[i].rule.id, target.nodes[i].rule.text
                );
            }
            ExitCode::SUCCESS
        }
        "federate" => {
            let strategy = match args.get("strategy").unwrap_or("fexiot") {
                "fexiot" => Strategy::fexiot_default(),
                "fedavg" => Strategy::FedAvg,
                "fmtl" => Strategy::fmtl_default(),
                "gcfl" => Strategy::gcfl_default(),
                "local" => Strategy::LocalOnly,
                other => {
                    eprintln!("unknown strategy {other}");
                    return usage();
                }
            };
            let seed = args.get_u64("seed", 42);
            let rounds = args.get_usize("rounds", 10);
            let mut config = FederationConfig {
                n_clients: args.get_positive("clients", 8),
                alpha: args.get_f64_in("alpha", 1.0, |a| a > 0.0, "> 0"),
                strategy,
                rounds,
                ..Default::default()
            };
            config.pipeline.seed = seed;
            config.faults = FaultPlan::none()
                .with_seed(seed)
                .with_dropout(args.get_unit("dropout", 0.0))
                .with_msg_loss(args.get_unit("msg-loss", 0.0))
                .with_straggler(args.get_unit("straggler", 0.0))
                .with_corruption(args.get_unit("corrupt", 0.0), Corruption::NonFinite)
                .with_agg_dropout(args.get_unit("agg-dropout", 0.0))
                .with_agg_crash(args.get_unit("agg-crash", 0.0), 2)
                .with_agg_straggler(args.get_unit("agg-straggler", 0.0));
            config.sampling = if args.get("sample-k").is_some() {
                Sampling::FixedK(args.get_positive("sample-k", 1))
            } else if args.get("sample-frac").is_some() {
                let in_range = |f| f > 0.0 && f <= 1.0;
                Sampling::Fraction(args.get_f64_in("sample-frac", 1.0, in_range, "in (0, 1]"))
            } else {
                Sampling::Full
            };
            let failover = match args.get("failover").unwrap_or("reassign") {
                "reassign" => Failover::Reassign,
                "skip" => Failover::Skip,
                other => {
                    eprintln!("unknown failover policy {other}");
                    return usage();
                }
            };
            config.topology = Topology {
                aggregators: args.get_positive("aggregators", 1),
                failover,
            };
            config.quorum = args.get_unit("quorum", 0.0);
            config.deadline_ticks = args.get_num("deadline-ticks").filter(|&t: &usize| t > 0);

            // `--checkpoint-dir DIR` is a compatibility alias for
            // `--store DIR`: both open the same manifest-backed store.
            if store.is_none() {
                if let Some(dir) = args.get("checkpoint-dir") {
                    match Store::open(std::path::Path::new(dir)) {
                        Ok(s) => {
                            if let Some(note) = &s.recovered {
                                eprintln!("store: {note}");
                            }
                            store = Some(s);
                        }
                        Err(e) => {
                            eprintln!("{e}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
            }
            let graph_count = args.get_positive("graphs", 240);
            let ds = make_dataset(args, graph_count, false, &mut store);
            let mut rng = Rng::seed_from_u64(seed ^ 0x5EED);
            let (train, test) = ds.train_test_split(0.8, &mut rng);
            println!(
                "federating {} clients over {} graphs ({}), strategy {}, {} aggregator(s)",
                config.n_clients,
                train.len(),
                if config.faults.is_active() {
                    "faults on"
                } else {
                    "reliable fleet"
                },
                config.strategy.name(),
                config.topology.aggregators,
            );
            let mut sim = build_federation(&train, &config);
            // Point the simulator's private registry at the global one so
            // the exported report covers pipeline + rounds in one tree.
            if fexiot_obs::global_enabled() {
                sim.attach_obs(std::sync::Arc::clone(fexiot_obs::global()));
            }
            // Hand the telemetry bundle to the simulator for the run; it is
            // taken back below so main can export it and gate the exit code.
            if let Some(t) = telemetry.take() {
                sim.attach_telemetry(t);
            }
            if let Some(name) = trace_run {
                sim.enable_causal_trace(name);
            }

            // With a store open, each round is persisted under the run's
            // checkpoint identity (seed, fleet size, strategy, graphs —
            // rounds excluded), and a rerun with the same flags resumes from
            // the latest round recorded there. A rerun asking for *more*
            // rounds therefore continues instead of starting over, and a
            // corrupt checkpoint degrades to a cold start with a warning.
            let ck_id = warm::checkpoint_identity(
                seed,
                config.n_clients,
                config.strategy.name(),
                graph_count,
            );
            if let Some(s) = store.as_mut() {
                if let Some(round) = s.latest_round(&ck_id) {
                    match s
                        .get_round(&ck_id, round)
                        .map_err(|e| e.to_string())
                        .and_then(|b| sim.restore(&b).map_err(|e| e.to_string()))
                    {
                        Ok(()) => {
                            println!("resumed from store at round {}", sim.rounds_completed())
                        }
                        Err(e) => eprintln!(
                            "cannot resume from checkpoint round {round}: {e}; starting cold"
                        ),
                    }
                }
            }

            while sim.rounds_completed() < rounds {
                let r = sim.run_round();
                let t = r.faults;
                println!(
                    "round {:>3}: loss {:.4}  comm {:>8.2} MB  active {}/{} (dropped {}, quarantined {}, stale {}, retries {}, lost {}){}{}{}",
                    r.round,
                    r.mean_loss,
                    r.cumulative_comm.total_mb(),
                    t.participants,
                    t.sampled,
                    t.dropped,
                    t.quarantined,
                    t.stale_accepted,
                    t.retried_messages,
                    t.lost_messages,
                    if t.agg_down > 0 {
                        format!("  [{} aggregator(s) down, {} rerouted]", t.agg_down, t.reassigned)
                    } else {
                        String::new()
                    },
                    if t.quorum_aborted { "  [QUORUM ABORT]" } else { "" },
                    if t.slo_failures > 0 {
                        // With causal tracing on, name the dominant cause in
                        // the annotation so a scrolling log already points at
                        // the culprit (the full ranking lands in the report's
                        // `root_cause` section).
                        match sim.last_root_cause() {
                            Some(cause) => format!(
                                "  [SLO {} failing: top cause {}]",
                                t.slo_failures, cause
                            ),
                            None => format!("  [SLO {} failing]", t.slo_failures),
                        }
                    } else {
                        String::new()
                    },
                );
                if let Some(e) = &r.comm_error {
                    eprintln!("round {:>3}: COMM INVARIANT VIOLATED: {e}", r.round);
                }
                if let Some(s) = store.as_mut() {
                    if let Err(e) = s.put_round(&ck_id, r.round as u64, &sim.checkpoint()) {
                        eprintln!("cannot write checkpoint for round {}: {e}", r.round);
                        return ExitCode::FAILURE;
                    }
                }
            }
            let metrics = sim.evaluate(&test);
            println!("held-out (mean over clients): {}", Metrics::mean(&metrics));
            *critical_path = Some(sim.critical_path());
            *telemetry = sim.take_telemetry();
            *trace = sim.take_causal_trace();
            ExitCode::SUCCESS
        }
        "serve" => serve(args, &mut store, critical_path, telemetry, stream_section),
        "store list" => {
            let Some(s) = store.as_ref() else {
                eprintln!("store list: --store DIR is required");
                return usage();
            };
            let entries = s.list();
            for e in &entries {
                println!(
                    "{:<12} {:>10} B  blob {:016x}  {}",
                    e.kind.as_str(),
                    e.len,
                    e.blob,
                    e.name()
                );
            }
            println!("{} artifact(s)", entries.len());
            ExitCode::SUCCESS
        }
        "store gc" => {
            let Some(s) = store.as_mut() else {
                eprintln!("store gc: --store DIR is required");
                return usage();
            };
            match s.gc() {
                Ok((dropped, deleted)) => {
                    println!(
                        "store gc: dropped {dropped} broken entr{}, deleted {deleted} orphan blob(s)",
                        if dropped == 1 { "y" } else { "ies" }
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}

/// A trained encoder only consumes graphs in its input feature space: GIN
/// and GCN need one homogeneous node dim, MAGNN one registered projection
/// per platform. The replay fleet spans all five platforms, so check every
/// home up front and fail cleanly instead of panicking mid-stream.
fn model_accepts_fleet(
    model: &FexIot,
    graphs: &[fexiot_graph::InteractionGraph],
) -> Result<(), String> {
    use fexiot_gnn::Encoder;
    let enc = &model.scorer().encoder;
    for (home, g) in graphs.iter().enumerate() {
        for n in &g.nodes {
            let got = n.features.len();
            let want = match enc {
                Encoder::Gcn(e) => Some(e.input_dim),
                Encoder::Gin(e) => Some(e.input_dim),
                Encoder::Magnn(m) => m
                    .type_dims
                    .iter()
                    .find(|(p, _)| *p == n.rule.platform)
                    .map(|&(_, d)| d),
            };
            match want {
                None => {
                    return Err(format!(
                        "home {home} has platform {:?} but the model carries no \
                         projection for it",
                        n.rule.platform
                    ));
                }
                Some(want) if want != got => {
                    return Err(format!(
                        "home {home}: {:?} node feature dim {got} != model input dim {want}",
                        n.rule.platform
                    ));
                }
                Some(_) => {}
            }
        }
    }
    Ok(())
}

/// Adapts the trained [`FexIot`] model to the streaming [`Detector`] trait.
struct ModelDetector<'a>(&'a FexIot);

impl fexiot_stream::Detector for ModelDetector<'_> {
    fn detect(&self, graph: &fexiot_graph::InteractionGraph) -> fexiot_stream::StreamVerdict {
        let d = self.0.detect(graph);
        fexiot_stream::StreamVerdict {
            vulnerable: d.vulnerable,
            score: d.score,
            drifting: d.drifting,
        }
    }
}

/// The `serve` arm: stream a replayed (or recorded) fleet through the
/// bounded-mailbox pipeline, publishing actor telemetry to the global
/// registry and handing the run summary back for the report's `stream`
/// section.
fn serve(
    args: &Args,
    store: &mut Option<Store>,
    critical_path: &mut Option<Vec<fexiot_obs::CriticalPathEntry>>,
    telemetry: &mut Option<fexiot_obs::FleetTelemetry>,
    stream_section: &mut Option<fexiot_obs::Json>,
) -> ExitCode {
    let Some(overflow) = fexiot_stream::Overflow::parse(args.get("overflow").unwrap_or("block"))
    else {
        eprintln!("--overflow must be 'block' or 'shed'");
        return usage();
    };
    let defaults = fexiot_stream::StreamConfig::default();
    let cfg = fexiot_stream::StreamConfig {
        shards: args.get_positive("shards", defaults.shards),
        mailbox_cap: args.get_positive("mailbox-cap", defaults.mailbox_cap),
        overflow,
        ingest_rate: args.get_positive("ingest-rate", defaults.ingest_rate),
        maintain_rate: args.get_positive("maintain-rate", defaults.maintain_rate),
        detect_rate: args.get_positive("detect-rate", defaults.detect_rate),
        round_events: args.get_positive("round-events", defaults.round_events),
        slow_shard: args.get_num("slow-shard"),
    };
    if let Some(i) = cfg.slow_shard.filter(|&i| i >= cfg.shards) {
        eprintln!(
            "--slow-shard {i} is out of range: --shards {} has shards 0 to {}",
            cfg.shards,
            cfg.shards - 1
        );
        return ExitCode::from(2);
    }

    // The (homes, home-size, seed) triple defines both the offline graphs
    // and — in the default --replay mode — the simulated event stream. A
    // wire file from --input pairs with the triple that recorded it.
    let seed = args.get_u64("seed", 42);
    let mut fleet_cfg = fexiot_stream::FleetConfig {
        homes: args.get_positive("homes", 6),
        home_size: args.get_positive("home-size", 6),
        seed,
        ..fexiot_stream::FleetConfig::default()
    };
    let sim_scale = args.get_positive("sim-scale", 1) as u64;
    let Some(duration) = fleet_cfg.sim.duration.checked_mul(sim_scale) else {
        eprintln!("--sim-scale {sim_scale} overflows the simulated duration");
        return ExitCode::from(2);
    };
    fleet_cfg.sim.duration = duration;
    let fleet = fexiot_stream::replay_fleet(&fleet_cfg);

    let wire_events;
    let events: &[fexiot_stream::HomeEvent] = match args.get("input") {
        None => &fleet.events,
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read wire file {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match fexiot_stream::parse_wire(&text) {
                Ok((_, events)) => {
                    wire_events = events;
                    &wire_events
                }
                Err(e) => {
                    eprintln!("{path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };
    if let Some(bad) = events.iter().find(|e| e.home >= fleet.graphs.len()) {
        eprintln!(
            "serve: event for home {} but the fleet has {} homes \
             (--homes/--home-size/--seed must match the recording)",
            bad.home,
            fleet.graphs.len()
        );
        return ExitCode::FAILURE;
    }
    if let Some(path) = args.get("record") {
        if let Err(e) = std::fs::write(path, fexiot_stream::write_wire("cli-serve", events)) {
            eprintln!("cannot write wire recording {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("recorded {} events to {path}", events.len());
    }

    // Streaming telemetry specs: p99 virtual-time latency, shed deltas, and
    // per-round throughput — the series slo-stream.toml rules evaluate.
    if let Some(tel) = telemetry.as_mut() {
        for spec in [
            fexiot_obs::SampleSpec::HistQuantile {
                name: "stream.detect.latency_ticks".into(),
                q: 0.99,
            },
            fexiot_obs::SampleSpec::CounterDelta("stream.mailbox.shed".into()),
            fexiot_obs::SampleSpec::Gauge("stream.ingest.events_per_round".into()),
        ] {
            if let Err(e) = tel.store.add_spec(spec) {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }

    // A serving process hot-loads its model — from `--model PATH` or the
    // `--store` registry — and never trains. The registry default is magnn:
    // the replay fleet is five-platform heterogeneous, and only MAGNN
    // carries per-platform projections (see model_accepts_fleet).
    let model = if args.get("model").is_none() && store.is_none() {
        None
    } else {
        match resolve_model(args, store, false, "magnn") {
            Ok(m) => Some(m),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    };
    if let Some(m) = &model {
        if let Err(e) = model_accepts_fleet(m, &fleet.graphs) {
            eprintln!(
                "serve: --model cannot score this fleet ({e}); the replay fleet is \
                 five-platform heterogeneous, so train with `--encoder magnn`, or \
                 drop --model to use the runtime detector"
            );
            return ExitCode::FAILURE;
        }
    }

    println!(
        "serving {} homes · {} events ({}) · {} shard(s) · mailboxes cap {} policy {} · detector {}",
        fleet.graphs.len(),
        events.len(),
        if args.get("input").is_some() {
            "wire replay"
        } else {
            "seeded replay"
        },
        cfg.shards,
        cfg.mailbox_cap,
        overflow.name(),
        if model.is_some() { "trained model" } else { "runtime features" },
    );

    let reg = std::sync::Arc::clone(fexiot_obs::global());
    let t0 = std::time::Instant::now();
    let out = match &model {
        Some(m) => fexiot_stream::run_stream(
            &fleet.graphs,
            events,
            &ModelDetector(m),
            &cfg,
            &reg,
            telemetry.as_mut(),
        ),
        None => fexiot_stream::run_stream(
            &fleet.graphs,
            events,
            &fexiot_stream::RuntimeDetector::default(),
            &cfg,
            &reg,
            telemetry.as_mut(),
        ),
    };
    // Wall-clock throughput is advisory-only (timing-suffixed, so excluded
    // from every determinism-checked surface).
    let secs = t0.elapsed().as_secs_f64();
    if secs > 0.0 {
        reg.gauge_set(
            "stream.ingest.events_per_sec",
            out.stats.events as f64 / secs,
        );
    }

    let s = &out.stats;
    println!(
        "stream done: {} events → {} detected ({} vulnerable, {} drifting), {} shed · {} rounds / {} ticks · {} stall ticks",
        s.events, s.detected, s.vulnerable, s.drifting, s.shed, s.rounds, s.ticks, s.stall_ticks
    );
    for a in &s.actors {
        println!(
            "  actor {:<9} cap {:>4} ({}): in {:>6}  out {:>6}  shed {:>5}  stalls {:>5}  max depth {:>3}",
            a.name, a.capacity, a.policy, a.enqueued, a.dequeued, a.shed, a.stall_ticks, a.max_depth
        );
    }
    println!("detections digest fnv1a:{:016x}", s.digest);

    *stream_section = Some(s.to_json());
    *critical_path = Some(out.critical_path);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(flags: &[&str]) -> Args {
        Args::parse_from(
            "train".into(),
            flags.iter().map(|s| s.to_string()).collect(),
        )
        .expect("flags should parse")
    }

    #[test]
    fn parses_valued_and_boolean_flags() {
        let args = parse(&["--graphs", "120", "--obs-summary", "--seed", "7"]);
        assert_eq!(args.get_usize("graphs", 0), 120);
        assert_eq!(args.get_u64("seed", 0), 7);
        // Boolean flags parse as present-with-empty-value.
        assert_eq!(args.get("obs-summary"), Some(""));
        assert_eq!(args.get("obs-out"), None);
    }

    #[test]
    fn rejects_positional_arguments() {
        let parsed = Args::parse_from("train".into(), vec!["stray".into()]);
        assert!(parsed.is_none());
    }

    #[test]
    fn known_obs_flags_pass_validation() {
        let args = parse(&[
            "--obs-summary",
            "--obs-out",
            "results/obs",
            "--obs-stream",
            "events.jsonl",
            "--obs-stream-timing",
            "exclude",
            "--obs-flame",
            "run.flame",
        ]);
        let obs = fexiot_obs::ObsCli::from_pairs(&args.values).expect("all flags known");
        assert!(obs.summary && obs.enabled());
        assert!(!obs.include_stream_timing);
        assert!(obs.flame.is_some());
    }

    #[test]
    fn unknown_obs_flag_is_rejected_with_the_known_list() {
        let args = parse(&["--obs-steam", "events.jsonl"]);
        let err = fexiot_obs::ObsCli::from_pairs(&args.values).unwrap_err();
        assert!(err.contains("--obs-steam"), "names the offender: {err}");
        for known in fexiot_obs::cli::OBS_FLAGS {
            assert!(err.contains(known), "lists --{known}: {err}");
        }
    }

    #[test]
    fn bad_stream_timing_mode_is_rejected() {
        let args = parse(&["--obs-stream-timing", "sometimes"]);
        let err = fexiot_obs::ObsCli::from_pairs(&args.values).unwrap_err();
        assert!(err.contains("sometimes"));
        // Non-obs flags stay permissive; only the obs namespace is strict.
        let args = parse(&["--definitely-not-a-flag", "x"]);
        assert!(fexiot_obs::ObsCli::from_pairs(&args.values).is_ok());
    }
}

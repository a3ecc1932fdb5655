//! `fexiot-cli` — drive the FexIoT pipeline from the command line.
//!
//! The commands are `train`, `eval`, `detect`, `explain` (one detection),
//! `federate`, `serve`, `store list` (inspect cached artifacts) and
//! `store gc` (drop broken entries and orphan blobs). Each command's flags
//! are the rows of its entry in `COMMANDS` below, and the usage text is
//! generated from them: run `fexiot-cli` alone to print it. An unknown,
//! repeated, stray, valueless or out-of-range argument exits 2 naming it,
//! before any work; a failed run exits 1, and a failed SLO rule exits 3.
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
use fexiot_obs::cli::Kind::{self, Choice, Int, Real, Text};
use fexiot_obs::cli::{Args, Flag, Spec, OBS_FLAGS, THREADS};
use fexiot_tensor::codec::fnv1a;
use fexiot_tensor::Rng;
use std::ops::Bound::{Excluded, Included, Unbounded};
use std::process::ExitCode;

const SEED: Flag = Flag::new("seed", Int(0), "S");
const STORE: Flag = Flag::new("store", Text, "DIR");
const ENCODER: Flag = Flag::new("encoder", Choice(&["gin", "gcn", "magnn"]), "");
const DATA: &[Flag] = &[Flag::new("graphs", Int(1), "N"), SEED];
const TRAIN: &[Flag] = &[ENCODER, Flag::new("out", Text, "MODEL"), STORE];
/// The model file, or the `--store` registry entry for this identity.
const MODEL: &[Flag] = &[
    Flag::new("model", Text, "MODEL"),
    STORE,
    ENCODER,
    Flag::new("train-seed", Int(0), "S"),
    Flag::new("train-graphs", Int(1), "N"),
];
const UNIT: Kind = Real(Included(0.0), Included(1.0));

const FEDERATE: &[Flag] = &[
    Flag::new("clients", Int(1), "N"),
    Flag::new("rounds", Int(0), "R"),
    Flag::new(
        "strategy",
        Choice(&["fexiot", "fedavg", "fmtl", "gcfl", "local"]),
        "",
    ),
    Flag::new("alpha", Real(Excluded(0.0), Unbounded), "A"),
    Flag::new("dropout", UNIT, "P"),
    Flag::new("msg-loss", UNIT, "P"),
    Flag::new("straggler", UNIT, "P"),
    Flag::new("corrupt", UNIT, "P"),
    Flag::new("sample-frac", Real(Excluded(0.0), Included(1.0)), "F"),
    Flag::new("sample-k", Int(1), "K"),
    Flag::new("aggregators", Int(1), "N"),
    Flag::new("failover", Choice(&["reassign", "skip"]), ""),
    Flag::new("agg-dropout", UNIT, "P"),
    Flag::new("agg-crash", UNIT, "P"),
    Flag::new("agg-straggler", UNIT, "P"),
    Flag::new("quorum", UNIT, "F"),
    Flag::new("deadline-ticks", Int(1), "T"),
    STORE,
    Flag::new("checkpoint-dir", Text, "DIR"),
];

const SERVE: &[Flag] = &[
    Flag::new("input", Text, "FILE"),
    Flag::new("record", Text, "FILE"),
    Flag::new("homes", Int(1), "N"),
    Flag::new("home-size", Int(1), "K"),
    SEED,
    Flag::new("sim-scale", Int(1), "M"),
    Flag::new("shards", Int(1), "N"),
    Flag::new("mailbox-cap", Int(1), "C"),
    Flag::new("overflow", Choice(&["block", "shed"]), ""),
    Flag::new("ingest-rate", Int(1), "R"),
    Flag::new("maintain-rate", Int(1), "R"),
    Flag::new("detect-rate", Int(1), "R"),
    Flag::new("round-events", Int(1), "E"),
    Flag::new("slow-shard", Int(0), "I"),
];

/// Every command ends with the tables `&[THREADS], OBS_FLAGS`.
const COMMANDS: &[Spec] = &[
    Spec::new("train", &[DATA, TRAIN, &[THREADS], OBS_FLAGS]),
    Spec::new("eval", &[DATA, MODEL, &[THREADS], OBS_FLAGS]),
    Spec::new("detect", &[DATA, MODEL, &[THREADS], OBS_FLAGS]),
    Spec::new("explain", &[DATA, MODEL, &[THREADS], OBS_FLAGS]),
    Spec::new("federate", &[DATA, FEDERATE, &[THREADS], OBS_FLAGS]),
    Spec::new("serve", &[SERVE, MODEL, &[THREADS], OBS_FLAGS]),
    Spec::new("store list", &[&[STORE], &[THREADS], OBS_FLAGS]),
    Spec::new("store gc", &[&[STORE], &[THREADS], OBS_FLAGS]),
];

/// Why a command did not succeed.
enum Failure {
    /// Bad input on the command line: exit 2 with the usage text.
    Usage(String),
    /// The run failed: exit 1.
    Run(String),
}

impl From<String> for Failure {
    fn from(e: String) -> Failure {
        Failure::Run(e)
    }
}

fn usage(e: impl Into<String>) -> Failure {
    Failure::Usage(e.into())
}

fn seed(args: &Args) -> u64 {
    args.num("seed").unwrap_or(42)
}

fn encoder(args: &Args, default: &str) -> EncoderKind {
    warm::parse_encoder(args.value("encoder").unwrap_or(default))
        .expect("the flag table admits only known encoders")
}

/// Store-aware dataset builder: warm-loads the featurized graphs from the
/// artifact store when possible, generates (and caches) them otherwise.
/// Warm notes go to stderr only — stdout stays byte-identical either way.
fn make_dataset(
    args: &Args,
    graphs: usize,
    hetero: bool,
    store: &mut Option<Store>,
) -> GraphDataset {
    let out = warm::load_or_generate_dataset(store.as_mut(), seed(args), graphs, hetero);
    for note in &out.notes {
        eprintln!("{note}");
    }
    out.value
}

/// Whether `model` reads five-platform heterogeneous graphs: a MAGNN
/// model does, a GIN or GCN model reads IFTTT graphs.
fn reads_hetero(model: &FexIot) -> bool {
    matches!(model.scorer().encoder, fexiot_gnn::Encoder::Magnn(_))
}

/// Opens the artifact store named by `--store DIR` or its alias
/// `--checkpoint-dir DIR` (None without either). Commands that cache
/// artifacts create the store on first use; `store list` and `store gc`
/// only inspect one, so a missing directory is an error for them.
fn open_store(args: &Args, command: &str) -> Result<Option<Store>, Failure> {
    let dir = match (args.value("store"), args.value("checkpoint-dir")) {
        (Some(_), Some(_)) => return Err(usage("--store and --checkpoint-dir name one store")),
        (None, None) => return Ok(None),
        (Some(dir), None) | (None, Some(dir)) => std::path::Path::new(dir),
    };
    if command.starts_with("store ") && !dir.is_dir() {
        return Err(format!("{command}: no store at {}", dir.display()).into());
    }
    let store = Store::open(dir).map_err(|e| e.to_string())?;
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
    if let Some(path) = args.value("model") {
        let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        return FexIot::load_from_bytes(&bytes).map_err(|e| format!("corrupt model {path}: {e}"));
    }
    let Some(store) = store.as_mut() else {
        return Err("--model MODEL or --store DIR is required".into());
    };
    let encoder = encoder(args, default_encoder);
    let train_seed = args.num("train-seed").unwrap_or(seed(args));
    let train_graphs = args.num("train-graphs").unwrap_or(300);
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
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let program = fexiot_obs::cli::program();
    let words = |spec: &Spec| spec.command.split(' ').count();
    let selects = |spec: &&Spec| {
        argv.get(..words(spec))
            .is_some_and(|a| a.join(" ") == spec.command)
    };
    let Some(spec) = COMMANDS.iter().find(selects) else {
        // Each command's own tables, then the two they all end with.
        let own = COMMANDS
            .iter()
            .map(|s| Spec::new(s.command, &s.flags[..s.flags.len() - 2]));
        eprintln!("usage:");
        for spec in own.chain([Spec::new("COMMAND", &[&[THREADS], OBS_FLAGS])]) {
            eprintln!("  {}", spec.usage(&program).replace('\n', "\n  "));
        }
        return ExitCode::from(2);
    };
    match cli(spec, &argv[words(spec)..]) {
        Ok(code) => code,
        Err(Failure::Usage(e)) => {
            eprintln!("{e}\nusage: {}", spec.usage(&program));
            ExitCode::from(2)
        }
        Err(Failure::Run(e)) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn cli(spec: &Spec, argv: &[String]) -> Result<ExitCode, Failure> {
    let args = fexiot_obs::cli::parse(spec, argv).map_err(Failure::Usage)?;
    // `--threads N` (else FEXIOT_THREADS) pins the data-parallel width
    // before any stage runs; without either the pool uses every core.
    fexiot::set_threads_from(args.value("threads")).map_err(Failure::Usage)?;
    let obs = fexiot_obs::ObsCli::from_args(&args);
    let run_name = format!("cli-{}", spec.command);
    obs.begin(&run_name)?;

    // Fleet-health telemetry (`--obs-timeseries` / `--obs-slo`): built here,
    // carried by the federate run, and handed back for export + the SLO
    // exit-code gate below.
    let mut telemetry = obs.fleet_telemetry()?;

    // Federate fills this with its per-round critical path so the summary
    // and the exported report carry the straggler/backoff attribution.
    let mut critical_path: Option<Vec<fexiot_obs::CriticalPathEntry>> = None;
    // With `--obs-trace`, federate records its causal fault graph and hands
    // it back here for export (and for the report's root_cause section).
    let trace_run = obs.trace.is_some().then(|| run_name.clone());
    let mut trace: Option<fexiot_obs::CausalGraph> = None;
    // Serve fills this with its run summary for the report's `stream` section.
    let mut stream_section: Option<fexiot_obs::Json> = None;
    let outcome = run(
        spec.command,
        &args,
        trace_run.as_deref(),
        &mut critical_path,
        &mut telemetry,
        &mut trace,
        &mut stream_section,
    );
    // A failed run still writes the exports it asked for.
    let finished = obs.finish(
        &run_name,
        critical_path.as_deref(),
        telemetry.as_ref(),
        trace.as_ref(),
        stream_section,
    );
    outcome?;
    finished?;
    // A failed SLO rule is a run verdict: report it on stderr and exit
    // nonzero (distinct from the generic FAILURE code so CI can tell an SLO
    // breach from an infrastructure error).
    if telemetry.as_ref().is_some_and(|t| t.slo_failed()) {
        eprintln!("SLO gate failed (see verdict lines above)");
        return Ok(ExitCode::from(3));
    }
    Ok(ExitCode::SUCCESS)
}

fn run(
    command: &str,
    args: &Args,
    trace_run: Option<&str>,
    critical_path: &mut Option<Vec<fexiot_obs::CriticalPathEntry>>,
    telemetry: &mut Option<fexiot_obs::FleetTelemetry>,
    trace: &mut Option<fexiot_obs::CausalGraph>,
    stream_section: &mut Option<fexiot_obs::Json>,
) -> Result<(), Failure> {
    let mut store = open_store(args, command)?;
    match command {
        "train" => {
            let out_path = args.value("out");
            if out_path.is_none() && store.is_none() {
                return Err(usage("train: --out MODEL or --store DIR is required"));
            }
            let encoder = encoder(args, "gin");
            let seed = seed(args);
            let graphs = args.num("graphs").unwrap_or(300);
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
                std::fs::write(out, &bytes).map_err(|e| format!("cannot write {out}: {e}"))?;
                println!("saved {} KB to {out}", bytes.len() / 1024);
            }
        }
        "eval" => {
            let graphs = args.num("graphs").unwrap_or(120);
            let model = resolve_model(args, &mut store, true, "gin")?;
            let ds = make_dataset(args, graphs, reads_hetero(&model), &mut store);
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
        }
        "detect" => {
            let graphs = args.num("graphs").unwrap_or(20);
            let model = resolve_model(args, &mut store, true, "gin")?;
            let ds = make_dataset(args, graphs, reads_hetero(&model), &mut store);
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
        }
        "explain" => {
            let graphs = args.num("graphs").unwrap_or(60);
            let model = resolve_model(args, &mut store, true, "gin")?;
            let ds = make_dataset(args, graphs, reads_hetero(&model), &mut store);
            let Some(target) = ds
                .graphs
                .iter()
                .find(|g| g.node_count() >= 4 && model.detect(g).vulnerable)
            else {
                println!("no vulnerable detection in the generated sample; try another --seed");
                return Ok(());
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
        }
        "federate" => {
            let strategy = match args.value("strategy") {
                None | Some("fexiot") => Strategy::fexiot_default(),
                Some("fedavg") => Strategy::FedAvg,
                Some("fmtl") => Strategy::fmtl_default(),
                Some("gcfl") => Strategy::gcfl_default(),
                _ => Strategy::LocalOnly,
            };
            let seed = seed(args);
            let rounds = args.num("rounds").unwrap_or(10);
            let mut config = FederationConfig {
                n_clients: args.num("clients").unwrap_or(8),
                alpha: args.num("alpha").unwrap_or(1.0),
                strategy,
                rounds,
                ..Default::default()
            };
            config.pipeline.seed = seed;
            let p = |name| args.num(name).unwrap_or(0.0);
            config.faults = FaultPlan::none()
                .with_seed(seed)
                .with_dropout(p("dropout"))
                .with_msg_loss(p("msg-loss"))
                .with_straggler(p("straggler"))
                .with_corruption(p("corrupt"), Corruption::NonFinite)
                .with_agg_dropout(p("agg-dropout"))
                .with_agg_crash(p("agg-crash"), 2)
                .with_agg_straggler(p("agg-straggler"));
            config.sampling = match (args.num("sample-k"), args.num("sample-frac")) {
                (Some(_), Some(_)) => {
                    return Err(usage("--sample-k and --sample-frac exclude each other"))
                }
                (Some(k), None) => Sampling::FixedK(k),
                (None, Some(f)) => Sampling::Fraction(f),
                (None, None) => Sampling::Full,
            };
            config.topology = Topology {
                aggregators: args.num("aggregators").unwrap_or(1),
                failover: match args.value("failover") {
                    Some("skip") => Failover::Skip,
                    _ => Failover::Reassign,
                },
            };
            config.quorum = p("quorum");
            config.deadline_ticks = args.num("deadline-ticks");

            let graph_count = args.num("graphs").unwrap_or(240);
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
                    s.put_round(&ck_id, r.round as u64, &sim.checkpoint())
                        .map_err(|e| {
                            format!("cannot write checkpoint for round {}: {e}", r.round)
                        })?;
                }
            }
            let metrics = sim.evaluate(&test);
            println!("held-out (mean over clients): {}", Metrics::mean(&metrics));
            *critical_path = Some(sim.critical_path());
            *telemetry = sim.take_telemetry();
            *trace = sim.take_causal_trace();
        }
        "serve" => serve(args, &mut store, critical_path, telemetry, stream_section)?,
        "store list" => {
            let Some(s) = store.as_ref() else {
                return Err(usage("store list: --store DIR is required"));
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
        }
        "store gc" => {
            let Some(s) = store.as_mut() else {
                return Err(usage("store gc: --store DIR is required"));
            };
            let (dropped, deleted) = s.gc().map_err(|e| e.to_string())?;
            println!(
                "store gc: dropped {dropped} broken entr{}, deleted {deleted} orphan blob(s)",
                if dropped == 1 { "y" } else { "ies" }
            );
        }
        _ => unreachable!("COMMANDS lists every command"),
    }
    Ok(())
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

/// Adapts the trained [`FexIot`] model to the streaming
/// [`Detector`](fexiot_stream::Detector) trait.
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
) -> Result<(), Failure> {
    let defaults = fexiot_stream::StreamConfig::default();
    let cfg = fexiot_stream::StreamConfig {
        shards: args.num("shards").unwrap_or(defaults.shards),
        mailbox_cap: args.num("mailbox-cap").unwrap_or(defaults.mailbox_cap),
        overflow: args.value("overflow").map_or(defaults.overflow, |w| {
            fexiot_stream::Overflow::parse(w).expect("the flag table admits block|shed")
        }),
        ingest_rate: args.num("ingest-rate").unwrap_or(defaults.ingest_rate),
        maintain_rate: args.num("maintain-rate").unwrap_or(defaults.maintain_rate),
        detect_rate: args.num("detect-rate").unwrap_or(defaults.detect_rate),
        round_events: args.num("round-events").unwrap_or(defaults.round_events),
        slow_shard: args.num("slow-shard").or(defaults.slow_shard),
    };
    if let Some(i) = cfg.slow_shard.filter(|&i| i >= cfg.shards) {
        return Err(usage(format!(
            "--slow-shard {i} is out of range: --shards {} has shards 0 to {}",
            cfg.shards,
            cfg.shards - 1
        )));
    }

    // The (homes, home-size, seed) triple defines both the offline graphs
    // and — without --input — the simulated event stream. A wire file from
    // --input pairs with the triple that recorded it.
    let mut fleet_cfg = fexiot_stream::FleetConfig {
        homes: args.num("homes").unwrap_or(6),
        home_size: args.num("home-size").unwrap_or(6),
        seed: seed(args),
        ..fexiot_stream::FleetConfig::default()
    };
    let sim_scale: u64 = args.num("sim-scale").unwrap_or(1);
    fleet_cfg.sim.duration = fleet_cfg
        .sim
        .duration
        .checked_mul(sim_scale)
        .ok_or_else(|| {
            usage(format!(
                "--sim-scale {sim_scale} overflows the simulated duration"
            ))
        })?;
    let fleet = fexiot_stream::replay_fleet(&fleet_cfg);

    let wire_events;
    let events: &[fexiot_stream::HomeEvent] = match args.value("input") {
        None => &fleet.events,
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read wire file {path}: {e}"))?;
            (_, wire_events) =
                fexiot_stream::parse_wire(&text).map_err(|e| format!("{path}: {e}"))?;
            &wire_events
        }
    };
    if let Some(bad) = events.iter().find(|e| e.home >= fleet.graphs.len()) {
        return Err(Failure::Run(format!(
            "serve: event for home {} but the fleet has {} homes \
             (--homes/--home-size/--seed must match the recording)",
            bad.home,
            fleet.graphs.len()
        )));
    }
    if let Some(path) = args.value("record") {
        std::fs::write(path, fexiot_stream::write_wire("cli-serve", events))
            .map_err(|e| format!("cannot write wire recording {path}: {e}"))?;
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
            tel.store.add_spec(spec)?;
        }
    }

    // A serving process hot-loads its model — from `--model PATH` or the
    // `--store` registry — and never trains. The registry default is magnn:
    // the replay fleet is five-platform heterogeneous, and only MAGNN
    // carries per-platform projections (see model_accepts_fleet).
    let model = if args.has("model") || store.is_some() {
        Some(resolve_model(args, store, false, "magnn")?)
    } else {
        None
    };
    if let Some(m) = &model {
        model_accepts_fleet(m, &fleet.graphs).map_err(|e| {
            format!(
                "serve: --model cannot score this fleet ({e}); the replay fleet is \
                 five-platform heterogeneous, so train with `--encoder magnn`, or \
                 drop --model to use the runtime detector"
            )
        })?;
    }

    println!(
        "serving {} homes · {} events ({}) · {} shard(s) · mailboxes cap {} policy {} · detector {}",
        fleet.graphs.len(),
        events.len(),
        if args.has("input") {
            "wire replay"
        } else {
            "seeded replay"
        },
        cfg.shards,
        cfg.mailbox_cap,
        cfg.overflow.name(),
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
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses one command line against the command it names.
    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        let spec = COMMANDS.iter().find(|s| line.starts_with(s.command));
        let spec = spec.expect("the line names a command");
        fexiot_obs::cli::parse(spec, &argv[spec.command.split(' ').count()..])
    }

    #[test]
    fn parses_valued_and_boolean_flags() {
        let args = parse("train --graphs 120 --obs-summary --seed 7").unwrap();
        assert_eq!(args.num::<usize>("graphs"), Some(120));
        assert_eq!(args.num::<u64>("seed"), Some(7));
        assert!(args.has("obs-summary") && args.value("obs-summary").is_none());
        assert!(!args.has("obs-out"));
        // Flag sets that CI and the README pass.
        for line in [
            "train --encoder magnn --graphs 120 --seed 7 --threads 4 --out m.fex",
            "explain --model m.fex --seed 42 --threads 1",
            "eval --store s --graphs 60 --seed 9 --train-graphs 120 --train-seed 7 --obs-out d",
            "federate --clients 2000 --rounds 10 --graphs 240 --sample-k 48 --aggregators 2 \
             --failover skip --dropout 0.3 --agg-crash 0.15 --quorum 0.6 --deadline-ticks 8 \
             --obs-slo r.toml --obs-timeseries --obs-trace-timing exclude --threads 4",
            "federate --rounds 2 --strategy gcfl --msg-loss 0.1 --checkpoint-dir d --obs-summary",
            "serve --homes 6 --home-size 6 --seed 42 --sim-scale 4 --shards 2 --slow-shard 1 \
             --mailbox-cap 8 --obs-timeseries --obs-slo r.toml --obs-stream-timing exclude",
            "serve --model m.fex --input w.jsonl --record r.jsonl --overflow shed",
            "store list --store s",
            "store gc --store s --threads 1",
        ] {
            let parsed = parse(line);
            assert!(parsed.is_ok(), "{line}: {:?}", parsed.err());
        }
    }

    #[test]
    fn rejects_positional_arguments() {
        assert_eq!(
            parse("train stray").unwrap_err(),
            "unexpected argument \"stray\""
        );
        assert!(parse("store list extra").is_err());
    }

    #[test]
    fn known_obs_flags_pass_validation() {
        let args = parse(
            "federate --obs-summary --obs-out results/obs --obs-stream events.jsonl \
             --obs-stream-timing exclude --obs-flame run.flame",
        );
        let obs = fexiot_obs::ObsCli::from_args(&args.expect("all flags known"));
        assert!(obs.summary && obs.enabled());
        assert!(!obs.include_stream_timing);
        assert!(obs.flame.is_some());
    }

    #[test]
    fn unknown_obs_flag_is_rejected_with_the_known_list() {
        let err = parse("serve --obs-steam events.jsonl").unwrap_err();
        assert!(err.contains("--obs-steam"), "names the offender: {err}");
        // Every command's usage, printed with the error, lists the obs flags.
        for spec in COMMANDS {
            let usage = spec.usage("fexiot-cli");
            for known in OBS_FLAGS {
                assert!(usage.contains(&format!("--{}", known.name)), "{usage}");
            }
        }
    }

    #[test]
    fn bad_stream_timing_mode_is_rejected() {
        let err = parse("eval --obs-stream-timing sometimes").unwrap_err();
        assert!(err.contains("sometimes"));
        // Other flags are as strict as the obs namespace.
        let err = parse("eval --definitely-not-a-flag x").unwrap_err();
        assert!(err.contains("--definitely-not-a-flag"));
    }

    #[test]
    fn no_command_names_a_flag_twice() {
        for spec in COMMANDS {
            let mut names: Vec<&str> = spec.rows().map(|f| f.name).collect();
            let count = names.len();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), count, "{} repeats a flag", spec.command);
            assert_eq!(spec.flags[spec.flags.len() - 2..], [&[THREADS], OBS_FLAGS]);
        }
    }
}

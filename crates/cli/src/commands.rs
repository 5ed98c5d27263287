//! The `delta-clusters` subcommands.
//!
//! * `mine` — run FLOC on a delimited matrix file, print cluster reports,
//!   optionally write the result as JSON.
//! * `generate` — produce a synthetic matrix (embedded clusters, a
//!   MovieLens-shaped rating matrix, or a microarray-shaped expression
//!   matrix) to a file.
//! * `evaluate` — score a clustering JSON against a ground-truth JSON.
//! * `compare` — run FLOC and Cheng & Church on the same matrix.
//! * `predict` — answer point queries / top-N recommendations from a saved
//!   model snapshot (see `mine --save-model`).
//! * `serve` — put a saved model behind the dc-net HTTP server until
//!   SIGINT (graceful drain, exit 0); `--models DIR` adds a lazy-loading
//!   multi-model registry behind `/v1/models`.
//! * `router` — front a fleet of `serve` shards with consistent-hash
//!   scatter-gather routing (dc-router).
//! * `serve-bench` — measure concurrent query throughput of a saved model.
//!
//! Every command takes `--seed` and is fully reproducible.

use crate::args::{ArgError, Args};
use crate::interrupt;
use crate::obs::{CkptSink, ObsBuilder};
use dc_baselines::{
    AlternativeConfig, BaselineError, ChengChurchBaseline, ChengChurchConfig, CliqueBaseline,
    CliqueConfig, FitContext, FitStop, Proclus, ProclusConfig, Subclu, SubcluConfig,
    SubspaceAlgorithm,
};
use dc_floc::{
    floc, floc_parallel, floc_resume_with, floc_with, Constraint, DeltaCluster, FlocConfig,
    GainEngineKind, InterruptFlag, Ordering, ResidueMean, Seeding, StopReason,
};
use dc_matrix::io::{read_dense_file, read_triples_file, DenseFormat};
use dc_matrix::DataMatrix;
use dc_net::RequestHandler;
use dc_obs::{EventKind, Field, Obs};
use dc_serve::{atomic_write, PredictError, QueryEngine, ServeModel};
use serde::Serialize;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Top-level command errors.
#[derive(Debug)]
pub enum CmdError {
    /// Bad command-line usage; the string is the message shown to the user.
    Usage(String),
    /// Argument parsing/validation failed.
    Arg(ArgError),
    /// File IO or parsing failed.
    Io(String),
    /// The algorithm failed.
    Algo(String),
}

impl std::fmt::Display for CmdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CmdError::Usage(m) => write!(f, "usage error: {m}"),
            CmdError::Arg(e) => write!(f, "argument error: {e}"),
            CmdError::Io(m) => write!(f, "io error: {m}"),
            CmdError::Algo(m) => write!(f, "algorithm error: {m}"),
        }
    }
}

impl std::error::Error for CmdError {}

impl From<ArgError> for CmdError {
    fn from(e: ArgError) -> Self {
        CmdError::Arg(e)
    }
}

impl CmdError {
    /// The process exit code this error maps to: 1 for usage/argument
    /// problems, 2 for data/IO/algorithm failures.
    pub fn exit_code(&self) -> i32 {
        match self {
            CmdError::Usage(_) | CmdError::Arg(_) => 1,
            CmdError::Io(_) | CmdError::Algo(_) => 2,
        }
    }

    /// True when the user should be shown the usage text (their command
    /// line was wrong, as opposed to their data or environment).
    pub fn is_usage(&self) -> bool {
        matches!(self, CmdError::Usage(_) | CmdError::Arg(_))
    }
}

/// A successful command's output: the text to print plus the process exit
/// code. Code 0 is a clean run; code 3 means mining was interrupted but a
/// resumable best-so-far result (and checkpoint, if requested) was still
/// produced — distinct from the error codes so scripts can retry `--resume`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CmdOutput {
    /// Human-readable output for stdout.
    pub text: String,
    /// Process exit code (0, or 3 for interrupted-with-checkpoint).
    pub exit_code: i32,
}

impl CmdOutput {
    /// A clean (exit 0) output.
    pub fn ok(text: impl Into<String>) -> Self {
        CmdOutput {
            text: text.into(),
            exit_code: 0,
        }
    }

    /// An interrupted-but-resumable (exit 3) output.
    pub fn interrupted(text: impl Into<String>) -> Self {
        CmdOutput {
            text: text.into(),
            exit_code: 3,
        }
    }
}

// A command's output is, first of all, its text: deref and Display let
// callers (and the existing tests) treat it as the string it prints.
impl std::ops::Deref for CmdOutput {
    type Target = str;
    fn deref(&self) -> &str {
        &self.text
    }
}

impl std::fmt::Display for CmdOutput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.text)
    }
}

/// The text printed by `delta-clusters help`.
pub const HELP: &str = "\
delta-clusters — δ-cluster mining (Yang et al., ICDE 2002)

USAGE:
  delta-clusters mine <matrix-file> [--algorithm floc|proclus|subclu|cheng-church|clique]
                  [--k N] [--alpha A] [--ordering fixed|random|weighted]
                  [--mean arithmetic|squared] [--min-volume CELLS] [--max-overlap FRAC]
                  [--seed-rows N --seed-cols N] [--triples] [--seed S] [--threads T]
                  [--restarts R] [--max-iters N] [--gain-engine auto|exact|incremental]
                  [--backend memory|paged] [--cache-blocks N] [--chunk-rows N]
                  [--json OUT.json] [--save-model OUT.dcm] [--time-budget SECS]
                  [--checkpoint OUT.dck] [--checkpoint-every N] [--resume IN.dck]
                  [--log text|json] [--progress] [--metrics OUT.json]
  delta-clusters validate <matrix-file> [--alpha A] [--triples] [--strict]
  delta-clusters generate <out-file> --kind embedded|movielens|microarray
                  [--rows N --cols N --clusters K] [--seed S] [--truth OUT.json]
                  [--paged] [--chunk-rows N]
  delta-clusters evaluate <matrix-file> --found FOUND.json --truth TRUTH.json [--triples]
  delta-clusters compare <matrix-file> [--k N] [--delta D] [--triples] [--seed S]
  delta-clusters predict <model-file> <row> [<col>] [--top N]
  delta-clusters serve <model-file> [--models DIR] [--model-cap N] [--addr HOST:PORT]
                  [--threads T] [--queue-depth N] [--log text|json] [--metrics OUT.json]
  delta-clusters serve --mine [--state-dir DIR] [--stream FILE.dcs]
                  [--stream-users N --stream-movies N --stream-events N]
                  [--stream-seed S] [--stream-deletes PCT] [--batch N]
                  [--refine-iters N] [--promote-margin M] [--keep-generations N]
                  [--k N] [--alpha A] [--seed S] [--addr HOST:PORT] [...]
  delta-clusters router --shards HOST:PORT,HOST:PORT,... [--addr HOST:PORT]
                  [--replicas N] [--failure-threshold N] [--probe-interval-ms MS]
                  [--threads T] [--queue-depth N] [--log text|json] [--metrics OUT.json]
  delta-clusters serve-bench <model-file> [--queries N] [--threads T1,T2,...]
                  [--out DIR] [--json] [--log text|json] [--metrics OUT.json]
  delta-clusters help

Matrix files are tab-separated with `NA` (or empty) for missing entries;
pass --triples for `row col value` lines (the MovieLens u.data layout).
NaN/Inf cells are treated as missing. `validate` reports shape, missing
rate, and per-row/column occupancy against --alpha before you mine.

Storage backends: a matrix input may also be a *paged directory* —
CRC-framed block files emitted by `generate --paged` (streamed, so data
sets larger than RAM generate in bounded memory). Paged inputs are
auto-detected; mining reads blocks on demand with an LRU bounded by
--cache-blocks (0 = unbounded) and produces bit-identical clusters to an
in-memory run. `mine --backend paged` converts a text input into pages
first (--paged-dir DIR, default <input>.paged); `--backend memory` loads
a paged directory fully into RAM. With --save-model, a paged run writes a
paged-ref `.dcm` that points at the pages instead of inlining the data.

Model files (`mine --save-model`) are binary `.dcm` snapshots — matrix,
clusters, and precomputed bases behind a checksum — or JSON when the path
ends in `.json`. `predict` answers point queries or, with --top, ranks a
row's unrated columns. `serve-bench` replays a synthetic query stream at
each thread count and writes BENCH_serve.json under --out
(default target/experiments).

Serving: `serve` puts the model behind a zero-dependency HTTP/1.1 server
(default 127.0.0.1:7878): POST /v1/predict answers single or batch
queries, GET /v1/model reports metadata + fingerprint, /healthz and
/readyz are probes, and /metrics serves counters + latency quantiles as
JSON or Prometheus text (?format=prometheus). --threads sizes the worker
pool, --queue-depth bounds accepted-but-unserved connections (beyond it
clients get 503 + Retry-After). SIGINT stops accepting, drains in-flight
requests, and exits 0; a model whose every cluster is degenerate is
refused at startup with exit 2. `serve --models DIR` additionally scans
`<name>@<version>.dcm|.json` artifacts into a lazy-loading registry
(highest version per name wins; --model-cap bounds resident engines, LRU
beyond it): GET /v1/models lists the catalog and POST
/v1/models/<name>/predict answers from a named model; without a positional
model file the registry's first entry becomes the default.

Scaling out: `router` fronts a fleet of `serve` shards. Row ids map to
shards on a consistent-hash ring (--replicas virtual nodes per shard);
batch predicts scatter to the owning shards in parallel and gather back in
the original query order, byte-identical to a single process. A shard
failing --failure-threshold consecutive transport attempts is ejected and
re-admitted once its /healthz answers again (probed every
--probe-interval-ms); sub-requests retry once on the ring's next replica,
502 when nobody is reachable. GET /v1/shards reports per-shard health.
Startup probes every shard and refuses to route a fully unreachable fleet
(exit 2).

Baselines: `mine --algorithm` swaps FLOC for a competitor — `proclus`
(medoid-based projected clustering; --avg-dims, --max-iters, --seed),
`subclu` (bottom-up density-based subspace clustering; --eps, --min-pts,
--max-dims, --keep), `cheng-church` (--k, --delta), or `clique` (the §4.4
alternative; --bins, --tau, --max-level). All honor --threads,
--time-budget, --json, and SIGINT with the same exit codes; checkpoints,
restarts, and --save-model stay FLOC-only. Results are reported as
δ-clusters scored by residue, so `evaluate` works on any algorithm's
--json output.

Gain engines: --gain-engine chooses how phase 2 scores candidate actions.
`exact` rescans the cluster per candidate; `incremental` answers from
sorted residue indexes in logarithmic time; `auto` (default) picks
incremental once the matrix has at least 10,000 cells. Both engines walk
the same trajectory and return the same clustering.

Parallelism: --threads bounds worker threads; `mine --restarts R` races R
independent runs (seeds S, S+1, …) and keeps the lowest-residue clustering
(deterministic regardless of scheduling). Restarts are incompatible with
--checkpoint/--resume, which follow a single trajectory.

Observability: --log json streams one JSON object per event to stdout
(pipe through `jq`; the human summary moves to stderr), --log text writes
human lines to stderr, `mine --progress` prints one progress line per
iteration, and --metrics OUT.json aggregates event counts and duration
histograms into a JSON artifact. Observation never changes results: an
observed run is bit-identical to an unobserved one.

Online mining: `serve --mine` never stops learning. A background miner
ingests a bounded MovieLens-like event stream — deterministic synthetic
ratings by default (--stream-users/--stream-movies/--stream-events/
--stream-seed), or a DCS1 event file via --stream — applying --batch
events per step with O(1) cluster-statistic repair, then a bounded
refinement round (--refine-iters iterations). A clustering that beats the
served model by --promote-margin is promoted atomically into the running
server: /v1/model's version bumps, /readyz gates the swap instant, and
in-flight queries answer from the old or new model, never a mix (negative
margins re-promote even without improvement, keeping the model fresh).
Every step checkpoints to --state-dir (generation-numbered `.dck` files,
--keep-generations retained); a killed process resumes bit-identically,
rolling any half-finished promotion forward. A miner panic or error never
takes serving down: the crash surfaces on /healthz and gauges, and the
last promoted model keeps answering. First SIGINT drains both; a second
SIGINT force-exits with code 3 (the durable state is still consistent).

Robustness: `mine --checkpoint` writes a CRC-checked `.dck` snapshot after
each improving iteration (or every N with --checkpoint-every); SIGINT or an
exceeded --time-budget stops at a safe boundary, keeps the best-so-far
result, and exits with code 3 when interrupted. `mine --resume IN.dck`
continues a run bit-identically to one that was never stopped. All files
are written atomically (temp + fsync + rename).

EXIT CODES:
  0  success        1  usage error      2  data/IO/algorithm error
  3  interrupted (best-so-far result and checkpoint were still written)
";

/// Dispatches a parsed command line. Returns the text to print plus the
/// exit code the process should report.
pub fn dispatch(args: &Args) -> Result<CmdOutput, CmdError> {
    match args.command.as_deref() {
        Some("mine") => mine(args),
        Some("validate") => validate(args),
        Some("generate") => generate(args),
        Some("evaluate") => evaluate(args),
        Some("compare") => compare(args),
        Some("predict") => predict(args),
        Some("serve") => serve(args),
        Some("router") => router(args),
        Some("serve-bench") => serve_bench(args),
        Some("help") | None => Ok(CmdOutput::ok(HELP)),
        Some(other) => Err(CmdError::Usage(format!(
            "unknown command {other:?}; try `help`"
        ))),
    }
}

/// Whether `path` is a paged-matrix directory (contains the metadata file).
fn is_paged_dir(path: &str) -> bool {
    Path::new(path)
        .join(dc_matrix::storage::META_FILE)
        .is_file()
}

/// `--backend memory|paged` (default: whatever the input already is).
fn backend_flag(args: &Args) -> Result<Option<dc_matrix::BackendKind>, CmdError> {
    match args.get("backend") {
        None => Ok(None),
        Some(raw) => raw
            .parse()
            .map(Some)
            .map_err(|e: String| CmdError::Usage(format!("--backend: {e}"))),
    }
}

/// Paged-open options from `--cache-blocks N` (0 = unbounded, the default).
fn paged_options(args: &Args) -> Result<dc_matrix::PagedOptions, CmdError> {
    let mut opts = dc_matrix::PagedOptions::default();
    let cache: usize = args.get_or("cache-blocks", 0usize)?;
    if cache > 0 {
        opts.cache_blocks = Some(cache);
    }
    Ok(opts)
}

/// Loads the input matrix. A paged directory (auto-detected, or any path
/// under `--backend paged`) opens out-of-core with the `--cache-blocks`
/// residency cap; `--backend memory` materializes it back into RAM. Text
/// inputs parse as before, and `--backend paged` converts them into a paged
/// directory at `--paged-dir DIR` (default `<input>.paged`).
fn load_matrix(args: &Args, path: &str) -> Result<DataMatrix, CmdError> {
    let backend = backend_flag(args)?;
    if is_paged_dir(path) {
        let matrix = DataMatrix::open_paged_with(path, paged_options(args)?)
            .map_err(|e| CmdError::Io(format!("{path}: {e}")))?;
        return Ok(match backend {
            Some(dc_matrix::BackendKind::Memory) => matrix.to_memory(),
            _ => matrix,
        });
    }
    let matrix = if args.switch("triples") {
        read_triples_file(path)
            .map_err(|e| CmdError::Io(format!("{path}: {e}")))?
            .matrix
    } else {
        read_dense_file(path, &DenseFormat::default())
            .map_err(|e| CmdError::Io(format!("{path}: {e}")))?
    };
    if backend == Some(dc_matrix::BackendKind::Paged) {
        let dir = args
            .get("paged-dir")
            .map(str::to_string)
            .unwrap_or_else(|| format!("{path}.paged"));
        let paged = paged_twin(&matrix, &dir, args)?;
        return Ok(paged);
    }
    Ok(matrix)
}

/// Streams `matrix` row by row into a fresh paged directory at `dir`.
fn paged_twin(matrix: &DataMatrix, dir: &str, args: &Args) -> Result<DataMatrix, CmdError> {
    let chunk_rows: usize = args.get_or("chunk-rows", dc_matrix::DEFAULT_CHUNK_ROWS)?;
    let io_err = |e: dc_matrix::PagedError| CmdError::Io(format!("{dir}: {e}"));
    let mut appender = dc_matrix::MatrixBuilder::dense(matrix.rows(), matrix.cols())
        .storage(matrix.storage())
        .paged(dir)
        .chunk_rows(chunk_rows)
        .cache_blocks(paged_options(args)?.cache_blocks)
        .appender()
        .map_err(io_err)?;
    let mut row = vec![None; matrix.cols()];
    for r in 0..matrix.rows() {
        for (c, slot) in row.iter_mut().enumerate() {
            *slot = matrix.get(r, c);
        }
        appender.append_row(&row).map_err(io_err)?;
    }
    let mut paged = appender.finish().map_err(io_err)?;
    let labels: Vec<Option<&str>> = (0..matrix.rows()).map(|r| matrix.row_label(r)).collect();
    if matrix.rows() > 0 && labels.iter().all(Option::is_some) {
        paged.set_row_labels(labels.into_iter().flatten().map(str::to_string).collect());
    }
    let labels: Vec<Option<&str>> = (0..matrix.cols()).map(|c| matrix.col_label(c)).collect();
    if matrix.cols() > 0 && labels.iter().all(Option::is_some) {
        paged.set_col_labels(labels.into_iter().flatten().map(str::to_string).collect());
    }
    paged.flush().map_err(io_err)?;
    Ok(paged)
}

fn input_path<'a>(args: &'a Args, what: &str) -> Result<&'a str, CmdError> {
    args.positional
        .first()
        .map(String::as_str)
        .ok_or_else(|| CmdError::Usage(format!("expected a {what} path")))
}

/// Builds a [`FlocConfig`] from common mining flags.
pub fn floc_config(args: &Args, matrix: &DataMatrix) -> Result<FlocConfig, CmdError> {
    let k: usize = args.get_or("k", 5)?;
    if k == 0 {
        return Err(CmdError::Usage("--k must be positive".into()));
    }
    let alpha: f64 = args.get_or("alpha", 0.0)?;
    if !(0.0..=1.0).contains(&alpha) {
        return Err(CmdError::Usage(format!("--alpha {alpha} not in [0, 1]")));
    }
    let ordering = match args.get("ordering").unwrap_or("weighted") {
        "fixed" => Ordering::Fixed,
        "random" => Ordering::Random,
        "weighted" => Ordering::Weighted,
        other => return Err(CmdError::Usage(format!("unknown ordering {other:?}"))),
    };
    let mean = match args.get("mean").unwrap_or("arithmetic") {
        "arithmetic" => ResidueMean::Arithmetic,
        "squared" => ResidueMean::Squared,
        other => return Err(CmdError::Usage(format!("unknown mean {other:?}"))),
    };
    let seed_rows: usize = args.get_or("seed-rows", (matrix.rows() / 10).max(2))?;
    let seed_cols: usize = args.get_or("seed-cols", (matrix.cols() / 5).max(2))?;
    let gain_engine = match args.get("gain-engine").unwrap_or("auto") {
        "auto" => GainEngineKind::Auto,
        "exact" => GainEngineKind::Exact,
        "incremental" => GainEngineKind::Incremental,
        other => return Err(CmdError::Usage(format!("unknown gain engine {other:?}"))),
    };

    let max_iters: usize = args.get_or("max-iters", 60usize)?;
    if max_iters == 0 {
        return Err(CmdError::Usage("--max-iters must be positive".into()));
    }

    let mut builder = FlocConfig::builder(k)
        .alpha(alpha)
        .ordering(ordering)
        .mean(mean)
        .max_iterations(max_iters)
        .seeding(Seeding::TargetSize {
            rows: seed_rows,
            cols: seed_cols,
        })
        .seed(args.get_or("seed", 0u64)?)
        .threads(args.get_or("threads", 1usize)?)
        .gain_engine(gain_engine);
    if let Some(cells) = args.get("min-volume") {
        let cells: usize = cells
            .parse()
            .map_err(|_| CmdError::Usage(format!("--min-volume {cells:?} not a number")))?;
        builder = builder.constraint(Constraint::MinVolume { cells });
    }
    if let Some(frac) = args.get("max-overlap") {
        let fraction: f64 = frac
            .parse()
            .map_err(|_| CmdError::Usage(format!("--max-overlap {frac:?} not a number")))?;
        builder = builder.constraint(Constraint::MaxOverlap { fraction });
    }
    if let Some(budget) = time_budget(args)? {
        builder = builder.time_budget(budget);
    }
    Ok(builder.build())
}

/// Parses `--time-budget SECS` (fractional seconds allowed).
fn time_budget(args: &Args) -> Result<Option<Duration>, CmdError> {
    match args.get("time-budget") {
        None => Ok(None),
        Some(raw) => {
            let secs: f64 = raw
                .parse()
                .map_err(|_| CmdError::Usage(format!("--time-budget {raw:?} not a number")))?;
            if !secs.is_finite() || secs < 0.0 {
                return Err(CmdError::Usage(format!(
                    "--time-budget {raw:?} must be a non-negative number of seconds"
                )));
            }
            Ok(Some(Duration::from_secs_f64(secs)))
        }
    }
}

fn mine(args: &Args) -> Result<CmdOutput, CmdError> {
    // `--algorithm` routes to a competitor baseline; FLOC (the default)
    // keeps its full feature set (checkpoints, restarts, models) below.
    match args.get("algorithm") {
        None | Some("floc") => {}
        Some(other) => return mine_baseline(args, other),
    }
    let path = input_path(args, "matrix file")?;
    let matrix = load_matrix(args, path)?;

    let ckpt_out = args.get("checkpoint").map(str::to_string);
    let every: usize = args.get_or("checkpoint-every", 1usize)?;
    if every == 0 {
        return Err(CmdError::Usage(
            "--checkpoint-every must be positive".into(),
        ));
    }
    // Test/demo aid: stretch each iteration so interrupts and budgets can
    // land mid-run deterministically on small inputs.
    let delay_ms: u64 = args.get_or("iteration-delay-ms", 0u64)?;
    let restarts: usize = args.get_or("restarts", 1usize)?;
    if restarts > 1 && (ckpt_out.is_some() || delay_ms > 0 || args.get("resume").is_some()) {
        return Err(CmdError::Usage(
            "--restarts races independent runs and cannot checkpoint or resume \
             a single trajectory"
                .into(),
        ));
    }

    let mut obs_builder = ObsBuilder::from_args(args).map_err(CmdError::Usage)?;
    // The checkpoint writer is itself a sink: `floc.checkpoint` events
    // carry the snapshot as their attachment. Only attach it when the run
    // actually wants checkpoints (or the iteration-stretching delay), so a
    // plain `mine` never pays for per-iteration snapshot construction.
    let ckpt_sink = (ckpt_out.is_some() || delay_ms > 0)
        .then(|| CkptSink::new(ckpt_out.clone(), every, delay_ms));
    if let Some(sink) = &ckpt_sink {
        obs_builder.push(Box::new(sink.clone()));
    }
    let (obs, metrics) = obs_builder.build();

    let interrupt = crate::interrupt::flag();
    let result = {
        if let Some(resume_path) = args.get("resume") {
            let ckpt = dc_serve::load_checkpoint(resume_path)
                .map_err(|e| CmdError::Io(format!("{resume_path}: {e}")))?;
            // The search parameters come from the checkpoint (they must
            // match bit-for-bit); only runtime plumbing is overridable.
            let mut config = ckpt.config.clone();
            config.parallelism.threads = args.get_or("threads", config.parallelism.threads)?;
            // The wall-clock budget is per-invocation plumbing: the budget
            // that stopped the original run must not re-stop the resume.
            config.time_budget = time_budget(args)?;
            config.interrupt = InterruptFlag::new(interrupt.clone());
            floc_resume_with(&matrix, &ckpt, &config, &obs)
        } else {
            let mut config = floc_config(args, &matrix)?;
            config.parallelism.restarts = restarts.max(1);
            config.interrupt = InterruptFlag::new(interrupt.clone());
            if config.parallelism.restarts > 1 {
                floc_parallel(&matrix, &config, &obs).map(|(result, _seed)| result)
            } else {
                floc_with(&matrix, &config, &obs)
            }
        }
        .map_err(|e| CmdError::Algo(e.to_string()))?
    };

    let mut out = result.summary(&matrix);
    if let Some(sink) = &ckpt_sink {
        let report = sink.report();
        for w in &report.warnings {
            out.push_str(w);
            out.push('\n');
        }
        // The final state always lands in the checkpoint file, even when
        // the last improving iteration fell between --checkpoint-every
        // marks.
        if let (Some(p), Some(snap)) = (ckpt_out.as_deref(), report.last_snapshot.as_ref()) {
            dc_serve::save_checkpoint(snap, p).map_err(|e| CmdError::Io(format!("{p}: {e}")))?;
            out.push_str(&format!("checkpoint written to {p}\n"));
        }
        if obs.enabled() && report.written > 0 {
            let lat = sink.latency_summary();
            obs.emit_full(
                EventKind::Point,
                "cli.checkpoint_io",
                &[
                    Field::new("written", report.written),
                    Field::new("mean_write_nanos", lat.mean),
                    Field::new("p99_write_nanos", lat.p99),
                ],
                None,
            );
        }
    }
    if let Some(json_path) = args.get("json") {
        let json = serde_json::to_string_pretty(&result.clusters)
            .map_err(|e| CmdError::Io(e.to_string()))?;
        atomic_write(json_path, json.as_bytes()).map_err(|e| CmdError::Io(e.to_string()))?;
        out.push_str(&format!("clusters written to {json_path}\n"));
    }
    if let Some(model_path) = args.get("save-model") {
        let paged = matrix.backend() == dc_matrix::BackendKind::Paged;
        let model = ServeModel::from_result(matrix.clone(), &result)
            .map_err(|e| CmdError::Algo(e.to_string()))?;
        // A paged-backed matrix stays in its pages: the artifact carries a
        // reference instead of re-inlining data that may not fit in RAM.
        if paged && !model_path.ends_with(".json") {
            dc_serve::artifact::save_paged_ref(&model, model_path)
                .map_err(|e| CmdError::Io(e.to_string()))?;
            out.push_str(&format!(
                "model snapshot (paged-ref) written to {model_path}\n"
            ));
        } else {
            dc_serve::save(&model, model_path).map_err(|e| CmdError::Io(e.to_string()))?;
            out.push_str(&format!("model snapshot written to {model_path}\n"));
        }
    }
    obs.flush();
    if let Some(export) = &metrics {
        export.write().map_err(|e| CmdError::Io(e.to_string()))?;
        out.push_str(&format!("metrics written to {}\n", export.path()));
    }
    if result.stop_reason == StopReason::Interrupted {
        out.push_str("interrupted; result above is the best found so far\n");
        return Ok(CmdOutput::interrupted(out));
    }
    Ok(CmdOutput::ok(out))
}

/// `mine --algorithm <name>` for the non-FLOC baselines: same input
/// loading, observability, interrupt, and time-budget plumbing, but the
/// run goes through the `dc-baselines` `SubspaceAlgorithm` interface.
fn mine_baseline(args: &Args, name: &str) -> Result<CmdOutput, CmdError> {
    let path = input_path(args, "matrix file")?;
    let matrix = load_matrix(args, path)?;
    if args.get("resume").is_some()
        || args.get("checkpoint").is_some()
        || args.get("save-model").is_some()
        || args.get_or("restarts", 1usize)? > 1
    {
        return Err(CmdError::Usage(format!(
            "--algorithm {name} supports neither checkpoints, restarts, nor \
             model snapshots; those are FLOC-only"
        )));
    }
    let algorithm = baseline_algorithm(name, args)?;
    let (obs, metrics) = ObsBuilder::from_args(args)
        .map_err(CmdError::Usage)?
        .build();
    let ctx = FitContext {
        obs: obs.clone(),
        interrupt: Some(interrupt::flag()),
        time_budget: time_budget(args)?,
        threads: args.get_or("threads", 1usize)?,
    };
    let result = algorithm.fit(&matrix, &ctx).map_err(|e| match e {
        BaselineError::InvalidConfig(msg) => CmdError::Usage(msg),
        other => CmdError::Algo(other.to_string()),
    })?;

    let mut out = result.summary();
    out.push('\n');
    for (i, (c, r)) in result.clusters.iter().zip(&result.residues).enumerate() {
        out.push_str(&format!(
            "  #{i}: {} rows x {} cols, residue {r:.4}\n",
            c.row_count(),
            c.col_count(),
        ));
    }
    if let Some(json_path) = args.get("json") {
        let json = serde_json::to_string_pretty(&result.clusters)
            .map_err(|e| CmdError::Io(e.to_string()))?;
        atomic_write(json_path, json.as_bytes()).map_err(|e| CmdError::Io(e.to_string()))?;
        out.push_str(&format!("clusters written to {json_path}\n"));
    }
    obs.flush();
    if let Some(export) = &metrics {
        export.write().map_err(|e| CmdError::Io(e.to_string()))?;
        out.push_str(&format!("metrics written to {}\n", export.path()));
    }
    if result.stop == FitStop::Interrupted {
        out.push_str("interrupted; result above is the best found so far\n");
        return Ok(CmdOutput::interrupted(out));
    }
    Ok(CmdOutput::ok(out))
}

/// Builds the requested baseline from its command-line flags.
fn baseline_algorithm(name: &str, args: &Args) -> Result<Box<dyn SubspaceAlgorithm>, CmdError> {
    Ok(match name {
        "proclus" => Box::new(Proclus::new(ProclusConfig {
            k: args.get_or("k", 5)?,
            avg_dims: args.get_or("avg-dims", 4)?,
            max_iterations: args.get_or("max-iters", 30)?,
            seed: args.get_or("seed", 0)?,
            ..ProclusConfig::default()
        })),
        "subclu" => Box::new(Subclu::new(SubcluConfig {
            eps: args.get_or("eps", 4.0)?,
            min_pts: args.get_or("min-pts", 8)?,
            max_dims: args.get_or("max-dims", 3)?,
            keep: args.get_or("keep", 0)?,
            ..SubcluConfig::default()
        })),
        "cheng-church" => Box::new(ChengChurchBaseline::new(ChengChurchConfig {
            seed: args.get_or("seed", 0)?,
            ..ChengChurchConfig::new(args.get_or("k", 5)?, args.get_or("delta", 300.0)?)
        })),
        "clique" => Box::new(CliqueBaseline::new(AlternativeConfig {
            k: args.get_or("k", 5)?,
            clique: CliqueConfig {
                bins: args.get_or("bins", 10)?,
                tau: args.get_or("tau", 0.05)?,
                max_level: args.get_or("max-level", 4)?,
            },
            ..AlternativeConfig::default()
        })),
        other => {
            return Err(CmdError::Usage(format!(
                "unknown --algorithm {other:?}; valid: floc, proclus, subclu, \
                 cheng-church, clique"
            )))
        }
    })
}

fn validate(args: &Args) -> Result<CmdOutput, CmdError> {
    let path = input_path(args, "matrix file")?;
    let matrix = load_matrix(args, path)?;
    let alpha: f64 = args.get_or("alpha", 0.8)?;
    if !(0.0..=1.0).contains(&alpha) {
        return Err(CmdError::Usage(format!("--alpha {alpha} not in [0, 1]")));
    }
    let report = dc_matrix::validate(&matrix, alpha);
    if args.switch("strict") && !report.fully_occupied() {
        return Err(CmdError::Io(format!(
            "{path}: {} row(s) and {} column(s) fall below alpha = {alpha}",
            report.rows_below_alpha, report.cols_below_alpha
        )));
    }
    Ok(CmdOutput::ok(format!("{path}:\n{report}\n")))
}

fn load_model(path: &str) -> Result<ServeModel, CmdError> {
    dc_serve::load(path).map_err(|e| CmdError::Io(format!("{path}: {e}")))
}

fn positional_index(args: &Args, pos: usize, what: &str) -> Result<usize, CmdError> {
    let raw = args
        .positional
        .get(pos)
        .ok_or_else(|| CmdError::Usage(format!("expected a {what}")))?;
    raw.parse()
        .map_err(|_| CmdError::Usage(format!("{what} {raw:?} is not a non-negative integer")))
}

fn predict(args: &Args) -> Result<CmdOutput, CmdError> {
    let model = load_model(input_path(args, "model file")?)?;
    let row = positional_index(args, 1, "row index")?;

    if let Some(top) = args.get("top") {
        let n: usize = top
            .parse()
            .map_err(|_| CmdError::Usage(format!("--top {top:?} is not a number")))?;
        let recs = model.top_n(row, n);
        if recs.is_empty() {
            return Ok(CmdOutput::ok(format!(
                "no predictable unrated columns for row {row}\n"
            )));
        }
        let mut out = format!("top {} prediction(s) for row {row}:\n", recs.len());
        for (col, score) in recs {
            let label = model
                .matrix()
                .col_label(col)
                .map_or(String::new(), |l| format!("  ({l})"));
            out.push_str(&format!("  col {col:<6} {score:>10.3}{label}\n"));
        }
        return Ok(CmdOutput::ok(out));
    }

    let col = positional_index(args, 2, "column index")?;
    match model.predict(row, col) {
        Ok(value) => {
            let clusters = model.covering(row, col).count();
            Ok(CmdOutput::ok(format!(
                "predicted ({row}, {col}) = {value:.4}  [{clusters} covering cluster(s)]\n"
            )))
        }
        Err(PredictError::NotCovered) => Ok(CmdOutput::ok(format!(
            "cell ({row}, {col}) is not covered by any cluster in the model\n"
        ))),
        Err(e @ PredictError::DegenerateCluster) => Err(CmdError::Algo(e.to_string())),
    }
}

/// `serve`: put a saved model behind the dc-net HTTP server until SIGINT.
fn serve(args: &Args) -> Result<CmdOutput, CmdError> {
    let addr = args.get("addr").unwrap_or("127.0.0.1:7878").to_string();
    let threads: usize = args.get_or("threads", 4)?;
    if threads == 0 {
        return Err(CmdError::Usage("--threads must be positive".into()));
    }
    let queue_depth: usize = args.get_or("queue-depth", 128)?;
    if queue_depth == 0 {
        return Err(CmdError::Usage("--queue-depth must be positive".into()));
    }

    // Obs comes up before the model so the `serve.model_load` span covers
    // the initial load too, not just registry-driven ones.
    let (obs, metrics) = ObsBuilder::from_args(args)
        .map_err(CmdError::Usage)?
        .build();

    // `--mine` turns the server into its own model source: a background
    // miner consumes the event stream, promoting improved models into the
    // running server. It owns the default model, so it excludes both the
    // positional model file and the registry default.
    let mining = args.switch("mine");
    if mining && args.get("models").is_some() {
        return Err(CmdError::Usage(
            "--mine and --models are mutually exclusive; the miner owns the served model".into(),
        ));
    }
    if mining && !args.positional.is_empty() {
        return Err(CmdError::Usage(
            "serve --mine mines its own model; drop the model-file argument".into(),
        ));
    }
    let mut miner = None;

    // `--models DIR` scans `<name>@<version>.dcm|.json` artifacts into a
    // lazy-loading registry; the default model (for bare `/v1/predict`) is
    // the positional path when given, else the registry's first entry.
    let mut registry = None;
    let (model, model_path) = if mining {
        let (m, model, path) = online_bootstrap(args, &obs)?;
        miner = Some(m);
        (model, path)
    } else {
        let model_path = match args.get("models") {
            Some(dir) => {
                let cap: usize = args.get_or("model-cap", 4)?;
                if cap == 0 {
                    return Err(CmdError::Usage("--model-cap must be positive".into()));
                }
                let reg = dc_serve::ModelRegistry::open(dir, cap, obs.clone())
                    .map_err(|e| CmdError::Io(format!("{dir}: {e}")))?;
                if reg.is_empty() {
                    return Err(CmdError::Io(format!(
                        "{dir}: no model artifacts (<name>@<version>.dcm) found"
                    )));
                }
                let path = match args.positional.first() {
                    Some(p) => p.clone(),
                    None => {
                        let first = reg.first_name().expect("registry is non-empty");
                        let info = reg
                            .list()
                            .into_iter()
                            .find(|i| i.name == first)
                            .expect("first_name is listed");
                        info.path.display().to_string()
                    }
                };
                registry = Some(Arc::new(reg));
                path
            }
            None => input_path(args, "model file")?.to_string(),
        };
        let model = dc_serve::load_observed(&model_path, &obs)
            .map_err(|e| CmdError::Io(format!("{model_path}: {e}")))?;
        // A model in which every cluster is degenerate (zero specified
        // cells) can only ever answer DegenerateCluster; refuse it up
        // front with the same exit code a degenerate `predict` reports.
        // (A *mined* model is exempt: the miner keeps refining it.)
        if model.k() > 0 && model.bases().iter().all(|b| b.volume == 0) {
            return Err(CmdError::Algo(format!(
                "{}: every cluster in the model is degenerate; nothing can be served",
                PredictError::DegenerateCluster
            )));
        }
        (model, model_path)
    };

    let mut app = dc_net::AppState::new(model, Some(&model_path), threads, obs.clone());
    let registry_note = match &registry {
        Some(reg) => format!(" + {} registry model(s)", reg.len()),
        None => String::new(),
    };
    if let Some(reg) = registry {
        app = app.with_registry(reg);
    }
    let state = Arc::new(app);
    let config = dc_net::ServerConfig {
        addr: addr.clone(),
        threads,
        queue_depth,
        ..dc_net::ServerConfig::default()
    };
    let handle = dc_net::serve(config, state.clone(), interrupt::flag())
        .map_err(|e| CmdError::Io(format!("bind {addr}: {e}")))?;

    // The miner rides on the same interrupt flag as the server: the first
    // SIGINT stops the batch loop (discarding any in-flight refinement
    // round) while the server drains; a second SIGINT force-exits 3.
    let miner_handle =
        miner.map(|m| dc_online::spawn_miner(m, state.clone(), interrupt::flag(), obs.clone()));

    // Readiness line goes to stderr immediately (stdout may carry the
    // `--log json` event stream, and CmdOutput text only prints at exit).
    eprintln!(
        "serving {model_path}{registry_note}{} on http://{}  ({threads} worker(s), queue depth \
         {queue_depth}); SIGINT to stop",
        if miner_handle.is_some() {
            " (online mining)"
        } else {
            ""
        },
        handle.addr()
    );

    // Parks until the interrupt flag rises, then drains under a deadline.
    let drained = handle.wait();
    let mined = if let Some(h) = miner_handle {
        h.stop();
        h.join();
        let gauges = state.gauges();
        Some(format!(
            "miner: {} promotion(s), {} event(s) ingested\n",
            gauges.get("miner_promotions").copied().unwrap_or(0),
            gauges.get("miner_cursor").copied().unwrap_or(0),
        ))
    } else {
        None
    };

    let snap = state.metrics.snapshot();
    let mut out = format!(
        "served {} request(s) ({} prediction(s)), {} rejected by backpressure; {}\n",
        snap.requests,
        snap.predictions,
        snap.rejected,
        if drained {
            "drained cleanly"
        } else {
            "drain deadline hit, stragglers detached"
        }
    );
    if let Some(line) = mined {
        out.push_str(&line);
    }
    obs.flush();
    if let Some(export) = &metrics {
        export.write().map_err(|e| CmdError::Io(e.to_string()))?;
        out.push_str(&format!("event metrics written to {}\n", export.path()));
    }
    // A SIGINT-triggered stop is the *normal* way to end `serve`: exit 0,
    // unlike `mine` where an interrupt truncates the computation (exit 3).
    // That holds for `--mine` too — its progress is already durable in
    // --state-dir, so stopping the pair loses nothing.
    Ok(CmdOutput::ok(out))
}

/// `serve --mine` bootstrap: build the event source and recover (or cold
/// start) the miner from `--state-dir`, returning the model the server
/// opens with and the path of its artifact.
fn online_bootstrap(
    args: &Args,
    obs: &Obs,
) -> Result<(dc_online::Miner, ServeModel, String), CmdError> {
    let defaults = dc_datagen::StreamConfig::default();
    let stream = dc_datagen::StreamConfig {
        users: args.get_or("stream-users", defaults.users)?,
        movies: args.get_or("stream-movies", defaults.movies)?,
        events: args.get_or("stream-events", defaults.events)?,
        delete_percent: args.get_or("stream-deletes", defaults.delete_percent)?,
        seed: args.get_or("stream-seed", defaults.seed)?,
        ..defaults
    };
    if stream.users == 0 || stream.movies == 0 {
        return Err(CmdError::Usage(
            "--stream-users and --stream-movies must be positive".into(),
        ));
    }
    let source = match args.get("stream") {
        Some(file) => dc_online::SourceSpec::from_file(file, stream),
        None => dc_online::SourceSpec::generated(stream),
    };

    let shape = source.empty_matrix();
    let mut floc = floc_config(args, &shape)?;
    // Online refinement runs in short bounded rounds per batch; the full
    // offline iteration budget would stall promotions behind each round.
    floc.max_iterations = args.get_or("refine-iters", 8usize)?;
    if floc.max_iterations == 0 {
        return Err(CmdError::Usage("--refine-iters must be positive".into()));
    }

    let batch: usize = args.get_or("batch", 100)?;
    if batch == 0 {
        return Err(CmdError::Usage("--batch must be positive".into()));
    }
    let keep_generations: usize = args.get_or("keep-generations", 4)?;
    if keep_generations < 2 {
        return Err(CmdError::Usage(
            "--keep-generations must be at least 2 (staged + committed)".into(),
        ));
    }
    let state_dir = args.get("state-dir").unwrap_or("online-state").to_string();
    let config = dc_online::MinerConfig {
        source,
        floc,
        state_dir: state_dir.clone().into(),
        batch,
        promote_margin: args.get_or("promote-margin", 0.0f64)?,
        // The wall-clock budget bounds each refinement round. Budget stops
        // are timing-dependent: leave it unset when bit-identical crash
        // replays matter (the chaos suite always does).
        refine_budget: time_budget(args)?,
        keep_generations,
    };
    let (miner, model, recovery) =
        dc_online::Miner::bootstrap(config, crate::interrupt::flag(), obs.clone()).map_err(
            |e| match &e {
                dc_online::OnlineError::Io(_)
                | dc_online::OnlineError::Artifact(_)
                | dc_online::OnlineError::Stream { .. } => CmdError::Io(e.to_string()),
                _ => CmdError::Algo(e.to_string()),
            },
        )?;
    match &recovery {
        dc_online::Recovery::ColdStart => {
            eprintln!("miner: cold start, {} event(s) ingested", miner.cursor());
        }
        dc_online::Recovery::Resumed {
            gen,
            cursor,
            rolled_forward,
            discarded,
        } => eprintln!(
            "miner: resumed generation {gen} at event {cursor}{}{}",
            if *rolled_forward {
                ", rolled a crashed promotion forward"
            } else {
                ""
            },
            if *discarded > 0 {
                ", discarded torn newer checkpoint(s)"
            } else {
                ""
            },
        ),
    }
    let path = dc_online::model_path(std::path::Path::new(&state_dir), miner.promotions());
    Ok((miner, model, path.display().to_string()))
}

/// `router`: front a fleet of `serve` shards with consistent-hash
/// scatter-gather routing until SIGINT.
fn router(args: &Args) -> Result<CmdOutput, CmdError> {
    let shards: Vec<String> = args
        .get("shards")
        .ok_or_else(|| CmdError::Usage("--shards host:port,host:port,... is required".into()))?
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    if shards.is_empty() {
        return Err(CmdError::Usage("--shards lists no addresses".into()));
    }
    let addr = args.get("addr").unwrap_or("127.0.0.1:7979").to_string();
    let threads: usize = args.get_or("threads", 4)?;
    if threads == 0 {
        return Err(CmdError::Usage("--threads must be positive".into()));
    }
    let queue_depth: usize = args.get_or("queue-depth", 128)?;
    if queue_depth == 0 {
        return Err(CmdError::Usage("--queue-depth must be positive".into()));
    }
    let replicas: usize = args.get_or("replicas", 64)?;
    if replicas == 0 {
        return Err(CmdError::Usage("--replicas must be positive".into()));
    }
    let failure_threshold: u32 = args.get_or("failure-threshold", 3)?;
    let probe_ms: u64 = args.get_or("probe-interval-ms", 500)?;

    let (obs, metrics) = ObsBuilder::from_args(args)
        .map_err(CmdError::Usage)?
        .build();
    let shard_count = shards.len();
    let config = dc_router::RouterConfig {
        shards,
        replicas,
        failure_threshold,
        probe_interval: Duration::from_millis(probe_ms.max(1)),
        ..dc_router::RouterConfig::default()
    };
    // Ring construction fails only on bad input (duplicate address): a
    // usage error, exit 1.
    let router = Arc::new(
        dc_router::Router::new(config, obs.clone()).map_err(|e| CmdError::Usage(e.to_string()))?,
    );

    // Startup census: a router over a fully unreachable fleet is an
    // environment problem (exit 2), same family as a missing model file.
    let reachable = router.probe_all();
    if reachable == 0 {
        return Err(CmdError::Io(format!(
            "none of the {shard_count} shard(s) answered /healthz; is the fleet up?"
        )));
    }

    let server_config = dc_net::ServerConfig {
        addr: addr.clone(),
        threads,
        queue_depth,
        ..dc_net::ServerConfig::default()
    };
    let handle = dc_net::serve_handler(server_config, router.clone(), interrupt::flag())
        .map_err(|e| CmdError::Io(format!("bind {addr}: {e}")))?;
    let prober = dc_router::Router::spawn_prober(router.clone(), interrupt::flag());

    eprintln!(
        "routing {shard_count} shard(s) ({reachable} healthy) on http://{}  ({threads} \
         worker(s), queue depth {queue_depth}); SIGINT to stop",
        handle.addr()
    );

    let drained = handle.wait();
    // The prober watches the same interrupt flag; reap it so shutdown is
    // clean rather than detached.
    let _ = prober.join();

    let snap = router.metrics().snapshot();
    let mut out = format!(
        "routed {} request(s) ({} prediction(s), {} retried sub-request(s)), {} rejected by \
         backpressure; {} of {} shard(s) healthy at exit; {}\n",
        snap.requests,
        snap.predictions,
        router.retry_count(),
        snap.rejected,
        router.health().healthy_count(),
        shard_count,
        if drained {
            "drained cleanly"
        } else {
            "drain deadline hit, stragglers detached"
        }
    );
    obs.flush();
    if let Some(export) = &metrics {
        export.write().map_err(|e| CmdError::Io(e.to_string()))?;
        out.push_str(&format!("event metrics written to {}\n", export.path()));
    }
    Ok(CmdOutput::ok(out))
}

/// One thread-count measurement in the serve-bench report.
#[derive(Serialize)]
struct ServeBenchRun {
    threads: usize,
    elapsed_secs: f64,
    queries_per_sec: f64,
    hit_rate: f64,
    p50_latency_nanos: u64,
    p99_latency_nanos: u64,
}

/// The machine-readable BENCH_serve.json payload.
#[derive(Serialize)]
struct ServeBenchReport {
    model: String,
    rows: usize,
    cols: usize,
    clusters: usize,
    queries: usize,
    /// CPUs the host exposes — thread counts beyond this cannot speed up.
    available_parallelism: usize,
    runs: Vec<ServeBenchRun>,
    /// Throughput at the highest measured thread count over single-thread.
    max_speedup: f64,
}

/// Deterministic query stream over the matrix shape: coprime strides walk
/// every cell eventually, mixing hits and misses without needing an RNG.
fn bench_queries(rows: usize, cols: usize, n: usize) -> Vec<(usize, usize)> {
    (0..n)
        .map(|i| {
            (
                (i.wrapping_mul(7919)) % rows.max(1),
                (i.wrapping_mul(104_729)) % cols.max(1),
            )
        })
        .collect()
}

fn serve_bench(args: &Args) -> Result<CmdOutput, CmdError> {
    let model_path = input_path(args, "model file")?;
    let model = load_model(model_path)?;
    let queries: usize = args.get_or("queries", 200_000)?;
    let thread_counts: Vec<usize> = args
        .get("threads")
        .unwrap_or("1,2,4,8")
        .split(',')
        .map(|t| {
            t.trim()
                .parse::<usize>()
                .ok()
                .filter(|&t| t > 0)
                .ok_or_else(|| CmdError::Usage(format!("--threads entry {t:?} invalid")))
        })
        .collect::<Result<_, _>>()?;
    if thread_counts.is_empty() {
        return Err(CmdError::Usage("--threads list is empty".into()));
    }

    let (obs, metrics) = ObsBuilder::from_args(args)
        .map_err(CmdError::Usage)?
        .build();
    let (rows, cols, k) = (model.matrix().rows(), model.matrix().cols(), model.k());
    let workload = bench_queries(rows, cols, queries);
    let engine = QueryEngine::with_obs(model, obs.clone());

    let mut out =
        format!("serve-bench: {model_path} ({rows}x{cols}, {k} clusters), {queries} queries\n");
    let mut runs = Vec::with_capacity(thread_counts.len());
    let mut cumulative = dc_serve::QueryStats::new();
    for &threads in &thread_counts {
        // Warm-up pass so page faults and lazy allocation don't bill the
        // first thread count.
        engine.predict_batch(&workload[..workload.len().min(1000)], threads);
        engine.reset_stats();
        let start = Instant::now();
        engine.predict_batch(&workload, threads);
        let elapsed = start.elapsed();
        let stats = engine.stats();
        cumulative.merge(&stats);
        let qps = queries as f64 / elapsed.as_secs_f64().max(1e-9);
        let run = ServeBenchRun {
            threads,
            elapsed_secs: elapsed.as_secs_f64(),
            queries_per_sec: qps,
            hit_rate: stats.hit_rate(),
            p50_latency_nanos: stats.latency_quantile(0.50).as_nanos() as u64,
            p99_latency_nanos: stats.latency_quantile(0.99).as_nanos() as u64,
        };
        out.push_str(&format!(
            "  threads {threads:>2}: {qps:>12.0} q/s  p50 ≤ {} ns  p99 ≤ {} ns  hit rate {:.3}\n",
            run.p50_latency_nanos, run.p99_latency_nanos, run.hit_rate
        ));
        runs.push(run);
    }

    let base = runs
        .iter()
        .find(|r| r.threads == 1)
        .map_or(runs[0].queries_per_sec, |r| r.queries_per_sec);
    let peak = runs.iter().map(|r| r.queries_per_sec).fold(0.0, f64::max);
    let max_speedup = if base > 0.0 { peak / base } else { 0.0 };
    let available_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    out.push_str(&format!("  max speedup over 1 thread: {max_speedup:.2}x\n"));
    if available_parallelism < thread_counts.iter().copied().max().unwrap_or(1) {
        out.push_str(&format!(
            "  note: host exposes {available_parallelism} CPU(s); \
             thread counts beyond that cannot improve throughput\n"
        ));
    }

    let report = ServeBenchReport {
        model: model_path.to_string(),
        rows,
        cols,
        clusters: k,
        queries,
        available_parallelism,
        runs,
        max_speedup,
    };
    let dir = Path::new(args.get("out").unwrap_or("target/experiments"));
    std::fs::create_dir_all(dir).map_err(|e| CmdError::Io(e.to_string()))?;
    let json_path = dir.join("BENCH_serve.json");
    let json = serde_json::to_string_pretty(&report).map_err(|e| CmdError::Io(e.to_string()))?;
    atomic_write(&json_path, json.as_bytes()).map_err(|e| CmdError::Io(e.to_string()))?;
    out.push_str(&format!("report written to {}\n", json_path.display()));

    // Query-level metrics across every measured run (warm-ups excluded),
    // through the same crash-safe write path as the report itself.
    let metrics_path = dir.join("metrics.json");
    let snapshot_json = serde_json::to_string_pretty(&cumulative.snapshot())
        .map_err(|e| CmdError::Io(e.to_string()))?;
    atomic_write(&metrics_path, snapshot_json.as_bytes())
        .map_err(|e| CmdError::Io(e.to_string()))?;
    out.push_str(&format!("metrics written to {}\n", metrics_path.display()));

    obs.flush();
    if let Some(export) = &metrics {
        export.write().map_err(|e| CmdError::Io(e.to_string()))?;
        out.push_str(&format!("event metrics written to {}\n", export.path()));
    }
    Ok(CmdOutput::ok(out))
}

fn generate(args: &Args) -> Result<CmdOutput, CmdError> {
    let path = input_path(args, "output file")?;
    let kind = args.get("kind").unwrap_or("embedded");
    let seed: u64 = args.get_or("seed", 0)?;
    let paged = args.switch("paged") || backend_flag(args)? == Some(dc_matrix::BackendKind::Paged);
    let (matrix, truth): (DataMatrix, Option<Vec<DeltaCluster>>) = match kind {
        "embedded" => {
            let rows: usize = args.get_or("rows", 300)?;
            let cols: usize = args.get_or("cols", 50)?;
            let k: usize = args.get_or("clusters", 5)?;
            let size = ((rows / 15).max(2), (cols / 8).max(2));
            let cfg = dc_datagen::EmbedConfig::new(rows, cols, vec![size; k]).with_seed(seed);
            if paged {
                // Stream straight into the page files: resident memory is
                // one block plus the cluster structure, not rows × cols.
                let chunk_rows: usize = args.get_or("chunk-rows", dc_matrix::DEFAULT_CHUNK_ROWS)?;
                let data = dc_datagen::embed::generate_paged(&cfg, path, chunk_rows)
                    .map_err(|e| CmdError::Io(format!("{path}: {e}")))?;
                return finish_generate(args, path, data.matrix, Some(data.truth), true);
            }
            let data = dc_datagen::embed::generate(&cfg);
            (data.matrix, Some(data.truth))
        }
        "movielens" => {
            let config = dc_datagen::MovieLensConfig {
                users: args.get_or("rows", 943)?,
                movies: args.get_or("cols", 1682)?,
                seed,
                ..Default::default()
            };
            (dc_datagen::movielens::generate(&config).matrix, None)
        }
        "microarray" => {
            let config = dc_datagen::MicroarrayConfig {
                genes: args.get_or("rows", 2884)?,
                conditions: args.get_or("cols", 17)?,
                seed,
                ..Default::default()
            };
            let data = dc_datagen::microarray::generate(&config);
            (data.matrix, Some(data.modules))
        }
        other => return Err(CmdError::Usage(format!("unknown --kind {other:?}"))),
    };

    if paged {
        // In-memory generators (movielens, microarray) re-emit as pages.
        let matrix = paged_twin(&matrix, path, args)?;
        return finish_generate(args, path, matrix, truth, true);
    }
    dc_serve::atomic_write_with(Path::new(path), |mut w| {
        dc_matrix::io::write_dense(&matrix, &mut w, &DenseFormat::default())
    })
    .map_err(|e| CmdError::Io(e.to_string()))?;
    finish_generate(args, path, matrix, truth, false)
}

fn finish_generate(
    args: &Args,
    path: &str,
    matrix: DataMatrix,
    truth: Option<Vec<DeltaCluster>>,
    paged: bool,
) -> Result<CmdOutput, CmdError> {
    let mut out = format!(
        "wrote {}x{} matrix ({} specified) to {path}{}\n",
        matrix.rows(),
        matrix.cols(),
        matrix.specified_count(),
        if paged { " (paged)" } else { "" }
    );
    if let (Some(truth), Some(truth_path)) = (truth, args.get("truth")) {
        let json = serde_json::to_string_pretty(&truth).map_err(|e| CmdError::Io(e.to_string()))?;
        atomic_write(truth_path, json.as_bytes()).map_err(|e| CmdError::Io(e.to_string()))?;
        out.push_str(&format!("ground truth written to {truth_path}\n"));
    }
    Ok(CmdOutput::ok(out))
}

fn read_clusters(path: &str) -> Result<Vec<DeltaCluster>, CmdError> {
    let text = std::fs::read_to_string(Path::new(path))
        .map_err(|e| CmdError::Io(format!("{path}: {e}")))?;
    serde_json::from_str(&text).map_err(|e| CmdError::Io(format!("{path}: {e}")))
}

fn evaluate(args: &Args) -> Result<CmdOutput, CmdError> {
    let path = input_path(args, "matrix file")?;
    let matrix = load_matrix(args, path)?;
    let found = read_clusters(args.get("found").ok_or(ArgError::Missing("found".into()))?)?;
    let truth = read_clusters(args.get("truth").ok_or(ArgError::Missing("truth".into()))?)?;
    let q = dc_eval::quality(&matrix, &truth, &found);
    let matches = dc_eval::match_clusters(&matrix, &truth, &found);
    let mut out = format!(
        "recall {:.3}  precision {:.3}  f1 {:.3}  ({} truth entries, {} found)\n",
        q.recall,
        q.precision,
        q.f1(),
        q.truth_entries,
        q.found_entries
    );
    for m in &matches {
        out.push_str(&format!(
            "  truth #{:<3} -> {}  jaccard {:.3}\n",
            m.truth_index,
            m.found_index
                .map_or("(unmatched)".to_string(), |i| format!("found #{i}")),
            m.jaccard
        ));
    }
    Ok(CmdOutput::ok(out))
}

fn compare(args: &Args) -> Result<CmdOutput, CmdError> {
    let path = input_path(args, "matrix file")?;
    let matrix = load_matrix(args, path)?;
    let config = floc_config(args, &matrix)?;
    let floc_result = floc(&matrix, &config).map_err(|e| CmdError::Algo(e.to_string()))?;

    let delta: f64 = args.get_or("delta", 300.0)?;
    let cc = dc_bicluster::cheng_church(
        &matrix,
        &dc_bicluster::ChengChurchConfig {
            seed: args.get_or("seed", 0)?,
            ..dc_bicluster::ChengChurchConfig::new(config.k, delta)
        },
    );
    let cc_residues: Vec<f64> = cc
        .biclusters
        .iter()
        .map(|b| {
            let c = DeltaCluster {
                rows: b.rows.clone(),
                cols: b.cols.clone(),
            };
            dc_floc::cluster_residue(&matrix, &c, ResidueMean::Arithmetic)
        })
        .collect();
    let cc_avg = cc_residues.iter().sum::<f64>() / cc_residues.len().max(1) as f64;

    Ok(CmdOutput::ok(format!(
        "FLOC:           avg residue {:.3}, aggregate volume {}, {:.2?}\n\
         Cheng & Church: avg residue {:.3}, aggregate volume {}, {:.2?}\n",
        floc_result.avg_residue,
        floc_result.aggregate_volume(&matrix),
        floc_result.elapsed,
        cc_avg,
        cc.aggregate_volume(),
        cc.elapsed,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;

    fn args(list: &[&str]) -> Args {
        Args::parse(list.iter().map(|s| s.to_string()))
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("dc_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn help_is_shown_for_no_command() {
        let out = dispatch(&args(&[])).unwrap();
        assert!(out.contains("USAGE"));
        let out = dispatch(&args(&["help"])).unwrap();
        assert!(out.contains("delta-clusters mine"));
    }

    #[test]
    fn unknown_command_is_an_error() {
        let err = dispatch(&args(&["frobnicate"])).unwrap_err();
        assert!(matches!(err, CmdError::Usage(_)));
        assert!(err.to_string().contains("frobnicate"));
    }

    /// Generates a small embedded matrix and returns its path.
    fn baseline_fixture(name: &str) -> std::path::PathBuf {
        let data = tmp(name);
        dispatch(&args(&[
            "generate",
            data.to_str().unwrap(),
            "--rows",
            "50",
            "--cols",
            "12",
            "--clusters",
            "2",
            "--seed",
            "9",
        ]))
        .unwrap();
        data
    }

    #[test]
    fn mine_algorithm_runs_every_baseline() {
        let data = baseline_fixture("baseline-all.tsv");
        for (algo, extra) in [
            ("proclus", vec!["--k", "2", "--avg-dims", "3"]),
            (
                "subclu",
                vec!["--eps", "6", "--min-pts", "4", "--keep", "5"],
            ),
            ("cheng-church", vec!["--k", "2", "--delta", "50"]),
        ] {
            let mut argv = vec!["mine", data.to_str().unwrap(), "--algorithm", algo];
            argv.extend(extra);
            let out = dispatch(&args(&argv)).unwrap();
            assert_eq!(out.exit_code, 0, "{algo}: {}", out.text);
            assert!(out.contains(algo), "{algo}: {}", out.text);
            assert!(out.contains("cluster"), "{algo}: {}", out.text);
        }
    }

    #[test]
    fn mine_algorithm_floc_is_the_default_path() {
        let data = baseline_fixture("baseline-floc.tsv");
        let explicit = dispatch(&args(&[
            "mine",
            data.to_str().unwrap(),
            "--algorithm",
            "floc",
            "--k",
            "2",
            "--seed",
            "4",
        ]))
        .unwrap();
        let implicit = dispatch(&args(&[
            "mine",
            data.to_str().unwrap(),
            "--k",
            "2",
            "--seed",
            "4",
        ]))
        .unwrap();
        // Both route through the FLOC path proper (elapsed-time text differs
        // between runs, so compare the header up to the iteration count).
        let header = |t: &str| {
            let line = t.lines().next().unwrap();
            line.split(" iterations").next().unwrap().to_string()
        };
        assert!(explicit.contains("FLOC"), "{}", explicit.text);
        assert_eq!(header(&explicit.text), header(&implicit.text));
    }

    #[test]
    fn mine_algorithm_writes_json_consumable_by_evaluate() {
        let data = tmp("baseline-json.tsv");
        let truth = tmp("baseline-truth.json");
        dispatch(&args(&[
            "generate",
            data.to_str().unwrap(),
            "--rows",
            "50",
            "--cols",
            "12",
            "--clusters",
            "2",
            "--seed",
            "9",
            "--truth",
            truth.to_str().unwrap(),
        ]))
        .unwrap();
        let found = tmp("baseline-found.json");
        dispatch(&args(&[
            "mine",
            data.to_str().unwrap(),
            "--algorithm",
            "proclus",
            "--k",
            "2",
            "--avg-dims",
            "3",
            "--json",
            found.to_str().unwrap(),
        ]))
        .unwrap();
        let out = dispatch(&args(&[
            "evaluate",
            data.to_str().unwrap(),
            "--found",
            found.to_str().unwrap(),
            "--truth",
            truth.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("recall"), "{}", out.text);
    }

    #[test]
    fn mine_algorithm_is_deterministic_per_seed() {
        // Compare the mined clusters, not the report text: the text
        // carries the wall-clock run time.
        let data = baseline_fixture("baseline-det.tsv");
        let run = |out: &str| {
            let json = tmp(out);
            dispatch(&args(&[
                "mine",
                data.to_str().unwrap(),
                "--algorithm",
                "proclus",
                "--k",
                "2",
                "--avg-dims",
                "3",
                "--seed",
                "7",
                "--json",
                json.to_str().unwrap(),
            ]))
            .unwrap();
            std::fs::read(json).unwrap()
        };
        assert_eq!(run("baseline-det-a.json"), run("baseline-det-b.json"));
    }

    #[test]
    fn mine_algorithm_rejects_unknown_names_and_floc_only_flags() {
        let data = baseline_fixture("baseline-bad.tsv");
        let err = dispatch(&args(&[
            "mine",
            data.to_str().unwrap(),
            "--algorithm",
            "kmeans",
        ]))
        .unwrap_err();
        assert!(matches!(err, CmdError::Usage(_)));
        assert!(err.to_string().contains("kmeans"));

        let err = dispatch(&args(&[
            "mine",
            data.to_str().unwrap(),
            "--algorithm",
            "subclu",
            "--checkpoint",
            tmp("nope.dck").to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(matches!(err, CmdError::Usage(_)));
    }

    #[test]
    fn paged_mine_matches_memory_mine() {
        let pages = tmp("paged-gen");
        let _ = std::fs::remove_dir_all(&pages);
        let out = dispatch(&args(&[
            "generate",
            pages.to_str().unwrap(),
            "--kind",
            "embedded",
            "--rows",
            "60",
            "--cols",
            "20",
            "--clusters",
            "2",
            "--paged",
            "--chunk-rows",
            "7",
        ]))
        .unwrap();
        assert!(out.contains("(paged)"), "{out}");
        assert!(pages.join("matrix.dcpm").is_file());

        // Same paged directory, mined out-of-core (tiny block cache) and
        // fully in memory: the clusterings must be identical.
        let paged_json = tmp("paged-found.json");
        let model = tmp("paged-model.dcm");
        let out_paged = dispatch(&args(&[
            "mine",
            pages.to_str().unwrap(),
            "--k",
            "2",
            "--seed",
            "3",
            "--backend",
            "paged",
            "--cache-blocks",
            "2",
            "--json",
            paged_json.to_str().unwrap(),
            "--save-model",
            model.to_str().unwrap(),
        ]))
        .unwrap();
        let mem_json = tmp("mem-found.json");
        let out_mem = dispatch(&args(&[
            "mine",
            pages.to_str().unwrap(),
            "--k",
            "2",
            "--seed",
            "3",
            "--backend",
            "memory",
            "--json",
            mem_json.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(
            std::fs::read_to_string(&paged_json).unwrap(),
            std::fs::read_to_string(&mem_json).unwrap(),
            "paged and memory backends must mine identically\n{out_paged}\n{out_mem}"
        );

        // The paged run saved a paged-ref model that predicts like any other.
        assert!(out_paged.contains("paged-ref"), "{out_paged}");
        let loaded = dc_serve::artifact::load(&model).unwrap();
        assert_eq!(loaded.matrix().backend(), dc_matrix::BackendKind::Paged);
        let out = dispatch(&args(&[
            "predict",
            model.to_str().unwrap(),
            "0",
            "--top",
            "3",
        ]))
        .unwrap();
        assert!(out.contains("col"), "{out}");
    }

    #[test]
    fn generate_then_mine_roundtrip() {
        let data = tmp("gen.tsv");
        let truth = tmp("truth.json");
        let out = dispatch(&args(&[
            "generate",
            data.to_str().unwrap(),
            "--kind",
            "embedded",
            "--rows",
            "60",
            "--cols",
            "20",
            "--clusters",
            "2",
            "--truth",
            truth.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("60x20"));
        assert!(truth.exists());

        let clusters = tmp("found.json");
        let out = dispatch(&args(&[
            "mine",
            data.to_str().unwrap(),
            "--k",
            "2",
            "--seed",
            "3",
            "--json",
            clusters.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("FLOC: 2 clusters"));
        assert!(clusters.exists());

        let out = dispatch(&args(&[
            "evaluate",
            data.to_str().unwrap(),
            "--found",
            clusters.to_str().unwrap(),
            "--truth",
            truth.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("recall"));
        assert!(out.contains("jaccard"));
    }

    #[test]
    fn mine_rejects_bad_flags() {
        let data = tmp("gen2.tsv");
        dispatch(&args(&[
            "generate",
            data.to_str().unwrap(),
            "--rows",
            "30",
            "--cols",
            "10",
        ]))
        .unwrap();
        let err = dispatch(&args(&["mine", data.to_str().unwrap(), "--alpha", "2.0"])).unwrap_err();
        assert!(err.to_string().contains("alpha"));
        let err = dispatch(&args(&[
            "mine",
            data.to_str().unwrap(),
            "--ordering",
            "bogus",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("ordering"));
        let err = dispatch(&args(&["mine", data.to_str().unwrap(), "--k", "0"])).unwrap_err();
        assert!(err.to_string().contains("k must be positive"));
        let err = dispatch(&args(&[
            "mine",
            data.to_str().unwrap(),
            "--gain-engine",
            "bogus",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("gain engine"));
    }

    #[test]
    fn mine_accepts_an_explicit_gain_engine() {
        let data = tmp("gen_engine.tsv");
        dispatch(&args(&[
            "generate",
            data.to_str().unwrap(),
            "--rows",
            "40",
            "--cols",
            "12",
            "--clusters",
            "2",
            "--seed",
            "7",
        ]))
        .unwrap();
        // Both engines must mine the same clustering on the same seed.
        let mine_with = |engine: &str| {
            dispatch(&args(&[
                "mine",
                data.to_str().unwrap(),
                "--k",
                "2",
                "--seed",
                "3",
                "--gain-engine",
                engine,
            ]))
            .unwrap()
            .to_string()
        };
        let exact = mine_with("exact");
        let incremental = mine_with("incremental");
        assert!(exact.contains("FLOC: 2 clusters"));
        // Identical up to the wall-clock figure in the summary line.
        let strip_time = |s: &str| {
            s.lines()
                .map(|l| {
                    l.split(", ")
                        .filter(|part| {
                            !part.ends_with('s') || !part.starts_with(|c: char| c.is_ascii_digit())
                        })
                        .collect::<Vec<_>>()
                        .join(", ")
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip_time(&exact), strip_time(&incremental));
    }

    #[test]
    fn mine_missing_file_is_io_error() {
        let err = dispatch(&args(&["mine", "/nonexistent/matrix.tsv"])).unwrap_err();
        assert!(matches!(err, CmdError::Io(_)));
    }

    #[test]
    fn compare_runs_both_algorithms() {
        let data = tmp("gen3.tsv");
        dispatch(&args(&[
            "generate",
            data.to_str().unwrap(),
            "--rows",
            "50",
            "--cols",
            "15",
            "--clusters",
            "2",
            "--seed",
            "5",
        ]))
        .unwrap();
        let out = dispatch(&args(&["compare", data.to_str().unwrap(), "--k", "2"])).unwrap();
        assert!(out.contains("FLOC"));
        assert!(out.contains("Cheng & Church"));
    }

    #[test]
    fn mine_saves_model_and_predict_serves_it() {
        let data = tmp("serve_gen.tsv");
        dispatch(&args(&[
            "generate",
            data.to_str().unwrap(),
            "--kind",
            "embedded",
            "--rows",
            "40",
            "--cols",
            "16",
            "--clusters",
            "2",
            "--seed",
            "7",
        ]))
        .unwrap();

        for model_name in ["serve_model.dcm", "serve_model.json"] {
            let model = tmp(model_name);
            let out = dispatch(&args(&[
                "mine",
                data.to_str().unwrap(),
                "--k",
                "2",
                "--seed",
                "4",
                "--save-model",
                model.to_str().unwrap(),
            ]))
            .unwrap();
            assert!(
                out.contains("model snapshot written"),
                "{model_name}: {out}"
            );
            assert!(model.exists());

            let out = dispatch(&args(&["predict", model.to_str().unwrap(), "1", "1"])).unwrap();
            assert!(
                out.contains("predicted (1, 1)") || out.contains("not covered"),
                "{model_name}: {out}"
            );

            let out = dispatch(&args(&[
                "predict",
                model.to_str().unwrap(),
                "1",
                "--top",
                "3",
            ]))
            .unwrap();
            assert!(
                out.contains("prediction(s) for row 1") || out.contains("no predictable"),
                "{model_name}: {out}"
            );
        }
    }

    #[test]
    fn predict_rejects_bad_arguments() {
        let err = dispatch(&args(&["predict", "/nonexistent/model.dcm", "0", "0"])).unwrap_err();
        assert!(matches!(err, CmdError::Io(_)));

        let data = tmp("serve_gen2.tsv");
        let model = tmp("serve_model2.dcm");
        dispatch(&args(&[
            "generate",
            data.to_str().unwrap(),
            "--rows",
            "30",
            "--cols",
            "10",
        ]))
        .unwrap();
        dispatch(&args(&[
            "mine",
            data.to_str().unwrap(),
            "--k",
            "1",
            "--save-model",
            model.to_str().unwrap(),
        ]))
        .unwrap();
        let err = dispatch(&args(&["predict", model.to_str().unwrap()])).unwrap_err();
        assert!(err.to_string().contains("row"));
        let err = dispatch(&args(&["predict", model.to_str().unwrap(), "x", "0"])).unwrap_err();
        assert!(err.to_string().contains("row"));
        // An out-of-range query is a miss, not an error.
        let out = dispatch(&args(&["predict", model.to_str().unwrap(), "9999", "0"])).unwrap();
        assert!(out.contains("not covered"));
    }

    #[test]
    fn serve_bench_writes_machine_readable_report() {
        let data = tmp("serve_gen3.tsv");
        let model = tmp("serve_model3.dcm");
        let out_dir = tmp("serve_bench_out");
        dispatch(&args(&[
            "generate",
            data.to_str().unwrap(),
            "--rows",
            "40",
            "--cols",
            "12",
            "--seed",
            "9",
        ]))
        .unwrap();
        dispatch(&args(&[
            "mine",
            data.to_str().unwrap(),
            "--k",
            "2",
            "--save-model",
            model.to_str().unwrap(),
        ]))
        .unwrap();
        let out = dispatch(&args(&[
            "serve-bench",
            model.to_str().unwrap(),
            "--queries",
            "2000",
            "--threads",
            "1,2",
            "--out",
            out_dir.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("threads  1"), "{out}");
        assert!(out.contains("report written"), "{out}");
        let report = std::fs::read_to_string(out_dir.join("BENCH_serve.json")).unwrap();
        assert!(report.contains("\"queries_per_sec\""), "{report}");
        assert!(report.contains("\"max_speedup\""), "{report}");

        let err = dispatch(&args(&[
            "serve-bench",
            model.to_str().unwrap(),
            "--threads",
            "0",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("threads"));
    }

    #[test]
    fn exit_codes_follow_the_policy() {
        assert_eq!(CmdError::Usage("x".into()).exit_code(), 1);
        assert_eq!(CmdError::Arg(ArgError::Missing("k".into())).exit_code(), 1);
        assert_eq!(CmdError::Io("x".into()).exit_code(), 2);
        assert_eq!(CmdError::Algo("x".into()).exit_code(), 2);
        assert_eq!(CmdOutput::ok("t").exit_code, 0);
        assert_eq!(CmdOutput::interrupted("t").exit_code, 3);
    }

    #[test]
    fn validate_reports_occupancy_and_strict_mode_fails_sparse_data() {
        let data = tmp("validate_gen.tsv");
        // Row 2 is half-missing; NaN counts as missing too.
        std::fs::write(&data, "1\t2\t3\t4\n5\t6\t7\t8\nNA\t9\tNaN\t10\n").unwrap();
        let out = dispatch(&args(&[
            "validate",
            data.to_str().unwrap(),
            "--alpha",
            "0.5",
        ]))
        .unwrap();
        assert!(out.contains("3 x 4 matrix"), "{out}");
        assert!(out.contains("row occupancy"), "{out}");
        assert!(out.contains("below alpha"), "{out}");
        assert_eq!(out.exit_code, 0);

        // The synthetic rating matrix is sparse, so strict mode rejects it.
        let err = dispatch(&args(&[
            "validate",
            data.to_str().unwrap(),
            "--alpha",
            "0.9",
            "--strict",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("below alpha"));

        let err =
            dispatch(&args(&["validate", data.to_str().unwrap(), "--alpha", "7"])).unwrap_err();
        assert_eq!(err.exit_code(), 1);
    }

    #[test]
    fn zero_budget_checkpoint_resumes_to_the_full_run_result() {
        let data = tmp("ckpt_gen.tsv");
        dispatch(&args(&[
            "generate",
            data.to_str().unwrap(),
            "--kind",
            "embedded",
            "--rows",
            "60",
            "--cols",
            "20",
            "--clusters",
            "2",
            "--seed",
            "13",
        ]))
        .unwrap();

        // Reference: one uninterrupted run.
        let full_json = tmp("ckpt_full.json");
        dispatch(&args(&[
            "mine",
            data.to_str().unwrap(),
            "--k",
            "2",
            "--seed",
            "13",
            "--json",
            full_json.to_str().unwrap(),
        ]))
        .unwrap();

        // A zero budget stops before the first iteration but still writes a
        // resumable checkpoint of the seeded state.
        let ckpt = tmp("ckpt_state.dck");
        let out = dispatch(&args(&[
            "mine",
            data.to_str().unwrap(),
            "--k",
            "2",
            "--seed",
            "13",
            "--time-budget",
            "0",
            "--checkpoint",
            ckpt.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("stopped: budget"), "{out}");
        assert!(out.contains("checkpoint written"), "{out}");
        assert!(ckpt.exists());

        // Resuming (search params come from the checkpoint itself) must
        // land bit-identically on the uninterrupted run's clustering.
        let resumed_json = tmp("ckpt_resumed.json");
        let out = dispatch(&args(&[
            "mine",
            data.to_str().unwrap(),
            "--resume",
            ckpt.to_str().unwrap(),
            "--json",
            resumed_json.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("stopped: converged"), "{out}");
        assert_eq!(
            std::fs::read_to_string(&full_json).unwrap(),
            std::fs::read_to_string(&resumed_json).unwrap(),
            "resumed clustering differs from the uninterrupted one"
        );
    }

    #[test]
    fn resume_rejects_a_mismatched_matrix() {
        let data = tmp("resume_gen.tsv");
        let other = tmp("resume_other.tsv");
        for (path, seed) in [(&data, "21"), (&other, "22")] {
            dispatch(&args(&[
                "generate",
                path.to_str().unwrap(),
                "--rows",
                "40",
                "--cols",
                "15",
                "--seed",
                seed,
            ]))
            .unwrap();
        }
        let ckpt = tmp("resume_state.dck");
        dispatch(&args(&[
            "mine",
            data.to_str().unwrap(),
            "--k",
            "2",
            "--checkpoint",
            ckpt.to_str().unwrap(),
        ]))
        .unwrap();
        let err = dispatch(&args(&[
            "mine",
            other.to_str().unwrap(),
            "--resume",
            ckpt.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("checkpoint"), "{err}");
    }

    #[test]
    fn mine_rejects_bad_robustness_flags() {
        let data = tmp("robust_gen.tsv");
        dispatch(&args(&[
            "generate",
            data.to_str().unwrap(),
            "--rows",
            "30",
            "--cols",
            "10",
        ]))
        .unwrap();
        let err = dispatch(&args(&[
            "mine",
            data.to_str().unwrap(),
            "--time-budget",
            "-1",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("time-budget"));
        let err = dispatch(&args(&[
            "mine",
            data.to_str().unwrap(),
            "--checkpoint-every",
            "0",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("checkpoint-every"));
        let err = dispatch(&args(&[
            "mine",
            data.to_str().unwrap(),
            "--resume",
            "/nonexistent/state.dck",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn generate_movielens_and_microarray_kinds() {
        for kind in ["movielens", "microarray"] {
            let data = tmp(&format!("gen_{kind}.tsv"));
            let out = dispatch(&args(&[
                "generate",
                data.to_str().unwrap(),
                "--kind",
                kind,
                "--rows",
                "50",
                "--cols",
                "30",
            ]))
            .unwrap();
            assert!(out.contains("50x30"), "{kind}: {out}");
        }
        let err = dispatch(&args(&["generate", "/tmp/x.tsv", "--kind", "bogus"])).unwrap_err();
        assert!(err.to_string().contains("bogus"));
    }
}

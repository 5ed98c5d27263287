//! The mining workloads: planted matrix → `floc_with` → checks.

use crate::checks::{check_identical, check_residues};
use crate::report::Run;
use crate::spec::{sub_seed, MineSpec, THREADS};
use crate::stats::median;
use dc_datagen::EmbedConfig;
use dc_floc::{floc_with, DeltaCluster, FlocConfig, FlocResult, Seeding};
use dc_matrix::DataMatrix;
use dc_obs::{MemorySink, Obs};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Fewest mines a run measures, however long each takes.
const MIN_MINES: usize = 3;
/// Fewest set-ups a run times.
const MIN_SETUPS: usize = 7;

/// One set-up instance: the matrix FLOC mines and the planted truth.
struct Instance {
    matrix: DataMatrix,
    truth: Vec<DeltaCluster>,
    /// Paged block directory, removed on drop.
    dir: Option<PathBuf>,
    datagen_s: f64,
    build_s: f64,
}

impl Drop for Instance {
    fn drop(&mut self) {
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Generates the planted matrix, then builds the mined matrix from its
/// values through the public `MatrixBuilder` (writing blocks for the paged
/// backend).
fn setup(spec: &MineSpec, seed: u64, work: &Path) -> Result<Instance, String> {
    let t = Instant::now();
    let cfg =
        EmbedConfig::new(spec.rows, spec.cols, vec![spec.planted; spec.clusters]).with_seed(seed);
    let data = dc_datagen::embed::generate(&cfg);
    let mut values = Vec::with_capacity(spec.rows * spec.cols);
    for r in 0..spec.rows {
        values.extend_from_slice(&data.matrix.row_values(r));
    }
    drop(data.matrix);
    let datagen_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let builder = DataMatrix::builder(spec.rows, spec.cols);
    let (matrix, dir) = match spec.paged {
        None => (builder.from_rows(values), None),
        Some((chunk_rows, cache_blocks)) => {
            let dir = work.join(format!("paged-{seed:016x}"));
            let _ = std::fs::remove_dir_all(&dir);
            let m = builder
                .paged(&dir)
                .chunk_rows(chunk_rows)
                .cache_blocks(Some(cache_blocks))
                .from_rows(values)
                .map_err(|e| format!("paged build: {e}"))?;
            (m, Some(dir))
        }
    };
    Ok(Instance {
        matrix,
        truth: data.truth,
        dir,
        datagen_s,
        build_s: t.elapsed().as_secs_f64(),
    })
}

fn floc_config(spec: &MineSpec, seed: u64) -> FlocConfig {
    FlocConfig::builder(spec.k)
        .seed(seed)
        .threads(THREADS)
        .max_iterations(spec.max_iterations)
        .seeding(Seeding::TargetSize {
            rows: spec.seed_shape.0,
            cols: spec.seed_shape.1,
        })
        .build()
}

/// Candidate evaluations a run performs: each iteration scores every
/// target against every cluster twice (initial pass and refresh).
fn actions_evaluated(spec: &MineSpec, iterations: usize) -> u64 {
    (iterations * 2 * (spec.rows + spec.cols) * spec.k) as u64
}

fn mine(matrix: &DataMatrix, cfg: &FlocConfig, obs: &Obs) -> Result<(FlocResult, f64), String> {
    let t = Instant::now();
    let result = floc_with(matrix, cfg, obs).map_err(|e| format!("floc: {e}"))?;
    Ok((result, t.elapsed().as_secs_f64()))
}

/// Checks one mine: residues against the independent recomputation and, on
/// the paged backend, bit-identity with the in-memory twin.
fn check(
    spec: &MineSpec,
    inst: &Instance,
    cfg: &FlocConfig,
    result: &FlocResult,
) -> Result<(), String> {
    check_residues(&inst.matrix, result)?;
    if spec.paged.is_some() {
        let twin = inst.matrix.to_memory();
        let (twin_result, _) = mine(&twin, cfg, &Obs::null())?;
        check_identical("paged vs in-memory twin", result, &twin_result)?;
    }
    Ok(())
}

/// Per-rep samples of everything a run reports.
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    mine_s: Vec<f64>,
    per_s: Vec<f64>,
    residue: Vec<f64>,
    recall: Vec<f64>,
    precision: Vec<f64>,
    layers: BTreeMap<&'static str, Vec<f64>>,
}

impl Samples {
    fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.entry(name).or_default().push(value);
    }
}

/// Runs a mining workload for `seconds`. Every repetition is a fresh
/// instance (its own sub-seed), so medians average over instances as well
/// as over timing noise.
pub fn run(spec: &MineSpec, seed: u64, seconds: f64, trace: bool, work: &Path) -> Run {
    let mut out = Run {
        config: crate::spec::stamped(spec, seed),
        ..Run::default()
    };
    let mut s = Samples::default();
    let started = Instant::now();
    let mut rep = 0u64;
    while s.mine_s.len() < MIN_MINES || started.elapsed().as_secs_f64() < seconds {
        let seed_i = sub_seed(seed, rep);
        rep += 1;
        out.attempted += 1;
        if let Err(why) = repetition(spec, seed_i, trace, work, &mut s) {
            out.fail(format!("instance {seed_i:#x}: {why}"));
        }
        if started.elapsed() > Duration::from_secs(150) {
            break;
        }
    }
    for _ in s.setup_s.len()..MIN_SETUPS {
        let t = Instant::now();
        let seed_i = sub_seed(seed, rep);
        rep += 1;
        match setup(spec, seed_i, work) {
            Ok(inst) => {
                s.setup_s.push(t.elapsed().as_secs_f64());
                drop(inst);
            }
            Err(why) => {
                out.attempted += 1;
                out.fail(why);
            }
        }
    }
    let peak = crate::proc::peak_rss_mb(std::process::id()).unwrap_or(f64::NAN);
    report(&s, peak, trace, &mut out);
    out
}

fn repetition(
    spec: &MineSpec,
    seed: u64,
    trace: bool,
    work: &Path,
    s: &mut Samples,
) -> Result<(), String> {
    let t = Instant::now();
    let inst = setup(spec, seed, work)?;
    s.setup_s.push(t.elapsed().as_secs_f64());
    let cfg = floc_config(spec, seed);

    let result = if trace {
        traced_repetition(spec, &inst, &cfg, s)?
    } else {
        let (result, mine_s) = mine(&inst.matrix, &cfg, &Obs::null())?;
        s.mine_s.push(mine_s);
        result
    };
    check(spec, &inst, &cfg, &result)?;
    let mine_s = *s.mine_s.last().expect("a mine was timed");
    s.per_s
        .push(actions_evaluated(spec, result.iterations) as f64 / mine_s);
    s.residue.push(result.avg_residue);

    let t = Instant::now();
    let q = dc_eval::quality(&inst.matrix, &inst.truth, &result.clusters);
    s.layer("eval.quality_s", t.elapsed().as_secs_f64());
    s.recall.push(q.recall);
    s.precision.push(q.precision);
    Ok(())
}

/// The traced repetition: the mirror timed on a fresh twin, then one
/// untraced and one traced mine on fresh twins (order alternating between
/// repetitions), which must agree bit for bit. Layer times come from the
/// `floc.*` events of the traced mine.
fn traced_repetition(
    spec: &MineSpec,
    inst: &Instance,
    cfg: &FlocConfig,
    s: &mut Samples,
) -> Result<FlocResult, String> {
    s.layer("datagen_s", inst.datagen_s);
    s.layer("matrix.build_s", inst.build_s);
    let twin = inst.matrix.clone();
    let t = Instant::now();
    twin.ensure_mirror();
    s.layer("matrix.mirror_s", t.elapsed().as_secs_f64());
    drop(twin);

    let sink = MemorySink::new();
    let obs = Obs::new(sink.clone());
    let traced_first = s.mine_s.len() % 2 == 1;
    let mut untraced = None;
    if !traced_first {
        untraced = Some(mine(&inst.matrix.clone(), cfg, &Obs::null())?);
    }
    let twin = inst.matrix.clone();
    let before = twin.storage_backend().io_stats();
    let (traced, traced_s) = mine(&twin, cfg, &obs)?;
    let after = twin.storage_backend().io_stats();
    // Paged blocks only: the memory backend's single resident block is not
    // a cached block.
    let backend = twin.storage_backend();
    let resident = backend
        .block_rows()
        .map_or(0, |_| backend.resident_blocks());
    let block_mb = backend.block_rows().map_or(0.0, |rows| {
        (rows * spec.cols * 8) as f64 / (1024.0 * 1024.0)
    });
    drop(twin);
    let (untraced, untraced_s) = match untraced {
        Some(u) => u,
        None => mine(&inst.matrix.clone(), cfg, &Obs::null())?,
    };
    check_identical("traced vs untraced", &traced, &untraced)?;
    s.mine_s.push(untraced_s);
    s.layer("floc.mine_s", traced_s);
    // Paired with the untraced mine next to it, so host drift cancels.
    s.layer("obs.trace_overhead_frac", traced_s / untraced_s - 1.0);

    let sum = |event: &str, field: &str| -> u64 {
        sink.named(event)
            .iter()
            .map(|e| e.u64_field(field).unwrap_or(0))
            .sum()
    };
    let secs = |nanos: u64| nanos as f64 / 1e9;
    let seeding = sum("floc.seeding", "duration_nanos");
    let eval = sum("floc.iteration", "eval_nanos");
    let rebuild = sum("floc.iteration", "rebuild_nanos");
    let apply = sum("floc.iteration", "apply_nanos");
    let repairs = sum("floc.iteration", "repairs");
    let performed = sum("floc.iteration", "actions_performed");
    let iterations = traced.iterations;
    let actions = actions_evaluated(spec, iterations);
    s.layer("floc.seeding_s", secs(seeding));
    s.layer("floc.eval_s", secs(eval));
    s.layer("floc.rebuild_s", secs(rebuild));
    s.layer("floc.apply_s", secs(apply));
    s.layer(
        "floc.unattributed_s",
        traced_s - secs(seeding + eval + rebuild + apply),
    );
    s.layer("floc.iterations", iterations as f64);
    s.layer("floc.actions_evaluated", actions as f64);
    s.layer("floc.ns_per_action", traced_s * 1e9 / actions.max(1) as f64);
    s.layer(
        "floc.stale_rebuilds",
        sum("floc.iteration", "stale_rebuilds") as f64,
    );
    s.layer("floc.repairs", repairs as f64);
    s.layer(
        "floc.apply_ns_per_repair",
        if repairs == 0 {
            0.0
        } else {
            apply as f64 / repairs as f64
        },
    );
    s.layer(
        "floc.prefix_kept_frac",
        if performed == 0 {
            0.0
        } else {
            sum("floc.iteration", "best_prefix_len") as f64 / performed as f64
        },
    );
    s.layer(
        "floc.actions_skipped",
        sum("floc.iteration", "actions_skipped") as f64,
    );
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    s.layer("storage.hits", hits as f64);
    s.layer("storage.misses", misses as f64);
    s.layer(
        "storage.hit_rate",
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        },
    );
    s.layer("storage.resident_blocks", resident as f64);
    s.layer("storage.decoded_mb", misses as f64 * block_mb);
    Ok(traced)
}

fn report(s: &Samples, peak_mb: f64, trace: bool, out: &mut Run) {
    let med = |v: &[f64]| median(v).unwrap_or(f64::NAN);
    let n_mines = s.mine_s.len();
    out.series = vec![
        ("setup_s".into(), s.setup_s.clone()),
        ("mine_s".into(), s.mine_s.clone()),
        ("avg_residue".into(), s.residue.clone()),
    ];
    out.named(
        "setup_s",
        med(&s.setup_s),
        "s",
        s.setup_s.len(),
        "median set-up: datagen, matrix build, truth",
    );
    out.named(
        "mine_s",
        med(&s.mine_s),
        "s",
        n_mines,
        "median untraced floc_with wall time, mirror not prebuilt",
    );
    out.named(
        "avg_residue",
        med(&s.residue),
        "residue",
        s.residue.len(),
        "median final average residue",
    );
    out.named(
        "entry_recall",
        med(&s.recall),
        "ratio",
        s.recall.len(),
        "median dc_eval::quality recall vs planted truth",
    );
    out.named(
        "entry_precision",
        med(&s.precision),
        "ratio",
        s.precision.len(),
        "median dc_eval::quality precision",
    );
    out.named(
        "peak_rss_mb",
        peak_mb,
        "MB",
        1,
        "VmHWM of the workload process",
    );
    out.named(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
        out.attempted as usize,
        "failed mines over attempted mines",
    );
    if trace {
        for (name, unit) in crate::spec::PER_LAYER {
            let samples: &[f64] = match *name {
                "eval.entry_recall" => &s.recall,
                "eval.entry_precision" => &s.precision,
                other => s.layers.get(other).map_or(&[], Vec::as_slice),
            };
            let value = if samples.is_empty() {
                0.0
            } else {
                med(samples)
            };
            out.metric(name, value, unit, samples.len());
        }
    } else {
        out.metric("setup_s", med(&s.setup_s), "s", s.setup_s.len());
        out.metric("latency_ms", med(&s.mine_s) * 1e3, "ms", n_mines);
        out.metric("throughput_per_s", med(&s.per_s), "1/s", s.per_s.len());
        out.metric("peak_rss_mb", peak_mb, "MB", 1);
        out.metric("avg_residue", med(&s.residue), "residue", s.residue.len());
    }
}

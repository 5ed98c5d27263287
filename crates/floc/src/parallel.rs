//! Multi-restart FLOC.
//!
//! FLOC is a randomized local search: the quality of the final clustering
//! depends on the seeds and the action order. Running several independent
//! restarts and keeping the clustering with the lowest average residue is a
//! cheap, embarrassingly parallel way to tighten the approximation — §5.1's
//! sensitivity analysis is exactly why this helps. Restarts run on scoped
//! threads and differ only in their RNG seed, so each individual restart
//! remains reproducible.
//!
//! The restart count and worker-thread budget both come from the config's
//! [`Parallelism`] plan; [`floc_parallel`] is the entry point.

use crate::algorithm::{available_cores, floc_on, FlocError};
use crate::config::{FlocConfig, Parallelism};
use crate::history::FlocResult;
use dc_matrix::DataMatrix;
use dc_obs::{Field, Obs};
use std::sync::Mutex;
use std::time::Instant;

/// Races `config.parallelism.restarts` independent FLOC runs (seeds
/// `config.seed`, `config.seed + 1`, …) across up to
/// `config.parallelism.threads` worker threads and returns the result with
/// the lowest average residue, together with the seed that produced it.
///
/// The thread budget is split, never multiplied: `workers =
/// threads.clamp(1, restarts)` restarts race concurrently, and each
/// restart's own gain evaluation gets the `threads / workers` leftover
/// (at least 1) — so at most `threads` OS threads ever run hot at once,
/// where the old behavior of handing every restart the full `threads`
/// oversubscribed the machine `restarts`-fold. Within-run thread count
/// never affects a run's trajectory (gain evaluation is bit-identical
/// across thread counts), and ties are broken toward the smallest seed,
/// so the outcome is deterministic regardless of the split or of thread
/// scheduling. The cores are split the same way: each restart's perform
/// loop runs at most `cores / workers` (at least 1) cluster lanes, so the
/// racing restarts never spin more lanes than the process has cores.
///
/// Each finished restart emits a `floc.restart` event on `obs` (arrival
/// order, hence event order, is scheduler-dependent) and the race ends
/// with a `floc.restarts` span naming the winner. The per-iteration event
/// stream of the individual runs is intentionally not forwarded — with
/// dozens of racing restarts it would interleave into noise.
///
/// # Errors
/// Returns the first error (by seed order) if *every* restart fails;
/// individual failures are tolerated as long as one restart succeeds.
pub fn floc_parallel(
    matrix: &DataMatrix,
    config: &FlocConfig,
    obs: &Obs,
) -> Result<(FlocResult, u64), FlocError> {
    parallel_on(matrix, config, obs, available_cores())
}

/// [`floc_parallel`] on `cores` cores.
fn parallel_on(
    matrix: &DataMatrix,
    config: &FlocConfig,
    obs: &Obs,
    cores: usize,
) -> Result<(FlocResult, u64), FlocError> {
    let restarts = config.parallelism.restarts.max(1);
    let workers = config.parallelism.threads.clamp(1, restarts);
    // Budget split (documented on `Parallelism`): the within-run thread
    // count is the budget left over after restart workers are staffed, so
    // workers × within ≤ threads — no oversubscription.
    let within = (config.parallelism.threads / workers).max(1);
    let lane_cores = (cores / workers).max(1);
    let started = Instant::now();
    let results: Mutex<Vec<(u64, Result<FlocResult, FlocError>)>> =
        Mutex::new(Vec::with_capacity(restarts));
    let next = std::sync::atomic::AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= restarts {
                    break;
                }
                let seed = config.seed + i as u64;
                let mut cfg = config.clone();
                cfg.seed = seed;
                // Restart-level parallelism takes precedence; this restart
                // runs within its share of the thread budget.
                cfg.parallelism = Parallelism::new(within, 1);
                let result = floc_on(matrix, &cfg, &Obs::null(), lane_cores);
                if obs.enabled() {
                    match &result {
                        Ok(r) => obs.emit(
                            "floc.restart",
                            &[
                                Field::new("seed", seed),
                                Field::new("avg_residue", r.avg_residue),
                                Field::new("iterations", r.iterations),
                                Field::new("ok", true),
                            ],
                        ),
                        Err(e) => {
                            let msg = e.to_string();
                            obs.emit(
                                "floc.restart",
                                &[
                                    Field::new("seed", seed),
                                    Field::new("ok", false),
                                    Field::new("error", msg.as_str()),
                                ],
                            );
                        }
                    }
                }
                results
                    .lock()
                    .expect("no restart worker panics while holding the lock")
                    .push((seed, result));
            });
        }
    });

    let mut results = results
        .into_inner()
        .expect("no restart worker panics while holding the lock");
    results.sort_by_key(|(seed, _)| *seed);

    let mut best: Option<(FlocResult, u64)> = None;
    let mut first_err: Option<FlocError> = None;
    for (seed, r) in results {
        match r {
            Ok(res) => {
                let better = match &best {
                    None => true,
                    Some((b, _)) => res.avg_residue < b.avg_residue,
                };
                if better {
                    best = Some((res, seed));
                }
            }
            Err(e) => {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
    }
    match best {
        Some(b) => {
            if obs.enabled() {
                obs.emit_full(
                    dc_obs::EventKind::Span,
                    "floc.restarts",
                    &[
                        Field::new(
                            "duration_nanos",
                            started.elapsed().as_nanos().min(u64::MAX as u128) as u64,
                        ),
                        Field::new("restarts", restarts),
                        Field::new("workers", workers),
                        Field::new("winner_seed", b.1),
                        Field::new("avg_residue", b.0.avg_residue),
                    ],
                    None,
                );
            }
            Ok(b)
        }
        None => Err(first_err.expect("restarts >= 1 implies at least one result")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::floc;
    use crate::seeding::Seeding;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[allow(clippy::needless_range_loop)] // index drives both the block test and the pattern lookup
    fn noisy_matrix(seed: u64) -> DataMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = DataMatrix::builder(25, 12).build();
        // A planted coherent block in rows 0..8, cols 0..5.
        let pattern: Vec<f64> = (0..5).map(|_| rng.gen_range(0.0..10.0)).collect();
        for r in 0..25 {
            let bias: f64 = rng.gen_range(0.0..20.0);
            for c in 0..12 {
                if r < 8 && c < 5 {
                    m.set(r, c, pattern[c] + bias);
                } else {
                    m.set(r, c, rng.gen_range(0.0..100.0));
                }
            }
        }
        m
    }

    fn plan(config: &FlocConfig, threads: usize, restarts: usize) -> FlocConfig {
        let mut cfg = config.clone();
        cfg.parallelism = Parallelism::new(threads, restarts);
        cfg
    }

    #[test]
    fn restarts_return_the_best_seed() {
        let m = noisy_matrix(1);
        let config = FlocConfig::builder(1)
            .seeding(Seeding::TargetSize { rows: 6, cols: 4 })
            .seed(100)
            .threads(3)
            .restarts(6)
            .build();
        let (multi, best_seed) = floc_parallel(&m, &config, &Obs::null()).unwrap();
        // The multi-restart result must be at least as good as the single
        // run with the base seed.
        let mut single_cfg = config.clone();
        single_cfg.seed = 100;
        single_cfg.parallelism = Parallelism::serial();
        let single = floc(&m, &single_cfg).unwrap();
        assert!(multi.avg_residue <= single.avg_residue + 1e-12);
        assert!((100..106).contains(&best_seed));
    }

    #[test]
    fn restarts_are_deterministic() {
        let m = noisy_matrix(2);
        let config = FlocConfig::builder(2).seed(7).build();
        let (a, seed_a) = floc_parallel(&m, &plan(&config, 4, 4), &Obs::null()).unwrap();
        let (b, seed_b) = floc_parallel(&m, &plan(&config, 2, 4), &Obs::null()).unwrap();
        assert_eq!(seed_a, seed_b, "winner independent of worker count");
        assert_eq!(a.clusters, b.clusters);
        assert_eq!(a.avg_residue, b.avg_residue);
    }

    #[test]
    fn single_restart_equals_plain_floc() {
        let m = noisy_matrix(3);
        let config = FlocConfig::builder(1).seed(42).build();
        let (multi, seed) = floc_parallel(&m, &config, &Obs::null()).unwrap();
        let single = floc(&m, &config).unwrap();
        assert_eq!(seed, 42);
        assert_eq!(multi.clusters, single.clusters);
    }

    #[test]
    fn all_failures_surface_an_error() {
        let m = DataMatrix::builder(10, 10).build(); // empty: every restart fails
        let config = FlocConfig::builder(1).restarts(3).threads(2).build();
        let err = floc_parallel(&m, &config, &Obs::null()).unwrap_err();
        assert!(matches!(err, FlocError::EmptyMatrix));
    }

    #[test]
    fn restart_events_cover_every_seed() {
        let m = noisy_matrix(5);
        let config = FlocConfig::builder(1)
            .seed(10)
            .threads(2)
            .restarts(4)
            .build();
        let sink = dc_obs::MemorySink::new();
        let obs = Obs::new(sink.clone());
        let (best, winner) = floc_parallel(&m, &config, &obs).unwrap();
        let restarts = sink.named("floc.restart");
        assert_eq!(restarts.len(), 4);
        let mut seeds: Vec<u64> = restarts
            .iter()
            .filter_map(|e| e.u64_field("seed"))
            .collect();
        seeds.sort_unstable();
        assert_eq!(seeds, vec![10, 11, 12, 13]);
        let done = sink.named("floc.restarts");
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].u64_field("winner_seed"), Some(winner));
        assert_eq!(done[0].f64_field("avg_residue"), Some(best.avg_residue));
        // Observation must not perturb the race's outcome.
        let (plain, plain_winner) = floc_parallel(&m, &config, &Obs::null()).unwrap();
        assert_eq!(plain_winner, winner);
        assert_eq!(plain.clusters, best.clusters);
    }

    /// Two restarts racing with two lanes each, forced past the core
    /// clamp, pick the same winner with the same clustering as serial
    /// restarts.
    #[test]
    fn lanes_race_two_restarts_past_the_core_clamp() {
        let m = noisy_matrix(6);
        let config = FlocConfig::builder(4)
            .seeding(Seeding::TargetSize { rows: 6, cols: 4 })
            .seed(30)
            .gain_engine(crate::gain_engine::GainEngineKind::Incremental)
            .build();
        let serial = parallel_on(&m, &plan(&config, 1, 2), &Obs::null(), 1).unwrap();
        let raced = parallel_on(&m, &plan(&config, 4, 2), &Obs::null(), usize::MAX).unwrap();
        assert_eq!(raced.1, serial.1);
        assert_eq!(raced.0.clusters, serial.0.clusters);
        assert_eq!(
            raced.0.avg_residue.to_bits(),
            serial.0.avg_residue.to_bits()
        );
        assert_eq!(raced.0.trace, serial.0.trace);
    }
}

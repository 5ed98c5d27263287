//! The workloads and the metric lists. `BENCHMARK.json` at the repository
//! root must list the same names; a test holds them together.

use serde::{Serialize, Value};

/// Worker threads for mining (`Parallelism.threads`) and for the server.
pub const THREADS: usize = 2;

/// One mining workload: a planted matrix, FLOC's configuration, and where
/// the values live.
#[derive(Debug, Clone, Serialize)]
pub struct MineSpec {
    pub name: &'static str,
    pub rows: usize,
    pub cols: usize,
    /// Planted clusters, each `planted` rows × cols.
    pub clusters: usize,
    pub planted: (usize, usize),
    /// Clusters FLOC looks for (`--k`).
    pub k: usize,
    /// `Seeding::TargetSize` seed shape.
    pub seed_shape: (usize, usize),
    /// FLOC's iteration cap.
    pub max_iterations: usize,
    /// Paged backend: rows per block and resident-block cap.
    pub paged: Option<(usize, usize)>,
    pub why: &'static str,
}

/// The serving workload: a planted model and the request stream.
#[derive(Debug, Clone, Serialize)]
pub struct ServeSpec {
    pub name: &'static str,
    pub rows: usize,
    pub cols: usize,
    pub clusters: usize,
    pub planted: (usize, usize),
    /// Seed of the planted model. The model is the deployment under test and
    /// stays fixed; the run seed picks the query stream.
    pub model_seed: u64,
    /// Target residue of the planted clusters, so predictions carry error.
    pub residue: f64,
    /// Queries per `POST /v1/predict`.
    pub batch: usize,
    /// Distinct request bodies, cycled.
    pub bodies: usize,
    /// The open loop's fixed send rate (requests/s). On the 2-vCPU x86-64
    /// development host the closed-loop capacity was 12–16k requests/s, but
    /// fell to 6.7k in slow spells of the shared host; 4000 is 60% of that
    /// low, so the loop never overloads. A constant, so a slower server
    /// shows as latency instead of a lower rate.
    pub open_rate: f64,
    /// Connections in each loop (one generator thread each).
    pub connections: usize,
    /// Closed loop: requests in flight per connection.
    pub depth: usize,
    pub why: &'static str,
}

#[derive(Debug, Clone)]
pub enum Workload {
    Mine(MineSpec),
    Serve(ServeSpec),
}

pub const MINE_LARGE: MineSpec = MineSpec {
    name: "mine-large",
    rows: 30_000,
    cols: 100,
    clusters: 10,
    planted: (548, 55),
    k: 10,
    seed_shape: (600, 20),
    max_iterations: 1,
    paged: None,
    why: "clusters of hundreds to thousands of rows, where gain-engine index \
          maintenance (rebuild and apply) dominates mining",
};

pub const MINE_FIG8: MineSpec = MineSpec {
    name: "mine-fig8",
    rows: 3000,
    cols: 100,
    clusters: 30,
    planted: (32, 3),
    k: 30,
    seed_shape: (32, 3),
    max_iterations: 4,
    paged: None,
    why: "the paper's section 5 scale with small clusters: lazy side rebuilds \
          dominate and apply is cheap, the control for apply-side work",
};

pub const MINE_PAGED: MineSpec = MineSpec {
    name: "mine-paged",
    rows: 256,
    cols: 100,
    clusters: 10,
    planted: (51, 5),
    k: 10,
    seed_shape: (10, 20),
    max_iterations: 1,
    paged: Some((16, 8)),
    why: "the paged backend with a block cache holding half the blocks, so the \
          storage LRU and block decode do the work",
};

pub const SERVE_PREDICT: ServeSpec = ServeSpec {
    name: "serve-predict",
    rows: 3000,
    cols: 100,
    clusters: 30,
    planted: (32, 3),
    model_seed: 11,
    residue: 5.0,
    batch: 64,
    bodies: 256,
    open_rate: 4000.0,
    connections: 2,
    depth: 16,
    why: "batched predictions over loopback HTTP: dc-net parse, queue and \
          write, and dc-serve predict, with no mining",
};

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    match name {
        "mine-large" => Some(Workload::Mine(MINE_LARGE)),
        "mine-fig8" => Some(Workload::Mine(MINE_FIG8)),
        "mine-paged" => Some(Workload::Mine(MINE_PAGED)),
        "serve-predict" => Some(Workload::Serve(SERVE_PREDICT)),
        _ => None,
    }
}

/// The seed of repetition `rep` of a run seeded `seed` (splitmix64), so a
/// run's repetitions are independent instances of its workload.
pub fn sub_seed(seed: u64, rep: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(rep.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// End-to-end metrics, measured untraced on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("avg_residue", "residue"),
];

/// Per-layer metrics of the traced run. A layer a workload does not
/// exercise reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datagen_s", "s"),
    ("matrix.build_s", "s"),
    ("matrix.mirror_s", "s"),
    ("floc.mine_s", "s"),
    ("floc.seeding_s", "s"),
    ("floc.eval_s", "s"),
    ("floc.rebuild_s", "s"),
    ("floc.apply_s", "s"),
    ("floc.unattributed_s", "s"),
    ("floc.iterations", "count"),
    ("floc.actions_evaluated", "count"),
    ("floc.ns_per_action", "ns"),
    ("floc.stale_rebuilds", "count"),
    ("floc.repairs", "count"),
    ("floc.apply_ns_per_repair", "ns"),
    ("floc.prefix_kept_frac", "ratio"),
    ("floc.actions_skipped", "count"),
    ("storage.hits", "count"),
    ("storage.misses", "count"),
    ("storage.hit_rate", "ratio"),
    ("storage.resident_blocks", "count"),
    ("storage.decoded_mb", "MB"),
    ("eval.quality_s", "s"),
    ("eval.entry_recall", "ratio"),
    ("eval.entry_precision", "ratio"),
    ("obs.trace_overhead_frac", "ratio"),
    ("serve.model_build_s", "s"),
    ("serve.predict_batch_us", "us"),
    ("serve.covered_frac", "ratio"),
    ("net.request_p50_us", "us"),
    ("net.request_p99_us", "us"),
    ("net.overhead_us", "us"),
    ("net.rejected", "count"),
    ("net.counter_lag", "count"),
    ("gen.late_p99_ms", "ms"),
    ("gen.sent", "count"),
    ("gen.completed", "count"),
];

/// The configuration a result is stamped with: every field of the
/// workload's spec, the run seed and the thread count.
pub fn stamped<T: Serialize>(spec: &T, seed: u64) -> Vec<(String, Value)> {
    let mut fields = match spec.to_value() {
        Value::Object(fields) => fields,
        other => vec![("spec".to_string(), other)],
    };
    fields.push(("seed".into(), Value::U64(seed)));
    fields.push(("threads".into(), Value::U64(THREADS as u64)));
    fields
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json at the repository root lists exactly these metrics,
    /// with these units, and these workloads.
    #[test]
    fn benchmark_json_matches_the_worker() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let value = serde_json::parse_value(&text).unwrap();
        let field = |name: &str| {
            value
                .as_object()
                .unwrap()
                .iter()
                .find(|(k, _)| k == name)
                .unwrap()
                .1
                .clone()
        };
        let pairs = |name: &str| -> Vec<(String, String)> {
            field(name)
                .as_array()
                .unwrap()
                .iter()
                .map(|m| {
                    let f = m.as_object().unwrap();
                    let get = |k: &str| {
                        f.iter()
                            .find(|(n, _)| n == k)
                            .unwrap()
                            .1
                            .as_str()
                            .unwrap()
                            .to_string()
                    };
                    (get("name"), get("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(pairs("end_to_end"), own(END_TO_END));
        assert_eq!(pairs("per_layer"), own(PER_LAYER));
        for w in field("workloads").as_array().unwrap() {
            let name = w.as_object().unwrap()[0].1.as_str().unwrap().to_string();
            assert!(workload(&name).is_some(), "{name}");
        }
    }

    #[test]
    fn sub_seeds_differ_and_repeat() {
        assert_eq!(sub_seed(7, 0), sub_seed(7, 0));
        assert_ne!(sub_seed(7, 0), sub_seed(7, 1));
        assert_ne!(sub_seed(7, 0), sub_seed(8, 0));
    }
}

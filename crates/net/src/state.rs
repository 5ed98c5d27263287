//! Shared per-server state: the installed model, readiness, and metadata.
//!
//! The engine and its metadata live *together* in one [`Installed`]
//! snapshot behind an `RwLock<Arc<Installed>>`: request workers take a
//! cheap read lock, clone the `Arc`, and answer from an immutable,
//! internally consistent view — a concurrent
//! [`swap_model`](AppState::swap_model) never blocks in-flight queries and
//! can never be observed half-applied (engine from one model, metadata or
//! version from another). Readiness is a separate atomic that flips `false`
//! for the duration of a swap, which is exactly what `GET /readyz` (and a
//! load balancer probing it) wants to observe; the predict path keeps
//! answering from its snapshot throughout.
//!
//! The state also carries two small maps the online miner feeds:
//! integer **gauges** rendered on `/metrics`, and raw-JSON **status
//! fragments** spliced into `/healthz` and `/v1/model` (e.g. the miner's
//! generation and last promotion).

use crate::metrics::ServerMetrics;
use dc_obs::Obs;
use dc_serve::{QueryEngine, ServeModel};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// Identity of the model currently being served; the `GET /v1/model` body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelMeta {
    /// Where the artifact was loaded from, when it came from a file.
    pub path: Option<String>,
    /// Monotonic install counter: 1 for the model the server started with,
    /// bumped by every [`AppState::swap_model`]. Lets clients observe
    /// promotions without comparing fingerprints.
    pub version: u64,
    pub rows: usize,
    pub cols: usize,
    pub clusters: usize,
    pub specified_cells: usize,
    pub avg_residue: f64,
    /// FNV-1a content fingerprint of the served matrix, as fixed-width hex
    /// (the same fingerprint checkpoint resume validates against).
    pub fingerprint: String,
}

impl ModelMeta {
    pub fn of(model: &ServeModel, path: Option<&str>) -> ModelMeta {
        ModelMeta {
            path: path.map(str::to_string),
            version: 1,
            rows: model.matrix().rows(),
            cols: model.matrix().cols(),
            clusters: model.k(),
            specified_cells: model.matrix().specified_count(),
            avg_residue: model.avg_residue(),
            fingerprint: format!("{:016x}", model.matrix().fingerprint()),
        }
    }
}

/// One installed model: the engine and the metadata describing it, bound
/// into a single immutable snapshot.
pub struct Installed {
    pub engine: Arc<QueryEngine>,
    pub meta: ModelMeta,
}

fn read_poisoned<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

fn write_poisoned<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

/// Everything request handlers share. One per server, behind an `Arc`.
pub struct AppState {
    installed: RwLock<Arc<Installed>>,
    /// Next value of [`ModelMeta::version`]; monotonic across swaps.
    next_version: AtomicU64,
    ready: AtomicBool,
    started: Instant,
    /// How many worker threads a batch predict may fan out over.
    pub batch_threads: usize,
    pub metrics: ServerMetrics,
    pub obs: Obs,
    /// Integer gauges rendered on `/metrics` (`set_gauge`).
    gauges: RwLock<BTreeMap<String, u64>>,
    /// Raw-JSON fragments spliced into `/healthz` and `/v1/model`
    /// (`set_status_fragment`). Keys become top-level JSON keys.
    status: RwLock<BTreeMap<String, String>>,
}

impl AppState {
    pub fn new(model: ServeModel, path: Option<&str>, batch_threads: usize, obs: Obs) -> AppState {
        let meta = ModelMeta::of(&model, path);
        AppState {
            installed: RwLock::new(Arc::new(Installed {
                engine: Arc::new(QueryEngine::new(model)),
                meta,
            })),
            next_version: AtomicU64::new(2),
            ready: AtomicBool::new(true),
            started: Instant::now(),
            batch_threads: batch_threads.max(1),
            metrics: ServerMetrics::new(),
            obs,
            gauges: RwLock::new(BTreeMap::new()),
            status: RwLock::new(BTreeMap::new()),
        }
    }

    /// The consistent engine+metadata snapshot a request answers from.
    pub fn installed(&self) -> Arc<Installed> {
        read_poisoned(&self.installed).clone()
    }

    /// The engine snapshot a request should answer from.
    pub fn engine(&self) -> Arc<QueryEngine> {
        self.installed().engine.clone()
    }

    /// Metadata for the model currently installed.
    pub fn meta(&self) -> ModelMeta {
        self.installed().meta.clone()
    }

    /// Whether `/readyz` should answer 200. False during a model swap.
    pub fn is_ready(&self) -> bool {
        self.ready.load(Ordering::Acquire)
    }

    /// Manually flips readiness (e.g. pre-drain in an orchestrator).
    pub fn set_ready(&self, ready: bool) {
        self.ready.store(ready, Ordering::Release);
    }

    /// Seconds since the server started.
    pub fn uptime_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Sets an integer gauge rendered on `/metrics` (JSON `gauges` object
    /// and Prometheus `# TYPE … gauge` samples). Names should be
    /// `snake_case` identifiers.
    pub fn set_gauge(&self, name: &str, value: u64) {
        write_poisoned(&self.gauges).insert(name.to_string(), value);
    }

    /// A point-in-time copy of every gauge.
    pub fn gauges(&self) -> BTreeMap<String, u64> {
        read_poisoned(&self.gauges).clone()
    }

    /// Publishes a raw-JSON fragment under `key` on `/healthz` and
    /// `/v1/model` (e.g. `set_status_fragment("miner", "{\"state\": …}")`).
    /// The fragment must be a complete JSON value; the caller owns its
    /// validity.
    pub fn set_status_fragment(&self, key: &str, fragment: &str) {
        write_poisoned(&self.status).insert(key.to_string(), fragment.to_string());
    }

    /// A point-in-time copy of every status fragment.
    pub fn status_fragments(&self) -> BTreeMap<String, String> {
        read_poisoned(&self.status).clone()
    }

    /// Installs a new model, bumping [`ModelMeta::version`]. Readiness
    /// drops for the duration of the swap and recovers afterwards; queries
    /// already holding a snapshot finish unaffected, and queries arriving
    /// mid-swap answer from whichever complete snapshot the lock hands
    /// them — old or new, never a mix.
    pub fn swap_model(&self, model: ServeModel, path: Option<&str>) -> u64 {
        self.set_ready(false);
        // Held open by chaos tests (delay) to observe /readyz mid-swap, or
        // aborted to simulate a kill at the most hostile instant.
        dc_fault::chaos::safepoint("net.swap.not_ready");
        let mut meta = ModelMeta::of(&model, path);
        let version = self.next_version.fetch_add(1, Ordering::Relaxed);
        meta.version = version;
        let installed = Arc::new(Installed {
            engine: Arc::new(QueryEngine::new(model)),
            meta,
        });
        *write_poisoned(&self.installed) = installed;
        dc_fault::chaos::safepoint("net.swap.installed");
        self.set_ready(true);
        version
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_floc::DeltaCluster;
    use dc_matrix::DataMatrix;

    pub(crate) fn tiny_model(fill: f64) -> ServeModel {
        let mut m = DataMatrix::builder(4, 4).build();
        for r in 0..4 {
            for c in 0..4 {
                m.set(r, c, fill * (r + c) as f64);
            }
        }
        let cluster = DeltaCluster::from_indices(4, 4, 0..4, 0..4);
        ServeModel::new(m, vec![cluster], vec![0.0], 0.0).unwrap()
    }

    #[test]
    fn meta_reports_shape_and_fingerprint() {
        let state = AppState::new(tiny_model(1.0), Some("m.dcm"), 2, Obs::null());
        let meta = state.meta();
        assert_eq!((meta.rows, meta.cols, meta.clusters), (4, 4, 1));
        assert_eq!(meta.path.as_deref(), Some("m.dcm"));
        assert_eq!(meta.fingerprint.len(), 16);
        assert_eq!(meta.version, 1);
        assert!(state.is_ready());
        assert!(state.uptime_secs() >= 0.0);
    }

    #[test]
    fn swap_replaces_engine_and_restores_readiness() {
        let state = AppState::new(tiny_model(1.0), None, 1, Obs::null());
        let before = state.engine().predict(1, 1).unwrap();
        let old_fp = state.meta().fingerprint;
        // A snapshot held across the swap still answers from the old model.
        let held = state.engine();
        let v = state.swap_model(tiny_model(2.0), Some("new.dcm"));
        assert!(state.is_ready());
        assert_eq!(v, 2);
        assert_eq!(state.meta().version, 2);
        assert_ne!(state.meta().fingerprint, old_fp);
        let after = state.engine().predict(1, 1).unwrap();
        assert!((after - 2.0 * before).abs() < 1e-9);
        assert_eq!(held.predict(1, 1).unwrap(), before);
        assert_eq!(state.swap_model(tiny_model(3.0), None), 3);
    }

    /// The engine and metadata of one snapshot always describe the same
    /// model, even while another thread swaps continuously.
    #[test]
    fn installed_snapshot_is_never_torn() {
        let state = Arc::new(AppState::new(tiny_model(1.0), None, 1, Obs::null()));
        let stop = Arc::new(AtomicBool::new(false));
        let swapper = {
            let state = state.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut fill = 2.0;
                while !stop.load(Ordering::Relaxed) {
                    state.swap_model(tiny_model(fill), None);
                    fill += 1.0;
                }
            })
        };
        for _ in 0..2_000 {
            let snap = state.installed();
            let predicted = snap.engine.predict(0, 1).unwrap(); // fill * 1.0
            let expected_fp = format!("{:016x}", snap.engine.model().matrix().fingerprint());
            assert_eq!(snap.meta.fingerprint, expected_fp);
            assert!(predicted >= 1.0);
        }
        stop.store(true, Ordering::Relaxed);
        swapper.join().unwrap();
    }

    #[test]
    fn readiness_is_togglable() {
        let state = AppState::new(tiny_model(1.0), None, 1, Obs::null());
        state.set_ready(false);
        assert!(!state.is_ready());
        state.set_ready(true);
        assert!(state.is_ready());
    }

    #[test]
    fn gauges_and_status_fragments_round_trip() {
        let state = AppState::new(tiny_model(1.0), None, 1, Obs::null());
        assert!(state.gauges().is_empty());
        state.set_gauge("miner_events_total", 41);
        state.set_gauge("miner_events_total", 42);
        state.set_gauge("miner_generation", 3);
        let g = state.gauges();
        assert_eq!(g.get("miner_events_total"), Some(&42));
        assert_eq!(g.get("miner_generation"), Some(&3));

        state.set_status_fragment("miner", "{\"state\": \"running\"}");
        let s = state.status_fragments();
        assert_eq!(
            s.get("miner").map(String::as_str),
            Some("{\"state\": \"running\"}")
        );
    }
}

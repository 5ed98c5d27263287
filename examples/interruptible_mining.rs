//! Interruptible, crash-safe mining: wall-clock budgets, cooperative
//! interrupts, and checkpoint/resume.
//!
//! FLOC is an iterative improvement algorithm, so at any safe boundary the
//! best clustering so far is a perfectly usable answer. This example shows
//! the three robustness levers added around the core loop:
//!
//! 1. a `time_budget` that gracefully degrades to best-so-far,
//! 2. an interrupt flag (the CLI wires this to ctrl-c),
//! 3. checkpoints that resume *bit-identically* — the resumed run finishes
//!    with exactly the clustering an uninterrupted run would have found.
//!
//! Run with: `cargo run --example interruptible_mining`

use delta_clusters::obs::Event;
use delta_clusters::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Raises `interrupt` at the second checkpoint a run publishes: a ctrl-c
/// that lands mid-mining, but deterministically.
struct InterruptAtSecondCheckpoint {
    interrupt: Arc<AtomicBool>,
    seen: AtomicUsize,
}

impl Sink for InterruptAtSecondCheckpoint {
    fn emit(&self, event: &Event<'_>) {
        if FlocCheckpoint::from_event(event).is_some()
            && self.seen.fetch_add(1, Ordering::Relaxed) == 1
        {
            self.interrupt.store(true, Ordering::Relaxed);
        }
    }
}

fn main() {
    // A synthetic matrix with three embedded δ-clusters.
    let cfg = EmbedConfig::new(200, 40, vec![(14, 6); 3]).with_seed(9);
    let data = delta_clusters::datagen::embed::generate(&cfg);
    let matrix = data.matrix;

    // ---- Reference: an uninterrupted run --------------------------------
    let config = FlocConfig::builder(3).seed(9).build();
    let full = floc(&matrix, &config).unwrap();
    println!(
        "uninterrupted: {} iterations, avg residue {:.4}, stopped: {}",
        full.iterations, full.avg_residue, full.stop_reason
    );

    // ---- Lever 1: a wall-clock budget -----------------------------------
    // A zero budget stops before the first iteration; the result is the
    // seeded clustering, clearly labeled as budget-stopped.
    let tight = FlocConfig::builder(3)
        .seed(9)
        .time_budget(Duration::ZERO)
        .build();
    let degraded = floc(&matrix, &tight).unwrap();
    assert_eq!(degraded.stop_reason, StopReason::Budget);
    println!(
        "zero budget:   {} iterations, avg residue {:.4}, stopped: {}",
        degraded.iterations, degraded.avg_residue, degraded.stop_reason
    );

    // ---- Lever 2 + 3: interrupt mid-run, checkpoint, resume -------------
    // A run publishes a resumable snapshot as a `floc.checkpoint` event
    // after every improving iteration; a `CheckpointLog` keeps them. A
    // second sink *raises the interrupt* after the second one.
    let interrupt = Arc::new(AtomicBool::new(false));
    let observed = FlocConfig::builder(3)
        .seed(9)
        .interrupt(interrupt.clone())
        .build();
    let checkpoints = CheckpointLog::new();
    let obs = Obs::fanout(vec![
        Box::new(checkpoints.clone()),
        Box::new(InterruptAtSecondCheckpoint {
            interrupt,
            seen: AtomicUsize::new(0),
        }),
    ]);
    let partial = floc_with(&matrix, &observed, &obs).unwrap();
    assert_eq!(partial.stop_reason, StopReason::Interrupted);
    println!(
        "interrupted:   {} iterations, avg residue {:.4}, stopped: {}",
        partial.iterations, partial.avg_residue, partial.stop_reason
    );

    // Persist the last checkpoint through the CRC-checked atomic `.dck`
    // codec — exactly what `delta-clusters mine --checkpoint` writes.
    let path = std::env::temp_dir().join("interruptible_mining.dck");
    let snapshot = checkpoints.last().unwrap();
    save_checkpoint(&snapshot, &path).unwrap();
    let restored = load_checkpoint(&path).unwrap();
    assert_eq!(restored, snapshot);

    // Resume from disk with a fresh (uninterrupted) config: the run picks
    // up where it left off and lands on the identical clustering.
    let resumed = floc_resume_with(&matrix, &restored, &config, &Obs::null()).unwrap();
    println!(
        "resumed:       {} iterations, avg residue {:.4}, stopped: {}",
        resumed.iterations, resumed.avg_residue, resumed.stop_reason
    );
    assert_eq!(resumed.clusters, full.clusters);
    assert_eq!(resumed.residues, full.residues);
    assert_eq!(resumed.iterations, full.iterations);
    println!("resume is bit-identical to the uninterrupted run ✓");

    let _ = std::fs::remove_file(&path);
}

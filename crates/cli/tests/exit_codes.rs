//! Pins the process exit-code contract of the real binary:
//! 0 success, 1 usage error, 2 data/IO/algorithm error, 3 interrupted.
//! Covers mine, validate, predict, and serve — including the degenerate-
//! cluster path (exit 2) and serve's graceful SIGINT exit (0).
#![cfg(unix)]

use dc_floc::DeltaCluster;
use dc_matrix::DataMatrix;
use dc_serve::ServeModel;
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_delta-clusters");

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(args: &[&str]) -> std::process::Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("failed to launch delta-clusters")
}

fn code(args: &[&str]) -> i32 {
    run(args).status.code().expect("process must not be killed")
}

/// Generates a small matrix + mined model, returning their paths.
fn fixture(dir: &Path) -> (String, String) {
    let data = dir.join("data.tsv").to_str().unwrap().to_string();
    let model = dir.join("model.dcm").to_str().unwrap().to_string();
    let out = run(&[
        "generate",
        &data,
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
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let out = run(&[
        "mine",
        &data,
        "--k",
        "2",
        "--seed",
        "7",
        "--save-model",
        &model,
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    (data, model)
}

#[test]
fn exit_codes_for_mine_validate_predict() {
    let dir = scratch_dir("dc-cli-exit-codes");
    let (data, model) = fixture(&dir);

    // 0: success paths.
    assert_eq!(code(&["help"]), 0);
    assert_eq!(code(&["validate", &data]), 0);
    assert_eq!(code(&["predict", &model, "0", "0"]), 0);

    // 1: usage errors.
    assert_eq!(code(&["frobnicate"]), 1);
    assert_eq!(code(&["mine", &data, "--k", "0"]), 1);
    assert_eq!(code(&["mine", &data, "--alpha", "7"]), 1);
    assert_eq!(code(&["predict", &model, "not-a-row", "0"]), 1);
    assert_eq!(code(&["predict", &model]), 1);

    // 2: data/IO errors.
    assert_eq!(code(&["mine", "/no/such/matrix.tsv", "--k", "2"]), 2);
    assert_eq!(code(&["validate", "/no/such/matrix.tsv"]), 2);
    assert_eq!(code(&["predict", "/no/such/model.dcm", "0", "0"]), 2);
}

/// A model whose only cluster spans zero specified cells can answer
/// nothing but DegenerateCluster: `predict` exits 2 on the query, `serve`
/// refuses at startup with 2.
#[test]
fn degenerate_cluster_exits_2_for_predict_and_serve() {
    let dir = scratch_dir("dc-cli-exit-degenerate");
    let path = dir.join("degenerate.dcm");
    // An entirely-unspecified matrix: the cluster's bases have volume 0.
    let matrix = DataMatrix::builder(4, 4).build();
    let cluster = DeltaCluster::from_indices(4, 4, 0..2, 0..2);
    let model = ServeModel::new(matrix, vec![cluster], vec![0.0], 0.0).unwrap();
    dc_serve::save(&model, &path).unwrap();
    let path = path.to_str().unwrap();

    let out = run(&["predict", path, "0", "0"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no specified entries"), "{stderr}");

    let out = run(&["serve", path, "--addr", "127.0.0.1:0"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("degenerate"), "{stderr}");
}

#[test]
fn serve_usage_and_io_errors() {
    let dir = scratch_dir("dc-cli-exit-serve-errs");
    let (_, model) = fixture(&dir);
    assert_eq!(code(&["serve", "/no/such/model.dcm"]), 2);
    assert_eq!(code(&["serve", &model, "--threads", "0"]), 1);
    assert_eq!(code(&["serve", &model, "--queue-depth", "0"]), 1);
    // Binding a nonsense address is an IO error, not a crash.
    assert_eq!(code(&["serve", &model, "--addr", "999.999.999.999:1"]), 2);
    // A flag cannot stand in for the model file: without it `serve` is a
    // usage error.
    let models = dir.to_str().unwrap();
    assert_eq!(code(&["serve", "--models", models]), 1);
}

/// SIGINT is the normal way to stop `serve`: the server drains and the
/// process exits 0 (unlike `mine`, where an interrupt exits 3).
#[test]
fn serve_exits_0_on_sigint() {
    let dir = scratch_dir("dc-cli-exit-serve-sigint");
    let (_, model) = fixture(&dir);

    let mut child = Command::new(BIN)
        .args(["serve", &model, "--addr", "127.0.0.1:0", "--threads", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("failed to spawn serve");

    // Wait for the readiness line on stderr before signalling.
    let mut stderr = std::io::BufReader::new(child.stderr.take().unwrap());
    let mut line = String::new();
    stderr.read_line(&mut line).unwrap();
    assert!(line.contains("serving"), "unexpected first line: {line:?}");

    let kill = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .expect("failed to run kill");
    assert!(kill.success());

    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(s) = child.try_wait().unwrap() {
            break s;
        }
        assert!(Instant::now() < deadline, "serve did not exit after SIGINT");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(status.code(), Some(0), "SIGINT shutdown must exit 0");

    let mut stdout = String::new();
    std::io::Read::read_to_string(&mut child.stdout.take().unwrap(), &mut stdout).unwrap();
    assert!(stdout.contains("drained cleanly"), "{stdout}");
}

/// The double-SIGINT contract for `serve --mine`: the first SIGINT starts
/// a cooperative drain (server stops accepting, miner stops at its next
/// safe boundary); a second SIGINT force-quits immediately with exit 3.
/// The state directory keeps its last durable checkpoint either way.
#[test]
fn serve_mine_second_sigint_forces_exit_3() {
    let dir = scratch_dir("dc-cli-exit-double-sigint");
    let state = dir.join("state");
    let state_arg = state.to_str().unwrap().to_string();

    let mut child = Command::new(BIN)
        .args([
            "serve",
            "--mine",
            "--state-dir",
            &state_arg,
            "--stream-users",
            "30",
            "--stream-movies",
            "20",
            "--stream-events",
            "5000",
            "--batch",
            "40",
            "--k",
            "2",
            "--alpha",
            "0.5",
            "--seed",
            "7",
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "2",
        ])
        // Every batch stalls 10s at its safe-point, so the miner is parked
        // mid-step when the signals arrive and the drain outlives both.
        .env("DC_CHAOS", "online.miner.batch=delay:10000")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("failed to spawn serve --mine");

    // Skip the miner recovery note; wait for the serving line.
    let mut stderr = std::io::BufReader::new(child.stderr.take().unwrap());
    let mut line = String::new();
    while !line.contains("serving") {
        line.clear();
        assert!(
            stderr.read_line(&mut line).unwrap() > 0,
            "stderr closed before the serving line"
        );
    }

    let pid = child.id().to_string();
    let sigint = |pid: &str| {
        let st = Command::new("kill")
            .args(["-INT", pid])
            .status()
            .expect("failed to run kill");
        assert!(st.success());
    };
    sigint(&pid);
    std::thread::sleep(Duration::from_millis(400));
    assert!(
        child.try_wait().unwrap().is_none(),
        "first SIGINT must drain, not exit"
    );
    sigint(&pid);

    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(s) = child.try_wait().unwrap() {
            break s;
        }
        assert!(
            Instant::now() < deadline,
            "second SIGINT must force an immediate exit"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(
        status.code(),
        Some(3),
        "forced abort reports interrupted-with-checkpoint"
    );

    // The last durable checkpoint survived the forced exit: a restart
    // would resume from it instead of cold starting.
    let has_checkpoint = std::fs::read_dir(&state)
        .unwrap()
        .any(|e| e.unwrap().file_name().to_string_lossy().ends_with(".dck"));
    assert!(has_checkpoint, "no checkpoint survived in {state:?}");
}

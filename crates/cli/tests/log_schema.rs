//! The `--log json` contract: every line `mine` writes to stdout is one
//! JSON object following the documented envelope (`event`, `kind`,
//! `unix_ms`, `elapsed_us` plus flattened event fields), and the stream
//! contains the per-iteration and terminal events tooling relies on.
//! CI runs this same check on every push.

use serde::Value;
use std::path::PathBuf;
use std::process::Command;

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

fn field<'a>(obj: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

#[test]
fn mine_log_json_emits_schema_valid_lines() {
    let dir = scratch_dir("dc-cli-log-schema");
    let data = dir.join("data.tsv");
    let metrics = dir.join("metrics.json");

    let out = run(&[
        "generate",
        data.to_str().unwrap(),
        "--kind",
        "embedded",
        "--rows",
        "60",
        "--cols",
        "16",
        "--clusters",
        "2",
        "--seed",
        "11",
    ]);
    assert!(out.status.success(), "{out:?}");

    let out = run(&[
        "mine",
        data.to_str().unwrap(),
        "--k",
        "2",
        "--seed",
        "11",
        "--log",
        "json",
        "--metrics",
        metrics.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    // Under --log json the human summary moves to stderr; stdout is pure
    // JSON-lines.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("stopped:"),
        "summary not on stderr: {stderr}"
    );

    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().filter(|l| !l.is_empty()).collect();
    assert!(!lines.is_empty(), "no JSON-lines on stdout");

    let mut names: Vec<String> = Vec::new();
    for line in &lines {
        let value = serde_json::parse_value(line)
            .unwrap_or_else(|e| panic!("unparseable log line {line:?}: {e}"));
        let obj = value
            .as_object()
            .unwrap_or_else(|| panic!("log line is not an object: {line:?}"));

        // The envelope every event carries.
        let name = field(obj, "event")
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("missing event name: {line:?}"));
        let kind = field(obj, "kind")
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("missing kind: {line:?}"));
        assert!(kind == "point" || kind == "span", "bad kind in {line:?}");
        assert!(
            field(obj, "unix_ms").and_then(Value::as_u64).is_some(),
            "missing unix_ms: {line:?}"
        );
        assert!(
            field(obj, "elapsed_us").and_then(Value::as_u64).is_some(),
            "missing elapsed_us: {line:?}"
        );
        names.push(name.to_string());
    }

    // The stream must tell the whole mining story: seeding, at least one
    // per-iteration report, and a terminal event with a stop reason.
    assert!(names.iter().any(|n| n == "floc.seeding"), "{names:?}");
    assert!(names.iter().any(|n| n == "floc.iteration"), "{names:?}");
    assert_eq!(names.iter().filter(|n| *n == "floc.done").count(), 1);

    let iteration = lines
        .iter()
        .map(|l| serde_json::parse_value(l).unwrap())
        .find(|v| {
            v.as_object()
                .and_then(|o| field(o, "event"))
                .and_then(Value::as_str)
                == Some("floc.iteration")
        })
        .unwrap();
    let obj = iteration.as_object().unwrap();
    for key in [
        "iteration",
        "duration_nanos",
        "best_prefix_len",
        "actions_performed",
        "actions_skipped",
        "stale_rebuilds",
        "repairs",
        "decide_nanos",
        "wait_nanos",
        "lanes",
        "block_hits",
        "block_misses",
    ] {
        assert!(
            field(obj, key).and_then(Value::as_u64).is_some(),
            "floc.iteration missing {key}: {iteration:?}"
        );
    }
    let lanes = field(obj, "lanes").and_then(Value::as_u64).unwrap();

    // One `floc.lane` event per lane per iteration.
    let lane_events: Vec<Value> = lines
        .iter()
        .map(|l| serde_json::parse_value(l).unwrap())
        .filter(|v| {
            v.as_object()
                .and_then(|o| field(o, "event"))
                .and_then(Value::as_str)
                == Some("floc.lane")
        })
        .collect();
    let iterations = names.iter().filter(|n| *n == "floc.iteration").count();
    assert_eq!(lane_events.len() as u64, lanes * iterations as u64);
    for event in &lane_events {
        let obj = event.as_object().unwrap();
        assert!(
            field(obj, "clusters").is_none(),
            "floc.lane has no clusters"
        );
        for key in [
            "iteration",
            "lane",
            "lines",
            "eval_nanos",
            "rebuild_nanos",
            "apply_nanos",
            "wait_nanos",
            "repairs",
        ] {
            assert!(
                field(obj, key).and_then(Value::as_u64).is_some(),
                "floc.lane missing {key}: {event:?}"
            );
        }
    }
    assert!(
        field(obj, "avg_residue").and_then(Value::as_f64).is_some(),
        "floc.iteration missing avg_residue"
    );

    let done = lines
        .iter()
        .map(|l| serde_json::parse_value(l).unwrap())
        .find(|v| {
            v.as_object()
                .and_then(|o| field(o, "event"))
                .and_then(Value::as_str)
                == Some("floc.done")
        })
        .unwrap();
    let reason = done
        .as_object()
        .and_then(|o| field(o, "stop_reason"))
        .and_then(Value::as_str)
        .expect("floc.done missing stop_reason");
    assert!(!reason.is_empty());
    for key in ["stale_rebuilds", "repairs"] {
        assert!(
            done.as_object()
                .and_then(|o| field(o, key))
                .and_then(Value::as_u64)
                .is_some(),
            "floc.done missing {key}: {done:?}"
        );
    }

    // --metrics wrote an aggregate file alongside the event stream.
    let metrics_text = std::fs::read_to_string(&metrics).expect("metrics.json missing");
    let metrics_value = serde_json::parse_value(&metrics_text).expect("metrics.json unparseable");
    let events = metrics_value
        .as_object()
        .and_then(|o| field(o, "events"))
        .and_then(Value::as_array)
        .expect("metrics.json missing events array");
    assert!(!events.is_empty());
}

#[test]
fn rejected_log_format_is_a_usage_error() {
    let dir = scratch_dir("dc-cli-log-schema-bad");
    let data = dir.join("data.tsv");
    let out = run(&[
        "generate",
        data.to_str().unwrap(),
        "--rows",
        "20",
        "--cols",
        "8",
        "--seed",
        "1",
    ]);
    assert!(out.status.success(), "{out:?}");

    let out = run(&["mine", data.to_str().unwrap(), "--k", "2", "--log", "yaml"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--log"), "{stderr}");
}

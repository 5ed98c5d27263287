//! The benchmark worker: runs one workload for a number of seconds in this
//! (fresh) process and prints one JSON result line. `run.py` builds it,
//! starts it and stamps its result; see README.md.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --server-bin <delta-clusters> --work-dir <dir>
//! ```

mod checks;
mod loadgen;
mod mine;
mod proc;
mod report;
mod serve;
mod spec;
mod stats;

use spec::Workload;
use std::path::PathBuf;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        raw.iter()
            .position(|a| a == flag)
            .and_then(|i| raw.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {flag}"))
    };
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload: get("--workload")?,
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed must be an unsigned integer")?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".into()),
        },
        server_bin: get("--server-bin")?.into(),
        work_dir: get("--work-dir")?.into(),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(workload) = spec::workload(&args.workload) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        std::process::exit(2);
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: {}: {e}", args.work_dir.display());
        std::process::exit(2);
    }
    let run = match workload {
        Workload::Mine(spec) => {
            mine::run(&spec, args.seed, args.seconds, args.trace, &args.work_dir)
        }
        Workload::Serve(spec) => serve::run(
            &spec,
            args.seed,
            args.seconds,
            args.trace,
            &args.server_bin,
            &args.work_dir,
        ),
    };
    let expected = if args.trace {
        spec::PER_LAYER
    } else {
        spec::END_TO_END
    };
    let names: Vec<&str> = run.metrics.iter().map(|r| r.name.as_str()).collect();
    let listed: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
    assert!(
        run.failed > 0 || names == listed,
        "the worker must report exactly the listed metrics"
    );
    println!("{}", run.to_json());
    if run.failed > 0 {
        std::process::exit(1);
    }
}

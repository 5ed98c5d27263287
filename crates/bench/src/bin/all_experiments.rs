//! Runs every table/figure reproduction in sequence and prints the full
//! report (also written to target/experiments/report.txt).
use std::fmt::Write as _;

type Experiment = (&'static str, fn(&dc_bench::Opts) -> String);

fn main() {
    let opts = dc_bench::Opts::from_args();
    let experiments: Vec<Experiment> = vec![
        ("table1", dc_bench::experiments::table1::run),
        ("table2_3", dc_bench::experiments::table2_3::run),
        ("table4", dc_bench::experiments::table4::run),
        ("table5", dc_bench::experiments::table5::run),
        ("fig8", dc_bench::experiments::fig8::run),
        ("fig9", dc_bench::experiments::fig9::run),
        ("fig10", dc_bench::experiments::fig10::run),
        ("yeast", dc_bench::experiments::yeast::run),
        ("ablations", dc_bench::experiments::ablations::run),
        ("baselines", dc_bench::experiments::baselines::run),
        ("floc_perf", dc_bench::experiments::floc_perf::run),
    ];
    let mut report = String::new();
    for (name, run) in experiments {
        eprintln!("== running {name} ==");
        let start = std::time::Instant::now();
        let out = run(&opts);
        let _ = writeln!(report, "{out}");
        eprintln!(
            "== {name} done in {:.1}s ==\n",
            start.elapsed().as_secs_f64()
        );
    }
    println!("{report}");
    let _ = std::fs::create_dir_all(&opts.out_dir);
    let _ = dc_matrix::atomic::atomic_write(opts.out_dir.join("report.txt"), report.as_bytes());
}

//! HTTP serving load generator: an in-process dc-net server on loopback
//! under configurable connections/pipelining. Writes BENCH_http.json under
//! --out (default target/experiments) and publishes it to the repo root.
//! Knobs: --full, --connections N, --pipeline N, --batch N.
fn main() {
    let opts = dc_bench::Opts::from_args();
    println!("{}", dc_bench::experiments::http_bench::run(&opts));
    match dc_bench::publish::publish_to_repo_root(&opts.out_dir.join("BENCH_http.json")) {
        Ok(dest) => eprintln!("published {}", dest.display()),
        Err(e) => eprintln!("warning: could not publish BENCH_http.json: {e}"),
    }
}

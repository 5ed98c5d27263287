//! Shared command-line options for the experiment binaries.

use std::path::PathBuf;

/// Options parsed from the command line of an experiment binary.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Run the paper's exact sizes instead of the scaled-down defaults.
    pub full: bool,
    /// `floc_perf` only: run the full thread-scaling grid (adds the
    /// 100k×100 point) without paying for the full *engine* grid — the
    /// exact engine at the 10k scale dominates a `--full` run's wall clock.
    pub scaling_full: bool,
    /// Where JSON results are written.
    pub out_dir: PathBuf,
    /// Number of gain-evaluation threads handed to FLOC.
    pub threads: usize,
    /// `http_bench` only: concurrent client connections (default picked by
    /// the experiment).
    pub connections: Option<usize>,
    /// `http_bench` only: requests in flight per connection (HTTP
    /// pipelining depth).
    pub pipeline: Option<usize>,
    /// `http_bench` only: predict queries per request body.
    pub batch: Option<usize>,
    /// `floc_perf` only: also measure the named storage backend against
    /// the in-memory baseline (`--backend paged` adds the paged-vs-memory
    /// comparison at the 30k×100 acceptance point).
    pub backend: Option<dc_matrix::BackendKind>,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            full: false,
            scaling_full: false,
            out_dir: PathBuf::from("target/experiments"),
            threads: std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .min(8),
            connections: None,
            pipeline: None,
            batch: None,
            backend: None,
        }
    }
}

impl Opts {
    /// Parses `std::env::args()`: `--full` switches to paper-scale runs,
    /// `--out <dir>` redirects JSON output, `--threads <n>` controls
    /// parallelism.
    pub fn from_args() -> Opts {
        Self::parse(std::env::args().skip(1))
    }

    fn parse<I: Iterator<Item = String>>(mut args: I) -> Opts {
        let mut opts = Opts::default();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--full" => opts.full = true,
                "--scaling-full" => opts.scaling_full = true,
                "--out" => {
                    if let Some(dir) = args.next() {
                        opts.out_dir = PathBuf::from(dir);
                    }
                }
                "--threads" => {
                    if let Some(n) = args.next().and_then(|s| s.parse().ok()) {
                        opts.threads = n;
                    }
                }
                "--connections" => {
                    opts.connections = args.next().and_then(|s| s.parse().ok());
                }
                "--pipeline" => {
                    opts.pipeline = args.next().and_then(|s| s.parse().ok());
                }
                "--batch" => {
                    opts.batch = args.next().and_then(|s| s.parse().ok());
                }
                "--backend" => {
                    opts.backend = args.next().and_then(|s| s.parse().ok());
                }
                other => eprintln!("ignoring unknown argument: {other}"),
            }
        }
        opts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Opts {
        Opts::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let o = parse(&[]);
        assert!(!o.full);
        assert_eq!(o.out_dir, PathBuf::from("target/experiments"));
        assert!(o.threads >= 1);
    }

    #[test]
    fn full_flag() {
        assert!(parse(&["--full"]).full);
        assert!(!parse(&["--full"]).scaling_full);
        assert!(parse(&["--scaling-full"]).scaling_full);
    }

    #[test]
    fn out_and_threads() {
        let o = parse(&["--out", "/tmp/x", "--threads", "3"]);
        assert_eq!(o.out_dir, PathBuf::from("/tmp/x"));
        assert_eq!(o.threads, 3);
    }

    #[test]
    fn unknown_args_ignored() {
        let o = parse(&["--bogus", "--full"]);
        assert!(o.full);
    }

    #[test]
    fn http_bench_knobs() {
        let o = parse(&["--connections", "8", "--pipeline", "4", "--batch", "128"]);
        assert_eq!(o.connections, Some(8));
        assert_eq!(o.pipeline, Some(4));
        assert_eq!(o.batch, Some(128));
        assert_eq!(parse(&[]).connections, None);
    }

    #[test]
    fn backend_flag() {
        use dc_matrix::BackendKind;
        assert_eq!(
            parse(&["--backend", "paged"]).backend,
            Some(BackendKind::Paged)
        );
        assert_eq!(
            parse(&["--backend", "memory"]).backend,
            Some(BackendKind::Memory)
        );
        assert_eq!(parse(&["--backend", "bogus"]).backend, None);
        assert_eq!(parse(&[]).backend, None);
    }
}

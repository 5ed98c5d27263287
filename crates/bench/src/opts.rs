//! Shared command-line options for the experiment binaries.

use std::path::PathBuf;

/// Options parsed from the command line of an experiment binary.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Run the paper's exact sizes instead of the scaled-down defaults.
    pub full: bool,
    /// Where JSON results are written.
    pub out_dir: PathBuf,
    /// Number of gain-evaluation threads handed to FLOC.
    pub threads: usize,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            full: false,
            out_dir: PathBuf::from("target/experiments"),
            threads: std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .min(8),
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
}

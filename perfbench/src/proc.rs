//! Process plumbing: peak resident set of a process, and a child server that
//! is always stopped and reaped.

use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Peak resident set (`VmHWM`) of process `pid` in MiB, from
/// `/proc/<pid>/status`. Every workload runs in a fresh process, so the
/// high-water mark belongs to that workload alone.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGINT: i32 = 2;

/// A running `delta-clusters serve` process. Dropping it stops and reaps it.
pub struct Server {
    child: Child,
    /// The `host:port` the server bound.
    pub addr: String,
}

impl Server {
    /// Starts `bin serve <model> --threads <threads>` on an ephemeral
    /// loopback port and waits until `GET /readyz` answers 200.
    pub fn start(bin: &Path, model: &Path, threads: usize, log: &Path) -> Result<Server, String> {
        let stderr = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let child = Command::new(bin)
            .arg("serve")
            .arg(model)
            .args(["--threads", &threads.to_string(), "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut server = Server {
            child,
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        // The readiness line on stderr carries the bound address.
        while server.addr.is_empty() {
            if let Some(status) = server.child.try_wait().map_err(|e| e.to_string())? {
                return Err(format!("server exited early ({status})"));
            }
            if Instant::now() > deadline {
                return Err("server never reported its address".into());
            }
            let text = std::fs::read_to_string(log).unwrap_or_default();
            // Only a complete line: the address may arrive in pieces.
            if let Some((line, _)) = text.split_once('\n') {
                if let Some(rest) = line.split(" on http://").nth(1) {
                    server.addr = rest.split_whitespace().next().unwrap_or("").to_string();
                    if server.addr.is_empty() {
                        return Err(format!("no address in {line:?}"));
                    }
                    break;
                }
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        while !server.ready() {
            if Instant::now() > deadline {
                return Err("server never became ready".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(server)
    }

    fn ready(&self) -> bool {
        dc_net::HttpClient::connect(self.addr.as_str())
            .and_then(|mut c| c.get("/readyz"))
            .is_ok_and(|r| r.status == 200)
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Stops the server with SIGINT (its graceful drain), falling back to
    /// SIGKILL after `grace`, and reaps it.
    pub fn stop(&mut self, grace: Duration) {
        if let Ok(Some(_)) = self.child.try_wait() {
            return;
        }
        let pid = i32::try_from(self.child.id()).expect("pids fit in i32");
        // SAFETY: `kill` has no memory-safety preconditions; `pid` is our own
        // child, which has not been reaped yet, so the id cannot be reused.
        unsafe { kill(pid, SIGINT) };
        let deadline = Instant::now() + grace;
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop(Duration::from_secs(5));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};

    /// A child that writes 256 MiB and waits must read as at least that
    /// much, and not much more (an interpreter is a few MiB).
    #[test]
    fn reads_a_childs_known_allocation() {
        let mut child = Command::new("python3")
            .args([
                "-c",
                "import sys\nb = b'x' * (256 << 20)\nprint('ready', flush=True)\nsys.stdin.read()",
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("python3 runs the benchmark, so it is present");
        let mut line = String::new();
        BufReader::new(child.stdout.take().unwrap())
            .read_line(&mut line)
            .unwrap();
        assert_eq!(line.trim(), "ready");
        let peak = peak_rss_mb(child.id()).unwrap();
        child.stdin.take().unwrap().write_all(b"done").unwrap();
        child.wait().unwrap();
        assert!((256.0..256.0 + 64.0).contains(&peak), "peak {peak} MiB");
        // This process never allocated the child's buffer.
        assert!(peak_rss_mb(std::process::id()).unwrap() < peak);
    }
}

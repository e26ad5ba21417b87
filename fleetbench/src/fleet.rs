//! Building and running the daemons: release `sjserved` workers and the
//! `sjrouted` router in front of them, on loopback ports the kernel
//! picks.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a daemon may take to print its listening banner.
const BANNER_TIMEOUT: Duration = Duration::from_secs(60);

/// Paths of the release daemon binaries.
pub struct Binaries {
    pub serverd: PathBuf,
    pub routed: PathBuf,
}

/// Build the release daemons from the checkout in the working directory
/// (a no-op when they are up to date) and locate them.
pub fn build_daemons() -> Result<Binaries, String> {
    if !Path::new("Cargo.toml").is_file() || !Path::new("src/bin/sjserved.rs").is_file() {
        return Err("run from the root of a ScrubJay checkout".into());
    }
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(&cargo)
        .args(["build", "--offline", "--release", "--quiet"])
        .args(["--bin", "sjserved", "--bin", "sjrouted"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("{cargo}: {e}"))?;
    if !status.success() {
        return Err(format!("building the daemons failed ({status})"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let bins = Binaries {
        serverd: target.join("release/sjserved"),
        routed: target.join("release/sjrouted"),
    };
    for bin in [&bins.serverd, &bins.routed] {
        if !bin.is_file() {
            return Err(format!("{} missing after the build", bin.display()));
        }
    }
    Ok(bins)
}

/// One spawned daemon. Dropping it kills the process by its PID and
/// reaps it.
pub struct Daemon {
    name: String,
    child: Child,
    log_path: PathBuf,
    banner: mpsc::Receiver<String>,
    log_thread: Option<JoinHandle<()>>,
    pub addr: String,
}

impl Daemon {
    /// Spawn `bin args..`, copying its stderr to `log_path` and watching
    /// it for `<banner><addr>`. Call [`Daemon::wait_ready`] before use.
    pub fn start(
        name: &str,
        bin: &Path,
        args: &[String],
        banner: &'static str,
        log_path: PathBuf,
    ) -> Result<Daemon, String> {
        let mut log =
            std::fs::File::create(&log_path).map_err(|e| format!("{}: {e}", log_path.display()))?;
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("piped stderr");
        let (tx, rx) = mpsc::channel();
        let log_thread = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                let _ = writeln!(log, "{line}");
                if let Some(addr) = line.strip_prefix(banner) {
                    let _ = tx.send(addr.trim().to_string());
                }
            }
        });
        Ok(Daemon {
            name: name.to_string(),
            child,
            log_path,
            banner: rx,
            log_thread: Some(log_thread),
            addr: String::new(),
        })
    }

    /// Block until the daemon announces its address. A daemon that exits
    /// first fails the run.
    pub fn wait_ready(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + BANNER_TIMEOUT;
        loop {
            match self.banner.recv_timeout(Duration::from_millis(2)) {
                Ok(addr) => {
                    self.addr = addr;
                    return Ok(());
                }
                Err(mpsc::RecvTimeoutError::Timeout) if Instant::now() < deadline => {
                    self.check_alive()?
                }
                Err(_) => {
                    self.check_alive()?;
                    return Err(format!(
                        "{} never announced its address (log: {})",
                        self.name,
                        self.log_path.display()
                    ));
                }
            }
        }
    }

    /// Fail if the daemon has exited.
    pub fn check_alive(&mut self) -> Result<(), String> {
        match self.child.try_wait() {
            Ok(None) => Ok(()),
            Ok(Some(status)) => Err(format!(
                "{} exited early ({status}; log: {})",
                self.name,
                self.log_path.display()
            )),
            Err(e) => Err(format!("{}: {e}", self.name)),
        }
    }

    /// The daemon's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        vmhwm_kb(&status)
            .map(|kb| kb as f64 / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM line"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(t) = self.log_thread.take() {
            let _ = t.join();
        }
    }
}

/// Parse the `VmHWM:` line of a `/proc/<pid>/status` text, in kB.
pub fn vmhwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// Two workers serving one catalog directory, and a router in front.
pub struct Fleet {
    pub workers: Vec<Daemon>,
    pub router: Daemon,
}

impl Fleet {
    /// Boot the fleet: both workers start loading at once, then the
    /// router fetches their catalogs.
    pub fn boot(
        bins: &Binaries,
        data: &Path,
        worker_flags: &[&str],
        logs: &Path,
    ) -> Result<Fleet, String> {
        let mut workers = (0..2)
            .map(|i| {
                let mut args: Vec<String> = vec![
                    "--data".into(),
                    data.display().to_string(),
                    "--addr".into(),
                    "127.0.0.1:0".into(),
                ];
                args.extend(worker_flags.iter().map(|f| f.to_string()));
                Daemon::start(
                    &format!("sjserved #{i}"),
                    &bins.serverd,
                    &args,
                    "sjserved listening on ",
                    logs.join(format!("worker{i}.log")),
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        for w in &mut workers {
            w.wait_ready()?;
        }
        let addrs: Vec<&str> = workers.iter().map(|w| w.addr.as_str()).collect();
        let mut router = Daemon::start(
            "sjrouted",
            &bins.routed,
            &[
                "--workers".into(),
                addrs.join(","),
                "--addr".into(),
                "127.0.0.1:0".into(),
            ],
            "sjrouted listening on ",
            logs.join("router.log"),
        )?;
        router.wait_ready()?;
        Ok(Fleet { workers, router })
    }

    /// Fail if any daemon has exited.
    pub fn check_alive(&mut self) -> Result<(), String> {
        for d in self.workers.iter_mut().chain([&mut self.router]) {
            d.check_alive()?;
        }
        Ok(())
    }

    /// Sum of the three daemons' peak resident sets, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        self.workers
            .iter()
            .chain([&self.router])
            .map(Daemon::peak_rss_mb)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vmhwm_from_proc_status() {
        let status =
            "Name:\tsjserved\nVmPeak:\t  912340 kB\nVmHWM:\t  287104 kB\nVmRSS:\t  280000 kB\n";
        assert_eq!(vmhwm_kb(status), Some(287_104));
        assert_eq!(vmhwm_kb("Name:\tx\nVmRSS:\t 1 kB\n"), None);
        assert_eq!(vmhwm_kb("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn reads_this_process_peak_rss() {
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        assert!(vmhwm_kb(&status).unwrap() > 0);
    }
}

//! Process facts and the run's scratch directory.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Peak resident set size of this process (`VmHWM`), MB.
///
/// # Errors
///
/// Fails where `/proc/self/status` is missing or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status").map_err(|e| format!("peak RSS: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "peak RSS: no VmHWM in /proc/self/status".to_string())
}

/// The directory that holds one run's spill and artifact stores:
/// `.bench_scratch/kodan-benchmark-<workload>-<pid>` under the working
/// directory, so two runs never share state and nothing is written
/// outside the checkout. Removed (with `.bench_scratch` once empty) on
/// drop.
#[derive(Debug)]
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// Creates the scratch directory of a run of `workload`.
    ///
    /// # Errors
    ///
    /// Fails when the directory cannot be created.
    pub fn create(workload: &str) -> io::Result<Scratch> {
        let dir = Path::new(".bench_scratch")
            .join(format!("kodan-benchmark-{workload}-{}", std::process::id()));
        fs::create_dir_all(&dir)?;
        Ok(Scratch { dir })
    }

    /// The scratch directory.
    pub fn path(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        fs::remove_dir_all(&self.dir).ok();
        if let Some(parent) = self.dir.parent() {
            // Fails (and is ignored) while another run still uses it.
            fs::remove_dir(parent).ok();
        }
    }
}

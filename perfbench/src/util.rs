//! Statistics, the machine tag, peak memory and the run's work directory.

use std::path::{Path, PathBuf};

/// The `q`-quantile of `values` by linear interpolation between closest
/// ranks. `values` must be non-empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted_quantile(&sorted, q)
}

/// [`quantile`] of values already sorted ascending.
pub fn sorted_quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// A systematic sample of a stream of values in memory fixed up front:
/// every value while fewer than `cap` have been seen, then every
/// `stride`-th, the stride doubling (and every other kept value dropped)
/// each time the buffer fills. The kept values stay spread evenly over
/// the whole stream, and the memory is touched before the first value,
/// so it does not grow with the number of values.
pub struct Samples {
    kept: Vec<f64>,
    stride: u64,
    seen: u64,
}

impl Samples {
    /// `cap` must be even.
    pub fn with_capacity(cap: usize) -> Samples {
        assert!(
            cap >= 2 && cap.is_multiple_of(2),
            "sample capacity must be even"
        );
        // Writing every slot touches the pages now rather than as the
        // run fills them.
        let mut kept = vec![f64::NAN; cap];
        kept.clear();
        Samples {
            kept,
            stride: 1,
            seen: 0,
        }
    }

    pub fn push(&mut self, value: f64) {
        if self.seen.is_multiple_of(self.stride) {
            if self.kept.len() == self.kept.capacity() {
                self.halve();
            }
            if self.seen.is_multiple_of(self.stride) {
                self.kept.push(value);
            }
        }
        self.seen += 1;
    }

    /// Keep every other value and double the stride.
    fn halve(&mut self) {
        let mut i = 0;
        self.kept.retain(|_| {
            i += 1;
            i % 2 == 1
        });
        self.stride *= 2;
    }

    /// Values pushed, kept or not.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Pool `parts` into `into` (cleared first), thinning each part to
    /// the largest stride among them so every pooled value stands for
    /// the same number of pushed ones, and sort it.
    pub fn pool(parts: &mut [Samples], into: &mut Vec<f64>) {
        let stride = parts.iter().map(|p| p.stride).max().unwrap_or(1);
        into.clear();
        for part in parts.iter_mut() {
            while part.stride < stride {
                part.halve();
            }
            into.extend_from_slice(&part.kept);
        }
        into.sort_by(f64::total_cmp);
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Logical CPUs the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The machine tag printed with every result.
pub fn machine_tag() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!("nproc={} cpu=\"{cpu}\" profile={profile}", nproc())
}

/// Peak resident set size (VmHWM) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Reset this process's peak resident set size (VmHWM) to its current
/// resident size; false where the kernel does not allow it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The run's work directory, under the current directory (the
/// checkout root), removed when dropped.
pub struct WorkDir {
    root: PathBuf,
}

impl WorkDir {
    pub fn create(label: &str) -> std::io::Result<WorkDir> {
        let root = std::env::current_dir()?
            .join(".perfbench_run")
            .join("work")
            .join(format!("{label}-{}", std::process::id()));
        if root.exists() {
            std::fs::remove_dir_all(&root)?;
        }
        std::fs::create_dir_all(&root)?;
        Ok(WorkDir { root })
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    /// A fresh, empty archive tree path under the work directory.
    pub fn tree(&self, name: &str) -> PathBuf {
        let path = self.root.join(name);
        let _ = std::fs::remove_dir_all(&path);
        path
    }

    /// Filesystem type the archive trees are written to, from the
    /// longest mount point in `/proc/self/mountinfo` that contains them.
    pub fn filesystem(&self) -> String {
        let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
            return "unknown".into();
        };
        let mut best: Option<(usize, String)> = None;
        for line in info.lines() {
            let fields: Vec<&str> = line.split(' ').collect();
            let Some(dash) = fields.iter().position(|f| *f == "-") else {
                continue;
            };
            let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(dash + 1)) else {
                continue;
            };
            if self.root.starts_with(Path::new(mount))
                && best.as_ref().is_none_or(|(len, _)| mount.len() > *len)
            {
                best = Some((mount.len(), (*fstype).to_owned()));
            }
        }
        best.map_or_else(|| "unknown".into(), |(_, fs)| fs)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Remove the shared parents too once no other run uses them.
        if let Some(work) = self.root.parent() {
            let _ = std::fs::remove_dir(work);
            if let Some(run) = work.parent() {
                let _ = std::fs::remove_dir(run);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn samples_thin_evenly_in_fixed_memory() {
        let mut small = Samples::with_capacity(8);
        for v in 0..5 {
            small.push(v as f64);
        }
        assert_eq!(small.kept, [0.0, 1.0, 2.0, 3.0, 4.0]);

        let mut big = Samples::with_capacity(8);
        for v in 0..20 {
            big.push(v as f64);
        }
        // Stride 4 after two halvings: every fourth value of the stream.
        assert_eq!(big.kept, [0.0, 4.0, 8.0, 12.0, 16.0]);
        assert_eq!(big.kept.capacity(), 8);
        assert_eq!(big.seen(), 20);

        let mut pooled = Vec::new();
        Samples::pool(&mut [small, big], &mut pooled);
        // The small part is thinned to stride 4 as well.
        assert_eq!(pooled, [0.0, 0.0, 4.0, 4.0, 8.0, 12.0, 16.0]);
    }
}

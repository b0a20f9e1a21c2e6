//! What the benchmark reads about the process and the machine: CPU time
//! and peak resident memory from `/proc/self`, and the fingerprint printed
//! with every result so that only like is compared with like.

use crate::json::Json;
use std::path::Path;
use std::process::Command;

/// Clock ticks per second of the `/proc/self/stat` CPU counters
/// (`USER_HZ`, 100 on every Linux architecture this runs on).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds this process has used, from
/// `/proc/self/stat`; `None` where the file is missing or malformed.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may hold spaces; fields after it are
    // counted from its closing parenthesis. utime and stime are fields 14
    // and 15, i.e. the 12th and 13th after the parenthesis.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Peak resident set size (`VmHWM`) in MiB; `None` where unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// The machine a result was measured on.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// Cores available to this process.
    pub nproc: usize,
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc -V` of the compiler on the path.
    pub rustc: String,
    /// Filesystem type the data directory lives on.
    pub data_fs: String,
    /// Threads the workload runs its measured work on.
    pub threads: usize,
}

impl Fingerprint {
    /// Reads the fingerprint for a workload running on `threads` threads
    /// with its data directory under `data_dir`.
    pub fn read(threads: usize, data_dir: &Path) -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let rustc = Command::new("rustc")
            .arg("-V")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            rustc,
            data_fs: filesystem_of(data_dir).unwrap_or_else(|| "unknown".into()),
            threads,
        }
    }

    /// The fingerprint as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("nproc".into(), Json::Num(self.nproc as f64)),
            ("cpu".into(), Json::Str(self.cpu.clone())),
            ("rustc".into(), Json::Str(self.rustc.clone())),
            ("data_fs".into(), Json::Str(self.data_fs.clone())),
            ("threads".into(), Json::Num(self.threads as f64)),
        ])
    }
}

/// The filesystem type of the mount holding `path` (the longest mount
/// point in `/proc/self/mountinfo` that prefixes it).
fn filesystem_of(path: &Path) -> Option<String> {
    let path = path.canonicalize().ok()?;
    let info = std::fs::read_to_string("/proc/self/mountinfo").ok()?;
    info.lines()
        .filter_map(|line| {
            // Fields: id parent major:minor root mount-point options ...
            // " - " fstype source super-options.
            let (head, tail) = line.split_once(" - ")?;
            let mount = unescape_mount(head.split(' ').nth(4)?);
            let fstype = tail.split(' ').next()?;
            path.starts_with(&mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fstype)| fstype)
}

/// Mount points escape space, tab, newline and backslash as octal.
fn unescape_mount(s: &str) -> String {
    s.replace("\\040", " ")
        .replace("\\011", "\t")
        .replace("\\012", "\n")
        .replace("\\134", "\\")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_counters_read_back() {
        assert!(cpu_seconds().is_some_and(|s| s >= 0.0));
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
    }

    #[test]
    fn the_root_filesystem_has_a_type() {
        assert!(filesystem_of(Path::new("/")).is_some_and(|t| !t.is_empty()));
        assert_eq!(unescape_mount("/mnt/a\\040b"), "/mnt/a b");
    }
}

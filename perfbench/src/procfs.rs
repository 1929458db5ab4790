//! Host fingerprint and process counters, read from `/proc`.

use std::fs;

/// Linux reports `/proc/<pid>/stat` CPU times in USER_HZ ticks, which is
/// 100 per second on every architecture this builds for.
const USER_HZ: f64 = 100.0;

fn read(path: &str) -> String {
    fs::read_to_string(path).unwrap_or_default()
}

/// The value of `key:` in a `/proc/.../status`-style file.
fn status_field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Where the run happened: printed with every result.
#[derive(Debug, Clone)]
pub struct Host {
    /// Online processors listed in `/proc/cpuinfo`.
    pub nproc: usize,
    /// The first `model name` in `/proc/cpuinfo` (or `unknown`).
    pub cpu_model: String,
    /// `/proc/sys/kernel/osrelease`.
    pub kernel: String,
}

impl Host {
    /// Reads the fingerprint.
    pub fn read() -> Host {
        let cpuinfo = read("/proc/cpuinfo");
        let nproc = cpuinfo
            .lines()
            .filter(|l| l.starts_with("processor"))
            .count();
        let cpu_model = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .and_then(|rest| rest.split_once(':'))
            .map_or("unknown".to_string(), |(_, v)| v.trim().to_string());
        Host {
            nproc,
            cpu_model,
            kernel: read("/proc/sys/kernel/osrelease").trim().to_string(),
        }
    }
}

/// The 1-, 5- and 15-minute load averages from `/proc/loadavg`.
pub fn loadavg() -> String {
    read("/proc/loadavg")
        .split_whitespace()
        .take(3)
        .collect::<Vec<_>>()
        .join("/")
}

/// Peak resident set size (`VmHWM`) of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    status_field(&read("/proc/self/status"), "VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Cumulative process counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// User + system CPU time of every thread, live or exited, µs.
    pub cpu_us: f64,
    /// Voluntary + involuntary context switches summed over live threads.
    pub ctx_switches: u64,
    /// Live threads.
    pub threads: u64,
}

impl Counters {
    /// Reads the counters now.
    pub fn read() -> Counters {
        // Fields after the parenthesised command name: utime and stime
        // are the 12th and 13th (fields 14 and 15 of the whole line).
        let stat = read("/proc/self/stat");
        let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
        let fields: Vec<&str> = after_comm.split_whitespace().collect();
        let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<u64>().ok());
        let cpu_ticks = ticks(11).unwrap_or(0) + ticks(12).unwrap_or(0);
        let ctx_switches = fs::read_dir("/proc/self/task")
            .map(|tasks| {
                tasks
                    .flatten()
                    .map(|task| {
                        let text = read(&format!("{}/status", task.path().display()));
                        status_field(&text, "voluntary_ctxt_switches").unwrap_or(0)
                            + status_field(&text, "nonvoluntary_ctxt_switches").unwrap_or(0)
                    })
                    .sum()
            })
            .unwrap_or(0);
        Counters {
            cpu_us: cpu_ticks as f64 / USER_HZ * 1e6,
            ctx_switches,
            threads: status_field(&read("/proc/self/status"), "Threads").unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse() {
        let text = "Name:\tx\nVmHWM:\t  2048 kB\nThreads:\t7\n";
        assert_eq!(status_field(text, "VmHWM"), Some(2048));
        assert_eq!(status_field(text, "Threads"), Some(7));
        assert_eq!(status_field(text, "Missing"), None);
    }

    #[test]
    fn this_process_reads_sensibly() {
        let host = Host::read();
        assert!(host.nproc >= 1);
        assert!(peak_rss_mb() > 0.0);
        let counters = Counters::read();
        assert!(counters.threads >= 1);
    }
}

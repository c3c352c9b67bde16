//! Process CPU time and peak memory from `/proc/self`, plus the host facts
//! every result line echoes.

use std::fs;

/// Kernel clock ticks per second in `/proc/<pid>/stat`. `USER_HZ` is 100 on
/// every Linux ABI; reading it properly needs `sysconf`, which would need
/// libc.
const TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds of the whole process (all threads, exited ones
/// included) from the text of `/proc/self/stat`.
pub fn parse_cpu_secs(stat: &str) -> Option<f64> {
    // The command name (field 2) may hold spaces and parentheses; the fields
    // after the *last* ')' are unambiguous. utime and stime are fields 14 and
    // 15, i.e. the 12th and 13th after the command name.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SEC)
}

/// Peak resident set size in MiB from the text of `/proc/self/status`.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_ascii_whitespace();
    let kib: u64 = parts.next()?.parse().ok()?;
    (parts.next()? == "kB").then_some(kib as f64 / 1024.0)
}

/// CPU seconds consumed by this process so far.
pub fn cpu_secs() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .as_deref()
        .and_then(parse_cpu_secs)
        .expect("/proc/self/stat is readable and well-formed on Linux")
}

/// Peak resident set size of this process so far, MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .as_deref()
        .and_then(parse_vm_hwm_mib)
        .expect("/proc/self/status carries VmHWM on Linux")
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The checkout's git revision, read from `.git` without running git (the
/// driver's checkout is not a repository: `"unknown"` there).
pub fn git_rev() -> String {
    let head = match fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let rev = match head.strip_prefix("ref: ") {
        Some(reference) => fs::read_to_string(format!(".git/{reference}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| reference.to_string()),
        None => head,
    };
    rev.chars().take(12).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_survives_a_hostile_command_name() {
        // 14th and 15th fields are utime=250 and stime=50 ticks.
        let stat = "4242 (a b) c) R 1 4242 4242 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 3 0 \
                    1000 1000000 200 18446744073709551615";
        assert_eq!(parse_cpu_secs(stat), Some(3.0));
        assert_eq!(parse_cpu_secs("no parenthesis here"), None);
        assert_eq!(parse_cpu_secs("1 (x) R 1 2 3"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib_and_reported_in_mib() {
        let status = "Name:\tx\nVmPeak:\t  999999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(200.0));
        assert_eq!(parse_vm_hwm_mib("VmRSS:\t 1000 kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t 12 pages\n"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(cpu_secs() >= 0.0);
        assert!(peak_rss_mib() > 0.0);
        assert!(nproc() >= 1);
    }
}

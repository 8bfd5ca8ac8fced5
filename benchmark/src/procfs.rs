//! Process accounting read from `/proc/self`: CPU time and peak
//! resident memory.

/// Kernel clock ticks per second in `/proc/<pid>/stat`. `USER_HZ` is
/// 100 on every Linux ABI; reading it properly needs `sysconf`, which
/// needs a libc binding this crate does not have.
const TICKS_PER_SECOND: f64 = 100.0;

/// User plus system ticks from the one line of `/proc/<pid>/stat`. The
/// command name sits in parentheses and may itself hold spaces and
/// parentheses, so fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // `state` is field 3 and the first here; utime and stime are 14, 15.
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    utime.checked_add(stime)
}

/// `VmHWM` (peak resident set) in KiB from `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// CPU seconds (user + system, all threads) this process has used.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    parse_stat_cpu_ticks(&stat)
        .map(|t| t as f64 / TICKS_PER_SECOND)
        .ok_or_else(|| "/proc/self/stat: no utime/stime fields".to_string())
}

/// Peak resident set of this process so far, MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    parse_vm_hwm_kib(&status)
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| "/proc/self/status: no VmHWM line".to_string())
}

/// Filesystem type of the mount that holds `path`, from `/proc/mounts`
/// (longest mount-point prefix wins).
pub fn filesystem_of(path: &std::path::Path) -> String {
    let Ok(abs) = path.canonicalize() else { return "unknown".into() };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else { return "unknown".into() };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_ascii_whitespace();
            let (_dev, point, fstype) = (f.next()?, f.next()?, f.next()?);
            abs.starts_with(point).then(|| (point.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fstype)| fstype)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_awkward_command_name() {
        let line = "4242 (grid bank) (x)) S 1 4242 4242 0 -1 4194304 100 0 0 0 \
                    1234 66 0 0 20 0 5 0 100 1000000 250 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(line), Some(1300));
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None);
        assert_eq!(parse_stat_cpu_ticks("no parenthesis"), None);
    }

    #[test]
    fn vm_hwm_line() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(20480));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(cpu_seconds().unwrap() >= 0.0);
        assert!(peak_rss_mib().unwrap() > 0.5);
    }
}

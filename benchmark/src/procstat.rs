//! Process counters from `/proc/self` (Linux): CPU ticks, minor faults,
//! peak resident set.

/// Cumulative user/system CPU and minor page faults of this process.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcStat {
    pub utime_ticks: u64,
    pub stime_ticks: u64,
    pub minflt: u64,
}

impl ProcStat {
    /// Read `/proc/self/stat`.
    pub fn now() -> ProcStat {
        let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat");
        parse_stat(&stat).expect("fields of /proc/self/stat")
    }

    pub fn since(&self, earlier: &ProcStat) -> ProcStat {
        ProcStat {
            utime_ticks: self.utime_ticks - earlier.utime_ticks,
            stime_ticks: self.stime_ticks - earlier.stime_ticks,
            minflt: self.minflt - earlier.minflt,
        }
    }

    pub fn add(&mut self, d: &ProcStat) {
        self.utime_ticks += d.utime_ticks;
        self.stime_ticks += d.stime_ticks;
        self.minflt += d.minflt;
    }

    /// CPU milliseconds at the kernel's USER_HZ of 100.
    pub fn cpu_ms(&self) -> f64 {
        (self.utime_ticks + self.stime_ticks) as f64 * 10.0
    }
}

/// Fields after the parenthesised command name (which may hold spaces):
/// state is field 3, minflt 10, utime 14, stime 15 (1-based, `man proc`).
fn parse_stat(s: &str) -> Option<ProcStat> {
    let rest = &s[s.rfind(')')? + 1..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    Some(ProcStat {
        minflt: f.get(7)?.parse().ok()?,
        utime_ticks: f.get(11)?.parse().ok()?,
        stime_ticks: f.get(12)?.parse().ok()?,
    })
}

/// Peak resident set size (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_line_with_spaces_in_comm() {
        let line = "42 (dip bench) R 1 42 42 0 -1 4194304 1234 0 0 0 250 31 0 0 20 0 2 0 100 1 1";
        let p = parse_stat(line).unwrap();
        assert_eq!((p.minflt, p.utime_ticks, p.stime_ticks), (1234, 250, 31));
        assert_eq!(p.cpu_ms(), 2810.0);
    }
}

//! Process-level readings from `/proc`: CPU time and peak resident memory.

use std::fs;

/// Kernel clock ticks per second for the times in `/proc/<pid>/stat`. `USER_HZ` is
/// 100 on every Linux architecture this benchmark runs on; the standard library
/// offers no `sysconf`.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds consumed so far by every thread of this process, live or
/// already joined. Resolution is one tick (10 ms), so callers difference it over
/// windows of seconds.
pub fn process_cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The second field is the command in parentheses and may contain spaces; fields
    // are counted from the closing parenthesis. utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("command field in /proc/self/stat") + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut ticks = || -> f64 {
        fields.next().and_then(|f| f.parse().ok()).expect("cpu time field in /proc/self/stat")
    };
    (ticks() + ticks()) / TICKS_PER_SECOND
}

/// Peak resident set size of this process in megabytes (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).expect("VmHWM in status");
    let kb: f64 = line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM value in kB");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let before = process_cpu_seconds();
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_seconds() - before >= 0.03);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.5);
    }
}

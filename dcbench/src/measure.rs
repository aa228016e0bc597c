//! Measurement primitives: sample statistics, `/proc` readers, and the
//! calibration loop.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Median, minimum and maximum of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (mean of the two middle samples when `n` is even).
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

/// Summarises `samples`; `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let (first, last) = (*sorted.first()?, *sorted.last()?);
    let median = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    };
    Some(Summary {
        n,
        median,
        min: first,
        max: last,
    })
}

/// `VmHWM` (peak resident set) in kB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may contain spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // after the command: state is field 3, utime 14, stime 15
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set of this process in MB (0 where `/proc` is missing).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_vm_hwm_kb(&status).unwrap_or(0) as f64 / 1024.0
}

/// CPU seconds this process has consumed. Linux reports ticks of
/// `USER_HZ`, which is 100 on every supported architecture.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    parse_cpu_ticks(&stat).unwrap_or(0) as f64 / 100.0
}

/// Times a fixed piece of work of the benchmark's own — fill, sort and
/// index 16 Ki pseudo-random words, 32 rounds — in ms. It shares no
/// code with the detector, so it tracks the speed of the box and nothing
/// else; it mixes arithmetic, branches, cache misses and allocation the
/// way the detector does, so the two slow down together when the host is
/// busy.
pub fn calibrate_ms() -> f64 {
    let started = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut checksum = 0u64;
    for _ in 0..32 {
        let mut words: Vec<u64> = (0..1 << 14)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                x >> 20
            })
            .collect();
        let index: BTreeMap<u64, usize> = words.iter().copied().zip(0..).collect();
        words.sort_unstable();
        checksum = words
            .iter()
            .step_by(7)
            .fold(checksum, |sum, w| sum.wrapping_add(index[w] as u64));
    }
    black_box(checksum);
    started.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_max_over_five_samples() {
        let s = summarize(&[4.2, 3.9, 4.6, 4.0, 4.1]).unwrap();
        assert_eq!((s.n, s.median, s.min, s.max), (5, 4.1, 3.9, 4.6));
        let even = summarize(&[1.0, 4.0, 2.0, 3.0]).unwrap();
        assert_eq!(even.median, 2.5);
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn vm_hwm_is_read_from_a_status_fixture() {
        let status =
            "Name:\tdcbench\nVmPeak:\t  300000 kB\nVmHWM:\t  211968 kB\nVmRSS:\t  1000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(211_968));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn cpu_ticks_survive_a_hostile_command_name() {
        // utime = 377, stime = 12; the command holds a space and a ')'
        let stat =
            "4242 (dc) bench) S 1 4242 4242 0 -1 4194304 900 0 0 0 377 12 0 0 20 0 3 0 1000 1 2";
        assert_eq!(parse_cpu_ticks(stat), Some(389));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }
}

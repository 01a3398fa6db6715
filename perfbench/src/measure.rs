//! Clocks, process counters and sample statistics.
//!
//! CPU time and peak memory come from `/proc/self`, so they count every
//! thread of the process, including the pipeline's short-lived workers.

use std::path::Path;
use std::time::Instant;

/// Kernel clock ticks per second, the unit of `utime`/`stime` in
/// `/proc/self/stat`. Linux has reported 100 on every mainstream
/// architecture since 2.6; the benchmark assumes it.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// User plus system CPU time of the whole process, in milliseconds.
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may contain spaces; fields after the
    // closing parenthesis are space separated, starting at field 3.
    let after = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |index: usize| -> f64 {
        fields[index]
            .parse::<f64>()
            .expect("utime/stime are integers")
    };
    // utime and stime are fields 14 and 15, i.e. 11 and 12 after field 3.
    (ticks(11) + ticks(12)) * 1000.0 / CLOCK_TICKS_PER_S
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .expect("VmHWM is reported");
    kb / 1024.0
}

/// The filesystem type holding `path`: the longest mount point of
/// `/proc/self/mountinfo` that is a prefix of its canonical form.
pub fn filesystem_of(path: &Path) -> String {
    let Ok(canonical) = path.canonicalize() else {
        return "unknown".to_owned();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_owned();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let Some(separator) = fields.iter().position(|field| *field == "-") else {
            continue;
        };
        let (Some(mount_point), Some(fs_type)) = (fields.get(4), fields.get(separator + 1)) else {
            continue;
        };
        if canonical.starts_with(mount_point)
            && best
                .as_ref()
                .is_none_or(|(len, _)| mount_point.len() >= *len)
        {
            best = Some((mount_point.len(), (*fs_type).to_owned()));
        }
    }
    best.map_or_else(|| "unknown".to_owned(), |(_, fs_type)| fs_type)
}

/// Wall and CPU time of one timed section.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Elapsed wall time, seconds.
    pub wall_s: f64,
    /// Process CPU time spent meanwhile, milliseconds.
    pub cpu_ms: f64,
}

/// Time `work`, returning its result with the wall and CPU time it took.
pub fn timed<T>(work: impl FnOnce() -> T) -> (T, Span) {
    let cpu_before = cpu_ms();
    let start = Instant::now();
    let value = std::hint::black_box(work());
    let wall_s = start.elapsed().as_secs_f64();
    let span = Span {
        wall_s,
        cpu_ms: cpu_ms() - cpu_before,
    };
    (value, span)
}

/// Microseconds elapsed since `start`.
pub fn us_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// The `q`-quantile of `samples` (nearest rank), or 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `samples`, or 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The mean of `samples`, or 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// 64-bit FNV-1a, the digest the correctness gate records.
pub fn fnv1a(chunks: &[&[u8]]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in chunks {
        for &byte in *chunk {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Separate chunks so that ("ab", "c") and ("a", "bc") differ.
        hash ^= 0xff;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&samples, 0.5), 50.0);
        assert_eq!(quantile(&samples, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn digests_separate_chunks() {
        assert_ne!(fnv1a(&[b"ab", b"c"]), fnv1a(&[b"a", b"bc"]));
        assert_eq!(fnv1a(&[b"x"]), fnv1a(&[b"x"]));
    }

    #[test]
    fn process_counters_are_readable() {
        assert!(cpu_ms() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}

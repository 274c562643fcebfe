//! The harness arithmetic: medians, the tail-percentile rule, and the
//! readers the CPU and memory metrics rest on.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN: both mean a measurement went missing.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are not NaN"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of an ascending slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no values");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest whole percentile not above `want` that still has at least
/// ten samples beyond it in a sample of `n` — the rule a tail latency is
/// reported under. With `n ≥ 200` that is p95 itself; a shorter run reads
/// a lower percentile instead of a tail made of a handful of samples.
/// Never goes below the median.
pub fn supported_percentile(n: usize, want: f64) -> f64 {
    if n <= 20 {
        return 50.0;
    }
    let highest = (100.0 * (n - 10) as f64 / n as f64).floor();
    highest.clamp(50.0, want)
}

/// A `kB` field (`VmHWM`, `VmRSS`, …) from the text of `/proc/<pid>/status`.
pub fn parse_status_kb(status: &str, field: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` in `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds this process has consumed so far, over all
/// its threads, including ones that have exited.
///
/// `/proc/self/stat` carries the same sum, but in 10 ms ticks: six ticks
/// for a whole ladder rung. The POSIX process clock has nanosecond
/// resolution, and `std` offers no safe way to read it.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` only writes one `struct timespec` through the
    // pointer, which points at a live, properly aligned `Timespec` whose
    // layout (two 64-bit signed fields) is the C struct's on every 64-bit
    // Linux target; the function keeps no reference after it returns.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock exists on every Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// This process's resident-set high-water mark, in MB.
pub fn peak_rss_mb() -> f64 {
    let kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_kb(&s, "VmHWM"))
        .unwrap_or(0);
    kb as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn median_of_rounds_ignores_one_disturbed_round() {
        // Five rounds, one of which ran during a host stall.
        assert_eq!(median(&[1210.0, 1195.0, 640.0, 1201.0, 1188.0]), 1195.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 100.0);
        assert_eq!(percentile_sorted(&v, 95.0), 190.0);
        assert_eq!(percentile_sorted(&v, 100.0), 200.0);
        assert_eq!(percentile_sorted(&[5.0], 95.0), 5.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        // 200 samples: p95 leaves exactly ten beyond it.
        assert_eq!(supported_percentile(200, 95.0), 95.0);
        assert_eq!(supported_percentile(5000, 95.0), 95.0);
        // 199 samples: p95 would leave 9.95; fall back to p94.
        assert_eq!(supported_percentile(199, 95.0), 94.0);
        assert_eq!(supported_percentile(100, 95.0), 90.0);
        assert_eq!(supported_percentile(40, 95.0), 75.0);
        // Too few samples for any tail: the median is all there is.
        assert_eq!(supported_percentile(20, 95.0), 50.0);
        assert_eq!(supported_percentile(0, 95.0), 50.0);
        // A higher target is honoured once the sample supports it.
        assert_eq!(supported_percentile(1000, 99.0), 99.0);
        assert_eq!(supported_percentile(999, 99.0), 98.0);
        for n in [21usize, 57, 199, 200, 1234] {
            let p = supported_percentile(n, 95.0);
            let beyond = n as f64 * (100.0 - p) / 100.0;
            assert!(p == 50.0 || beyond >= 10.0, "n={n} p={p}");
        }
    }

    #[test]
    fn status_parser_reads_kb_fields() {
        let status = "Name:\tbench\nVmPeak:\t  9000 kB\nVmHWM:\t    5124 kB\nVmRSS:\t 4000 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(5124));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(4000));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        // A prefix of another field's name must not match it.
        assert_eq!(parse_status_kb(status, "Vm"), None);
    }

    #[test]
    fn live_readers_return_something_and_cpu_time_advances() {
        assert!(peak_rss_mb() > 0.0);
        let before = process_cpu_s();
        let mut x = 1u64;
        while process_cpu_s() - before < 0.002 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_s() > before);
    }
}

//! What the numbers were measured on, and whether the host held still.

use std::process::Command;
use std::time::Instant;

/// First line of a command's standard output, or `"unknown"` when the
/// command is missing or fails (a driver checkout is not a git repository).
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// One line per fact a reader needs before comparing two sets of numbers.
pub fn fingerprint() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        ("profile", profile.into()),
        ("rustc", first_line_of("rustc", &["-V"])),
        ("git", first_line_of("git", &["rev-parse", "HEAD"])),
    ]
}

const REF_WORDS: usize = 1 << 13; // 64 KiB: L2-resident, no DRAM traffic
const REF_PASSES: usize = 24;
const REF_REPS: usize = 3;

/// One repetition of the reference kernel: dependent integer
/// multiply/rotate/xor passes over a small buffer. It calls no repository
/// code, so it moves only when the host does (frequency, a noisy
/// neighbour, steal time) and never because a change made the library
/// faster or slower.
fn ref_kernel(buf: &mut [u64]) -> u64 {
    let mut acc = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..REF_PASSES {
        for x in buf.iter_mut() {
            acc = acc.rotate_left(5) ^ *x;
            *x = x.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(acc);
        }
    }
    acc
}

/// `host.ref_ns`: the reference kernel, timed. One sample is the median
/// of a few repetitions, about half a millisecond in all. It only decides
/// which measurements are kept or repeated; none is ever rescaled by it.
pub struct RefClock {
    buf: Vec<u64>,
}

impl RefClock {
    pub fn start() -> Self {
        let mut buf: Vec<u64> = (0..REF_WORDS as u64)
            .map(|i| i.wrapping_mul(0x9e37))
            .collect();
        std::hint::black_box(ref_kernel(&mut buf)); // warm the buffer
        RefClock { buf }
    }

    /// Times the kernel now. Call between timed stretches, so that the
    /// kernel's time is nobody's.
    pub fn sample(&mut self) -> f64 {
        let reps: Vec<f64> = (0..REF_REPS)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(ref_kernel(std::hint::black_box(&mut self.buf)));
                start.elapsed().as_nanos() as f64
            })
            .collect();
        crate::stats::median(&reps)
    }
}

/// The reading furthest from the median of `ref_ns`, if it is more than
/// `tolerance` (a share of the median) away from it: its index, and the
/// median it was held against.
pub fn worst_drift(ref_ns: &[f64], tolerance: f64) -> Option<(usize, f64)> {
    if ref_ns.is_empty() {
        return None;
    }
    let mid = crate::stats::median(ref_ns);
    let deviation = |r: f64| (r - mid).abs();
    ref_ns
        .iter()
        .enumerate()
        .filter(|(_, &r)| deviation(r) > tolerance * mid)
        .max_by(|(_, &a), (_, &b)| {
            deviation(a)
                .partial_cmp(&deviation(b))
                .expect("reference times are not NaN")
        })
        .map(|(i, _)| (i, mid))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_guard_picks_the_worst_outlier_and_only_outliers() {
        let refs = [100.0, 101.0, 99.0, 140.0, 100.5, 88.0];
        assert_eq!(worst_drift(&refs, 0.05), Some((3, 100.25)));
        assert_eq!(worst_drift(&[100.0, 104.0, 96.0], 0.05), None);
        assert_eq!(worst_drift(&[], 0.05), None);
    }

    #[test]
    fn reference_kernel_is_deterministic_and_timed() {
        let mut a = vec![1u64; 64];
        let mut b = vec![1u64; 64];
        assert_eq!(ref_kernel(&mut a), ref_kernel(&mut b));
        assert!(RefClock::start().sample() > 0.0);
    }
}

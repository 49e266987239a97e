//! Host-speed adjustment of the timed-loop metrics.
//!
//! On a shared host the cores' own speed moves by a fifth or more from
//! minute to minute (a fixed loop's time swings that much with nothing
//! else running in the container), and that swing, not the program,
//! would set the spread between runs. So while a workload runs, a
//! sampler thread runs a fixed kernel every [`PERIOD`] and times it in
//! its own thread CPU time: waiting for a core does not count, only how
//! fast the core runs the kernel. A phase's host speed is the median
//! kernel time over that phase, and each timed-loop figure
//! (`ops_per_s`, `op_p50_ms`, `op_tail_ms`) is scaled by
//! [`REFERENCE_NS`] over the speed of the phase that measured it, i.e.
//! reported as it would read on a host where the kernel takes
//! [`REFERENCE_NS`]. The kernel is the benchmark's own code; the program
//! moves it only by sharing the cores with it.
//!
//! Set-up is not scaled: in the host's slow spells it stretches by half
//! while the kernel slows by a seventh, so it is reported as the
//! shortest of many set-ups instead (`common::timed_setup`).
//!
//! The sampler keeps well under one percent of one core busy.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Kernel time that defines the reference host, ns (about its median
/// on the two-core Xeon VM the benchmark was tuned on).
pub const REFERENCE_NS: f64 = 60_000.0;
/// Time between two kernel samples.
pub const PERIOD: Duration = Duration::from_millis(10);
/// Fewest samples a phase's speed is read from; a shorter phase takes
/// the whole run's.
pub const MIN_SAMPLES: usize = 20;

/// The kernel samples of one run: when each ended and its CPU time, ns.
#[derive(Debug, Default)]
pub struct Samples(Vec<(Instant, f64)>);

impl Samples {
    /// The host speed over `window` (the whole run when `None` or when
    /// fewer than [`MIN_SAMPLES`] fall inside it).
    pub fn over(&self, window: Option<(Instant, Instant)>) -> Speed {
        let within: Vec<f64> = self
            .0
            .iter()
            .filter(|(at, _)| window.is_none_or(|(start, end)| (start..=end).contains(at)))
            .map(|&(_, ns)| ns)
            .collect();
        let ns = if within.len() >= MIN_SAMPLES {
            within
        } else {
            self.0.iter().map(|&(_, ns)| ns).collect()
        };
        Speed {
            kernel_ns: crate::stats::median(&ns),
            samples: ns.len(),
        }
    }
}

/// The host speed over one phase.
#[derive(Debug, Clone, Copy)]
pub struct Speed {
    /// Median kernel time, ns of thread CPU time.
    pub kernel_ns: f64,
    /// Samples behind the median.
    pub samples: usize,
}

impl Speed {
    /// Converts a time measured on this host into reference time.
    pub fn time(&self, measured: f64) -> f64 {
        measured * REFERENCE_NS / self.kernel_ns
    }

    /// Converts a rate measured on this host into a reference rate.
    pub fn rate(&self, measured: f64) -> f64 {
        measured * self.kernel_ns / REFERENCE_NS
    }
}

/// Runs `work` with the sampler beside it; returns its result and the
/// kernel samples taken meanwhile (at least one).
pub fn measure<T>(work: impl FnOnce() -> T) -> (T, Samples) {
    let stop = AtomicBool::new(false);
    let sample = || {
        let start = thread_cpu_ns();
        kernel();
        (Instant::now(), thread_cpu_ns() - start)
    };
    let (out, mut samples) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut samples = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(PERIOD);
                samples.push(sample());
            }
            samples
        });
        let out = work();
        stop.store(true, Ordering::Relaxed);
        (out, sampler.join().expect("speed sampler panicked"))
    });
    if samples.is_empty() {
        samples.push(sample());
    }
    (out, Samples(samples))
}

/// The fixed kernel: mixing, sorting and 128-bit modular products on a
/// 64-word array that stays in L1, ≈ 60 µs.
fn kernel() {
    let mut v: Vec<u64> = (1..=64u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let mut acc = 0u64;
    for round in 0..40 {
        for x in v.iter_mut() {
            *x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9) ^ (*x >> 29) ^ round;
        }
        v.sort_unstable();
        let product = v.iter().fold(1u128, |a, &x| {
            a.wrapping_mul(u128::from(x) * 3 + 1) % 0xFFFF_FFFF_FFFF_FFC5
        });
        acc ^= product as u64;
    }
    std::hint::black_box(acc);
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU time of the calling thread, ns.
fn thread_cpu_ns() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    ts.sec as f64 * 1e9 + ts.nsec as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slower_host_scales_times_down_and_rates_up() {
        let speed = |kernel_ns| Speed {
            kernel_ns,
            samples: 1,
        };
        let slow = speed(2.0 * REFERENCE_NS);
        assert_eq!(slow.time(10.0), 5.0);
        assert_eq!(slow.rate(10.0), 20.0);
        let reference = speed(REFERENCE_NS);
        assert_eq!(reference.time(3.5), 3.5);
        assert_eq!(reference.rate(3.5), 3.5);
    }

    #[test]
    fn a_phase_reads_its_own_samples_unless_it_has_too_few() {
        let t0 = Instant::now();
        let at = |i: u64| t0 + Duration::from_millis(i);
        // 40 fast samples, then 40 samples twice as slow.
        let samples = Samples(
            (0..80)
                .map(|i| (at(i), if i < 40 { 100.0 } else { 200.0 }))
                .collect(),
        );
        assert_eq!(samples.over(Some((at(0), at(39)))).kernel_ns, 100.0);
        assert_eq!(samples.over(Some((at(40), at(79)))).kernel_ns, 200.0);
        assert_eq!(samples.over(Some((at(40), at(79)))).samples, 40);
        // Five samples are too few: the whole run's median.
        let short = samples.over(Some((at(40), at(44))));
        assert_eq!((short.kernel_ns, short.samples), (150.0, 80));
        assert_eq!(samples.over(None).samples, 80);
    }

    #[test]
    fn the_sampler_runs_beside_the_work_and_counts_cpu_time() {
        let (out, samples) = measure(|| {
            std::thread::sleep(Duration::from_millis(60));
            7
        });
        assert_eq!(out, 7);
        let speed = samples.over(None);
        assert!(speed.samples >= 2, "{} samples", speed.samples);
        // The kernel's CPU time is a small fraction of the period.
        assert!(
            speed.kernel_ns > 0.0 && speed.kernel_ns < 1e7,
            "{}",
            speed.kernel_ns
        );
    }
}

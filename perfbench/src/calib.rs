//! Host-speed calibration for the end-to-end times.
//!
//! The benchmark runs on shared hosts where the same CPU-bound code runs
//! 20–40% slower for seconds to minutes at a time (other tenants' load),
//! which would swamp run-to-run comparisons of absolute times. So every
//! timed sample is expressed at a reference speed: a fixed kernel is timed
//! in thread CPU time (so waiting for a core does not count) close to the
//! sample, and the sample is scaled by `REFERENCE_S / kernel`, with the
//! median kernel time around that sample. The ratio cancels the host's
//! momentary speed; the constant turns it back into seconds.
//!
//! Each sample has its own scale, so no single factor turns a reported
//! metric back into a raw time. An untraced run therefore prints, on the
//! line before its result, every end-to-end metric computed from the same
//! samples unscaled, and the median scale of its kernel times.
//!
//! In-process solves are bracketed by kernels on their own thread: a
//! kernel on the other core tracks the solving core's speed less closely.
//! The daemon's requests run in another process, so there each client
//! thread times the kernel between its episodes.

use crate::report::median;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The kernel's CPU time at the reference speed: on the 2-vCPU Intel Xeon
/// VM the end-to-end bounds were set on, it took 5.5–8.5 ms.
pub const REFERENCE_S: f64 = 0.006;
/// How far before and after a sample kernel times still count for it.
const WINDOW: Duration = Duration::from_secs(1);

/// CPU time of the calling thread in seconds (`CLOCK_THREAD_CPUTIME_ID`),
/// or `None` where it cannot be read. `/proc/thread-self/schedstat` is no
/// substitute: for a running thread it advances only at scheduler ticks
/// (4 ms steps on the reference host), as coarse as the kernel itself.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn thread_cpu_s() -> Option<f64> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cpu_s() -> Option<f64> {
    None
}

/// Runs the kernel (sorting a fixed pseudo-random array) once and returns
/// its thread CPU time in seconds (wall time where CPU time is unreadable).
fn kernel_s() -> f64 {
    let (cpu0, wall0) = (thread_cpu_s(), Instant::now());
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut v: Vec<u32> = (0..1 << 18)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u32
        })
        .collect();
    v.sort_unstable();
    black_box(v[v.len() / 2]);
    match (cpu0, thread_cpu_s()) {
        (Some(a), Some(b)) if b > a => b - a,
        _ => wall0.elapsed().as_secs_f64(),
    }
}

/// Kernel times of one run, with when they were taken.
#[derive(Default)]
pub struct Calibrator {
    samples: Mutex<Vec<(Instant, f64)>>,
}

impl Calibrator {
    /// Times the kernel once on the calling thread.
    pub fn sample(&self) {
        let sample = (Instant::now(), kernel_s());
        self.samples
            .lock()
            .expect("calibration samples poisoned")
            .push(sample);
    }

    /// The scale to reference speed for a sample taken over `[from, to]`:
    /// from the median kernel time within [`WINDOW`] of that interval (the
    /// nearest kernel time when none is).
    pub fn scale(&self, from: Instant, to: Instant) -> f64 {
        let samples = self.samples.lock().expect("calibration samples poisoned");
        let near: Vec<f64> = samples
            .iter()
            .filter(|(at, _)| *at + WINDOW >= from && *at <= to + WINDOW)
            .map(|s| s.1)
            .collect();
        let distance = |at: Instant| {
            if at > to {
                at - to
            } else {
                from.saturating_duration_since(at)
            }
        };
        let kernel = if near.is_empty() {
            samples
                .iter()
                .min_by_key(|(at, _)| distance(*at))
                .map_or(REFERENCE_S, |s| s.1)
        } else {
            median(&near)
        };
        REFERENCE_S / kernel
    }

    /// The duration of `[from, to]` at the reference speed, in seconds.
    pub fn seconds(&self, from: Instant, to: Instant) -> f64 {
        (to - from).as_secs_f64() * self.scale(from, to)
    }

    /// The median scale over every kernel time taken.
    pub fn overall(&self) -> f64 {
        let samples = self.samples.lock().expect("calibration samples poisoned");
        REFERENCE_S / median(&samples.iter().map(|s| s.1).collect::<Vec<_>>())
    }
}

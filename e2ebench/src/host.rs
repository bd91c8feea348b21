//! The host record printed with every run. The CPU count alone hides
//! what a shared machine actually delivers at the moment of the run, so
//! the record also measures the parallelism two spinning threads get and
//! the time of a fixed calibration loop.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Iterations of the integer mixing loop behind both measurements
/// (a few milliseconds on a current x86-64 core).
const SPIN_ITERS: u64 = 4_000_000;

#[derive(Debug, Clone, Copy)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub cpus: usize,
    /// Two threads' combined spin throughput over one thread's: 2.0 on
    /// two free cores, 1.0 when the second thread gains nothing.
    pub effective_parallelism: f64,
    /// Median time of the fixed calibration loop.
    pub calibration_ms: f64,
}

fn spin(iters: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..iters {
        x = x.rotate_left(7) ^ i.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = x.wrapping_add(x >> 3);
    }
    x
}

fn timed_spin() -> f64 {
    let t = Instant::now();
    black_box(spin(black_box(SPIN_ITERS)));
    t.elapsed().as_secs_f64()
}

pub fn measure() -> Host {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let one: Vec<f64> = (0..5).map(|_| timed_spin()).collect();
    let t1 = median(&one).expect("five samples");
    let two: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            std::thread::scope(|s| {
                let a = s.spawn(timed_spin);
                let b = s.spawn(timed_spin);
                a.join().expect("spin thread");
                b.join().expect("spin thread");
            });
            t.elapsed().as_secs_f64()
        })
        .collect();
    let t2 = median(&two).expect("three samples");
    Host {
        cpus,
        effective_parallelism: 2.0 * t1 / t2,
        calibration_ms: t1 * 1e3,
    }
}

impl Host {
    pub fn line(&self) -> String {
        format!(
            "host cpus={} effective_parallelism={:.3} calibration_ms={:.4}",
            self.cpus, self.effective_parallelism, self.calibration_ms
        )
    }
}

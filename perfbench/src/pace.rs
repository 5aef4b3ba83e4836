//! Host-speed reference for the in-process workloads.
//!
//! On a shared host, other tenants' load moves compute speed by up to half
//! again for seconds at a time, and it slows on-CPU time as much as wall
//! time (the host reports next to no steal: the contention is for the core
//! itself and its caches). The compute-bound workloads therefore time a
//! fixed reference kernel — the same kind of work the zone and marking
//! explorations do: min-plus closure of small integer matrices and a hash
//! set of short vectors — between tasks, and report each task's time at a
//! fixed reference speed:
//!
//! ```text
//! reported_ms = measured_ms × REFERENCE_MS / measured_reference_ms
//! ```
//!
//! where `measured_reference_ms` is the kernel's time around the task. A
//! slower program raises the reported time; a slower host raises both
//! times and cancels out.

use std::collections::HashSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel's time on an idle host of the kind the benchmark was written
/// on (a 2-core x86-64 container); reported times are scaled to it.
pub const REFERENCE_MS: f64 = 1.5;

/// A sample older than this is refreshed before the next task.
const MAX_AGE: Duration = Duration::from_millis(50);

/// The reference kernel: fixed work with no input.
fn kernel() -> u64 {
    let n = 16;
    let mut acc = 0u64;
    let mut matrix = vec![0i32; n * n];
    for rep in 0..48 {
        for i in 0..n {
            for j in 0..n {
                matrix[i * n + j] = ((i * 31 + j * 17 + rep) % 97) as i32 + 1;
            }
        }
        for k in 0..n {
            for i in 0..n {
                let ik = matrix[i * n + k];
                for j in 0..n {
                    let through = ik + matrix[k * n + j];
                    if through < matrix[i * n + j] {
                        matrix[i * n + j] = through;
                    }
                }
            }
        }
        acc = acc.wrapping_add(black_box(matrix[n + 3]) as u64);
    }
    let mut seen: HashSet<Vec<u32>> = HashSet::new();
    let mut state = 0x2545_f491_u32;
    for _ in 0..12_000 {
        let key: Vec<u32> = (0..10)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                state % 5
            })
            .collect();
        if !seen.insert(key) {
            acc += 1;
        }
    }
    black_box(acc)
}

/// The reference kernel's time, best of three back-to-back runs (a single
/// run can lose a scheduler tick).
fn sample_ms() -> f64 {
    (0..3)
        .map(|_| {
            let begun = Instant::now();
            kernel();
            begun.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// Tracks host speed between tasks and scales task times to it.
pub struct Pace {
    last_ms: f64,
    taken: Instant,
    /// Every reference sample of the run, for the log.
    pub samples: Vec<f64>,
}

impl Pace {
    pub fn new() -> Pace {
        // The first run pays for page faults and cold caches.
        kernel();
        let mut pace = Pace {
            last_ms: 0.0,
            taken: Instant::now(),
            samples: Vec::new(),
        };
        pace.sample();
        pace
    }

    fn sample(&mut self) -> f64 {
        self.last_ms = sample_ms();
        self.taken = Instant::now();
        self.samples.push(self.last_ms);
        self.last_ms
    }

    /// The reference time to scale the next task by; resampled when stale.
    pub fn before(&mut self) -> f64 {
        if self.taken.elapsed() > MAX_AGE {
            self.sample()
        } else {
            self.last_ms
        }
    }

    /// Scales a task that took `elapsed` and started at reference time
    /// `before` to reference speed. A task that outlived a sample's age is
    /// bracketed by a fresh sample after it.
    pub fn scale(&mut self, elapsed: Duration, before: f64) -> f64 {
        let reference = if elapsed > MAX_AGE {
            (before + self.sample()) / 2.0
        } else {
            before
        };
        elapsed.as_secs_f64() * 1e3 * REFERENCE_MS / reference
    }
}

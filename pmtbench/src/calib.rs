//! Host-speed calibration. A shared VM runs the same code at very
//! different speeds from one minute to the next, as neighbours come and
//! go. The benchmark times a fixed reference kernel of its own around
//! each run's set-up and timed phase, and scales the run's times by how
//! much slower or faster that kernel ran than on the reference host.
//!
//! The kernel mixes what the program spends its time on: dependent loads
//! over a table larger than the per-core caches (the profiler's and the
//! kernels' lookups), a divide-and-square-root chain (the model's
//! arithmetic) and short-lived heap blocks (the allocator traffic of JSON
//! and of each batch flight). It lives in the benchmark and calls nothing
//! of the program, so no change to the program changes it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Milliseconds one unit of the kernel took on one core of the
/// reference host (a 2-vCPU Xeon VM). Scaled metrics read as if every
/// run had the reference host's speed.
pub const REFERENCE_UNIT_MS: f64 = 1.5;

/// How much more the workloads' speed moves than the kernel's when the
/// host changes speed. Over 20 runs per workload on a 2-vCPU VM, the
/// log-log slope of the raw rate on the kernel's speed was 1.51
/// (`suite_profile`), 1.42 (`frontier_sweep`) and 1.24 (`serve_mixed`),
/// with correlations of 0.84–0.97.
pub const SENSITIVITY: f64 = 1.4;

/// Table entries: 4 MiB of `u64`.
const TABLE_LEN: usize = 1 << 19;
const LOADS: usize = 65_536;
const FLOPS: usize = 48_000;
const SMALL_BLOCKS: usize = 96;
/// Above glibc's default 128 KiB mmap threshold. Once the first is
/// freed, glibc raises the threshold and the rest come from the heap.
const LARGE_BLOCK: usize = 256 << 10;
const LARGE_BLOCKS: usize = 6;

/// The reference kernel's table, built once per process.
struct Kernel {
    table: Vec<u64>,
}

impl Kernel {
    fn new() -> Kernel {
        let mut rng = crate::inputs::Rng::new(0x5EED, 99);
        Kernel {
            table: (0..TABLE_LEN).map(|_| rng.next_u64()).collect(),
        }
    }

    /// One unit of fixed work; returns a value the caller must use so the
    /// work is not optimized away.
    fn unit(&self, salt: u64) -> u64 {
        let mask = TABLE_LEN as u64 - 1;
        let mut at = salt & mask;
        for _ in 0..LOADS {
            at = (self.table[at as usize] ^ at) & mask;
        }
        let (mut x, mut y) = (1.0 + (salt % 7) as f64, 0.5f64);
        for i in 0..FLOPS {
            x = x / (1.0 + y) + (i as f64).sqrt();
            y = (x * 1e-3).sqrt();
        }
        let mut sum = at ^ x.to_bits();
        for b in 0..SMALL_BLOCKS {
            let block = vec![b as u8; 512 << (b % 6)];
            sum = sum.wrapping_add(block[block.len() / 2] as u64);
        }
        for b in 0..LARGE_BLOCKS {
            let mut block = vec![0u8; LARGE_BLOCK];
            for page in block.chunks_mut(4096) {
                page[0] = b as u8 + 1;
            }
            sum = sum.wrapping_add(std::hint::black_box(&block)[LARGE_BLOCK - 4096] as u64);
        }
        sum
    }

    /// Run `units` units shared among `threads` threads, each taking the
    /// next unit as it finishes one (as a work-stealing sweep shares its
    /// points); returns the wall time per unit per thread, in ms — the
    /// unit's time on one core when every core runs at one speed.
    fn burst(&self, units: usize, threads: usize) -> f64 {
        let next = AtomicUsize::new(0);
        let started = Instant::now();
        std::thread::scope(|scope| {
            let work = || {
                let mut sum = 0u64;
                loop {
                    let u = next.fetch_add(1, Ordering::Relaxed);
                    if u >= units {
                        break;
                    }
                    sum = sum.wrapping_add(self.unit(u as u64));
                }
                std::hint::black_box(sum);
            };
            for _ in 1..threads {
                scope.spawn(work);
            }
            work();
        });
        started.elapsed().as_secs_f64() * 1e3 * threads as f64 / units as f64
    }
}

/// Units per burst on each core the workload keeps busy (~15 ms).
const UNITS_PER_CORE: usize = 10;
/// A workload ticks between its operations; a tick takes a burst once
/// this long has passed since the last one.
const INTERVAL: Duration = Duration::from_millis(200);
/// Most bursts one tick takes, after a long operation.
const MAX_DUE: usize = 8;
/// An operation is scaled by the median of this many bursts on each side
/// of its middle.
const NEAREST: usize = 4;

/// Bursts of the kernel spread over a run: before and after each set-up,
/// and through the timed phase between operations. Each operation is
/// scaled by the bursts nearest it in time, so a host that changes speed
/// within a run is followed too.
pub struct Calibration {
    kernel: Option<Kernel>,
    state: Mutex<State>,
}

struct State {
    /// Threads each burst runs on: as many as the stretch being
    /// calibrated keeps busy.
    threads: usize,
    /// When each burst ended, and its ms per unit.
    bursts: Vec<(Instant, f64)>,
    spent: Duration,
}

/// Where a stretch of the run starts.
#[derive(Clone, Copy, Debug)]
pub struct Mark {
    bursts: usize,
    spent: Duration,
}

impl Calibration {
    /// A calibration that is off (the traced run) takes no bursts and
    /// scales nothing. Bursts run on one thread until `set_threads`.
    pub fn new(on: bool) -> Calibration {
        Calibration {
            kernel: on.then(Kernel::new),
            state: Mutex::new(State {
                threads: 1,
                bursts: Vec::new(),
                spent: Duration::ZERO,
            }),
        }
    }

    /// Take `count` bursts now.
    pub fn sample(&self, count: usize) {
        let Some(kernel) = &self.kernel else { return };
        let mut state = self.state.lock().expect("calibration lock");
        let threads = state.threads;
        for _ in 0..count {
            let started = Instant::now();
            let ms = kernel.burst(UNITS_PER_CORE * threads, threads);
            state.spent += started.elapsed();
            state.bursts.push((Instant::now(), ms));
        }
    }

    /// Between two operations: take the bursts due, one per `INTERVAL`
    /// since the last (at most `MAX_DUE`, after a long operation).
    pub fn tick(&self) {
        let last = self
            .state
            .lock()
            .expect("calibration lock")
            .bursts
            .last()
            .map(|b| b.0);
        if let Some(last) = last {
            let due = last.elapsed().as_secs_f64() / INTERVAL.as_secs_f64();
            self.sample((due as usize).min(MAX_DUE));
        }
    }

    /// Run later bursts on `threads` threads.
    pub fn set_threads(&self, threads: usize) {
        self.state.lock().expect("calibration lock").threads = threads.max(1);
    }

    pub fn mark(&self) -> Mark {
        let state = self.state.lock().expect("calibration lock");
        Mark {
            bursts: state.bursts.len(),
            spent: state.spent,
        }
    }

    /// How much slower than the reference host the run was since `mark`
    /// (see [`slowdown`]); 1 when off.
    pub fn slowdown_since(&self, mark: Mark) -> f64 {
        let state = self.state.lock().expect("calibration lock");
        let bursts: Vec<f64> = state.bursts[mark.bursts..].iter().map(|b| b.1).collect();
        slowdown(&bursts)
    }

    /// An operation of `ms` that ended at `ended`, scaled to the
    /// reference host by the `NEAREST` bursts on each side of its middle
    /// (call once the bursts after it are taken); unscaled when off.
    pub fn scale_ms(&self, ms: f64, ended: Instant) -> f64 {
        if !ms.is_finite() {
            return ms;
        }
        let middle = ended - Duration::from_secs_f64(ms / 2e3);
        let state = self.state.lock().expect("calibration lock");
        let at = state.bursts.partition_point(|b| b.0 < middle);
        let near =
            &state.bursts[at.saturating_sub(NEAREST)..(at + NEAREST).min(state.bursts.len())];
        let bursts: Vec<f64> = near.iter().map(|b| b.1).collect();
        ms / slowdown(&bursts)
    }

    /// Seconds spent in bursts since `mark`, to take out of a wall time.
    pub fn spent_since(&self, mark: Mark) -> f64 {
        let state = self.state.lock().expect("calibration lock");
        (state.spent - mark.spent).as_secs_f64()
    }

    /// Every burst so far, ms per unit.
    pub fn bursts(&self) -> Vec<f64> {
        let state = self.state.lock().expect("calibration lock");
        state.bursts.iter().map(|b| b.1).collect()
    }
}

/// The median of `bursts` over the reference unit time, to the power
/// `SENSITIVITY`; 1 for none.
fn slowdown(bursts: &[f64]) -> f64 {
    if bursts.is_empty() {
        1.0
    } else {
        (crate::stats::median(bursts) / REFERENCE_UNIT_MS).powf(SENSITIVITY)
    }
}

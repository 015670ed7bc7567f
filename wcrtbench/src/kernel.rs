//! Host-speed normalisation by an interleaved reference kernel.
//!
//! This machine's speed drifts between (and within) runs, so raw wall and
//! CPU times do not repeat. The benchmark therefore runs a frozen
//! reference kernel — a set-associative LRU cache simulation over a fixed
//! pseudo-random address stream, calling nothing in the workspace — on as
//! many threads as the server's analysis pool, between request batches
//! while no request is in flight. Each timed interval is scaled by
//! `K_NOMINAL_MS / K_adjacent`, where `K_adjacent` is the mean of the
//! kernel samples taken just before and just after it; normalised values
//! read as "milliseconds at nominal host speed".
//!
//! The kernel sample is its fastest round, so it measures how fast the
//! host runs while it runs, and leaves out the time the hypervisor gives
//! the virtual CPUs' slots to other guests (steal). Steal comes in bursts
//! that stretch wall-clock time but not CPU time, so wall-clock intervals
//! are also scaled by `1 - steal share`, the share of the CPU time the
//! guest wanted over the same interval that was stolen ([`HostTicks`]);
//! CPU-time intervals are not.

use std::io;
use std::time::Instant;

/// Nominal wall time of one kernel sample, in milliseconds: the median
/// sample on the reference host (2 vCPUs) the constant was calibrated on.
/// Frozen — changing it rescales every normalised metric.
pub const K_NOMINAL_MS: f64 = 2.4;

/// Accesses one kernel thread simulates per sample.
const ACCESSES: u32 = 200_000;
/// Simulated cache: 16384 sets × 8 ways of 32-byte lines, so the tag
/// array (512 KiB) lives beyond L1 like the analysis's own data.
const SETS: usize = 16384;
const WAYS: usize = 8;
/// Bytes of the simulated address space.
const WINDOW_BYTES: u32 = 16 << 20;

/// One kernel pass on the calling thread; returns the miss count (a fixed
/// number, pinned by a test, so the work can never be optimised away or
/// silently change).
pub fn kernel_pass() -> u64 {
    // tags[set][way], most recently used first.
    let mut tags = vec![[u32::MAX; WAYS]; SETS];
    let mut state: u32 = 0x1234_5678;
    let mut addr: u32 = 0;
    let mut misses = 0u64;
    for _ in 0..ACCESSES {
        // xorshift32 drives a mix of sequential walks and jumps within a
        // 16 MiB window: roughly the locality of a program trace.
        state ^= state << 13;
        state ^= state >> 17;
        state ^= state << 5;
        addr = if state.is_multiple_of(8) {
            state % WINDOW_BYTES
        } else {
            addr.wrapping_add(4) % WINDOW_BYTES
        };
        let line = addr / 32;
        let set = &mut tags[(line as usize) % SETS];
        let tag = line / SETS as u32;
        match set.iter().position(|&t| t == tag) {
            Some(way) => set[..=way].rotate_right(1),
            None => {
                misses += 1;
                set.rotate_right(1);
                set[0] = tag;
            }
        }
    }
    std::hint::black_box(misses)
}

/// The miss count [`kernel_pass`] must return.
pub const KERNEL_MISSES: u64 = 43_540;

/// Back-to-back rounds per kernel sample; the sample is the fastest.
const ROUNDS: usize = 5;

/// One kernel sample: the fastest of [`ROUNDS`] rounds of `width`
/// concurrent passes, in milliseconds. Taking the fastest round drops
/// sub-millisecond interruptions (a neighbour's burst, a page-cache
/// flush) that would otherwise swing one interval's scale factor, while
/// a slowdown that lasts the whole sample still shows.
///
/// # Panics
///
/// Panics if a pass returns a different miss count (the kernel changed).
pub fn kernel_sample(width: usize) -> f64 {
    (0..ROUNDS)
        .map(|_| {
            let started = Instant::now();
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..width).map(|_| scope.spawn(kernel_pass)).collect();
                for handle in handles {
                    let misses = handle.join().expect("kernel thread panicked");
                    assert_eq!(misses, KERNEL_MISSES, "the reference kernel's work changed");
                }
            });
            started.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// Kernel samples of one run, taken at a fixed cadence between batches.
#[derive(Debug, Clone)]
pub struct Normalizer {
    width: usize,
    samples: Vec<f64>,
}

impl Normalizer {
    /// A normaliser running the kernel on `width` threads.
    pub fn new(width: usize) -> Normalizer {
        Normalizer { width: width.max(1), samples: Vec::new() }
    }

    /// Takes one kernel sample; returns its index.
    pub fn sample(&mut self) -> usize {
        self.samples.push(kernel_sample(self.width));
        self.samples.len() - 1
    }

    /// The scale factor for the interval between samples `interval` and
    /// `interval + 1`: `K_NOMINAL_MS / mean(K_interval, K_interval+1)`.
    pub fn factor(&self, interval: usize) -> f64 {
        K_NOMINAL_MS / ((self.samples[interval] + self.samples[interval + 1]) / 2.0)
    }

    /// The scale factor for a wall-clock interval after sample `interval`
    /// during which `steal` of the wanted CPU time was stolen.
    pub fn wall_factor(&self, interval: usize, steal: f64) -> f64 {
        self.factor(interval) * (1.0 - steal)
    }

    /// Every sample, in milliseconds.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Kernel threads per sample.
    pub fn width(&self) -> usize {
        self.width
    }
}

/// The host's cumulative CPU time, in clock ticks summed over all CPUs,
/// from the `cpu` line of `/proc/stat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostTicks {
    /// user + nice + system + irq + softirq (guest time is inside user).
    busy: u64,
    /// Time a virtual CPU was runnable while the hypervisor ran another
    /// guest.
    steal: u64,
}

impl HostTicks {
    /// Parses the text of `/proc/stat`.
    pub fn parse(stat: &str) -> Option<HostTicks> {
        let line = stat.lines().find(|l| l.starts_with("cpu "))?;
        let f: Vec<u64> =
            line.split_whitespace().skip(1).map(|v| v.parse().ok()).collect::<Option<_>>()?;
        if f.len() < 8 {
            return None;
        }
        // user nice system idle iowait irq softirq steal [guest guest_nice]
        Some(HostTicks { busy: f[0] + f[1] + f[2] + f[5] + f[6], steal: f[7] })
    }

    /// Reads `/proc/stat` now.
    ///
    /// # Errors
    ///
    /// Fails if `/proc/stat` is unreadable or malformed.
    pub fn read() -> io::Result<HostTicks> {
        let stat = std::fs::read_to_string("/proc/stat")?;
        HostTicks::parse(&stat).ok_or_else(|| io::Error::other("malformed /proc/stat"))
    }

    /// The share of the CPU time wanted between `self` and `later` that
    /// was stolen: `steal / (busy + steal)`, 0 over an empty interval.
    pub fn steal_share(self, later: HostTicks) -> f64 {
        let busy = later.busy.saturating_sub(self.busy);
        let steal = later.steal.saturating_sub(self.steal);
        if busy + steal == 0 {
            0.0
        } else {
            steal as f64 / (busy + steal) as f64
        }
    }
}

/// Exact quantile over sorted samples: rank `ceil(q·n)` clamped to
/// `[1, n]`, the convention `perfcheck` and the flight recorder use.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// How many of `n` samples rank above the `q` quantile: a tail
/// percentile is reported only where this is at least ten.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Median of unsorted samples (rank `ceil(n/2)`).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

/// `(p75 - p25) / median` of unsorted samples: a run's own spread.
pub fn relative_iqr(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = percentile(&sorted, 0.5);
    if mid == 0.0 {
        return 0.0;
    }
    (percentile(&sorted, 0.75) - percentile(&sorted, 0.25)) / mid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_work_is_frozen() {
        assert_eq!(kernel_pass(), KERNEL_MISSES);
    }

    #[test]
    fn factor_maps_the_nominal_kernel_to_one() {
        let norm = Normalizer { width: 2, samples: vec![K_NOMINAL_MS; 3] };
        assert!((norm.factor(1) - 1.0).abs() < 1e-12);
        // A host running at half speed takes twice as long for the kernel:
        // its intervals are halved back to nominal.
        let slow = Normalizer { width: 2, samples: vec![2.0 * K_NOMINAL_MS; 2] };
        assert!((slow.factor(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn factor_averages_the_bracketing_samples() {
        let k = K_NOMINAL_MS;
        let norm = Normalizer { width: 2, samples: vec![k, 3.0 * k, 9.0 * k] };
        assert!((norm.factor(0) - 0.5).abs() < 1e-12);
        assert!((norm.factor(1) - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn wall_factor_removes_the_stolen_share() {
        let norm = Normalizer { width: 2, samples: vec![2.0 * K_NOMINAL_MS; 2] };
        assert!((norm.wall_factor(0, 0.0) - 0.5).abs() < 1e-12);
        assert!((norm.wall_factor(0, 0.2) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn steal_share_is_stolen_over_wanted_cpu_time() {
        let stat = |user: u64, idle: u64, steal: u64| {
            format!("cpu  {user} 2 3 {idle} 5 6 7 {steal} 0 0\ncpu0 1 1 1 1 1 1 1 1 0 0\n")
        };
        let a = HostTicks::parse(&stat(100, 1000, 10)).expect("parses");
        // 80 more busy ticks, 20 more stolen, idle time does not count.
        let b = HostTicks::parse(&stat(180, 5000, 30)).expect("parses");
        assert!((a.steal_share(b) - 0.2).abs() < 1e-12);
        assert_eq!(a.steal_share(a), 0.0);
        assert_eq!(HostTicks::parse("cpu  1\n"), None);
        assert_eq!(HostTicks::parse("intr 5\n"), None);
    }

    #[test]
    fn percentile_uses_the_ceil_rank_rule() {
        let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), 5.0);
        assert_eq!(percentile(&sorted, 0.9), 9.0);
        assert_eq!(percentile(&sorted, 0.91), 10.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 1.0), 10.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.0);
    }

    #[test]
    fn samples_beyond_counts_the_tail_past_the_rank() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert_eq!(samples_beyond(240, 0.9), 24);
        assert_eq!(samples_beyond(1, 0.5), 0);
    }

    #[test]
    fn relative_iqr_is_scale_free() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [10.0, 20.0, 30.0, 40.0];
        assert!((relative_iqr(&a) - relative_iqr(&b)).abs() < 1e-12);
        assert_eq!(relative_iqr(&[5.0; 8]), 0.0);
    }
}

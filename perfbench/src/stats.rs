//! Order statistics and process measurements.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Median (mean of the middle pair for even counts); 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]`; 0 for no samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Peak resident set size of this process in MB (10^6 bytes), from the
/// kernel's high-water mark.
pub fn rss_peak_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unparseable {line:?}"))?;
    Ok(kb * 1024.0 / 1e6)
}

/// Time the host has taken from this guest's vCPUs so far (steal, the 8th
/// value of the `cpu` line of `/proc/stat`, in USER_HZ = 100 ticks per
/// second), in seconds; 0 where the kernel does not report it.
pub fn stolen_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let line = stat.lines().next()?;
            let ticks: f64 = line.split_whitespace().nth(8)?.parse().ok()?;
            Some(ticks / 100.0)
        })
        .unwrap_or(0.0)
}

/// One probe (the fastest of three passes) on the reference host running
/// at full speed. The reference host is a 2-vCPU KVM guest of an Intel
/// Xeon (Sapphire Rapids); its fast mode reads 5,800 to 6,100 ns and its
/// slow mode 9,400 to 10,000 ns.
pub const REFERENCE_PROBE_NS: f64 = 5_800.0;

/// How closely the benchmark's iterations follow the probe when the host's
/// speed changes: an iteration slows by the probe's slowdown to this power.
/// The probe is pure core work, while an iteration also waits on memory,
/// so it slows less. Fitted on the reference host between its fast and
/// slow phases, per cycle: `dp-small` 0.74, `dp-large` 0.61,
/// `dp-hostile` 0.75; and across nine 15 to 20 s `dp-small` runs, where
/// 0.6 to 0.7 gave the least spread.
pub const PROBE_SENSITIVITY: f64 = 0.65;

/// Host-speed probe. On a shared host the speed of a vCPU moves in
/// phases of seconds to minutes (on the reference host, between two modes
/// 1.6x apart), by far more than a regression bound. The probe is a fixed
/// scalar loop of the benchmark's own (a cut-down AES T-table round over a
/// 4 KiB table, resident in L1), run right before each timed iteration on
/// as many threads as the iteration keeps busy; the iteration's wall time
/// times [`HostSpeed::factor`] is its time at the reference host's speed.
/// The loop never changes with the program, so the factor cancels the
/// host's speed and leaves the program's.
///
/// The extra probe threads are started once, in [`HostSpeed::new`], and
/// stopped and joined on drop, so that the workload's own threads meet the
/// same allocator state in every run.
pub struct HostSpeed {
    probe: Probe,
    helpers: Vec<std::thread::JoinHandle<()>>,
    shared: Arc<Shared>,
}

/// What the probing threads share.
struct Shared {
    threads: usize,
    start: Barrier,
    done: Barrier,
    arrived: AtomicUsize,
    stop: AtomicBool,
    /// Bits of the slowest probe of the current round (positive `f64`s
    /// order like their bits).
    slowest: AtomicU64,
}

impl Shared {
    /// Runs one round's probe on the calling thread, started together with
    /// the others: all threads spin until all have arrived, so the probes
    /// overlap as the workload's threads do.
    fn probe_round(&self, probe: &Probe) {
        self.arrived.fetch_add(1, Ordering::AcqRel);
        while self.arrived.load(Ordering::Acquire) < self.threads {
            std::hint::spin_loop();
        }
        self.slowest
            .fetch_max(probe.fastest_ns().to_bits(), Ordering::AcqRel);
    }
}

impl HostSpeed {
    /// A probe for iterations that keep `threads` CPUs busy.
    pub fn new(threads: usize) -> HostSpeed {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            threads,
            start: Barrier::new(threads),
            done: Barrier::new(threads),
            arrived: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            slowest: AtomicU64::new(0),
        });
        let helpers = (1..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let probe = Probe::new();
                    loop {
                        shared.start.wait();
                        if shared.stop.load(Ordering::Acquire) {
                            break;
                        }
                        shared.probe_round(&probe);
                        shared.done.wait();
                    }
                })
            })
            .collect();
        HostSpeed {
            probe: Probe::new(),
            helpers,
            shared,
        }
    }

    /// The factor that scales a wall time taken right after this call to
    /// the reference host's speed: the reference probe time over the
    /// slowest thread's probe now (the slowest thread sets an iteration's
    /// time), to the power [`PROBE_SENSITIVITY`].
    pub fn factor(&self) -> f64 {
        let shared = &self.shared;
        shared.arrived.store(0, Ordering::Release);
        shared.slowest.store(0, Ordering::Release);
        shared.start.wait();
        shared.probe_round(&self.probe);
        shared.done.wait();
        let probe_ns = f64::from_bits(shared.slowest.load(Ordering::Acquire));
        (REFERENCE_PROBE_NS / probe_ns).powf(PROBE_SENSITIVITY)
    }
}

impl Drop for HostSpeed {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.start.wait();
        for helper in self.helpers.drain(..) {
            let _ = helper.join();
        }
    }
}

/// The probe loop of one thread.
struct Probe {
    table: Vec<u32>,
}

impl Probe {
    const ROUNDS: u32 = 500;
    const SAMPLES: usize = 3;

    fn new() -> Probe {
        let mut x = 0x9e37_79b9u32;
        let table = (0..1024)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x
            })
            .collect();
        Probe { table }
    }

    /// Wall time of one pass of the loop, in ns.
    fn probe_ns(&self) -> f64 {
        let t = std::hint::black_box(self.table.as_slice());
        let lookup = |q: usize, v: u32| t[q * 256 + (v >> (q * 8) & 0xff) as usize];
        let start = Instant::now();
        let mut s = [1u32, 2, 3, 4];
        for round in 0..Self::ROUNDS {
            s = [0, 1, 2, 3].map(|i| {
                lookup(0, s[i])
                    ^ lookup(1, s[(i + 1) % 4])
                    ^ lookup(2, s[(i + 2) % 4])
                    ^ lookup(3, s[(i + 3) % 4])
            });
            s[0] ^= round;
        }
        std::hint::black_box(s);
        start.elapsed().as_nanos() as f64
    }

    /// The fastest of three passes now, in ns: the fastest, so that an
    /// interrupt inside one pass does not count as a slow host.
    fn fastest_ns(&self) -> f64 {
        (0..Self::SAMPLES)
            .map(|_| self.probe_ns())
            .fold(f64::INFINITY, f64::min)
            .max(1.0)
    }
}

/// The measuring window of a run, cut into half-second blocks. Throughput
/// is reported as the median over blocks, so one noisy stretch of a run
/// moves one block, not the result. Each block has its own clock, started
/// by [`Blocks::start`], so work done between blocks (the timed set-ups)
/// does not shorten the next block.
pub struct Blocks {
    started: Instant,
    stolen_at_start: f64,
    block: Duration,
    count: u32,
}

impl Blocks {
    pub fn new(seconds: u64) -> Blocks {
        let count = u32::try_from(seconds * 2).unwrap_or(u32::MAX).max(2);
        Blocks {
            started: Instant::now(),
            stolen_at_start: stolen_s(),
            block: Duration::from_secs(seconds) / count,
            count,
        }
    }

    pub fn count(&self) -> u32 {
        self.count
    }

    /// Starts the clock of the next block.
    pub fn start(&mut self) {
        self.stolen_at_start = stolen_s();
        self.started = Instant::now();
    }

    /// The share of the current block's wall time that the host left to
    /// the workload: 1 minus the time the host took from this guest's
    /// vCPUs during the block (steal), over the block's wall time. Time
    /// taken from any vCPU counts in full: a single-threaded workload
    /// leaves the other vCPU idle, which accrues no steal, and the threads
    /// of a two-threaded one wait for each other. Wall times taken in the
    /// block, times this share, leave out what the host took away. Steal
    /// is counted in 10 ms ticks, so a half-second block reads it to
    /// within 2%.
    pub fn busy_share(&self) -> f64 {
        let wall = self.started.elapsed().as_secs_f64();
        let stolen = (stolen_s() - self.stolen_at_start).max(0.0);
        (1.0 - stolen / wall).max(0.0)
    }

    /// Whether the current block has used up its share of the window.
    pub fn block_done(&self) -> bool {
        self.started.elapsed() >= self.block
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
    }

    /// Prints the median probe time, the figure `REFERENCE_PROBE_NS`
    /// holds for the reference host at full speed (`-- --nocapture` to
    /// see it).
    #[test]
    fn probe_runs_and_factor_is_positive() {
        let probe = Probe::new();
        let probes: Vec<f64> = (0..200).map(|_| probe.fastest_ns()).collect();
        eprintln!("probe median {} ns", median(&probes));
        for threads in [1, 2] {
            let speed = HostSpeed::new(threads);
            let factors: Vec<f64> = (0..50).map(|_| speed.factor()).collect();
            assert!(
                factors.iter().all(|&f| f > 0.0 && f.is_finite()),
                "{factors:?}"
            );
        }
    }

    #[test]
    fn rss_is_positive() {
        assert!(rss_peak_mb().unwrap() > 0.0);
    }
}

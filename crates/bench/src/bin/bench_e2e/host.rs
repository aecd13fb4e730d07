//! What the benchmark needs from the machine: a steady CPU regime and
//! the process's peak memory.

use std::time::{Duration, Instant};

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Regime guard. After a stretch of idle this box runs in a different
/// regime (wake-ups measured 4x faster) that ends after about 2 s of
/// load, so a run that starts cold would mix the two. Busy-spinning
/// every hardware thread first puts each timed part in the sustained
/// regime no matter what ran before it.
pub fn busy_spin(duration: Duration) {
    let deadline = Instant::now() + duration;
    std::thread::scope(|s| {
        for _ in 0..nproc() {
            s.spawn(|| {
                let mut x = 0u64;
                while Instant::now() < deadline {
                    for _ in 0..4096 {
                        x = std::hint::black_box(
                            x.wrapping_mul(6364136223846793005).wrapping_add(1),
                        );
                    }
                }
            });
        }
    });
}

/// `cpu_set_t`: 1024 bits.
type CpuMask = [u64; 16];

// glibc's affinity calls; pid 0 is the calling thread. The benchmark's only
// `unsafe`.
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuMask) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuMask) -> i32;
}

/// The calling thread, and every thread it starts from now on, confined to
/// one CPU until this is dropped.
pub struct OneCpu {
    pub cpu: usize,
    before: CpuMask,
}

/// Confine the calling thread to the lowest CPU it may run on. `None`
/// (and nothing changed) where the kernel refuses.
///
/// Every workload runs like this, because on the 2-vCPU VMs this
/// benchmark runs on, two CPUs measure the host and one measures the
/// program. Waking a thread on the *other* vCPU costs more than the
/// program's whole message path and changes by 2x from one minute to the
/// next: at HEAD `serve_hot` serves 14 k req/s on one CPU against 7-8 k on
/// two, and a `rewl_tcp` run takes 3.6 s against 5.3-7.2 s. And what two
/// busy vCPUs get of the host's cores and caches changes for minutes at a
/// time: the same `rewl_local` run took 5.3 s in one hour and 7-13 s in
/// the next on two CPUs, and 10-11 s on one in that slower hour. With two ranks on one
/// CPU a hand-off is a context switch and a rank's wait is the other
/// rank's work.
pub fn pin_to_one_cpu() -> Option<OneCpu> {
    let mut before: CpuMask = [0; 16];
    let size = std::mem::size_of::<CpuMask>();
    // SAFETY: `before` is a live, writable mask of exactly `size` bytes.
    if unsafe { sched_getaffinity(0, size, &mut before) } != 0 {
        return None;
    }
    let word = before.iter().position(|w| *w != 0)?;
    let bit = before[word].trailing_zeros() as usize;
    let mut one: CpuMask = [0; 16];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live mask of exactly `size` bytes.
    (unsafe { sched_setaffinity(0, size, &one) } == 0).then_some(OneCpu {
        cpu: word * 64 + bit,
        before,
    })
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        // SAFETY: `before` is a live mask of the size passed.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), &self.before) };
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes of every file under `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_pin_covers_threads_started_under_it_and_lifts_on_drop() {
        let before = nproc();
        {
            // A kernel that refuses leaves nothing to check.
            let Some(pin) = pin_to_one_cpu() else { return };
            assert!(pin.cpu < 1024);
            assert_eq!(nproc(), 1);
            assert_eq!(std::thread::spawn(nproc).join().unwrap(), 1);
        }
        assert_eq!(nproc(), before);
    }
}

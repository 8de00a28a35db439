//! Probes that live in the benchmark's own binary: a counting global
//! allocator and readers for `/proc/self`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// One thread's allocation counters, on a cache line of their own.
#[repr(align(64))]
struct Slot {
    allocations: AtomicU64,
    bytes: AtomicU64,
}

impl Slot {
    const fn new() -> Slot {
        Slot {
            allocations: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }
}

const SLOTS: usize = 1024;
/// Per-thread slots, handed out in thread start order.
static SLOT_TABLE: [Slot; SLOTS] = [const { Slot::new() }; SLOTS];
/// Shared by threads started after the table ran out, and by threads
/// allocating while their thread-locals are torn down.
static OVERFLOW: Slot = Slot::new();
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);
const UNASSIGNED: usize = usize::MAX;

thread_local! {
    static MY_SLOT: Cell<usize> = const { Cell::new(UNASSIGNED) };
}

/// Counts one allocation of `bytes`. A locked read-modify-write on every
/// allocation would cost the allocation-heavy workloads a tenth of
/// their call time, so each thread counts into a slot only it writes,
/// with a plain load and store; readers sum the slots. The counters are
/// statistics that publish no other data, so `Relaxed` suffices.
fn count(bytes: usize) {
    let index = MY_SLOT
        .try_with(|s| {
            if s.get() == UNASSIGNED {
                s.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed).min(SLOTS));
            }
            s.get()
        })
        .unwrap_or(SLOTS);
    match SLOT_TABLE.get(index) {
        Some(slot) => {
            let add =
                |c: &AtomicU64, n: u64| c.store(c.load(Ordering::Relaxed) + n, Ordering::Relaxed);
            add(&slot.allocations, 1);
            add(&slot.bytes, bytes as u64);
        }
        None => {
            OVERFLOW.allocations.fetch_add(1, Ordering::Relaxed);
            OVERFLOW.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        }
    }
}

/// The system allocator, counting every allocation (a `realloc` counts
/// as one allocation of its new size).
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; counting
// touches only static counters and an allocation-free thread-local.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded with the caller's layout, which `alloc`'s
        // contract requires to have non-zero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` (every path above
        // forwards to it) with this `layout`, per the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr`/`layout` come from `System` as above and the
        // caller guarantees `new_size` is valid for `layout`'s alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocCount {
    /// Allocations made so far.
    pub allocations: u64,
    /// Bytes requested so far.
    pub bytes: u64,
}

impl AllocCount {
    /// The process-wide counters now: the sum over every thread's slot.
    pub fn now() -> AllocCount {
        SLOT_TABLE
            .iter()
            .chain(std::iter::once(&OVERFLOW))
            .fold(AllocCount::default(), |acc, s| AllocCount {
                allocations: acc.allocations + s.allocations.load(Ordering::Relaxed),
                bytes: acc.bytes + s.bytes.load(Ordering::Relaxed),
            })
    }

    /// Counts made since `earlier`.
    pub fn since(self, earlier: AllocCount) -> AllocCount {
        AllocCount {
            allocations: self.allocations - earlier.allocations,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, which the kernel
/// ABI fixes at 100 per second.
const TICKS_PER_SECOND: f64 = 100.0;

fn status_field(name: &str) -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .ok_or_else(|| format!("/proc/self/status has no {name}"))
}

/// Peak resident set size (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    Ok(status_field("VmHWM")? as f64 / 1024.0)
}

/// Number of tasks (threads) in this process.
pub fn threads() -> Result<u64, String> {
    status_field("Threads")
}

/// User plus system CPU time this process has used, in microseconds.
pub fn cpu_us() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("read /proc/self/stat: {e}"))?;
    // The command name may hold spaces; fields resume after its ')'.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are 14 and 15.
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i - 3)
            .and_then(|v| v.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| format!("/proc/self/stat field {i} unreadable"))
    };
    Ok((tick(14)? + tick(15)?) / TICKS_PER_SECOND * 1e6)
}

/// The machine's CPU time counters, from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy)]
pub struct HostCpu {
    /// Ticks the hypervisor ran other guests while this one's virtual
    /// CPUs wanted to run ("steal").
    steal: u64,
    /// Ticks of every kind, steal included.
    total: u64,
}

impl HostCpu {
    pub fn now() -> Result<HostCpu, String> {
        let stat =
            std::fs::read_to_string("/proc/stat").map_err(|e| format!("read /proc/stat: {e}"))?;
        let ticks: Vec<u64> = stat
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("cpu "))
            .ok_or("/proc/stat has no cpu line")?
            .split_whitespace()
            .map(|v| v.parse().map_err(|e| format!("/proc/stat: {e}")))
            .collect::<Result<_, String>>()?;
        // user nice system idle iowait irq softirq steal; the guest
        // fields after them are already counted in user and nice.
        let steal = *ticks.get(7).ok_or("/proc/stat has no steal field")?;
        Ok(HostCpu {
            steal,
            total: ticks[..8].iter().sum(),
        })
    }

    /// The share of the machine's CPU time since `earlier` that was
    /// stolen, in percent.
    pub fn steal_pct_since(self, earlier: HostCpu) -> f64 {
        let total = self.total.saturating_sub(earlier.total).max(1);
        self.steal.saturating_sub(earlier.steal) as f64 * 100.0 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_allocations_on_every_thread() {
        let before = AllocCount::now();
        let kept: Vec<Box<[u8; 100]>> = (0..10).map(|_| Box::new([0u8; 100])).collect();
        std::thread::scope(|s| {
            s.spawn(|| std::hint::black_box(Box::new([0u8; 1000])));
        });
        let d = AllocCount::now().since(before);
        assert!(d.allocations >= 12, "{d:?}");
        assert!(d.bytes >= 2000, "{d:?}");
        drop(kept);
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mb().unwrap() > 0.0);
        assert!(threads().unwrap() >= 1);
        let before = cpu_us().unwrap();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_us().unwrap() >= before);
        let host = HostCpu::now().unwrap();
        let pct = HostCpu::now().unwrap().steal_pct_since(host);
        assert!((0.0..=100.0).contains(&pct), "{pct}");
    }
}

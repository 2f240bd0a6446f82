//! The three things the benchmark needs from Linux and the standard library
//! does not offer: CPU affinity, the process CPU-time clock and the
//! resident-set high-water mark.
//!
//! The foreign declarations are written out here (the build is offline and
//! has no `libc` crate); they match glibc/musl on 64-bit Linux, the only
//! platform the benchmark supports.

use std::time::Duration;

/// `cpu_set_t`: a 1024-bit mask.
const CPU_SET_WORDS: usize = 16;
type CpuSet = [u64; CPU_SET_WORDS];

/// `CLOCK_PROCESS_CPUTIME_ID` of `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// The set of CPUs the calling thread may run on.
#[derive(Clone, Copy)]
pub struct Affinity(CpuSet);

impl Affinity {
    /// The calling thread's current affinity mask.
    pub fn current() -> Result<Affinity, String> {
        let mut set: CpuSet = [0; CPU_SET_WORDS];
        // SAFETY: `set` is a live, writable buffer of exactly the size
        // passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        if rc == 0 {
            Ok(Affinity(set))
        } else {
            Err(format!(
                "sched_getaffinity failed: {}",
                std::io::Error::last_os_error()
            ))
        }
    }

    /// Number of CPUs in the set.
    pub fn count(&self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }

    /// The lowest-numbered CPU in the set.
    pub fn first_cpu(&self) -> Option<usize> {
        self.0
            .iter()
            .enumerate()
            .find(|(_, w)| **w != 0)
            .map(|(i, w)| i * 64 + w.trailing_zeros() as usize)
    }

    /// Restrict the calling thread (and every thread it creates from now on)
    /// to this set.
    pub fn apply(&self) -> Result<(), String> {
        // SAFETY: `self.0` is a live buffer of exactly the size passed; pid 0
        // names the calling thread.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &self.0) };
        if rc == 0 {
            Ok(())
        } else {
            Err(format!(
                "sched_setaffinity failed: {}",
                std::io::Error::last_os_error()
            ))
        }
    }

    /// The set holding only `cpu`.
    pub fn single(cpu: usize) -> Affinity {
        let mut set: CpuSet = [0; CPU_SET_WORDS];
        set[cpu / 64] = 1 << (cpu % 64);
        Affinity(set)
    }
}

/// Pin the calling thread to the first CPU of its allowed set.  Returns the
/// original set (to lift the pin later) and the CPU chosen.
pub fn pin_to_first_cpu() -> Result<(Affinity, usize), String> {
    let allowed = Affinity::current()?;
    let cpu = allowed
        .first_cpu()
        .ok_or_else(|| "the allowed CPU set is empty".to_string())?;
    Affinity::single(cpu).apply()?;
    let now = Affinity::current()?;
    if now.count() != 1 || now.first_cpu() != Some(cpu) {
        return Err(format!("pinning to CPU {cpu} did not take effect"));
    }
    Ok((allowed, cpu))
}

/// CPU time consumed so far by every thread of this process.
pub fn process_cpu_time() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

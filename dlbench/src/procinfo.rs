//! What the operating system knows about this process: CPU time, peak
//! resident memory, context switches, and how busy the machine is.

use std::os::raw::{c_int, c_long};

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s of
/// which the last two are voluntary and involuntary context switches.
#[repr(C)]
struct Rusage {
    ru_utime: [c_long; 2],
    ru_stime: [c_long; 2],
    ru_counts: [c_long; 14],
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const RUSAGE_SELF: c_int = 0;

/// Words of a `cpu_set_t` (1024 bits).
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
}

/// Restrict the calling thread — and every thread it spawns afterwards,
/// which inherit the mask — to the highest-numbered CPU it may run on.
/// Returns that CPU, or `None` when the mask could not be read or set.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of `bytes` bytes, the
    // size passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let (word, bits) = mask.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
    let bit = 63 - bits.leading_zeros() as usize;
    let mut one = [0u64; CPU_SET_WORDS];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live buffer of `bytes` bytes, the size passed,
    // and names a CPU the thread is already allowed on.
    (unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(word * 64 + bit)
}

/// User + system CPU time of every thread of this process, nanoseconds.
pub fn cpu_time_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two C longs on
    // Linux) and the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Involuntary context switches of this process so far, exited threads
/// included: how often the scheduler took a vCPU away from it.
pub fn involuntary_ctx_switches() -> u64 {
    let mut ru = Rusage {
        ru_utime: [0; 2],
        ru_stime: [0; 2],
        ru_counts: [0; 14],
    };
    // SAFETY: `ru` is a live, writable buffer with the layout of Linux's
    // 64-bit `struct rusage` (18 longs), which is all the call writes.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    ru.ru_counts[13] as u64
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The 1-minute load average.
pub fn loadavg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

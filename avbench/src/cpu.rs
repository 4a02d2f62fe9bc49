//! Spreading measured work evenly over the machine's cores.
//!
//! On a shared machine one core can run the same code markedly slower
//! than another for minutes at a time (a busy hyperthread sibling, say).
//! A single-threaded rep then measures whichever core the scheduler
//! happened to pick. Running one rep on each allowed core per round, and
//! taking the median over rounds, makes every round see the same mix.

use std::ffi::c_int;

/// Linux `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
}

/// The cores this thread may run on, ascending; never empty. When the
/// kernel will not say, the first `available_parallelism` cores.
pub fn allowed() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable buffer of exactly the size passed; pid 0
    // names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    let cores: Vec<usize> = (0..1024)
        .filter(|i| rc == 0 && set[i / 64] & (1 << (i % 64)) != 0)
        .collect();
    if cores.is_empty() {
        (0..std::thread::available_parallelism().map_or(1, |n| n.get())).collect()
    } else {
        cores
    }
}

/// Restricts every thread of this process to `cpus`, as [`pin`] does
/// for one. Threads started later inherit the mask of the thread that
/// starts them. Returns whether every thread was pinned.
pub fn pin_process(cpus: &[usize]) -> bool {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return false;
    };
    let mut all = true;
    for task in tasks.flatten() {
        if let Some(tid) = task
            .file_name()
            .to_str()
            .and_then(|t| t.parse::<c_int>().ok())
        {
            all &= set(tid, cpus);
        }
    }
    all
}

/// Restricts the calling thread to `cpus`. Returns whether the kernel
/// accepted the mask; on refusal the thread keeps its old mask.
pub fn pin(cpus: &[usize]) -> bool {
    set(0, cpus)
}

/// Sets the mask of thread `tid`; 0 names the calling thread.
fn set(tid: c_int, cpus: &[usize]) -> bool {
    let mut mask: CpuSet = [0; 16];
    for &c in cpus.iter().filter(|c| **c < 1024) {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a readable buffer of exactly the size passed. A
    // tid the kernel no longer knows (a thread that just exited) makes
    // the call fail, not misbehave.
    unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), &mask) == 0 }
}

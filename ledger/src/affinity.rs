//! Thread placement for the workloads and the host probe.

/// The CPUs the calling thread may run on, ascending; empty if the host
/// does not say.
pub fn allowed() -> Vec<usize> {
    imp::get().map_or_else(Vec::new, |mask| {
        (0..imp::WORDS * 64)
            .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
            .collect()
    })
}

/// Run `f` with the calling thread pinned to `cpus`, then restore its
/// previous CPU set. Threads spawned inside `f` keep the pin for life.
/// If the host refuses the pin, `f` runs unpinned.
pub fn pinned<R>(cpus: &[usize], f: impl FnOnce() -> R) -> R {
    let previous = imp::get();
    let mut mask = [0u64; imp::WORDS];
    for &cpu in cpus {
        if let Some(word) = mask.get_mut(cpu / 64) {
            *word |= 1 << (cpu % 64);
        }
    }
    let ok = previous.is_some() && imp::set(&mask);
    let r = f();
    if let (true, Some(prev)) = (ok, previous) {
        imp::set(&prev);
    }
    r
}

#[cfg(target_os = "linux")]
mod imp {
    /// 1024 CPUs, glibc's `cpu_set_t`.
    pub const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// The calling thread's CPU set.
    pub fn get() -> Option<[u64; WORDS]> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a live buffer of exactly `size_of_val(&mask)`
        // bytes for the whole call, and pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    /// Set the calling thread's CPU set.
    pub fn set(mask: &[u64; WORDS]) -> bool {
        // SAFETY: as in `get`; glibc only reads the buffer.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub const WORDS: usize = 16;

    pub fn get() -> Option<[u64; WORDS]> {
        None
    }

    pub fn set(_mask: &[u64; WORDS]) -> bool {
        false
    }
}

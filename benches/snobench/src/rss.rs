//! `peak_rss_mb`: the resident-set high-water mark of the timed phase.
//!
//! Set-up generates on every core, and glibc gives each worker thread
//! its own malloc arena, each keeping a few MiB resident. How many
//! arenas a run creates depends on thread timing, which moved the
//! baseline by 3 MiB from run to run. With one arena, and the pages
//! set-up freed handed back before the mark is reset, the mark starts
//! from the live inputs alone. The timed calls run on one thread, so
//! the arena count does not change how they allocate.

use crate::report::Outcome;

#[cfg(all(target_os = "linux", target_env = "gnu"))]
mod glibc {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
        fn malloc_trim(pad: usize) -> i32;
    }

    /// glibc's `M_ARENA_MAX` parameter.
    const M_ARENA_MAX: i32 = -8;

    pub fn single_arena() {
        // SAFETY: mallopt takes no pointer and only sets an allocator
        // parameter; it runs before any other thread exists.
        unsafe {
            mallopt(M_ARENA_MAX, 1);
        }
    }

    pub fn release_free() {
        // SAFETY: malloc_trim takes no pointer and only returns free
        // heap pages to the kernel; live allocations are untouched.
        unsafe {
            malloc_trim(0);
        }
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
mod glibc {
    pub fn single_arena() {}
    pub fn release_free() {}
}

/// Share one malloc arena between all threads. Call first in `main`.
pub fn single_arena() {
    glibc::single_arena();
}

/// Restart the high-water mark from the current resident set. False
/// where `/proc/self/clear_refs` is unavailable.
pub fn reset_peak() -> bool {
    glibc::release_free();
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Push `peak_rss_mb`, the `VmHWM` since [`reset_peak`].
pub fn push_metric(reset: bool, out: &mut Outcome) {
    let mb = sno_bench::mem::peak_rss_mb().unwrap_or(0.0);
    if !reset {
        println!("peak_rss_mb: high-water mark not reset, includes set-up");
    }
    out.metric("peak_rss_mb", mb, "MiB");
}

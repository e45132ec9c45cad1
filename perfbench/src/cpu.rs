//! CPU-time clocks.
//!
//! Every timing metric is CPU time, not wall time: on a shared machine a
//! request's wall time also holds the time its thread waited for a core
//! (run-queue wait) and the time the hypervisor gave the core to another
//! guest (steal). Both come from the neighbours, not from the program, and
//! they moved wall-clock figures of the same code by 16–37% between runs.
//! The kernel's CPU-time clocks count only the time a thread ran.

use std::time::Duration;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the CPU-time clocks are read through 64-bit Linux's clock_gettime");

/// `struct timespec` as 64-bit Linux lays it out.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read(clock: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (the layout is
    // pinned to 64-bit Linux above) for the call's duration, and both
    // clock ids exist on every Linux since 2.6.12.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Which threads a CPU-time measurement covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// The calling thread only: for work that runs inline on it while
    /// other measured threads run beside it.
    Thread,
    /// Every thread of the process: for work that may fan out to worker
    /// threads while nothing else of the benchmark runs.
    Process,
}

impl Clock {
    pub fn now(self) -> Duration {
        match self {
            Clock::Thread => read(CLOCK_THREAD_CPUTIME_ID),
            Clock::Process => read(CLOCK_PROCESS_CPUTIME_ID),
        }
    }

    /// CPU time spent by `f`, with its result.
    pub fn time<T>(self, f: impl FnOnce() -> T) -> (T, Duration) {
        let t0 = self.now();
        let out = f();
        (out, self.now().saturating_sub(t0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_count_work_not_sleep() {
        let (_, slept) = Clock::Thread.time(|| std::thread::sleep(Duration::from_millis(30)));
        assert!(
            slept < Duration::from_millis(10),
            "sleep counted: {slept:?}"
        );
        // Spin until the thread itself has run 20 ms; the process clock
        // must have counted at least that.
        let (x, spun) = Clock::Process.time(|| {
            let t0 = Clock::Thread.now();
            let mut x = 0u64;
            while Clock::Thread.now() - t0 < Duration::from_millis(20) {
                x = x.wrapping_add(1);
            }
            x
        });
        assert!(x > 0);
        assert!(
            spun >= Duration::from_millis(20),
            "spin not counted: {spun:?}"
        );
    }
}

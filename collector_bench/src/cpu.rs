//! CPU time of the whole process, every thread included (also threads
//! that have already ended).
//!
//! On a shared host the two cores are not always both available to the
//! process: a closed-loop burst then runs its client, connection and
//! worker threads one at a time, and its wall time nearly doubles while
//! the CPU time it burns stays put. Ingest cost is therefore measured
//! in CPU time.

use std::ffi::c_long;

/// `struct timespec` of the Linux C library (`time_t` is a `long`).
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Seconds of CPU time this process has used so far.
pub fn process_secs() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec`; the call
    // writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn counts_threads_that_have_ended() {
        let t0 = process_secs();
        std::thread::spawn(|| {
            let t = Instant::now();
            let mut x = 1u64;
            while t.elapsed() < Duration::from_millis(60) {
                x = std::hint::black_box(x.wrapping_mul(3));
            }
        })
        .join()
        .unwrap();
        // Other tests run in this process too, so only a lower bound holds.
        let spun = process_secs() - t0;
        assert!(spun >= 0.02, "a 60 ms spin used {spun} s");
    }
}

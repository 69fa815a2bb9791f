//! Process CPU time.
//!
//! On a shared virtual machine the hypervisor can run other guests on this
//! guest's cores (steal time); wall-clock time counts those gaps, CPU time
//! does not.

#![allow(unsafe_code)]

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` in Linux's `<time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds this process (every thread, live or exited) has run.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `timespec` through the pointer,
    // which refers to `ts`, a live, exclusively borrowed value of that
    // layout.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "Linux supports CLOCK_PROCESS_CPUTIME_ID");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Wall-clock and CPU seconds of one timed stretch.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub wall: f64,
    pub cpu: f64,
}

/// Reads wall-clock and process CPU time from one starting point.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: std::time::Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            wall: std::time::Instant::now(),
            cpu: process_cpu_s(),
        }
    }

    /// The time elapsed since [`Stopwatch::start`].
    pub fn read(&self) -> Timing {
        Timing {
            wall: self.wall.elapsed().as_secs_f64(),
            cpu: process_cpu_s() - self.cpu,
        }
    }
}

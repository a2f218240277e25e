//! Host resource usage of this process (all threads) from `getrusage`,
//! declared by hand so the benchmark needs no extra crate.

use std::os::raw::{c_int, c_long};

#[repr(C)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` as Linux lays it out: two timevals, then 14 longs.
#[repr(C)]
struct RawUsage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    _ixrss_to_nsignals: [c_long; 11],
    nvcsw: c_long,
    nivcsw: c_long,
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut RawUsage) -> c_int;
}

const RUSAGE_SELF: c_int = 0;

/// One `getrusage(RUSAGE_SELF)` reading.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    /// Voluntary context switches.
    pub vcsw: f64,
    /// Involuntary context switches.
    pub nivcsw: f64,
    /// High-water resident set size, KiB.
    pub maxrss_kb: f64,
}

pub fn now() -> Usage {
    let mut raw = std::mem::MaybeUninit::<RawUsage>::zeroed();
    // SAFETY: `RawUsage` matches the C `struct rusage` layout on Linux
    // (every field is a `long`), the pointer is valid for writes of that
    // size, and `RUSAGE_SELF` is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, raw.as_mut_ptr()) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    // SAFETY: zero-initialised, then filled by a successful getrusage;
    // every bit pattern is a valid `c_long`.
    let r = unsafe { raw.assume_init() };
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage {
        user_s: secs(&r.utime),
        sys_s: secs(&r.stime),
        vcsw: r.nvcsw as f64,
        nivcsw: r.nivcsw as f64,
        maxrss_kb: r.maxrss as f64,
    }
}

impl Usage {
    /// Counters accumulated between `earlier` and `self` (maxrss stays
    /// the later high-water mark).
    pub fn since(self, earlier: Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            vcsw: self.vcsw - earlier.vcsw,
            nivcsw: self.nivcsw - earlier.nivcsw,
            maxrss_kb: self.maxrss_kb,
        }
    }
}

//! Process-level readings: CPU time from `/proc/self/stat`, thread count and
//! peak RSS from `/proc/self/status`, and context switches from
//! `getrusage`, which (unlike `/proc`) still counts threads that exited.

use std::fs;

/// Clock ticks per second of the `utime`/`stime` fields in `/proc`. Linux
/// reports them in `USER_HZ`, which is 100 on every architecture it
/// exports to user space.
const USER_HZ: f64 = 100.0;

/// Process CPU time so far, in microseconds: (user, system). Covers every
/// thread of the process, including threads that already exited.
pub fn cpu_us() -> (f64, f64) {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return (0.0, 0.0);
    };
    // The command name (field 2) may hold spaces; fields restart after ')'.
    let after = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let fields: Vec<&str> = after.split_whitespace().collect();
    // After ')' the first field is field 3 (state); utime is 14, stime 15.
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(sys)) => (user / USER_HZ * 1e6, sys / USER_HZ * 1e6),
        _ => (0.0, 0.0),
    }
}

fn status_field(name: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Live OS threads of the process.
pub fn threads() -> u64 {
    status_field("Threads").unwrap_or(0)
}

/// Peak resident set size (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    status_field("VmHWM").unwrap_or(0) as f64 / 1024.0
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const NVCSW: usize = 12;
const NIVCSW: usize = 13;

/// Voluntary plus involuntary context switches of every thread the process
/// ever ran.
pub fn context_switches() -> u64 {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` with the C layout
    // of 64-bit Linux; getrusage writes at most that struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc != 0 {
        return 0;
    }
    (usage.longs[NVCSW] + usage.longs[NIVCSW]).max(0) as u64
}

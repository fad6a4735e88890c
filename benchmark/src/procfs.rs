//! Process CPU time and peak resident memory.

use std::fs;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the harness reads /proc and assumes the 64-bit Linux timespec layout");

/// `struct timespec` on 64-bit Linux: `time_t` and `long` are 64 bits.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// User + system CPU seconds this process has used so far, all threads,
/// exited ones included. (`/proc/self/stat` reports the same quantity in
/// 10 ms ticks, which quantises a 200-op pass to about half a percent
/// and makes equal readings on different runs likely.)
pub fn cpu_seconds() -> Result<f64, String> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `Timespec` whose layout matches
    // the C `struct timespec` of the targets the guard above admits, and
    // `clock_gettime` writes nothing but that struct.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return Err(format!(
            "clock_gettime(CLOCK_PROCESS_CPUTIME_ID): {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9)
}

/// The `VmHWM` line of `/proc/<pid>/status`, in MB (10^6 bytes; the
/// kernel reports kB = 1024 bytes).
pub fn parse_status_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb as f64 * 1024.0 / 1e6)
}

/// Peak resident set size of this process since start (or since the
/// last successful [`reset_peak_rss`]).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    parse_status_peak_rss_mb(&status).ok_or_else(|| "/proc/self/status: no VmHWM line".to_string())
}

/// Reset the kernel's peak-RSS watermark to the current RSS, so that
/// `peak_rss_mb` afterwards covers the timed ops and not the oracle
/// runs of set-up. Returns whether the kernel accepted the reset; when
/// it does not (old kernel, read-only `/proc`), the watermark simply
/// keeps covering set-up too.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_peak_rss_is_the_vmhwm_line() {
        let status = "Name:\tbench\nVmPeak:\t  999999 kB\nVmHWM:\t   20000 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_status_peak_rss_mb(status), Some(20.48));
        assert_eq!(parse_status_peak_rss_mb("Name:\tbench\n"), None);
    }

    #[test]
    fn this_process_is_readable() {
        let before = cpu_seconds().unwrap();
        let mut x = 1u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(i | 1));
        }
        assert!(cpu_seconds().unwrap() > before, "{x}");
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}

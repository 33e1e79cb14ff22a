//! Host facts stamped on every output, and the process's own resource
//! readings (CPU time, peak resident set).

use std::process::Command;
use std::time::Duration;

/// What ran where: enough to tell, after the fact, whether two results
/// are comparable and whether the host was busy.
#[derive(Debug, Clone)]
pub struct HostStamp {
    /// `std::thread::available_parallelism`.
    pub host_cpus: usize,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc -V` of the toolchain on `PATH`.
    pub rustc: String,
    /// `git rev-parse --short HEAD`, or `unknown` outside a repository
    /// (the acceptance driver measures an exported tree).
    pub commit: String,
    /// One-minute load average when the stamp was taken.
    pub load_1m: f64,
    /// Which `serde`, `rand`, `bytes`, ... this binary was linked
    /// against: `registry` (the published crates) or `standins` (the
    /// offline fallback under `standins/`). `run.sh` sets
    /// `ORBENCH_DEPS` for the build; a build made any other way reads
    /// `unknown`.
    pub deps: &'static str,
}

impl HostStamp {
    /// Reads the facts; anything unavailable becomes `unknown` / 0.
    pub fn collect() -> Self {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        Self {
            host_cpus: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model: parse_cpu_model(&cpuinfo).unwrap_or("unknown").to_owned(),
            rustc: command_line("rustc", &["-V"]),
            commit: command_line("git", &["rev-parse", "--short", "HEAD"]),
            load_1m: std::fs::read_to_string("/proc/loadavg")
                .ok()
                .and_then(|text| parse_loadavg(&text))
                .unwrap_or(0.0),
            deps: option_env!("ORBENCH_DEPS").unwrap_or("unknown"),
        }
    }

    /// Whether the host was already busy: other work on more than half
    /// the CPUs makes a timed run suspect.
    pub fn is_noisy(&self) -> bool {
        self.load_1m > self.host_cpus as f64 / 2.0
    }

    /// The stamp as one JSON object.
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "host_cpus": self.host_cpus,
            "cpu_model": self.cpu_model,
            "rustc": self.rustc,
            "commit": self.commit,
            "load_1m": self.load_1m,
            "deps": self.deps,
        })
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|output| output.status.success())
        .and_then(|output| String::from_utf8(output.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |text| text.trim().to_owned())
}

fn parse_cpu_model(cpuinfo: &str) -> Option<&str> {
    cpuinfo
        .lines()
        .find(|line| line.starts_with("model name"))
        .and_then(|line| line.split_once(':'))
        .map(|(_, model)| model.trim())
}

fn parse_loadavg(text: &str) -> Option<f64> {
    text.split_whitespace().next()?.parse().ok()
}

/// `VmHWM` (the resident-set high-water mark) out of
/// `/proc/<pid>/status` text, in MiB.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// This process's peak resident set in MiB (0 where `/proc` is absent).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| parse_vm_hwm_mib(&status))
        .unwrap_or(0.0)
}

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
struct TimeVal {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs
/// this harness does not read.
#[repr(C)]
struct RUsage {
    user: TimeVal,
    system: TimeVal,
    rest: [i64; 14],
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// User plus system CPU time this process has consumed so far, threads
/// that already exited included (`getrusage(RUSAGE_SELF)`).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_time() -> Duration {
    const RUSAGE_SELF: i32 = 0;
    let mut usage = RUsage {
        user: TimeVal { sec: 0, usec: 0 },
        system: TimeVal { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `usage` is a live, writable value laid out as the 64-bit
    // Linux `struct rusage` (144 bytes: 2 x timeval + 14 x long), which is
    // all `getrusage` writes; RUSAGE_SELF is a valid `who`.
    let status = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        status, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    let of = |t: &TimeVal| Duration::new(t.sec as u64, t.usec as u32 * 1_000);
    of(&usage.user) + of(&usage.system)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("orbench reads CPU time through the 64-bit Linux getrusage ABI");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_parsed_from_status_text() {
        let status =
            "Name:\torbench\nVmPeak:\t  300000 kB\nVmHWM:\t  204800 kB\nVmRSS:\t  100 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(200.0));
        assert_eq!(parse_vm_hwm_mib("Name:\tx\n"), None);
        assert!(peak_rss_mib() > 0.0, "a running process has a resident set");
    }

    #[test]
    fn cpu_time_advances_with_work_and_never_goes_back() {
        let before = cpu_time();
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
        }
        std::hint::black_box(x);
        let after = cpu_time();
        assert!(after > before, "{before:?} -> {after:?}");
    }

    #[test]
    fn cpu_model_and_loadavg_parse() {
        let cpuinfo = "processor\t: 0\nmodel name\t: Example CPU @ 2.0GHz\nflags\t: x\n";
        assert_eq!(parse_cpu_model(cpuinfo), Some("Example CPU @ 2.0GHz"));
        assert_eq!(parse_loadavg("0.52 0.40 0.33 1/123 4567\n"), Some(0.52));
        assert_eq!(parse_loadavg(""), None);
    }

    #[test]
    fn noisy_means_load_above_half_the_cpus() {
        let mut stamp = HostStamp::collect();
        stamp.host_cpus = 2;
        stamp.load_1m = 0.9;
        assert!(!stamp.is_noisy());
        stamp.load_1m = 1.1;
        assert!(stamp.is_noisy());
    }
}

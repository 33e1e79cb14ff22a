//! The serve workload: an `Observatory` running a fixed number of
//! epochs while one closed-loop client reads its HTTP surface.
//!
//! The operation is one whole `Observatory::run()` on a fresh state
//! directory.
//! The client opens a new connection per request, as `curl` does, and
//! alternates `GET /tables` and `GET /trends` for as long as the run
//! lasts; the scheduler thread plus that one client never exceed the
//! two runnable threads of the reference host.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use orscope_observe::{http, HttpConfig, Observatory, ObservatoryCheckpoint};

use crate::host;
use crate::stats;
use crate::workload::Params;

/// One client request: when it ran and whether it returned `200` with
/// its full `Content-Length`.
#[derive(Debug, Clone, Copy)]
pub struct HttpSample {
    /// Just before `connect`.
    pub started: Instant,
    /// After the last body byte.
    pub ended: Instant,
    /// Whether the response was complete and `200`.
    pub ok: bool,
}

impl HttpSample {
    /// Connect → last body byte, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.ended - self.started).as_secs_f64() * 1e3
    }
}

/// One timed `Observatory::run()` and everything checked about it.
#[derive(Debug)]
pub struct ServeRep {
    /// Wall time of `Observatory::run()`.
    pub wall: Duration,
    /// Process CPU time over the same span (scheduler, HTTP threads and
    /// the client together).
    pub cpu: Duration,
    /// When `run()` was entered (traced runs anchor their span here).
    pub started: Instant,
    /// Simulator events summed over the run's campaign rounds, read
    /// from the service's own `/metrics` surface.
    pub events: u64,
    /// Epochs the run completed.
    pub epochs: u64,
    /// The client's requests, in order.
    pub samples: Vec<HttpSample>,
    /// FNV-1a-64 of the final `/tables` document.
    pub tables_fnv64: u64,
    /// Whether every serve check passed.
    pub ok: bool,
}

/// A directory for this process's scratch state, inside the build
/// directory (`<target>/orbench/`), so nothing is written outside the
/// checkout.
pub fn output_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the running executable has a path");
    // <target>/<profile>/orbench, or <target>/<profile>/deps/<test> under
    // `cargo test`: either way the profile directory's parent is the
    // target directory.
    let profile_dir = exe
        .ancestors()
        .find(|dir| {
            dir.file_name()
                .is_some_and(|name| name == "release" || name == "debug")
        })
        .expect("the executable lives in a cargo profile directory");
    profile_dir
        .parent()
        .expect("profile directory has a parent")
        .join("orbench")
}

fn fresh_state_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = output_dir().join(format!(
        "state-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    // A stale directory from a killed run with the same pid would make
    // the observatory resume instead of starting at epoch 0.
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `GET path` on a new connection; the body if the server answered
/// `200` and sent exactly `Content-Length` bytes.
pub fn http_get(addr: SocketAddr, path: &str) -> io::Result<Vec<u8>> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: orbench\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response)?;
    let split = response
        .windows(4)
        .position(|window| window == b"\r\n\r\n")
        .ok_or_else(|| bad("no header end"))?;
    let head = std::str::from_utf8(&response[..split]).map_err(|_| bad("header is not UTF-8"))?;
    if !head.starts_with("HTTP/1.1 200 ") {
        return Err(bad(head.lines().next().unwrap_or("empty response")));
    }
    let declared: usize = head
        .lines()
        .find_map(|line| {
            let (name, value) = line.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .ok_or_else(|| bad("no Content-Length"))?;
    let body = response.split_off(split + 4);
    if body.len() != declared {
        return Err(bad("body shorter than Content-Length"));
    }
    Ok(body)
}

/// The closed loop: one request at a time until `stop` is raised.
fn client_loop(addr: SocketAddr, stop: &AtomicBool) -> Vec<HttpSample> {
    let mut samples = Vec::new();
    for path in ["/tables", "/trends"].into_iter().cycle() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let started = Instant::now();
        let ok = http_get(addr, path).is_ok();
        samples.push(HttpSample {
            started,
            ended: Instant::now(),
            ok,
        });
    }
    samples
}

/// The value of `orscope_net_events_processed` on the campaign surface
/// of a `/metrics` document.
pub fn parse_events_processed(metrics: &str) -> Option<u64> {
    metrics
        .lines()
        .find(|line| {
            line.starts_with("orscope_net_events_processed{")
                && line.contains("surface=\"campaign\"")
        })?
        .rsplit(' ')
        .next()?
        .parse()
        .ok()
}

/// Runs `epochs` epochs on a fresh state directory under the HTTP
/// client, checks the outcome, and removes the directory again.
///
/// # Panics
///
/// Panics when the observatory cannot start or run (unusable build
/// directory, port exhaustion): that is a broken harness, not a
/// measurement.
pub fn serve_rep(params: &Params, seed: u64, epochs: u64) -> ServeRep {
    let state_dir = fresh_state_dir();
    let config = params.serve(seed, epochs, state_dir.clone());
    let fingerprint = config.fingerprint();
    let mut observatory = Observatory::new(config).expect("serve configuration is valid");
    let shared = observatory.shared();
    let listener = TcpListener::bind("127.0.0.1:0").expect("a loopback port is free");
    let surface = http::serve_with(listener, shared.clone(), HttpConfig::default())
        .expect("listener goes nonblocking");
    let addr = surface.addr();

    let stop = Arc::new(AtomicBool::new(false));
    let client = {
        let stop = stop.clone();
        std::thread::spawn(move || client_loop(addr, &stop))
    };

    let cpu_before = host::cpu_time();
    let started = Instant::now();
    let report = observatory.run().expect("serve run completes");
    let wall = started.elapsed();
    let cpu = host::cpu_time() - cpu_before;

    stop.store(true, Ordering::SeqCst);
    let samples = client.join().expect("client thread does not panic");

    // The scheduler has stopped, so the surface is quiescent: what it
    // serves now must be exactly the final tables.
    let tables = shared.tables_bytes();
    let served = http_get(addr, "/tables");
    let metrics = String::from_utf8(shared.metrics_bytes()).unwrap_or_default();
    let events = parse_events_processed(&metrics).unwrap_or(0);
    shared.request_shutdown();
    surface.join();

    let recovered = ObservatoryCheckpoint::recover(&state_dir, &fingerprint)
        .ok()
        .and_then(|recovery| recovery.checkpoint)
        .map(|checkpoint| checkpoint.tables.tables_bytes());
    let ok = report.epochs_completed == epochs
        && report.epochs_degraded == 0
        && shared.tables_snapshot().validate().is_ok()
        && served.is_ok_and(|body| body == tables)
        && recovered.is_some_and(|bytes| bytes == tables)
        && events > 0;
    let _ = std::fs::remove_dir_all(&state_dir);

    ServeRep {
        wall,
        cpu,
        started,
        events,
        epochs: report.epochs_completed,
        samples,
        tables_fnv64: stats::fnv1a64(&tables),
        ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_read_from_the_campaign_surface_only() {
        let metrics = "# TYPE orscope_net_events_processed counter\n\
             orscope_net_events_processed{surface=\"service\",scope=\"shard\"} 7\n\
             orscope_net_events_processed{surface=\"campaign\",scope=\"shard\"} 123456\n";
        assert_eq!(parse_events_processed(metrics), Some(123_456));
        assert_eq!(
            parse_events_processed("orscope_other{surface=\"campaign\"} 1\n"),
            None
        );
    }

    #[test]
    fn output_dir_is_inside_the_target_directory() {
        let dir = output_dir();
        assert_eq!(dir.file_name().unwrap(), "orbench");
        let exe = std::env::current_exe().unwrap();
        assert!(
            exe.starts_with(dir.parent().unwrap()),
            "{} vs {}",
            exe.display(),
            dir.display()
        );
    }
}

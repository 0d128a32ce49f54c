//! The `/metrics` endpoint: Prometheus text exposition over a bare
//! `std::net::TcpListener`.
//!
//! No HTTP library — a scrape is one short request and one
//! `text/plain` response, which forty lines of std cover. [`start`]
//! is the whole telemetry plane's ignition switch: it arms the
//! [`crate::watchdog`], binds the listener (port `0` asks the kernel
//! for a free port; the bound address is returned and logged), and
//! spawns two detached threads:
//!
//! - the **exporter** thread answers every connection with what the
//!   caller's render function returns at that moment, followed by
//!   `obs_uptime_seconds` and `obs_worker_stalls_total`;
//! - the **snapshot** thread runs one watchdog patrol a few times a
//!   second.
//!
//! This crate counts nothing itself: the render function reads
//! whatever its owner counted (the engine passes its own). Both
//! threads are wall-clock side channels and never touch simulation
//! state, so every deterministic artifact is byte-identical with the
//! exporter on or off.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use crate::watchdog;

/// How often the snapshot thread patrols heartbeats.
const SNAPSHOT_EVERY: Duration = Duration::from_millis(250);

/// Default stall threshold: a worker silent for this long while busy is
/// reported. Overridable via `REPRO_STALL_MS` (smoke tests inject
/// sub-second stalls).
pub fn stall_threshold_ms() -> u64 {
    std::env::var("REPRO_STALL_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5_000)
}

/// Starts the whole live telemetry plane, serving `render()` at every
/// scrape, and returns the bound address (useful with port 0). The
/// threads are detached and die with the process.
pub fn start(addr: &str, stall_ms: u64, render: fn() -> String) -> std::io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let started = Instant::now();
    watchdog::set_active(true);
    std::thread::Builder::new()
        .name("obs-exporter".to_string())
        .spawn(move || serve_loop(&listener, started, render))?;
    std::thread::Builder::new()
        .name("obs-snapshot".to_string())
        .spawn(move || loop {
            std::thread::sleep(SNAPSHOT_EVERY);
            watchdog::patrol(stall_ms);
        })?;
    Ok(local)
}

fn serve_loop(listener: &TcpListener, started: Instant, render: fn() -> String) {
    for stream in listener.incoming() {
        match stream {
            Ok(stream) => {
                // Scrapes are rare (seconds apart) and tiny; serving
                // inline keeps the exporter single-threaded and dumb.
                let _ = respond(stream, started, render);
            }
            Err(e) => {
                crate::debug!("obs: exporter accept error: {e}");
            }
        }
    }
}

fn respond(mut stream: TcpStream, started: Instant, render: fn() -> String) -> std::io::Result<()> {
    // Drain (up to a sane bound) whatever request line and headers the
    // scraper sent; the response is the same for any path.
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    let mut buf = [0u8; 4096];
    let mut seen = Vec::new();
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                seen.extend_from_slice(&buf[..n]);
                if seen.windows(4).any(|w| w == b"\r\n\r\n") || seen.len() > 64 * 1024 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let body = format!(
        "{}# HELP obs_uptime_seconds Seconds since the telemetry plane started.\n\
         # TYPE obs_uptime_seconds gauge\n\
         obs_uptime_seconds {}\n\
         # HELP obs_worker_stalls_total Stall onsets detected by the heartbeat watchdog.\n\
         # TYPE obs_worker_stalls_total counter\n\
         obs_worker_stalls_total {}\n",
        render(),
        started.elapsed().as_secs_f64(),
        watchdog::stalls(),
    );
    let header = format!(
        "HTTP/1.1 200 OK\r\n\
         Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Minimal in-process scraper: connect, send a GET, read to EOF.
    fn scrape(addr: SocketAddr) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect to exporter");
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n")
            .expect("send request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        response
    }

    static TEST_COUNT: AtomicU64 = AtomicU64::new(3);

    fn render() -> String {
        let n = TEST_COUNT.load(Ordering::Relaxed);
        format!("# TYPE exporter_test_total counter\nexporter_test_total {n}\n")
    }

    #[test]
    fn exporter_serves_prometheus_text_end_to_end() {
        let _guard = watchdog::test_serial();
        let addr = start("127.0.0.1:0", 60_000, render).expect("bind port 0");
        assert_ne!(addr.port(), 0, "kernel assigned a real port");
        let response = scrape(addr);
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
        assert!(response.contains("Content-Type: text/plain; version=0.0.4"));
        let body = response
            .split("\r\n\r\n")
            .nth(1)
            .expect("header/body split");
        assert!(body.starts_with("# TYPE exporter_test_total counter\nexporter_test_total 3\n"));
        assert!(body.contains("\n# TYPE obs_uptime_seconds gauge\nobs_uptime_seconds "));
        assert!(body.contains("\n# TYPE obs_worker_stalls_total counter\nobs_worker_stalls_total "));
        // A second scrape renders afresh.
        TEST_COUNT.store(4, Ordering::Relaxed);
        assert!(scrape(addr).contains("exporter_test_total 4"));
        watchdog::set_active(false);
    }
}

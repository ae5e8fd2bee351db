//! `serve_bench` — daemon latency, throughput, and shed-rate benchmark.
//!
//! Runs an in-process [`gcr_serve::Server`] on a scratch unix socket and
//! measures it from a real client:
//!
//! 1. **Latency/throughput**: a serial client issues warm `measure` and
//!    `health` requests; reports requests/sec and p50/p99 latency.
//! 2. **Overload**: a deliberately tiny server (1 worker, queue of 2) is
//!    flooded by concurrent clients issuing cold measurements; reports
//!    the shed rate (fraction answered `err overloaded`) — the bounded
//!    admission queue doing its job.
//!
//! Results merge into the `serve` section of `BENCH_sweep.json`
//! (`--json PATH` overrides), preserving the sweep sections written by
//! `sweep_bench`.
//!
//! Usage: `serve_bench [--requests N] [--clients N] [--json PATH]`

use gcr_bench::cli::{merge_section, Flags};
use gcr_bench::sweep::MeasureCache;
use gcr_cli::report::Json;
use gcr_serve::chaos::Client;
use gcr_serve::{Request, Server, ServerConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

fn main() {
    let flags = Flags::from_env();
    let requests: usize = flags.num("--requests", 400);
    let clients: usize = flags.num("--clients", 8);
    let json_path = flags.value("--json").unwrap_or_else(|| "BENCH_sweep.json".into());

    let dir = std::env::temp_dir().join(format!("gcr-serve-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");

    let (rps, p50_ns, p99_ns) = latency_phase(&dir, requests);
    println!(
        "latency: {requests} requests, {rps:.0} req/s, p50 {:.1} us, p99 {:.1} us",
        p50_ns as f64 / 1e3,
        p99_ns as f64 / 1e3
    );

    let (issued, ok, overloaded, timeout, shed_rate) = overload_phase(&dir, clients);
    println!(
        "overload: {issued} requests from {clients} clients, {ok} ok, \
         {overloaded} shed, {timeout} timed out, shed rate {shed_rate:.2}"
    );

    let serve = Json::O(vec![
        ("requests", Json::U(requests as u64)),
        ("requests_per_sec", Json::F(rps)),
        ("p50_ns", Json::U(p50_ns)),
        ("p99_ns", Json::U(p99_ns)),
        (
            "overload",
            Json::O(vec![
                ("workers", Json::U(1)),
                ("queue", Json::U(2)),
                ("clients", Json::U(clients as u64)),
                ("issued", Json::U(issued)),
                ("ok", Json::U(ok)),
                ("overloaded", Json::U(overloaded)),
                ("timeout", Json::U(timeout)),
                ("shed_rate", Json::F(shed_rate)),
            ]),
        ),
    ]);
    if let Err(e) = merge_section(&json_path, vec![("serve", serve)]) {
        eprintln!("could not write {json_path}: {e}");
        std::process::exit(1);
    }
    println!("serve section merged into {json_path}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Serial client against a default-sized server; returns
/// `(requests/sec, p50 ns, p99 ns)` over warm requests.
fn latency_phase(dir: &std::path::Path, requests: usize) -> (f64, u64, u64) {
    let socket = dir.join("latency.sock").to_string_lossy().into_owned();
    let server = Server::new(ServerConfig::default(), MeasureCache::new());
    let mut latencies: Vec<u64> = Vec::with_capacity(requests);
    let mut wall = Duration::ZERO;
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve_unix(&socket).expect("serve"));
        let mut client =
            Client::connect_with_retry(&socket, Duration::from_secs(10)).expect("connect");
        client.set_deadline(Duration::from_secs(30)).unwrap();
        let measure = Request::new("measure")
            .with("app", "ADI")
            .with("strategy", "fuse+group")
            .with("size", 12)
            .with("steps", 1);
        // Cold call fills the cache; everything timed after it is warm.
        assert!(client.call(&measure).expect("cold measure").is_ok());
        let started = Instant::now();
        for i in 0..requests {
            let req = if i % 2 == 0 { &measure } else { &Request::new("health") };
            let t = Instant::now();
            let resp = client.call(req).expect("warm request");
            latencies.push(t.elapsed().as_nanos() as u64);
            assert!(resp.is_ok(), "warm request failed: {}", resp.body);
        }
        wall = started.elapsed();
        assert!(client.call(&Request::new("shutdown")).expect("shutdown").is_ok());
        handle.join().expect("server thread");
    });
    server.finish().expect("flush");
    latencies.sort_unstable();
    let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p) as usize];
    (requests as f64 / wall.as_secs_f64(), pct(0.50), pct(0.99))
}

/// Concurrent clients flooding a 1-worker, queue-of-2 server with cold
/// measurements on a tight deadline; returns
/// `(issued, ok, overloaded, timeout, shed_rate)`.
fn overload_phase(dir: &std::path::Path, clients: usize) -> (u64, u64, u64, u64, f64) {
    use gcr_serve::ErrCode;
    let socket = dir.join("overload.sock").to_string_lossy().into_owned();
    let server = Server::new(
        ServerConfig { workers: 1, queue: 2, default_deadline_ms: 2_000 },
        MeasureCache::new(),
    );
    let per_client = 20usize;
    let (ok, overloaded, timeout, other) =
        (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve_unix(&socket).expect("serve"));
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                let (socket, ok, overloaded, timeout, other) =
                    (&socket, &ok, &overloaded, &timeout, &other);
                scope.spawn(move || {
                    let mut client = Client::connect_with_retry(socket, Duration::from_secs(10))
                        .expect("connect");
                    client.set_deadline(Duration::from_secs(10)).unwrap();
                    for i in 0..per_client {
                        // Distinct sizes keep the cache cold, so every
                        // admitted request occupies the lone worker.
                        let req = Request::new("measure")
                            .with("app", "SP")
                            .with("strategy", "original")
                            .with("size", 8 + ((c * per_client + i) % 24) as i64)
                            .with("steps", 1)
                            .with("deadline_ms", 100);
                        match client.call(&req) {
                            Ok(resp) => match resp.code {
                                None => ok.fetch_add(1, Ordering::Relaxed),
                                Some(ErrCode::Overloaded) => {
                                    overloaded.fetch_add(1, Ordering::Relaxed)
                                }
                                Some(ErrCode::Timeout) => timeout.fetch_add(1, Ordering::Relaxed),
                                Some(_) => other.fetch_add(1, Ordering::Relaxed),
                            },
                            Err(_) => other.fetch_add(1, Ordering::Relaxed),
                        };
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("client thread");
        }
        let mut client =
            Client::connect_with_retry(&socket, Duration::from_secs(10)).expect("connect");
        client.set_deadline(Duration::from_secs(60)).unwrap();
        assert!(client.call(&Request::new("shutdown")).expect("shutdown").is_ok());
        handle.join().expect("server thread");
    });
    server.finish().expect("flush");
    let issued = (clients * per_client) as u64;
    let (ok, overloaded, timeout) =
        (ok.into_inner(), overloaded.into_inner(), timeout.into_inner());
    (issued, ok, overloaded, timeout, overloaded as f64 / issued as f64)
}

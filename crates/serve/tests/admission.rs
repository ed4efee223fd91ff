//! Admission latency: the daemon accepts a connection as soon as it
//! arrives, and a shutdown request still wakes the accept loop.

mod common;

use std::sync::mpsc;
use std::time::{Duration, Instant};

use common::{http_get, spawn_run};
use tta_core::cache::SweepCache;
use tta_serve::client::control;
use tta_serve::jsonparse::Json;
use tta_serve::server::Server;

/// `POST /shutdown` to `addr`; asserts `run` returns within 2 s.
fn shut_down(
    addr: &str,
    handle: std::thread::JoinHandle<std::io::Result<()>>,
    finished: &mpsc::Receiver<()>,
) {
    control(addr, "/shutdown").expect("shutdown accepted");
    assert!(
        finished.recv_timeout(Duration::from_secs(2)).is_ok(),
        "run must return within 2 s of /shutdown"
    );
    handle
        .join()
        .expect("serve thread joins cleanly")
        .expect("clean shutdown");
}

#[test]
fn sequential_requests_are_admitted_without_waiting_out_a_poll() {
    let server = Server::bind("127.0.0.1:0", 1, SweepCache::in_memory()).expect("bind");
    let addr = server.local_addr().expect("bound address").to_string();
    let (handle, finished) = spawn_run(server);

    // A closed-loop client reconnects right after each answer. A 20 ms
    // accept poll made 100 round trips take about 2 s; a blocking
    // accept takes tens of milliseconds.
    let start = Instant::now();
    for _ in 0..100 {
        let health = http_get(&addr, "/healthz");
        assert_eq!(health.get("ok").and_then(Json::as_bool), Some(true));
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "100 sequential /healthz round trips took {elapsed:?}"
    );
    shut_down(&addr, handle, &finished);
}

#[test]
fn shutdown_wakes_a_daemon_bound_to_the_unspecified_address() {
    // The stop watcher cannot connect to 0.0.0.0; it wakes the accept
    // loop through loopback instead.
    let server = Server::bind("0.0.0.0:0", 1, SweepCache::in_memory()).expect("bind");
    let port = server.local_addr().expect("bound address").port();
    let addr = format!("127.0.0.1:{port}");
    let (handle, finished) = spawn_run(server);
    let health = http_get(&addr, "/healthz");
    assert_eq!(health.get("ok").and_then(Json::as_bool), Some(true));
    shut_down(&addr, handle, &finished);
}

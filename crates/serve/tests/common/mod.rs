//! Shared harness for the serve integration suites: an in-process
//! daemon on an ephemeral port, stopped via `POST /shutdown`.

// Each integration binary uses a different subset of this harness.
#![allow(dead_code)]

use tta_core::cache::SweepCache;
use tta_serve::client::control;
use tta_serve::server::Server;
use tta_serve::spec::JobSpec;

/// A running in-process daemon; dropping it without [`Daemon::stop`]
/// leaks the serve thread (tests should always stop).
pub struct Daemon {
    /// `host:port` of the bound listener.
    pub addr: String,
    handle: std::thread::JoinHandle<std::io::Result<()>>,
}

/// Boots a daemon on `127.0.0.1:0` with `workers` workers over `cache`.
pub fn start(workers: usize, cache: SweepCache) -> Daemon {
    serve(Server::bind("127.0.0.1:0", workers, cache).expect("bind ephemeral port"))
}

/// Runs an already bound (and possibly fault-armed) `server`.
pub fn serve(server: Server) -> Daemon {
    let addr = server.local_addr().expect("bound address").to_string();
    let handle = std::thread::spawn(move || server.run());
    Daemon { addr, handle }
}

/// Runs `server` on its own thread. The receiver hears when `run`
/// returns, so a test can bound how long shutdown takes.
pub fn spawn_run(
    server: Server,
) -> (
    std::thread::JoinHandle<std::io::Result<()>>,
    std::sync::mpsc::Receiver<()>,
) {
    let (done, finished) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let result = server.run();
        let _ = done.send(());
        result
    });
    (handle, finished)
}

impl Daemon {
    /// Graceful shutdown: `POST /shutdown`, then join the serve thread
    /// and propagate its final cache-flush result.
    pub fn stop(self) -> std::io::Result<()> {
        control(&self.addr, "/shutdown").expect("shutdown accepted");
        self.handle.join().expect("serve thread joins cleanly")
    }
}

/// The standard quick job the suites submit: the tiny space, one
/// workload, JSON output.
pub fn tiny_spec() -> JobSpec {
    JobSpec {
        space: Some("tiny".into()),
        workloads: vec!["crypt".into()],
        format: tta_serve::spec::Format::Json,
        ..JobSpec::default()
    }
}

/// What a local (in-process, cacheless) run of `spec` prints — the
/// byte-identity oracle for every remote comparison.
pub fn local_output(spec: &JobSpec) -> String {
    tta_serve::exec::prepare(spec)
        .expect("spec resolves")
        .run(None, None, None, None)
        .output
}

/// Removes the sanctioned `"delta":{...}` object from a JSON document
/// and the `delta engine:` footer from a table one. These counters
/// report per-run incremental work, which a warm cache legitimately
/// shrinks — the one stdout field exempt from byte identity (CI strips
/// it with `sed` before its own `cmp`).
pub fn strip_delta(s: &str) -> String {
    let s = match s.find(",\"delta\":{") {
        None => s.to_string(),
        Some(start) => {
            let end = start + s[start..].find('}').expect("delta object closes") + 1;
            format!("{}{}", &s[..start], &s[end..])
        }
    };
    s.lines()
        .filter(|line| !line.starts_with("delta engine:"))
        .map(|line| format!("{line}\n"))
        .collect()
}

/// Minimal raw GET helper (the thin client only POSTs).
pub fn http_get(addr: &str, path: &str) -> tta_serve::jsonparse::Json {
    use std::io::{BufReader, Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut reader = BufReader::new(&stream);
    let head = tta_serve::http::read_response_head(&mut reader).expect("response head");
    assert_eq!(head.status, 200, "GET {path}");
    let mut body = vec![0u8; head.content_length.expect("framed body")];
    reader.read_exact(&mut body).expect("body");
    tta_serve::jsonparse::Json::parse(String::from_utf8_lossy(&body).trim()).expect("json body")
}

//! The `serve_mix` workload: an in-process daemon on a loopback port,
//! driven by two closed-loop client connections sending a seeded mix of
//! small sweep jobs, half of them repeats of an earlier spec.

use std::collections::HashSet;
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::Duration;

use tta_core::cache::SweepCache;
use tta_core::explore::LiftMode;
use tta_serve::http::{read_chunk_into, read_response_head};
use tta_serve::jsonparse::Json;
use tta_serve::server::Server;
use tta_serve::spec::{Format, JobSpec, Strategy};

use crate::span::{now_ns, Recorder, NO_PARENT};
use crate::sweep::splitmix;

/// Daemon worker threads.
pub const WORKERS: usize = 2;
/// Client connections (closed loop: each sends its next job only after
/// the previous one has finished streaming). With the daemon's two
/// workers this keeps the generator at the machine's two cores.
pub const CLIENTS: usize = 2;
/// Jobs in one pass of the mix.
pub const JOBS: usize = 120;
/// Deadline on every client socket read and write.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// Job classes of the fresh specs, in proportion: per 20 fresh specs, 6
/// over the tiny space, 7 over the fast space, 5 small huge-space random
/// budgets and 2 over the paper space.
const CLASS_PATTERN: [u8; 20] = *b"tfhtfhftfptfhftfhfpt";

/// Workloads the tiny-space jobs run one at a time.
const TINY_WORKLOADS: [&str; 8] = [
    "crypt",
    "fir16",
    "bitcount",
    "checksum32",
    "dct8",
    "gcd12",
    "fft",
    "viterbi",
];

/// The `k`-th fresh spec of class `class`. Each class cycles through a
/// fixed list of distinct specs (workload or suite × lift × format), so
/// every seed's mix asks for about the same work; `offset` (from the
/// seed) rotates where the cycle starts. Huge-space budgets cycle with
/// `k` alone, so every mix visits the same number of points.
fn fresh_spec(class: u8, k: usize, offset: usize, seed: u64) -> JobSpec {
    const FORMATS: [Format; 3] = [Format::Json, Format::Csv, Format::Table];
    let r = k + offset;
    let mut spec = JobSpec {
        parallel: false,
        ..JobSpec::default()
    };
    match class {
        b't' => {
            spec.space = Some("tiny".into());
            spec.workloads = vec![TINY_WORKLOADS[r % 8].into()];
            spec.format = FORMATS[(r / 8) % 3];
        }
        b'f' => {
            spec.space = Some("fast".into());
            spec.suite = Some(["paper", "dsp", "control", "all"][r % 4].into());
            if (r / 4) % 2 == 1 {
                spec.lift = LiftMode::Full;
            }
            spec.format = FORMATS[(r / 8) % 3];
        }
        b'h' => {
            spec.space = Some("huge".into());
            spec.suite = Some(["paper", "dsp", "control"][r % 3].into());
            spec.strategy = Strategy::Random;
            spec.budget = Some([16, 32, 64, 128][k % 4]);
            spec.seed = Some(seed.wrapping_add(k as u64) % 1000);
            spec.format = FORMATS[r % 3];
        }
        _ => {
            spec.space = Some("paper".into());
            spec.suite = Some(["paper", "control"][r % 2].into());
            spec.format = FORMATS[(r / 2) % 3];
        }
    }
    spec
}

/// The job sequence for `seed`: `n / 2` fresh specs, each sent once
/// more at a later position, so half the jobs repeat an earlier spec.
/// The seed picks what the jobs ask for (the suite rotation and the
/// huge-space sample seeds); the order of classes and the repeat
/// positions are the same for every seed, because the latency tail
/// depends on where the slow paper-space jobs fall in the order.
pub fn generate(seed: u64, n: usize) -> Vec<JobSpec> {
    let offset = (splitmix(&mut (seed ^ 0x5e57_e1ab_0b5e_ed00)) % 12) as usize;
    let mut st: u64 = 0x0bde_0f5e_ed00_c1a5;
    let mut seen = [0usize; 256];
    let mut fresh: Vec<JobSpec> = (0..n / 2)
        .map(|i| {
            let class = CLASS_PATTERN[i % CLASS_PATTERN.len()];
            let k = seen[class as usize];
            seen[class as usize] += 1;
            fresh_spec(class, k, offset, seed)
        })
        .collect();
    for i in (1..fresh.len()).rev() {
        fresh.swap(i, (splitmix(&mut st) % (i as u64 + 1)) as usize);
    }
    let mut out = Vec::with_capacity(n);
    let mut pending: Vec<JobSpec> = Vec::new();
    let mut next = fresh.into_iter();
    let mut left = n / 2;
    while out.len() < n {
        let repeat = !pending.is_empty() && (left == 0 || splitmix(&mut st).is_multiple_of(2));
        if repeat {
            let i = (splitmix(&mut st) % pending.len() as u64) as usize;
            out.push(pending.swap_remove(i));
        } else if let Some(spec) = next.next() {
            left -= 1;
            pending.push(spec.clone());
            out.push(spec);
        } else {
            break;
        }
    }
    out
}

/// What the client saw of one job.
#[derive(Debug, Clone, Default)]
pub struct JobRecord {
    /// Position in the mix.
    pub index: usize,
    /// HTTP status (0 when no response head arrived).
    pub status: u16,
    /// Daemon-assigned job id.
    pub job: u64,
    /// The `done` event's rendered output.
    pub output: Option<String>,
    /// Points the daemon evaluated.
    pub evaluations: u64,
    /// Whether an identical spec had already finished when this one was
    /// sent, so every point it asks for is in the shared cache.
    pub cache_hit: bool,
    /// Why the job failed, if it did.
    pub error: Option<String>,
    /// Client clock, nanoseconds: before connecting.
    pub t_connect: u64,
    /// `queued` event read.
    pub t_queued: u64,
    /// `started` event read.
    pub t_started: u64,
    /// `done` event read.
    pub t_done: u64,
    /// Final chunk read.
    pub t_end: u64,
}

impl JobRecord {
    /// Connect to end of the stream, milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.t_end.saturating_sub(self.t_connect)) as f64 * 1e-6
    }

    /// Whether the job answered 200 and streamed a `done` event.
    pub fn ok(&self) -> bool {
        self.status == 200 && self.output.is_some() && self.error.is_none()
    }
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok(stream)
}

/// Submits one job and reads its NDJSON stream to the end.
fn run_job(addr: SocketAddr, index: usize, spec: &JobSpec, cache_hit: bool) -> JobRecord {
    let mut rec = JobRecord {
        index,
        cache_hit,
        t_connect: now_ns(),
        ..JobRecord::default()
    };
    if let Err(e) = stream_job(addr, spec, &mut rec) {
        rec.error = Some(e);
    }
    if rec.t_end == 0 {
        rec.t_end = now_ns();
    }
    rec
}

fn stream_job(addr: SocketAddr, spec: &JobSpec, rec: &mut JobRecord) -> Result<(), String> {
    let stream = connect(addr).map_err(|e| format!("connect: {e}"))?;
    let body = spec.to_json();
    (&stream)
        .write_all(
            format!(
                "POST /run HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .map_err(|e| format!("send: {e}"))?;
    let mut reader = BufReader::new(&stream);
    let head = read_response_head(&mut reader).map_err(|e| format!("head: {e}"))?;
    rec.status = head.status;
    if head.status != 200 || !head.chunked {
        return Err(format!(
            "answered {} (chunked: {})",
            head.status, head.chunked
        ));
    }
    let mut buffer: Vec<u8> = Vec::new();
    loop {
        let n = read_chunk_into(&mut reader, &mut buffer).map_err(|e| format!("stream: {e}"))?;
        let now = now_ns();
        while let Some(nl) = buffer.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = buffer.drain(..=nl).collect();
            let event = Json::parse(String::from_utf8_lossy(&line).trim())
                .map_err(|e| format!("event: {e}"))?;
            rec.job = event.get("job").and_then(Json::as_u64).unwrap_or(rec.job);
            match event.get("event").and_then(Json::as_str) {
                Some("queued") => rec.t_queued = now,
                Some("started") => rec.t_started = now,
                Some("done") => {
                    rec.t_done = now;
                    rec.evaluations = event.get("evaluations").and_then(Json::as_u64).unwrap_or(0);
                    rec.output = event.get("output").and_then(Json::as_str).map(String::from);
                    if event.get("cancelled").and_then(Json::as_bool) != Some(false) {
                        return Err("job reported cancelled".into());
                    }
                }
                Some("error") => {
                    let msg = event.get("error").and_then(Json::as_str).unwrap_or("");
                    return Err(format!("job failed: {msg}"));
                }
                _ => {}
            }
        }
        if n == 0 {
            rec.t_end = now;
            break;
        }
    }
    if rec.output.is_none() {
        return Err("stream ended without a done event".into());
    }
    Ok(())
}

/// Sends `method path` with an empty body and returns the answer's JSON.
fn request(addr: SocketAddr, method: &str, path: &str) -> Result<Json, String> {
    let stream = connect(addr).map_err(|e| format!("connect: {e}"))?;
    send_request(&stream, addr, method, path)?;
    read_json(&stream)
}

fn send_request(
    stream: &TcpStream,
    addr: SocketAddr,
    method: &str,
    path: &str,
) -> Result<(), String> {
    let mut w = stream;
    write!(
        w,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
    )
    .and_then(|()| w.flush())
    .map_err(|e| format!("{method} {path}: {e}"))
}

fn read_json(stream: &TcpStream) -> Result<Json, String> {
    let mut reader = BufReader::new(stream);
    let head = read_response_head(&mut reader).map_err(|e| e.to_string())?;
    let mut body = vec![0u8; head.content_length.unwrap_or(0)];
    reader.read_exact(&mut body).map_err(|e| e.to_string())?;
    if head.status != 200 {
        return Err(format!("answered {}", head.status));
    }
    Json::parse(String::from_utf8_lossy(&body).trim())
}

/// A daemon serving on a background thread.
pub struct Daemon {
    addr: SocketAddr,
    handle: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    /// Binds a daemon with a fresh cache under `dir` on an ephemeral
    /// loopback port and waits for a healthy `/healthz`. The probe is
    /// queued on the bound listener before the accept loop starts, so
    /// the start-up time does not depend on where the loop's idle poll
    /// happens to be.
    pub fn start(dir: &Path) -> Result<Daemon, String> {
        let cache = SweepCache::open(dir).map_err(|e| e.to_string())?;
        let server = Server::bind("127.0.0.1:0", WORKERS, cache).map_err(|e| e.to_string())?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let probe = connect(addr).map_err(|e| e.to_string())?;
        send_request(&probe, addr, "GET", "/healthz")?;
        let handle = std::thread::spawn(move || server.run());
        let daemon = Daemon { addr, handle };
        match read_json(&probe) {
            Ok(health) if health.get("ok").and_then(Json::as_bool) == Some(true) => Ok(daemon),
            other => {
                let _ = daemon.stop();
                Err(format!("unhealthy daemon: {other:?}"))
            }
        }
    }

    /// Admitted jobs the daemon's `/jobs` table lists, and how many of
    /// them are not in a terminal state.
    pub fn job_states(&self) -> Result<(usize, usize), String> {
        let jobs = request(self.addr, "GET", "/jobs")?;
        let jobs = jobs.as_arr().ok_or("/jobs is not an array")?;
        let open = jobs
            .iter()
            .filter(|j| {
                !matches!(
                    j.get("state").and_then(Json::as_str),
                    Some("done" | "cancelled" | "failed")
                )
            })
            .count();
        Ok((jobs.len(), open))
    }

    /// Shuts the daemon down through `/shutdown` and waits for its
    /// drain (workers joined, cache flushed) to finish.
    pub fn stop(self) -> Result<(), String> {
        let asked = request(self.addr, "POST", "/shutdown");
        let ran = self
            .handle
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?;
        asked?;
        ran.map_err(|e| format!("daemon drain: {e}"))
    }
}

/// One pass of the mix against a running daemon.
pub struct Pass {
    /// Per-job records, in mix order.
    pub jobs: Vec<JobRecord>,
    /// First connect to last end of stream, seconds.
    pub wall_s: f64,
    /// Jobs left non-terminal in `/jobs` after the pass (or every job,
    /// when the table could not be read).
    pub left_open: usize,
}

/// Runs `specs` through `daemon` from [`CLIENTS`] closed-loop clients,
/// then checks `/jobs`.
pub fn pass(daemon: &Daemon, specs: &[JobSpec]) -> Pass {
    let next = AtomicUsize::new(0);
    let finished: Mutex<HashSet<String>> = Mutex::new(HashSet::new());
    let records: Mutex<Vec<JobRecord>> = Mutex::new(Vec::with_capacity(specs.len()));
    let start = now_ns();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = specs.get(i) else { break };
                let key = spec.to_json();
                let hit = finished.lock().expect("finished set").contains(&key);
                let rec = run_job(daemon.addr, i, spec, hit);
                if rec.ok() {
                    finished.lock().expect("finished set").insert(key);
                }
                records.lock().expect("records").push(rec);
            });
        }
    });
    let wall_s = (now_ns() - start) as f64 * 1e-9;
    let mut jobs = records.into_inner().expect("records");
    jobs.sort_by_key(|r| r.index);
    let admitted = jobs.iter().filter(|r| r.job > 0).count();
    let left_open = match daemon.job_states() {
        Ok((listed, open)) => open + admitted.saturating_sub(listed),
        Err(_) => jobs.len(),
    };
    Pass {
        jobs,
        wall_s,
        left_open,
    }
}

/// Client-side spans of a pass: one `serve.job` per job, split into its
/// admission, queue wait, run and stream phases.
pub fn spans_of(pass: &Pass, rec: &mut Recorder) {
    for j in &pass.jobs {
        let request = j.job;
        let root = rec.record("serve.job", request, NO_PARENT, j.t_connect, j.t_end);
        if !j.ok() {
            continue;
        }
        let phases = [
            ("serve.admit", j.t_connect, j.t_queued),
            ("serve.queue_wait", j.t_queued, j.t_started),
            ("serve.run", j.t_started, j.t_done),
            ("serve.stream", j.t_done, j.t_end),
        ];
        for (name, from, to) in phases {
            rec.record(name, request, root, from, to);
        }
    }
}

/// The in-process render of `spec` through `tta_serve::exec`.
pub fn render_locally(spec: &JobSpec) -> Result<String, String> {
    Ok(tta_serve::exec::prepare(spec)?
        .run(None, None, None, None)
        .output)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_job_sequence() {
        let a = generate(5, JOBS);
        assert_eq!(a, generate(5, JOBS));
        assert_ne!(a, generate(6, JOBS));
        let distinct: HashSet<String> = a.iter().map(JobSpec::to_json).collect();
        // Half the jobs repeat an earlier spec.
        assert_eq!(a.len(), JOBS);
        assert_eq!(distinct.len(), JOBS / 2);
        for spec in &a {
            tta_serve::exec::prepare(spec).expect("every generated spec is valid");
            assert!(!spec.parallel);
        }
    }

    #[test]
    fn a_small_mix_matches_the_local_render() {
        let dir = crate::test_dir("serve");
        let specs: Vec<JobSpec> = generate(3, 12)
            .into_iter()
            .filter(|s| s.space.as_deref() != Some("paper"))
            .collect();
        let daemon = Daemon::start(&dir).unwrap();
        let p = pass(&daemon, &specs);
        daemon.stop().unwrap();
        assert_eq!(p.left_open, 0);
        for (j, spec) in p.jobs.iter().zip(&specs) {
            assert!(j.ok(), "{j:?}");
            assert!(j.t_connect <= j.t_queued && j.t_queued <= j.t_started);
            assert!(j.t_started <= j.t_done && j.t_done <= j.t_end);
            assert_eq!(
                j.output.as_deref(),
                Some(render_locally(spec).unwrap().as_str())
            );
        }
        let mut rec = Recorder::new();
        spans_of(&p, &mut rec);
        assert_eq!(rec.spans().len(), specs.len() * 5);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

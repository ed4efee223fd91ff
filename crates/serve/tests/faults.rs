//! Fault injection against a live daemon: truncated requests, garbage
//! specs, panicking workers, cancellation mid-batch, clients vanishing
//! mid-stream. The contract under test is *per-job* degradation — one
//! broken job or client must never wedge the queue, corrupt the shared
//! cache, or take the daemon down.

mod common;

use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

use common::{http_get, local_output, serve, spawn_run, start, tiny_spec};
use tta_core::cache::{SweepCache, CACHE_FILE_NAME};
use tta_serve::client::{control, run_remote};
use tta_serve::jsonparse::Json;
use tta_serve::server::{Server, MAX_CONNECTIONS};
use tta_serve::spec::{Format, JobSpec, Strategy};

/// A job slow enough (thousands of points sampled from the huge space,
/// several seconds in a debug build) that cancel/disconnect reliably
/// lands mid-sweep, yet small enough that resuming it to completion
/// stays in test-suite territory.
fn long_spec() -> JobSpec {
    JobSpec {
        space: Some("huge".into()),
        workloads: vec!["crypt".into()],
        strategy: Strategy::Random,
        seed: Some(11),
        budget: Some(8_000),
        format: Format::Json,
        ..JobSpec::default()
    }
}

/// Sends a raw POST and returns the whole wire answer as text.
fn raw_post(addr: &str, path: &str, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut answer = String::new();
    BufReader::new(&stream)
        .read_to_string(&mut answer)
        .expect("read answer");
    answer
}

/// Polls `GET /jobs` until job `id` reports `want` (or times out).
fn wait_for_state(addr: &str, id: u64, want: &str, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        let jobs = http_get(addr, "/jobs");
        let found = jobs.as_arr().is_some_and(|arr| {
            arr.iter().any(|j| {
                j.get("job").and_then(Json::as_u64) == Some(id)
                    && j.get("state").and_then(Json::as_str) == Some(want)
            })
        });
        if found {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

/// Sends `method path` until it gets past the connection cap, and
/// returns the first status that is not `503`. A handler that has
/// answered may still be exiting, so a freed slot shows up late.
fn status_past_cap(addr: &str, method: &str, path: &str) -> u16 {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
        )
        .expect("send request");
        let status = tta_serve::http::read_response_head(&mut BufReader::new(&stream))
            .expect("response head")
            .status;
        if status != 503 || Instant::now() > deadline {
            return status;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A fresh scratch directory under the system temp dir.
fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ttadse-faults-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn truncated_requests_answer_400_and_the_daemon_stays_healthy() {
    let daemon = start(1, SweepCache::in_memory());

    // Head cut off mid-line: the parser sees EOF inside the request
    // line and answers 400 (half-close keeps our read side open).
    {
        let mut stream = TcpStream::connect(&daemon.addr).expect("connect");
        stream.write_all(b"POST /run HT").expect("partial head");
        stream.shutdown(Shutdown::Write).expect("half-close");
        let mut answer = String::new();
        BufReader::new(&stream)
            .read_to_string(&mut answer)
            .expect("read answer");
        assert!(
            answer.starts_with("HTTP/1.1 400"),
            "truncated head should answer 400: {answer:?}"
        );
    }

    // Body shorter than its Content-Length.
    {
        let mut stream = TcpStream::connect(&daemon.addr).expect("connect");
        stream
            .write_all(b"POST /run HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n{\"spa")
            .expect("partial body");
        stream.shutdown(Shutdown::Write).expect("half-close");
        let mut answer = String::new();
        BufReader::new(&stream)
            .read_to_string(&mut answer)
            .expect("read answer");
        assert!(
            answer.starts_with("HTTP/1.1 400"),
            "truncated body should answer 400: {answer:?}"
        );
    }

    // A head past the 16 KiB limit answers 413. The server may close
    // while we are still writing, so the send is best-effort.
    {
        let mut stream = TcpStream::connect(&daemon.addr).expect("connect");
        let giant = format!(
            "POST /run HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "y".repeat(20 * 1024)
        );
        let _ = stream.write_all(giant.as_bytes());
        let mut answer = String::new();
        let _ = BufReader::new(&stream).read_to_string(&mut answer);
        assert!(
            answer.starts_with("HTTP/1.1 413"),
            "oversized head should answer 413: {answer:?}"
        );
    }

    // None of it left a mark: healthy, no job records, and a real job
    // still runs to completion.
    let health = http_get(&daemon.addr, "/healthz");
    assert_eq!(health.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        http_get(&daemon.addr, "/jobs").as_arr().map(<[Json]>::len),
        Some(0)
    );
    let (mut out, mut err) = (Vec::new(), Vec::new());
    run_remote(&daemon.addr, &tiny_spec(), &mut out, &mut err).expect("daemon still serves jobs");
    daemon.stop().expect("clean shutdown");
}

#[test]
fn malformed_specs_answer_400_and_never_reach_the_queue() {
    let daemon = start(1, SweepCache::in_memory());
    let bad_bodies = [
        "",                       // empty body
        "{not json",              // unparsable
        "{\"space\": 7}",         // ill-typed field
        "{\"bogus\": 1}",         // unknown field
        "{\"space\": \"nope\"}",  // unresolvable space
        "{\"budget\": 0}",        // invalid value
        "{\"fault\": \"quake\"}", // unknown fault kind
    ];
    for body in bad_bodies {
        let answer = raw_post(&daemon.addr, "/run", body);
        assert!(
            answer.starts_with("HTTP/1.1 400"),
            "{body:?} should answer 400: {answer:?}"
        );
        assert!(answer.contains("\"error\""), "{answer:?}");
    }

    // Control-path errors are equally contained: unknown job, resume
    // without a checkpoint, unknown route.
    let e = control(&daemon.addr, "/jobs/99/cancel").expect_err("no such job");
    assert!(e.contains("404"), "{e}");
    let e = control(&daemon.addr, "/nope").expect_err("no such route");
    assert!(e.contains("404"), "{e}");

    // Not one of those attempts became a job record.
    assert_eq!(
        http_get(&daemon.addr, "/jobs").as_arr().map(<[Json]>::len),
        Some(0),
        "rejected specs must never be admitted"
    );
    daemon.stop().expect("clean shutdown");
}

#[test]
fn a_poisoned_worker_fails_alone_and_the_queue_keeps_draining() {
    // A single worker makes the point sharper: the very thread that
    // just panicked must pick up and finish the next job.
    let daemon = start(1, SweepCache::in_memory());

    let faulty = JobSpec {
        fault: Some("panic".into()),
        ..tiny_spec()
    };
    let (mut out, mut err) = (Vec::new(), Vec::new());
    let failure =
        run_remote(&daemon.addr, &faulty, &mut out, &mut err).expect_err("the fault fires");
    assert!(failure.contains("fault injection"), "{failure}");
    assert!(out.is_empty(), "a failed job must not emit a document");

    let jobs = http_get(&daemon.addr, "/jobs");
    let arr = jobs.as_arr().expect("jobs array");
    assert_eq!(arr[0].get("state").and_then(Json::as_str), Some("failed"));
    assert_eq!(
        arr[0].get("resumable").and_then(Json::as_bool),
        Some(false),
        "a job that panicked before evaluating has nothing to resume"
    );

    // The clean follow-up runs on the same worker thread against a
    // still-cold cache (the panic fired before any evaluation), so its
    // bytes equal the local run exactly.
    let spec = tiny_spec();
    let want = local_output(&spec);
    let (mut out, mut err) = (Vec::new(), Vec::new());
    let summary = run_remote(&daemon.addr, &spec, &mut out, &mut err)
        .expect("the queue drains past the poisoned job");
    assert_eq!(String::from_utf8(out).expect("utf-8"), want);
    assert!(!summary.cancelled);
    assert_eq!(
        http_get(&daemon.addr, "/healthz")
            .get("ok")
            .and_then(Json::as_bool),
        Some(true)
    );
    daemon.stop().expect("clean shutdown");
}

#[test]
fn cancel_mid_batch_checkpoints_the_job_and_resume_completes_it() {
    let daemon = start(2, SweepCache::in_memory());
    let spec = long_spec();
    let budget = spec.budget.expect("long spec has a budget");
    let addr = daemon.addr.clone();
    let client = std::thread::spawn(move || {
        let (mut out, mut err) = (Vec::new(), Vec::new());
        let summary = run_remote(&addr, &spec, &mut out, &mut err)
            .expect("a cancelled job still streams its partial document");
        (summary, out.len())
    });

    assert!(
        wait_for_state(&daemon.addr, 1, "running", Duration::from_secs(30)),
        "job 1 should start"
    );
    let answer = control(&daemon.addr, "/jobs/1/cancel").expect("cancel accepted");
    assert_eq!(answer.get("cancelled").and_then(Json::as_bool), Some(true));

    let (summary, document_len) = client.join().expect("client thread");
    assert!(summary.cancelled, "the done event reports the cancellation");
    assert!(document_len > 0, "the partial render still streams");
    assert!(
        summary.evaluations < budget as u64,
        "cancel landed mid-sweep: {} of {budget}",
        summary.evaluations
    );

    let jobs = http_get(&daemon.addr, "/jobs");
    let record = &jobs.as_arr().expect("jobs array")[0];
    assert_eq!(
        record.get("state").and_then(Json::as_str),
        Some("cancelled")
    );
    assert_eq!(
        record.get("resumable").and_then(Json::as_bool),
        Some(true),
        "a cancelled job keeps its checkpoint"
    );

    // Resume re-runs the stored spec from the checkpoint as a new job
    // and streams it the same way /run does.
    let mut stream = TcpStream::connect(&daemon.addr).expect("connect");
    write!(
        stream,
        "POST /jobs/1/resume HTTP/1.1\r\nHost: {}\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
        daemon.addr
    )
    .expect("send resume");
    let mut reader = BufReader::new(&stream);
    let head = tta_serve::http::read_response_head(&mut reader).expect("resume head");
    assert_eq!(head.status, 200);
    assert!(head.chunked, "resume streams NDJSON like /run");
    let body = tta_serve::http::read_chunked_body(&mut reader).expect("resume stream");
    let text = String::from_utf8_lossy(&body);
    let done = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .expect("terminal event");
    let done = Json::parse(done).expect("done event json");
    assert_eq!(done.get("event").and_then(Json::as_str), Some("done"));
    assert_eq!(done.get("cancelled").and_then(Json::as_bool), Some(false));
    assert!(
        done.get("evaluations").and_then(Json::as_u64).unwrap() >= summary.evaluations,
        "the resumed run carries the checkpointed observations forward"
    );
    daemon.stop().expect("clean shutdown");
}

#[test]
fn a_client_vanishing_mid_stream_cancels_its_job_cooperatively() {
    let daemon = start(1, SweepCache::in_memory());
    let body = long_spec().to_json();
    let mut stream = TcpStream::connect(&daemon.addr).expect("connect");
    write!(
        stream,
        "POST /run HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        daemon.addr,
        body.len()
    )
    .expect("submit long job");
    // Read just enough to know the stream started, then vanish. The
    // daemon notices the broken pipe on its next progress chunk and
    // cancels the job cooperatively.
    let mut first = [0u8; 64];
    let _ = stream.read(&mut first);
    drop(stream);

    assert!(
        wait_for_state(&daemon.addr, 1, "cancelled", Duration::from_secs(30)),
        "the orphaned job should land in the cancelled state"
    );
    let jobs = http_get(&daemon.addr, "/jobs");
    let record = &jobs.as_arr().expect("jobs array")[0];
    assert_eq!(
        record.get("resumable").and_then(Json::as_bool),
        Some(true),
        "the orphaned job checkpointed before stopping"
    );

    // The daemon shrugged it off: healthy, and a fresh client gets a
    // complete run.
    let (mut out, mut err) = (Vec::new(), Vec::new());
    let summary = run_remote(&daemon.addr, &tiny_spec(), &mut out, &mut err)
        .expect("daemon still serves jobs");
    assert!(!summary.cancelled);
    daemon.stop().expect("clean shutdown");
}

#[test]
fn a_failed_stream_head_cancels_the_admitted_job() {
    // The head write fails after admission, before the client saw a
    // byte. The job must be cancelled, not left running for no one: a
    // single worker makes a leaked job block the follow-up run.
    let server = Server::bind("127.0.0.1:0", 1, SweepCache::in_memory()).expect("bind");
    server.fail_next_stream_heads(1);
    let daemon = serve(server);
    let answer = raw_post(&daemon.addr, "/run", &long_spec().to_json());
    assert!(answer.is_empty(), "no head was written: {answer:?}");

    assert!(
        wait_for_state(&daemon.addr, 1, "cancelled", Duration::from_secs(30)),
        "the job whose stream never started should be cancelled"
    );
    let jobs = http_get(&daemon.addr, "/jobs");
    let record = &jobs.as_arr().expect("jobs array")[0];
    assert_eq!(
        record.get("resumable").and_then(Json::as_bool),
        Some(true),
        "the cancelled job keeps its checkpoint"
    );

    // The hook is spent: the next client gets a complete run.
    let (mut out, mut err) = (Vec::new(), Vec::new());
    let summary = run_remote(&daemon.addr, &tiny_spec(), &mut out, &mut err)
        .expect("daemon still serves jobs");
    assert!(!summary.cancelled);
    daemon.stop().expect("clean shutdown");
}

#[test]
fn a_silent_client_does_not_hold_up_graceful_shutdown() {
    // A client connects and never sends a byte. Shutdown must still
    // complete promptly: the drain ends the silent connection's read
    // instead of waiting for the client (or the read deadline).
    let server = Server::bind("127.0.0.1:0", 1, SweepCache::in_memory()).expect("bind");
    let addr = server.local_addr().expect("bound address").to_string();
    let (done, finished) = std::sync::mpsc::channel();
    let serve_thread = std::thread::spawn(move || {
        let result = server.run();
        let _ = done.send(());
        result
    });
    let silent = TcpStream::connect(&addr).expect("connect");
    // Connections are accepted in arrival order, so once this request
    // is answered the silent connection has been accepted too.
    http_get(&addr, "/healthz");
    control(&addr, "/shutdown").expect("shutdown accepted");
    assert!(
        finished.recv_timeout(Duration::from_secs(2)).is_ok(),
        "run must return within 2 s while a silent client stays connected"
    );
    serve_thread
        .join()
        .expect("serve thread joins cleanly")
        .expect("clean shutdown");
    drop(silent);
}

#[test]
fn faulted_daemons_flush_byte_identical_cache_files() {
    // Two dir-backed daemons run the same real job; one of them also
    // absorbs a panicking job first. The injected panic fires before
    // any evaluation, so the fault contributes nothing to the cache —
    // after graceful shutdown both flushed files must match byte for
    // byte. Any drift would mean a failing job corrupted shared state.
    let clean_dir = scratch_dir("clean");
    let fault_dir = scratch_dir("fault");
    let clean = start(1, SweepCache::open(&clean_dir).expect("open clean cache"));
    let faulted = start(1, SweepCache::open(&fault_dir).expect("open faulted cache"));

    let faulty = JobSpec {
        fault: Some("panic".into()),
        ..tiny_spec()
    };
    let (mut out, mut err) = (Vec::new(), Vec::new());
    run_remote(&faulted.addr, &faulty, &mut out, &mut err).expect_err("the fault fires");

    let spec = tiny_spec();
    for daemon in [&clean, &faulted] {
        let (mut out, mut err) = (Vec::new(), Vec::new());
        let summary =
            run_remote(&daemon.addr, &spec, &mut out, &mut err).expect("the real job runs");
        assert_eq!(summary.cache, "flushed");
    }

    clean.stop().expect("clean daemon shutdown");
    faulted.stop().expect("faulted daemon shutdown");

    let clean_bytes = std::fs::read(clean_dir.join(CACHE_FILE_NAME)).expect("clean cache file");
    let fault_bytes = std::fs::read(fault_dir.join(CACHE_FILE_NAME)).expect("faulted cache file");
    assert!(!clean_bytes.is_empty(), "the job populated the cache");
    assert_eq!(
        clean_bytes, fault_bytes,
        "a failing job must not perturb the flushed cache"
    );

    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&fault_dir);
}

#[test]
fn connections_over_the_cap_answer_503_without_a_handler() {
    let server = Server::bind("127.0.0.1:0", 1, SweepCache::in_memory()).expect("bind");
    let addr = server.local_addr().expect("bound address").to_string();
    let (serve_thread, finished) = spawn_run(server);
    // Every silent connection holds a handler thread until its read
    // deadline. Connections are accepted in arrival order, so all of
    // them are in before the next one.
    let mut silent: Vec<TcpStream> = (0..MAX_CONNECTIONS)
        .map(|_| TcpStream::connect(&addr).expect("connect"))
        .collect();
    let mut over = TcpStream::connect(&addr).expect("connect");
    let mut answer = String::new();
    over.read_to_string(&mut answer).expect("read answer");
    assert!(
        answer.starts_with("HTTP/1.1 503"),
        "a connection over the cap should answer 503: {answer:?}"
    );
    assert!(answer.contains("\"error\""), "{answer:?}");

    // Hanging up one silent client frees its handler, and the daemon
    // serves again once that handler has exited.
    drop(silent.pop());
    assert_eq!(
        status_past_cap(&addr, "GET", "/healthz"),
        200,
        "a freed slot should serve /healthz"
    );
    assert_eq!(status_past_cap(&addr, "POST", "/shutdown"), 200);
    assert!(
        finished.recv_timeout(Duration::from_secs(2)).is_ok(),
        "run must return within 2 s while {} silent clients stay connected",
        silent.len()
    );
    serve_thread
        .join()
        .expect("serve thread joins cleanly")
        .expect("clean shutdown");
    drop(silent);
}

#[test]
fn jobs_report_evaluations_while_a_job_runs() {
    let daemon = start(1, SweepCache::in_memory());
    let spec = long_spec();
    let addr = daemon.addr.clone();
    let client = std::thread::spawn(move || {
        let (mut out, mut err) = (Vec::new(), Vec::new());
        run_remote(&addr, &spec, &mut out, &mut err).expect("the job streams to its end")
    });
    assert!(
        wait_for_state(&daemon.addr, 1, "running", Duration::from_secs(30)),
        "job 1 should start"
    );

    // The record counts evaluated chunks as they land, not only when
    // the job finishes.
    let deadline = Instant::now() + Duration::from_secs(30);
    let live = loop {
        let jobs = http_get(&daemon.addr, "/jobs");
        let record = &jobs.as_arr().expect("jobs array")[0];
        let evaluations = record.get("evaluations").and_then(Json::as_u64);
        if evaluations.is_some_and(|n| n > 0) {
            break record
                .get("state")
                .and_then(Json::as_str)
                .map(str::to_owned);
        }
        assert!(Instant::now() < deadline, "no progress reached /jobs");
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(
        live.as_deref(),
        Some("running"),
        "evaluations should show up before the job finishes"
    );

    control(&daemon.addr, "/jobs/1/cancel").expect("cancel accepted");
    let summary = client.join().expect("client thread");
    assert!(summary.cancelled, "the cancel landed mid-sweep");
    daemon.stop().expect("clean shutdown");
}

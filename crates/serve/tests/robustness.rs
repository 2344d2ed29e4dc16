//! Concurrency and robustness battery for the job server, driven by a
//! toy handler so nothing here depends on simulation physics:
//!
//! - a **slow loris** (bytes of a frame, then silence) is cut off by
//!   the read timeout with a typed `ProtoError` while a well-behaved
//!   client on another connection keeps completing jobs;
//! - **garbage** and pre-`Hello` traffic close only the offending
//!   connection;
//! - cancelling a **queued** job frees its admission slot immediately
//!   (`Busy` before the cancel, `Accepted` after); cancelling a
//!   **running** job answers `Cancelled` and discards the late result;
//! - a job whose **deadline** lapses in the queue is answered
//!   `Expired` without executing;
//! - **shutdown drains**: every job accepted before the drain gets its
//!   terminal reply delivered before the sockets close, whether the
//!   drain is asked for in process or by a protocol `Shutdown`;
//! - a job's `Accepted` always reaches the wire before its terminal
//!   reply, and only the connection that submitted a job may cancel it;
//! - a client that **stops reading** is cut off by the write timeout
//!   instead of holding a worker, its replies or shutdown hostage.

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use gopim_serve::{
    decode_frame, Client, DecodeStep, JobHandler, Request, Response, Server, ServerConfig,
};

/// Toy handler: byte 0 of the payload is a sleep in milliseconds, the
/// rest echoes back reversed. A payload starting with 0xFF fails.
struct Echo {
    started: AtomicU64,
    executed: AtomicU64,
}

impl Echo {
    fn new() -> Echo {
        Echo {
            started: AtomicU64::new(0),
            executed: AtomicU64::new(0),
        }
    }

    /// Spins until at least `n` executions have *started* — the only
    /// way a test can order "the worker popped job X" against its own
    /// next submission without racing the scheduler.
    fn wait_started(&self, n: u64) {
        let mut spins = 0u32;
        while self.started.load(Ordering::SeqCst) < n {
            std::thread::sleep(Duration::from_millis(1));
            spins += 1;
            assert!(spins < 10_000, "worker never started job {n}");
        }
    }
}

impl JobHandler for Echo {
    fn predicted_cost_ns(&self, payload: &[u8]) -> f64 {
        payload.first().map_or(1.0, |&ms| f64::from(ms) * 1e6) + 1.0
    }

    fn execute(&self, payload: &[u8]) -> Result<Vec<u8>, String> {
        self.started.fetch_add(1, Ordering::SeqCst);
        match payload.first() {
            Some(&0xFF) => Err("boom".to_string()),
            Some(&ms) => {
                std::thread::sleep(Duration::from_millis(u64::from(ms)));
                self.executed.fetch_add(1, Ordering::SeqCst);
                let mut out: Vec<u8> = payload[1..].to_vec();
                out.reverse();
                Ok(out)
            }
            None => Ok(Vec::new()),
        }
    }
}

fn job(sleep_ms: u8, data: &[u8]) -> Vec<u8> {
    let mut p = vec![sleep_ms];
    p.extend_from_slice(data);
    p
}

/// Returns the first response matching `pred`, looking in the spill of
/// earlier reads before touching the socket (an interleaved reply may
/// already have been consumed by a previous wait).
fn take_or_recv(
    client: &mut Client,
    spill: &mut Vec<Response>,
    pred: impl Fn(&Response) -> bool,
) -> Response {
    if let Some(i) = spill.iter().position(&pred) {
        return spill.remove(i);
    }
    client
        .recv_matching(|r| pred(r), |r| spill.push(r))
        .expect("recv matching")
}

fn server_with(cfg: ServerConfig) -> (Server, Arc<Echo>, String) {
    let handler = Arc::new(Echo::new());
    let server = Server::bind("127.0.0.1:0", Arc::<Echo>::clone(&handler), cfg)
        .expect("bind ephemeral server");
    let addr = server.local_addr().to_string();
    (server, handler, addr)
}

fn tiny_timeouts() -> ServerConfig {
    ServerConfig {
        workers: 1,
        max_queue: 1,
        read_timeout: Duration::from_millis(150),
        server_name: "robustness".to_string(),
    }
}

#[test]
fn echo_round_trip_and_failure_paths() {
    let (server, _, addr) = server_with(ServerConfig {
        workers: 2,
        ..tiny_timeouts()
    });
    let mut client = Client::connect(&addr, "echo").expect("connect");
    match client
        .submit_blocking(1, 0, job(0, b"abc"), |_| {})
        .expect("submit")
    {
        Response::Done {
            cache_served,
            result,
            ..
        } => {
            assert_eq!(result, b"cba");
            assert!(!cache_served, "Echo declares no cache key");
        }
        other => panic!("expected Done, got {other:?}"),
    }
    match client
        .submit_blocking(2, 0, vec![0xFF], |_| {})
        .expect("submit failing job")
    {
        Response::Failed { message, .. } => assert_eq!(message, "boom"),
        other => panic!("expected Failed, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn slow_loris_is_cut_off_without_wedging_other_connections() {
    let (server, _, addr) = server_with(ServerConfig {
        workers: 2,
        max_queue: 16,
        ..tiny_timeouts()
    });

    // The loris: a few bytes of a genuine frame, then silence.
    let mut loris = TcpStream::connect(&addr).expect("loris connect");
    loris.write_all(b"GPS1\x01\x00").expect("partial frame");
    loris.flush().expect("flush");

    // While the loris stalls, a normal client completes jobs on its
    // own connection — proving the stall consumes no shared capacity.
    let mut client = Client::connect(&addr, "victim").expect("connect");
    for i in 0..5 {
        let reply = client
            .submit_blocking(i, 0, job(1, b"fine"), |_| {})
            .expect("victim submit");
        assert!(matches!(reply, Response::Done { .. }), "got {reply:?}");
    }

    // The server must answer the loris with a typed ProtoError naming
    // the partial frame, then close that connection.
    loris
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut buf = Vec::new();
    let mut tmp = [0u8; 1024];
    let reply = loop {
        match decode_frame(&buf).expect("server reply decodes") {
            DecodeStep::Complete { frame, .. } => {
                break Response::from_frame(&frame).expect("server reply parses")
            }
            DecodeStep::Incomplete { .. } => {
                let n = loris.read(&mut tmp).expect("read loris reply");
                assert!(n > 0, "connection closed without a ProtoError");
                buf.extend_from_slice(&tmp[..n]);
            }
        }
    };
    match reply {
        Response::ProtoError { message } => {
            assert!(
                message.contains("read timeout"),
                "unexpected ProtoError: {message}"
            );
        }
        other => panic!("expected ProtoError, got {other:?}"),
    }
    // EOF follows: the connection is gone, the server is not.
    loop {
        match loris.read(&mut tmp) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => panic!("expected EOF after ProtoError, got {e}"),
        }
    }
    let reply = client
        .submit_blocking(99, 0, job(0, b"still up"), |_| {})
        .expect("post-loris submit");
    assert!(matches!(reply, Response::Done { .. }));
    server.shutdown();
}

#[test]
fn garbage_and_pre_hello_traffic_close_only_that_connection() {
    let (server, _, addr) = server_with(ServerConfig {
        workers: 1,
        max_queue: 16,
        ..tiny_timeouts()
    });

    // Pure garbage: rejected at the frame layer.
    let mut garbage = TcpStream::connect(&addr).expect("connect");
    garbage.write_all(b"XXXXXXXXXXXXXXXX").expect("write");
    let mut tail = Vec::new();
    garbage
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    garbage.read_to_end(&mut tail).expect("read until EOF");
    let reply = match decode_frame(&tail).expect("reply decodes") {
        DecodeStep::Complete { frame, .. } => Response::from_frame(&frame).expect("reply parses"),
        other => panic!("expected a ProtoError frame, got {other:?}"),
    };
    assert!(matches!(reply, Response::ProtoError { .. }), "{reply:?}");

    // A well-formed frame before Hello: rejected at the session layer.
    let mut rude = TcpStream::connect(&addr).expect("connect");
    rude.write_all(&Request::Stats.to_frame_bytes())
        .expect("write");
    let mut tail = Vec::new();
    rude.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    rude.read_to_end(&mut tail).expect("read until EOF");
    match decode_frame(&tail).expect("reply decodes") {
        DecodeStep::Complete { frame, .. } => {
            match Response::from_frame(&frame).expect("reply parses") {
                Response::ProtoError { message } => {
                    assert!(message.contains("Hello"), "unexpected: {message}")
                }
                other => panic!("expected ProtoError, got {other:?}"),
            }
        }
        other => panic!("expected a ProtoError frame, got {other:?}"),
    }

    // The server survives both rejections.
    let mut client = Client::connect(&addr, "survivor").expect("connect");
    let reply = client
        .submit_blocking(1, 0, job(0, b"ok"), |_| {})
        .expect("submit");
    assert!(matches!(reply, Response::Done { .. }));
    server.shutdown();
}

#[test]
fn cancelling_a_queued_job_frees_its_admission_slot() {
    // One worker, one queue slot: a long job occupies the worker, the
    // next submission takes the only slot, the one after that is Busy.
    let (server, handler, addr) = server_with(tiny_timeouts());
    let mut client = Client::connect(&addr, "canceller").expect("connect");
    let mut spilled: Vec<Response> = Vec::new();

    client
        .send(&Request::Submit {
            client_job_id: 1,
            deadline_ms: 0,
            payload: job(200, b"blocker"),
        })
        .expect("submit blocker");
    // The blocker must be *running* (not queued) before the next
    // submission, or it would still hold the single queue slot.
    handler.wait_started(1);
    client
        .send(&Request::Submit {
            client_job_id: 2,
            deadline_ms: 0,
            payload: job(0, b"queued"),
        })
        .expect("submit queued");
    // Wait for both acceptances; remember the queued job's server id.
    let mut queued_id = None;
    for _ in 0..2 {
        match client
            .recv_matching(
                |r| matches!(r, Response::Accepted { .. }),
                |r| spilled.push(r),
            )
            .expect("accepted")
        {
            Response::Accepted {
                client_job_id: 2,
                job_id,
            } => queued_id = Some(job_id),
            Response::Accepted { .. } => {}
            other => panic!("expected Accepted, got {other:?}"),
        }
    }
    let queued_id = queued_id.expect("queued job accepted");

    // Queue full (the blocker is *running*, job 2 holds the slot).
    let reply = client
        .submit_blocking(3, 0, job(0, b"rejected"), |r| spilled.push(r))
        .expect("submit over capacity");
    assert!(matches!(reply, Response::Busy { .. }), "got {reply:?}");

    // Cancel the queued job: slot freed, typed Cancelled reply.
    client
        .send(&Request::Cancel { job_id: queued_id })
        .expect("cancel");
    let reply = client
        .recv_matching(
            |r| matches!(r, Response::Cancelled { .. }),
            |r| spilled.push(r),
        )
        .expect("cancelled reply");
    assert!(
        matches!(
            reply,
            Response::Cancelled {
                client_job_id: 2,
                ..
            }
        ),
        "got {reply:?}"
    );

    // The freed slot admits a new job, which then completes.
    let reply = client
        .submit_blocking(4, 0, job(0, b"admitted"), |r| spilled.push(r))
        .expect("submit into freed slot");
    match reply {
        Response::Done { result, .. } => assert_eq!(result, b"dettimda"),
        other => panic!("expected Done, got {other:?}"),
    }
    // The blocker still finishes (its Done may already sit in the
    // spill); the cancelled job never executed.
    let reply = take_or_recv(&mut client, &mut spilled, |r| {
        matches!(
            r,
            Response::Done {
                client_job_id: 1,
                ..
            }
        )
    });
    assert!(matches!(reply, Response::Done { .. }));
    server.shutdown();
    assert_eq!(
        handler.executed.load(Ordering::SeqCst),
        2,
        "exactly blocker + admitted may execute; spilled traffic: {spilled:?}"
    );
    let stats = server.stats();
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.busy_rejections, 1);
}

#[test]
fn cancelling_a_running_job_discards_its_late_result() {
    let (server, handler, addr) = server_with(ServerConfig {
        max_queue: 4,
        ..tiny_timeouts()
    });
    let mut client = Client::connect(&addr, "mid-cancel").expect("connect");
    client
        .send(&Request::Submit {
            client_job_id: 1,
            deadline_ms: 0,
            payload: job(150, b"long"),
        })
        .expect("submit");
    let running_id = match client
        .recv_matching(|r| matches!(r, Response::Accepted { .. }), |_| {})
        .expect("accepted")
    {
        Response::Accepted { job_id, .. } => job_id,
        other => panic!("expected Accepted, got {other:?}"),
    };
    // Cancel only once the job is provably mid-execution.
    handler.wait_started(1);
    client
        .send(&Request::Cancel { job_id: running_id })
        .expect("cancel");
    let mut late = Vec::new();
    let reply = client
        .recv_matching(
            |r| matches!(r, Response::Cancelled { .. }),
            |r| late.push(r),
        )
        .expect("cancelled");
    assert!(
        matches!(
            reply,
            Response::Cancelled {
                client_job_id: 1,
                ..
            }
        ),
        "got {reply:?}"
    );
    // The handler finishes 100ms later; its result must be discarded,
    // so the next reply on this connection is for the next job.
    let reply = client
        .submit_blocking(2, 0, job(0, b"after"), |r| late.push(r))
        .expect("follow-up");
    match reply {
        Response::Done { client_job_id, .. } => assert_eq!(client_job_id, 2),
        other => panic!("expected Done, got {other:?}"),
    }
    assert!(
        late.iter().all(|r| !matches!(
            r,
            Response::Done {
                client_job_id: 1,
                ..
            }
        )),
        "cancelled job leaked a Done: {late:?}"
    );
    server.shutdown();
    assert_eq!(server.stats().cancelled, 1);
}

#[test]
fn cancelling_an_unknown_job_is_a_typed_failure() {
    let (server, _, addr) = server_with(tiny_timeouts());
    let mut client = Client::connect(&addr, "confused").expect("connect");
    client
        .send(&Request::Cancel { job_id: 12345 })
        .expect("cancel nothing");
    match client.recv().expect("reply") {
        Response::Failed { message, .. } => {
            assert!(message.contains("12345"), "unexpected: {message}")
        }
        other => panic!("expected Failed, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn a_deadline_lapsed_in_the_queue_is_answered_expired() {
    // One worker: a 200ms blocker guarantees the deadlined job waits
    // longer than its 50ms budget before a worker sees it.
    let (server, handler, addr) = server_with(ServerConfig {
        max_queue: 4,
        ..tiny_timeouts()
    });
    let mut client = Client::connect(&addr, "deadline").expect("connect");
    client
        .send(&Request::Submit {
            client_job_id: 1,
            deadline_ms: 0,
            payload: job(200, b"blocker"),
        })
        .expect("submit blocker");
    client
        .send(&Request::Submit {
            client_job_id: 2,
            deadline_ms: 50,
            payload: job(0, b"doomed"),
        })
        .expect("submit doomed");
    let mut spill = Vec::new();
    let reply = take_or_recv(&mut client, &mut spill, |r| {
        matches!(r, Response::Expired { .. })
    });
    assert!(
        matches!(
            reply,
            Response::Expired {
                client_job_id: 2,
                ..
            }
        ),
        "got {reply:?}"
    );
    // The blocker's own Done also arrives — the single worker sends it
    // just before the Expired, so it is usually in the spill already.
    let reply = take_or_recv(&mut client, &mut spill, |r| {
        matches!(
            r,
            Response::Done {
                client_job_id: 1,
                ..
            }
        )
    });
    assert!(matches!(reply, Response::Done { .. }));
    assert!(
        !spill.iter().any(|r| matches!(
            r,
            Response::Done {
                client_job_id: 2,
                ..
            }
        )),
        "the expired job must not also complete: {spill:?}"
    );
    server.shutdown();
    assert_eq!(server.stats().expired, 1);
    assert_eq!(
        handler.executed.load(Ordering::SeqCst),
        1,
        "the expired job must never execute"
    );
}

#[test]
fn shutdown_drains_accepted_jobs_and_delivers_every_reply() {
    // Accept a burst, then shut down while most of it is still queued:
    // every accepted job must still get its terminal Done, delivered
    // before the server cuts the sockets.
    let (server, _, addr) = server_with(ServerConfig {
        workers: 2,
        max_queue: 32,
        read_timeout: Duration::from_millis(150),
        server_name: "drain".to_string(),
    });
    let mut client = Client::connect(&addr, "drainee").expect("connect");
    const N: u64 = 8;
    for i in 0..N {
        client
            .send(&Request::Submit {
                client_job_id: i,
                deadline_ms: 0,
                payload: job(10, &i.to_le_bytes()),
            })
            .expect("submit");
    }
    let mut accepted = 0;
    let mut done = 0;
    while accepted < N {
        match client.recv().expect("acceptance") {
            Response::Accepted { .. } => accepted += 1,
            Response::Done { .. } => done += 1,
            other => panic!("unexpected during submit burst: {other:?}"),
        }
    }
    // Drain from another thread while replies are still outstanding.
    let drainer = {
        let server = &server;
        std::thread::scope(|s| {
            let h = s.spawn(|| server.shutdown());
            // Collect the remaining Dones; the drain guarantee says all
            // N arrive even though shutdown raced the queue.
            while done < N {
                match client.recv().expect("drained reply") {
                    Response::Done { .. } => done += 1,
                    other => panic!("unexpected during drain: {other:?}"),
                }
            }
            h.join().expect("shutdown thread");
            done
        })
    };
    assert_eq!(drainer, N);
    let stats = server.stats();
    assert_eq!(stats.completed, N, "drain must answer every accepted job");
    assert_eq!(stats.queued, 0);
    // New connections are refused outright once the server is down.
    assert!(Client::connect(&addr, "late").is_err());
}

#[test]
fn only_the_submitting_connection_can_cancel_a_job() {
    // One worker: the owner's blocker runs while its second job queues.
    let (server, handler, addr) = server_with(ServerConfig {
        max_queue: 4,
        ..tiny_timeouts()
    });
    let mut owner = Client::connect(&addr, "owner").expect("connect owner");
    owner
        .set_recv_timeout(Some(Duration::from_secs(10)))
        .expect("recv timeout");
    owner
        .send(&Request::Submit {
            client_job_id: 1,
            deadline_ms: 0,
            payload: job(200, b"blocker"),
        })
        .expect("submit blocker");
    handler.wait_started(1);
    owner
        .send(&Request::Submit {
            client_job_id: 2,
            deadline_ms: 0,
            payload: job(0, b"queued"),
        })
        .expect("submit queued");
    let mut spill = Vec::new();
    let queued_id = match take_or_recv(&mut owner, &mut spill, |r| {
        matches!(
            r,
            Response::Accepted {
                client_job_id: 2,
                ..
            }
        )
    }) {
        Response::Accepted { job_id, .. } => job_id,
        other => panic!("expected Accepted, got {other:?}"),
    };

    // Job ids are sequential, so another client can name this one; to
    // that client it is unknown, and the owner's job is left alone.
    let mut intruder = Client::connect(&addr, "intruder").expect("connect intruder");
    intruder
        .set_recv_timeout(Some(Duration::from_secs(10)))
        .expect("recv timeout");
    intruder
        .send(&Request::Cancel { job_id: queued_id })
        .expect("cancel someone else's job");
    match intruder.recv().expect("cancel reply") {
        Response::Failed {
            job_id, message, ..
        } => {
            assert_eq!(job_id, queued_id);
            assert!(
                message.contains("unknown or already completed"),
                "unexpected: {message}"
            );
        }
        other => panic!("expected Failed, got {other:?}"),
    }

    // The owner's job runs after the blocker and is still answered.
    let reply = take_or_recv(&mut owner, &mut spill, |r| {
        matches!(
            r,
            Response::Done {
                client_job_id: 2,
                ..
            }
        )
    });
    match reply {
        Response::Done { result, .. } => assert_eq!(result, b"deueuq"),
        other => panic!("expected Done, got {other:?}"),
    }
    server.shutdown();
    assert_eq!(server.stats().cancelled, 0);
    assert_eq!(handler.executed.load(Ordering::SeqCst), 2);
}

#[test]
fn every_accepted_reaches_the_wire_before_its_terminal_reply() {
    // Instant jobs on two workers: each Done races its own Accepted.
    const N: u64 = 64;
    let (server, _, addr) = server_with(ServerConfig {
        workers: 2,
        max_queue: N as usize,
        ..tiny_timeouts()
    });
    let mut client = Client::connect(&addr, "ordering").expect("connect");
    client
        .set_recv_timeout(Some(Duration::from_secs(10)))
        .expect("recv timeout");
    for i in 0..N {
        client
            .send(&Request::Submit {
                client_job_id: i,
                deadline_ms: 0,
                payload: job(0, &i.to_le_bytes()),
            })
            .expect("submit");
    }
    let mut accepted = BTreeSet::new();
    let mut done = BTreeSet::new();
    while done.len() < N as usize {
        match client.recv().expect("raw frame") {
            Response::Accepted { client_job_id, .. } => {
                assert!(
                    accepted.insert(client_job_id),
                    "job {client_job_id} accepted twice"
                );
            }
            Response::Done { client_job_id, .. } => {
                assert!(
                    accepted.contains(&client_job_id),
                    "job {client_job_id}: Done arrived before its Accepted"
                );
                assert!(
                    done.insert(client_job_id),
                    "job {client_job_id} answered twice"
                );
            }
            other => panic!("unexpected reply: {other:?}"),
        }
    }
    server.shutdown();
}

#[test]
fn a_protocol_shutdown_drains_accepted_jobs_and_stops_the_server() {
    let (server, _, addr) = server_with(ServerConfig {
        max_queue: 4,
        ..tiny_timeouts()
    });
    let server = Arc::new(server);
    let mut client = Client::connect(&addr, "drainee").expect("connect");
    client
        .set_recv_timeout(Some(Duration::from_secs(10)))
        .expect("recv timeout");
    client
        .send(&Request::Submit {
            client_job_id: 1,
            deadline_ms: 0,
            payload: job(200, b"slow"),
        })
        .expect("submit slow job");
    match client.recv().expect("acceptance") {
        Response::Accepted {
            client_job_id: 1, ..
        } => {}
        other => panic!("expected Accepted, got {other:?}"),
    }

    // Another connection asks the server to stop while the job runs.
    let mut admin = Client::connect(&addr, "admin").expect("connect admin");
    admin
        .set_recv_timeout(Some(Duration::from_secs(10)))
        .expect("recv timeout");
    admin.shutdown_server().expect("shutdown acknowledged");
    let (tx, rx) = mpsc::channel();
    {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            server.wait();
            let _ = tx.send(());
        });
    }

    // The accepted job is still answered, then the socket closes.
    match client.recv().expect("drained reply") {
        Response::Done {
            client_job_id: 1,
            result,
            ..
        } => assert_eq!(result, b"wols"),
        other => panic!("expected Done, got {other:?}"),
    }
    rx.recv_timeout(Duration::from_secs(20))
        .expect("Server::wait returns after a protocol Shutdown");
    assert_eq!(server.stats().completed, 1);
    assert!(Client::connect(&addr, "late").is_err());
}

#[test]
fn a_client_that_stops_reading_is_cut_off_and_shutdown_still_returns() {
    let (server, _, addr) = server_with(ServerConfig {
        workers: 2,
        max_queue: 256,
        ..tiny_timeouts()
    });
    // The hog submits large echo jobs and never reads a reply: 100 MiB
    // of replies, far more than the socket buffers hold. Its sends stop
    // at the first error, which is the server cutting it off.
    let mut hog = Client::connect(&addr, "hog").expect("connect hog");
    let (sent_tx, sent_rx) = mpsc::channel();
    std::thread::spawn(move || {
        let payload = job(0, &vec![0xA5; 512 * 1024]);
        for i in 0..200 {
            let submit = Request::Submit {
                client_job_id: i,
                deadline_ms: 0,
                payload: payload.clone(),
            };
            if hog.send(&submit).is_err() {
                break;
            }
        }
        // Hand the socket back open: the hog never hangs up.
        let _ = sent_tx.send(hog);
    });

    // Another connection's job still completes while the hog stalls.
    let mut client = Client::connect(&addr, "bystander").expect("connect");
    client
        .set_recv_timeout(Some(Duration::from_secs(10)))
        .expect("recv timeout");
    let reply = client
        .submit_blocking(1, 0, job(0, b"fine"), |_| {})
        .expect("bystander submit");
    assert!(matches!(reply, Response::Done { .. }), "got {reply:?}");
    let hog = sent_rx
        .recv_timeout(Duration::from_secs(20))
        .expect("the hog's sends end");

    // Shutdown returns although the hog has read nothing.
    let server = Arc::new(server);
    let (done_tx, done_rx) = mpsc::channel();
    {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            server.shutdown();
            let _ = done_tx.send(());
        });
    }
    done_rx
        .recv_timeout(Duration::from_secs(20))
        .expect("shutdown returns behind a client that stops reading");
    drop(hog);
}

//! The multi-tenant job server: admission control, fair-share
//! scheduling, deadlines, cancellation, graceful drain.
//!
//! Thread model (all std, no async runtime):
//!
//! - one **accept** thread turning each connection into a reader
//!   thread;
//! - one **reader** per connection parsing frames (with a read
//!   timeout: a stalled mid-frame peer — a slow loris — is cut off
//!   without touching other connections) and answering every request
//!   that needs no worker;
//! - `workers` **executor** threads popping the [`FairQueue`]. The
//!   executors only orchestrate: a job's actual simulation fans out on
//!   the process-wide `gopim-par` pool inside the handler, exactly as
//!   an in-process run would.
//!
//! All scheduler state sits behind one lock, `serve::state`. Each
//! reply is written to the socket by the thread that produced it,
//! under its connection's `serve::writer` lock: the reader writes
//! `HelloAck`, `Accepted`, `Busy`, `ShuttingDown`, cache-served `Done`,
//! `Cancelled` (or a refused cancel's `Failed`), `StatsReply` and
//! `ProtoError`; a worker writes `Done`, `Failed` and `Expired`. The
//! socket's write timeout bounds how long a peer that stops reading
//! can hold a thread: a write that fails or times out cuts the
//! connection. The only nesting is `writer → state` — admission runs
//! under the writer, so a job's `Accepted` is on the wire before a
//! worker can answer it — and no code takes a writer, or touches a
//! socket, while holding `state`.
//!
//! Every admitted job is answered exactly once with `Done`, `Failed`,
//! `Cancelled` or `Expired`; shutdown drains the queue before the
//! workers exit, so acceptance is a delivery promise (modulo the
//! client hanging up first, or not reading its replies).

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gopim_cache::CacheKey;
use gopim_obs::metrics::{LazyCounter, LazyGauge, LazyHistogram};
use gopim_obs::{DepCondvar, DepMutex};

use crate::frame::{decode_frame, DecodeStep};
use crate::proto::{Request, Response, ServerStats, PROTO_SCHEMA};
use crate::queue::FairQueue;

static SUBMITTED: LazyCounter = LazyCounter::new("serve.jobs_submitted");
static COMPLETED: LazyCounter = LazyCounter::new("serve.jobs_completed");
static FAILED: LazyCounter = LazyCounter::new("serve.jobs_failed");
static CANCELLED: LazyCounter = LazyCounter::new("serve.jobs_cancelled");
static ABANDONED: LazyCounter = LazyCounter::new("serve.jobs_abandoned");
static EXPIRED: LazyCounter = LazyCounter::new("serve.jobs_expired");
static BUSY: LazyCounter = LazyCounter::new("serve.busy_rejections");
static CACHE_SERVED: LazyCounter = LazyCounter::new("serve.cache_served");
static BAD_FRAMES: LazyCounter = LazyCounter::new("serve.frames_rejected");
static CONNECTIONS: LazyCounter = LazyCounter::new("serve.connections");
static QUEUE_DEPTH: LazyGauge = LazyGauge::new("serve.queue_depth");
static INFLIGHT: LazyGauge = LazyGauge::new("serve.inflight");
static WAIT_NS: LazyHistogram = LazyHistogram::new("serve.wait_ns");
static EXEC_NS: LazyHistogram = LazyHistogram::new("serve.exec_ns");
static LATENCY_NS: LazyHistogram = LazyHistogram::new("serve.latency_ns");

/// Executes jobs and prices them for the scheduler. Implemented by
/// `gopim::jobs` over the runner/experiments entry points; tests plug
/// in toy handlers.
pub trait JobHandler: Send + Sync + 'static {
    /// Predicted host runtime of this job in nanoseconds — the cost
    /// model feeding fair-share ordering (`gopim-predictor`'s runtime
    /// estimates in production). Must be cheap: it runs at admission.
    fn predicted_cost_ns(&self, payload: &[u8]) -> f64;

    /// Canonical request hash for result reuse; `None` marks the job
    /// uncacheable (it always executes).
    fn cache_key(&self, _payload: &[u8]) -> Option<CacheKey> {
        None
    }

    /// Runs the job, returning encoded result bytes or a message for a
    /// `Failed` reply.
    ///
    /// # Errors
    ///
    /// The returned string travels to the client verbatim.
    fn execute(&self, payload: &[u8]) -> Result<Vec<u8>, String>;
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Executor threads (max jobs in flight).
    pub workers: usize,
    /// Queue-depth cap; submissions beyond it get a `Busy` reply.
    pub max_queue: usize,
    /// Per-connection socket timeout, for reads and for writes. A peer
    /// stalled mid-frame longer than this is disconnected (slow-loris
    /// mitigation); an idle peer between frames is unaffected. A peer
    /// that stops reading is disconnected once a reply write stalls
    /// this long, so it holds neither a thread nor shutdown.
    pub read_timeout: Duration,
    /// Display name echoed in `HelloAck`.
    pub server_name: String,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            max_queue: 256,
            read_timeout: Duration::from_millis(5000),
            server_name: "gopim-serve".to_string(),
        }
    }
}

/// What phase an admitted, unanswered job is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Queued,
    Running,
    /// Cancelled while running: the `Cancelled` reply already went
    /// out; the eventual handler result is discarded.
    CancelRunning,
}

struct JobMeta {
    conn: u64,
    client_job_id: u64,
    phase: Phase,
}

struct QueuedJob {
    client_job_id: u64,
    conn: u64,
    payload: Vec<u8>,
    deadline: Option<Instant>,
    key: Option<CacheKey>,
    submitted_at: Instant,
}

/// One connection. Its reader thread reads `stream`; every reply goes
/// out through `writer`, written by the thread that produced it.
struct Conn {
    writer: DepMutex<TcpStream>,
    /// The reader's handle, never locked; also used to cut the socket.
    stream: TcpStream,
}

impl Conn {
    /// Writes one reply.
    fn send(&self, resp: &Response) {
        let bytes = resp.to_frame_bytes();
        let mut writer = self.writer.lock();
        self.write(&mut writer, &bytes);
    }

    /// Writes `bytes` through the held writer guard. A write that fails
    /// or outlasts the write timeout cuts the connection: its reader
    /// then exits and deregisters it, and later writes fail at once.
    fn write(&self, writer: &mut TcpStream, bytes: &[u8]) {
        if writer.write_all(bytes).is_err() {
            self.cut();
        }
    }

    /// Shuts the socket down both ways, which unblocks its reader.
    fn cut(&self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

/// Everything the scheduler knows, behind the one `serve::state` lock.
struct State {
    queue: FairQueue<QueuedJob>,
    jobs: BTreeMap<u64, JobMeta>,
    conns: BTreeMap<u64, Arc<Conn>>,
    /// Running totals and the running count; `queued` is read off the
    /// queue per snapshot.
    stats: ServerStats,
    next_job: u64,
    /// Set by the first shutdown: admission closes, and the workers
    /// exit once the queue is empty.
    shutting_down: bool,
    /// Set once the teardown has finished.
    done: bool,
    workers: Vec<JoinHandle<()>>,
    accept: Option<JoinHandle<()>>,
}

struct Core {
    cfg: ServerConfig,
    handler: Arc<dyn JobHandler>,
    // A `gopim_obs::DepMutex`: poison recovery (a poisoned lock means a
    // handler panicked; every multi-field transition completes before
    // its guard drops, so the state is never torn) plus the
    // `GOPIM_LOCKDEP=1` order witness.
    state: DepMutex<State>,
    /// Workers wait here for a job or for shutdown.
    work_cv: DepCondvar,
    /// Shutdown waits here for the connection table to empty, and
    /// [`Server::wait`] for `done`.
    done_cv: DepCondvar,
    addr: SocketAddr,
}

/// A running job server. Bind with [`Server::bind`], stop with
/// [`Server::shutdown`] (drains accepted jobs) or let a client send
/// the protocol `Shutdown` message and [`Server::wait`] for it.
pub struct Server {
    core: Arc<Core>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// spawns the accept and executor threads.
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures.
    pub fn bind(
        addr: &str,
        handler: Arc<dyn JobHandler>,
        cfg: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let core = Arc::new(Core {
            cfg: cfg.clone(),
            handler,
            state: DepMutex::new(
                "serve::state",
                State {
                    queue: FairQueue::new(),
                    jobs: BTreeMap::new(),
                    conns: BTreeMap::new(),
                    stats: ServerStats::default(),
                    next_job: 1,
                    shutting_down: false,
                    done: false,
                    workers: Vec::new(),
                    accept: None,
                },
            ),
            work_cv: DepCondvar::new(),
            done_cv: DepCondvar::new(),
            addr: local,
        });
        if gopim_obs::manifest_enabled() {
            gopim_obs::manifest::record_u64("serve.workers", cfg.workers as u64);
            gopim_obs::manifest::record_u64("serve.max_queue", cfg.max_queue as u64);
            gopim_obs::manifest::record_str("serve.addr", local.to_string());
        }
        {
            // Spawn under the lock: a shutdown racing `bind` finds every
            // handle it must join.
            let mut st = core.state.lock();
            for i in 0..cfg.workers.max(1) {
                let c = Arc::clone(&core);
                st.workers.push(
                    std::thread::Builder::new()
                        .name(format!("serve-worker-{i}"))
                        .spawn(move || worker_loop(&c))
                        .map_err(|e| std::io::Error::other(format!("spawn worker: {e}")))?,
                );
            }
            let c = Arc::clone(&core);
            st.accept = Some(
                std::thread::Builder::new()
                    .name("serve-accept".to_string())
                    .spawn(move || accept_loop(&c, listener))
                    .map_err(|e| std::io::Error::other(format!("spawn accept: {e}")))?,
            );
        }
        gopim_obs::log_info!(
            "serve: listening on {local} ({} workers, queue cap {})",
            cfg.workers,
            cfg.max_queue
        );
        Ok(Server { core })
    }

    /// The bound socket address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.core.addr
    }

    /// Point-in-time statistics (the same numbers `Stats` serves).
    pub fn stats(&self) -> ServerStats {
        self.core.stats()
    }

    /// Drains accepted jobs, stops every thread, and returns once the
    /// server is fully torn down. Idempotent; concurrent callers block
    /// until the first teardown completes.
    pub fn shutdown(&self) {
        self.core.shutdown();
    }

    /// Blocks until the server shuts down — via [`Server::shutdown`]
    /// or a client's protocol `Shutdown` message.
    pub fn wait(&self) {
        let mut st = self.core.state.lock();
        while !st.done {
            st = self.core.done_cv.wait(st);
        }
    }
}

impl Core {
    fn stats(&self) -> ServerStats {
        let st = self.state.lock();
        ServerStats {
            queued: st.queue.depth() as u64,
            ..st.stats
        }
    }

    fn shutdown(&self) {
        // The first caller tears down; later callers (a protocol
        // Shutdown racing an explicit one) wait for `done`.
        let workers = {
            let mut st = self.state.lock();
            if st.shutting_down {
                while !st.done {
                    st = self.done_cv.wait(st);
                }
                return;
            }
            st.shutting_down = true;
            std::mem::take(&mut st.workers)
        };
        self.work_cv.notify_all();
        // Workers drain the queue, each writing its own replies, so once
        // they are joined every accepted job has been answered.
        for w in workers {
            let _ = w.join();
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let accept = self.state.lock().accept.take();
        if let Some(a) = accept {
            let _ = a.join();
        }
        // Cut every socket, then wait for each reader to deregister.
        let conns: Vec<Arc<Conn>> = self.state.lock().conns.values().cloned().collect();
        for conn in &conns {
            conn.cut();
        }
        {
            let mut st = self.state.lock();
            while !st.conns.is_empty() {
                st = self.done_cv.wait(st);
            }
            st.done = true;
        }
        self.done_cv.notify_all();
        gopim_obs::log_info!("serve: drained and shut down");
    }
}

fn accept_loop(core: &Arc<Core>, listener: TcpListener) {
    let mut next_conn = 1u64;
    for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        // Job replies are small frames; without nodelay they sit in
        // Nagle/delayed-ACK purgatory for tens of milliseconds.
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(core.cfg.read_timeout));
        let _ = stream.set_write_timeout(Some(core.cfg.read_timeout));
        let Ok(writer) = stream.try_clone() else {
            continue;
        };
        let conn = Arc::new(Conn {
            writer: DepMutex::new("serve::writer", writer),
            stream,
        });
        let conn_id = next_conn;
        next_conn += 1;
        {
            let mut st = core.state.lock();
            if st.shutting_down {
                break;
            }
            st.conns.insert(conn_id, Arc::clone(&conn));
        }
        CONNECTIONS.add(1);
        let c = Arc::clone(core);
        let reader = std::thread::Builder::new()
            .name(format!("serve-conn-{conn_id}"))
            .spawn(move || conn_loop(&c, conn_id, &conn));
        if reader.is_err() {
            disconnect(core, conn_id);
        }
    }
}

/// Per-connection read loop: accumulate bytes, decode frames, dispatch
/// requests. Returns when the peer disconnects, misbehaves, or the
/// socket is cut.
fn conn_loop(core: &Arc<Core>, conn_id: u64, conn: &Conn) {
    let mut buf: Vec<u8> = Vec::new();
    let mut tmp = [0u8; 16 * 1024];
    let mut hello_seen = false;
    'conn: loop {
        // Drain every complete frame currently buffered.
        loop {
            match decode_frame(&buf) {
                Ok(DecodeStep::Incomplete { .. }) => break,
                Ok(DecodeStep::Complete { frame, consumed }) => {
                    buf.drain(..consumed);
                    match Request::from_frame(&frame) {
                        Ok(req) => {
                            if !handle_request(core, conn_id, conn, &mut hello_seen, req) {
                                break 'conn;
                            }
                        }
                        Err(e) => {
                            reject(conn, e.to_string());
                            break 'conn;
                        }
                    }
                }
                Err(e) => {
                    reject(conn, e.to_string());
                    break 'conn;
                }
            }
        }
        match (&conn.stream).read(&mut tmp) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&tmp[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if buf.is_empty() {
                    // Idle between frames: a client waiting for results
                    // legitimately sends nothing. Keep listening.
                    continue;
                }
                // Mid-frame stall past the read timeout: slow loris.
                reject(
                    conn,
                    format!("read timeout with {} byte(s) of a partial frame", buf.len()),
                );
                break;
            }
            Err(_) => break,
        }
    }
    disconnect(core, conn_id);
}

/// Answers a malformed frame or body with a `ProtoError`; the caller
/// then closes the connection.
fn reject(conn: &Conn, message: String) {
    BAD_FRAMES.add(1);
    conn.send(&Response::ProtoError { message });
}

/// Deregisters the connection and abandons its still-queued jobs so a
/// dead client's backlog stops consuming queue slots and worker time.
fn disconnect(core: &Core, conn_id: u64) {
    let mut st = core.state.lock();
    st.conns.remove(&conn_id);
    let orphaned: Vec<u64> = st
        .jobs
        .iter()
        .filter(|(_, m)| m.conn == conn_id && m.phase == Phase::Queued)
        .map(|(&id, _)| id)
        .collect();
    for job_id in orphaned {
        st.queue.cancel(job_id);
        st.jobs.remove(&job_id);
        ABANDONED.add(1);
    }
    // Shutdown waits for the connection table to empty.
    core.done_cv.notify_all();
}

/// Handles one request; returns `false` when the connection must
/// close (protocol violation before `Hello`).
fn handle_request(
    core: &Arc<Core>,
    conn_id: u64,
    conn: &Conn,
    hello_seen: &mut bool,
    req: Request,
) -> bool {
    if !*hello_seen && !matches!(req, Request::Hello { .. }) {
        conn.send(&Response::ProtoError {
            message: "first frame must be Hello".to_string(),
        });
        return false;
    }
    match req {
        Request::Hello {
            client_name,
            schema,
        } => {
            if schema != PROTO_SCHEMA {
                conn.send(&Response::ProtoError {
                    message: format!("schema mismatch: client {schema}, server {PROTO_SCHEMA}"),
                });
                return false;
            }
            *hello_seen = true;
            gopim_obs::log_debug!("serve: conn {conn_id} hello from '{client_name}'");
            conn.send(&Response::HelloAck {
                schema: PROTO_SCHEMA,
                server_name: core.cfg.server_name.clone(),
            });
        }
        Request::Submit {
            client_job_id,
            deadline_ms,
            payload,
        } => submit(core, conn_id, conn, client_job_id, deadline_ms, payload),
        Request::Cancel { job_id } => cancel(core, conn_id, conn, job_id),
        Request::Stats => conn.send(&Response::StatsReply(core.stats())),
        Request::Shutdown => {
            conn.send(&Response::ShuttingDown);
            // Tear down from a detached thread: the teardown waits for
            // this reader to deregister.
            let c = Arc::clone(core);
            let _ = std::thread::Builder::new()
                .name("serve-shutdown".to_string())
                .spawn(move || c.shutdown());
        }
    }
    true
}

fn submit(
    core: &Core,
    conn_id: u64,
    conn: &Conn,
    client_job_id: u64,
    deadline_ms: u64,
    payload: Vec<u8>,
) {
    let key = core.handler.cache_key(&payload);
    // Cache fast path: a repeated request is answered inline without
    // consuming a queue slot or a worker.
    let cached = key.and_then(|k| gopim_cache::global().get_bytes(k));
    let cost = match cached {
        Some(_) => 0.0,
        None => core.handler.predicted_cost_ns(&payload),
    };
    let deadline = (deadline_ms > 0).then(|| Instant::now() + Duration::from_millis(deadline_ms));
    // Admit under this connection's writer: a worker answers a job only
    // through the same writer, so its `Accepted` is on the wire first.
    let mut writer = conn.writer.lock();
    let replies = {
        let mut st = core.state.lock();
        if st.shutting_down {
            vec![Response::ShuttingDown]
        } else if let Some(bytes) = cached {
            let job_id = st.next_job;
            st.next_job += 1;
            st.stats.submitted += 1;
            st.stats.cache_served += 1;
            st.stats.completed += 1;
            SUBMITTED.add(1);
            CACHE_SERVED.add(1);
            COMPLETED.add(1);
            vec![
                Response::Accepted {
                    client_job_id,
                    job_id,
                },
                Response::Done {
                    job_id,
                    client_job_id,
                    cache_served: true,
                    result: bytes.to_vec(),
                },
            ]
        } else if st.queue.depth() >= core.cfg.max_queue {
            st.stats.busy_rejections += 1;
            BUSY.add(1);
            vec![Response::Busy {
                client_job_id,
                queue_depth: st.queue.depth() as u64,
            }]
        } else {
            let job_id = st.next_job;
            st.next_job += 1;
            st.stats.submitted += 1;
            SUBMITTED.add(1);
            st.jobs.insert(
                job_id,
                JobMeta {
                    conn: conn_id,
                    client_job_id,
                    phase: Phase::Queued,
                },
            );
            st.queue.push(
                conn_id,
                job_id,
                cost,
                QueuedJob {
                    client_job_id,
                    conn: conn_id,
                    payload,
                    deadline,
                    key,
                    submitted_at: Instant::now(),
                },
            );
            QUEUE_DEPTH.record_max(st.queue.depth() as u64);
            core.work_cv.notify_one();
            vec![Response::Accepted {
                client_job_id,
                job_id,
            }]
        }
    };
    let bytes: Vec<u8> = replies.iter().flat_map(Response::to_frame_bytes).collect();
    conn.write(&mut writer, &bytes);
}

fn cancel(core: &Core, conn_id: u64, conn: &Conn, job_id: u64) {
    let reply = {
        let mut st = core.state.lock();
        // Another connection's job is unknown to this one.
        let reply = match st.jobs.get_mut(&job_id) {
            Some(meta) if meta.conn == conn_id && meta.phase == Phase::Queued => {
                let client_job_id = meta.client_job_id;
                st.queue.cancel(job_id);
                st.jobs.remove(&job_id);
                Some(client_job_id)
            }
            Some(meta) if meta.conn == conn_id && meta.phase == Phase::Running => {
                meta.phase = Phase::CancelRunning;
                Some(meta.client_job_id)
            }
            _ => None,
        };
        if reply.is_some() {
            st.stats.cancelled += 1;
        }
        reply
    };
    match reply {
        Some(client_job_id) => {
            CANCELLED.add(1);
            conn.send(&Response::Cancelled {
                job_id,
                client_job_id,
            });
        }
        None => conn.send(&Response::Failed {
            job_id,
            client_job_id: 0,
            message: format!("cancel: job {job_id} unknown or already completed"),
        }),
    }
}

/// Writes a worker's reply to connection `conn_id`; dropped when the
/// connection is gone (the client hung up — nobody is listening).
fn reply(core: &Core, conn_id: u64, resp: &Response) {
    let conn = core.state.lock().conns.get(&conn_id).cloned();
    if let Some(conn) = conn {
        conn.send(resp);
    }
}

fn worker_loop(core: &Core) {
    loop {
        // Pop a job and settle its phase under the same lock, so a
        // cancel never finds a popped job still marked queued (a
        // cancelled entry never pops).
        let (job_id, job, expired) = {
            let mut st = core.state.lock();
            let popped = loop {
                if let Some(p) = st.queue.pop() {
                    break p;
                }
                if st.shutting_down {
                    return;
                }
                st = core.work_cv.wait(st);
            };
            let (job_id, job) = (popped.job_id, popped.item);
            // Deadline check at dispatch: a job that waited past its
            // deadline is dropped with a typed reply instead of burning
            // a worker.
            let expired = job.deadline.is_some_and(|d| Instant::now() > d);
            if expired {
                st.jobs.remove(&job_id);
                st.stats.expired += 1;
            } else {
                if let Some(meta) = st.jobs.get_mut(&job_id) {
                    meta.phase = Phase::Running;
                }
                st.stats.running += 1;
                INFLIGHT.record_max(st.stats.running);
            }
            (job_id, job, expired)
        };
        if expired {
            EXPIRED.add(1);
            let resp = Response::Expired {
                job_id,
                client_job_id: job.client_job_id,
            };
            reply(core, job.conn, &resp);
            continue;
        }
        WAIT_NS.record_ns(job.submitted_at.elapsed().as_nanos() as f64);
        let exec_start = Instant::now();
        let result = {
            let _span = gopim_obs::span!("serve.execute");
            match job.key {
                // Another identical job may have populated the cache
                // while this one queued; re-check, then execute and
                // publish the bytes for every later repeat.
                Some(key) => match gopim_cache::global().get_bytes(key) {
                    Some(bytes) => {
                        CACHE_SERVED.add(1);
                        core.state.lock().stats.cache_served += 1;
                        Ok(bytes.to_vec())
                    }
                    None => {
                        let r = core.handler.execute(&job.payload);
                        if let Ok(bytes) = &r {
                            gopim_cache::global().store(key, Arc::new(bytes.clone()));
                        }
                        r
                    }
                },
                None => core.handler.execute(&job.payload),
            }
        };
        EXEC_NS.record_ns(exec_start.elapsed().as_nanos() as f64);
        let meta = {
            let mut st = core.state.lock();
            st.stats.running -= 1;
            // A job cancelled while running was answered `Cancelled`
            // when the client asked; its late result is discarded.
            let meta = st
                .jobs
                .remove(&job_id)
                .filter(|m| m.phase != Phase::CancelRunning);
            if meta.is_some() && result.is_ok() {
                st.stats.completed += 1;
            }
            meta
        };
        let Some(meta) = meta else { continue };
        LATENCY_NS.record_ns(job.submitted_at.elapsed().as_nanos() as f64);
        let resp = match result {
            Ok(bytes) => {
                COMPLETED.add(1);
                Response::Done {
                    job_id,
                    client_job_id: meta.client_job_id,
                    cache_served: false,
                    result: bytes,
                }
            }
            Err(message) => {
                FAILED.add(1);
                Response::Failed {
                    job_id,
                    client_job_id: meta.client_job_id,
                    message,
                }
            }
        };
        reply(core, meta.conn, &resp);
    }
}

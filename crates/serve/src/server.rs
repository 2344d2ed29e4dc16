//! The multi-tenant job server: admission control, fair-share
//! scheduling, deadlines, cancellation, graceful drain.
//!
//! Thread model (all std, no async runtime):
//!
//! - one **accept** thread turning connections into reader/writer
//!   thread pairs;
//! - one **reader** per connection parsing frames (with a read
//!   timeout: a stalled mid-frame peer — a slow loris — is cut off
//!   without touching other connections);
//! - one **writer** per connection draining an mpsc channel of encoded
//!   response frames, so workers never block on a slow consumer's
//!   socket;
//! - `workers` **executor** threads popping the [`FairQueue`]. The
//!   executors only orchestrate: a job's actual simulation fans out on
//!   the process-wide `gopim-par` pool inside the handler, exactly as
//!   an in-process run would.
//!
//! Every admitted job is answered exactly once with `Done`, `Failed`,
//! `Cancelled` or `Expired`; shutdown drains the queue before the
//! workers exit, so acceptance is a delivery promise (modulo the
//! client hanging up first).

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
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
    /// Per-connection read timeout. A peer stalled mid-frame longer
    /// than this is disconnected (slow-loris mitigation); an idle peer
    /// between frames is unaffected.
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

struct SchedState {
    queue: FairQueue<QueuedJob>,
    jobs: BTreeMap<u64, JobMeta>,
    running: usize,
    accepting: bool,
}

struct ConnHandle {
    tx: Sender<Vec<u8>>,
    stream: TcpStream,
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    cache_served: AtomicU64,
    busy: AtomicU64,
    cancelled: AtomicU64,
    expired: AtomicU64,
}

struct Handles {
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    readers: Vec<JoinHandle<()>>,
    writers: Vec<JoinHandle<()>>,
}

struct Core {
    cfg: ServerConfig,
    handler: Arc<dyn JobHandler>,
    // Every lock sits on `gopim_obs::DepMutex`: poison recovery (a
    // poisoned lock means a handler panicked; every multi-field
    // transition completes before its guard drops, so the state is
    // never torn) plus the `GOPIM_LOCKDEP=1` order witness.
    state: DepMutex<SchedState>,
    work_cv: DepCondvar,
    conns: DepMutex<BTreeMap<u64, ConnHandle>>,
    handles: DepMutex<Handles>,
    counters: Counters,
    addr: SocketAddr,
    shutting_down: AtomicBool,
    next_job: AtomicU64,
    next_conn: AtomicU64,
    done: DepMutex<bool>,
    done_cv: DepCondvar,
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
                SchedState {
                    queue: FairQueue::new(),
                    jobs: BTreeMap::new(),
                    running: 0,
                    accepting: true,
                },
            ),
            work_cv: DepCondvar::new(),
            conns: DepMutex::new("serve::conns", BTreeMap::new()),
            handles: DepMutex::new(
                "serve::handles",
                Handles {
                    accept: None,
                    workers: Vec::new(),
                    readers: Vec::new(),
                    writers: Vec::new(),
                },
            ),
            counters: Counters::default(),
            addr: local,
            shutting_down: AtomicBool::new(false),
            next_job: AtomicU64::new(1),
            next_conn: AtomicU64::new(1),
            done: DepMutex::new("serve::done", false),
            done_cv: DepCondvar::new(),
        });
        if gopim_obs::manifest_enabled() {
            gopim_obs::manifest::record_u64("serve.workers", cfg.workers as u64);
            gopim_obs::manifest::record_u64("serve.max_queue", cfg.max_queue as u64);
            gopim_obs::manifest::record_str("serve.addr", local.to_string());
        }
        {
            let mut handles = core.handles.lock();
            for i in 0..cfg.workers.max(1) {
                let c = Arc::clone(&core);
                handles.workers.push(
                    std::thread::Builder::new()
                        .name(format!("serve-worker-{i}"))
                        .spawn(move || worker_loop(&c))
                        .map_err(|e| std::io::Error::other(format!("spawn worker: {e}")))?,
                );
            }
            let c = Arc::clone(&core);
            handles.accept = Some(
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
        let mut done = self.core.done.lock();
        while !*done {
            done = self.core.done_cv.wait(done);
        }
    }
}

impl Core {
    fn stats(&self) -> ServerStats {
        let (queued, running) = {
            let st = self.state.lock();
            (st.queue.depth() as u64, st.running as u64)
        };
        ServerStats {
            queued,
            running,
            submitted: self.counters.submitted.load(Ordering::Relaxed),
            completed: self.counters.completed.load(Ordering::Relaxed),
            cache_served: self.counters.cache_served.load(Ordering::Relaxed),
            busy_rejections: self.counters.busy.load(Ordering::Relaxed),
            cancelled: self.counters.cancelled.load(Ordering::Relaxed),
            expired: self.counters.expired.load(Ordering::Relaxed),
        }
    }

    /// Queues `resp` for delivery on `conn`; silently dropped when the
    /// connection is gone (the client hung up — nobody is listening).
    fn send(&self, conn: u64, resp: &Response) {
        let bytes = resp.to_frame_bytes();
        let tx = self.conns.lock().get(&conn).map(|c| c.tx.clone());
        if let Some(tx) = tx {
            let _ = tx.send(bytes);
        }
    }

    fn shutdown(&self) {
        // First caller performs the teardown; later callers (including
        // protocol-triggered ones racing an explicit shutdown) just
        // wait for `done`.
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            let mut done = self.done.lock();
            while !*done {
                done = self.done_cv.wait(done);
            }
            return;
        }
        {
            let mut st = self.state.lock();
            st.accepting = false;
        }
        self.work_cv.notify_all();
        // Workers drain the queue, answering every accepted job, then
        // exit on the shutdown flag.
        let workers = std::mem::take(&mut self.handles.lock().workers);
        for w in workers {
            let _ = w.join();
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let accept = self.handles.lock().accept.take();
        if let Some(a) = accept {
            let _ = a.join();
        }
        // Drop every connection's reply sender (keeping the streams
        // alive), then join the writers: each one drains its channel,
        // flushes, and exits — so every reply a worker produced reaches
        // the wire before any socket is cut. Acceptance stays a
        // delivery promise through shutdown.
        let streams: Vec<TcpStream> = {
            let mut conns = self.conns.lock();
            std::mem::take(&mut *conns)
                .into_values()
                .map(|h| h.stream)
                .collect()
        };
        let writers = std::mem::take(&mut self.handles.lock().writers);
        for w in writers {
            let _ = w.join();
        }
        // Only now cut the sockets, unblocking readers parked in read.
        for s in &streams {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
        let readers = std::mem::take(&mut self.handles.lock().readers);
        for r in readers {
            let _ = r.join();
        }
        gopim_obs::log_info!("serve: drained and shut down");
        let mut done = self.done.lock();
        *done = true;
        self.done_cv.notify_all();
    }
}

fn accept_loop(core: &Arc<Core>, listener: TcpListener) {
    for stream in listener.incoming() {
        if core.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        // Job replies are small frames; without nodelay they sit in
        // Nagle/delayed-ACK purgatory for tens of milliseconds.
        let _ = stream.set_nodelay(true);
        let conn_id = core.next_conn.fetch_add(1, Ordering::Relaxed);
        CONNECTIONS.add(1);
        let (tx, rx) = channel::<Vec<u8>>();
        let write_stream = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => continue,
        };
        // Clone before taking the lock: cloning inside the `insert`
        // argument would re-enter `core.conns` on the failure path (a
        // single-thread self-deadlock, caught by lock-order-inversion).
        let handle_stream = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => continue,
        };
        core.conns.lock().insert(
            conn_id,
            ConnHandle {
                tx,
                stream: handle_stream,
            },
        );
        let c = Arc::clone(core);
        let reader = std::thread::Builder::new()
            .name(format!("serve-conn-{conn_id}"))
            .spawn(move || conn_loop(&c, conn_id, stream));
        let writer = std::thread::Builder::new()
            .name(format!("serve-write-{conn_id}"))
            .spawn(move || {
                let mut stream = write_stream;
                while let Ok(bytes) = rx.recv() {
                    if stream.write_all(&bytes).is_err() {
                        break;
                    }
                }
                let _ = stream.flush();
            });
        let mut handles = core.handles.lock();
        if let Ok(r) = reader {
            handles.readers.push(r);
        }
        if let Ok(w) = writer {
            handles.writers.push(w);
        }
    }
}

/// Per-connection read loop: accumulate bytes, decode frames, dispatch
/// requests. Returns when the peer disconnects, misbehaves, or the
/// server shuts the stream down.
fn conn_loop(core: &Arc<Core>, conn_id: u64, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(core.cfg.read_timeout));
    let mut stream = stream;
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
                            if !handle_request(core, conn_id, &mut hello_seen, req) {
                                break 'conn;
                            }
                        }
                        Err(e) => {
                            BAD_FRAMES.add(1);
                            core.send(
                                conn_id,
                                &Response::ProtoError {
                                    message: e.to_string(),
                                },
                            );
                            break 'conn;
                        }
                    }
                }
                Err(e) => {
                    BAD_FRAMES.add(1);
                    core.send(
                        conn_id,
                        &Response::ProtoError {
                            message: e.to_string(),
                        },
                    );
                    break 'conn;
                }
            }
        }
        match stream.read(&mut tmp) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&tmp[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if core.shutting_down.load(Ordering::SeqCst) {
                    break;
                }
                if buf.is_empty() {
                    // Idle between frames: a client waiting for results
                    // legitimately sends nothing. Keep listening.
                    continue;
                }
                // Mid-frame stall past the read timeout: slow loris.
                BAD_FRAMES.add(1);
                core.send(
                    conn_id,
                    &Response::ProtoError {
                        message: format!(
                            "read timeout with {} byte(s) of a partial frame",
                            buf.len()
                        ),
                    },
                );
                break;
            }
            Err(_) => break,
        }
    }
    disconnect(core, conn_id);
    // No explicit socket shutdown here: a final ProtoError may still
    // sit in the writer's channel. `disconnect` dropped the reply
    // sender, so the writer drains, flushes and exits; the socket
    // closes when the last clone (this one, the writer's) drops —
    // after the reply reached the wire, never before.
    drop(stream);
}

/// Removes the connection and abandons its still-queued jobs so a dead
/// client's backlog stops consuming queue slots and worker time.
fn disconnect(core: &Arc<Core>, conn_id: u64) {
    let removed = core.conns.lock().remove(&conn_id);
    drop(removed); // closes the writer channel once job senders drain
    let mut st = core.state.lock();
    let orphaned: Vec<u64> = st
        .jobs
        .iter()
        .filter(|(_, m)| m.conn == conn_id && m.phase == Phase::Queued)
        .map(|(&id, _)| id)
        .collect();
    for job_id in orphaned {
        if st.queue.cancel(job_id) {
            st.jobs.remove(&job_id);
            ABANDONED.add(1);
        }
    }
}

/// Handles one request; returns `false` when the connection must
/// close (protocol violation before `Hello`).
fn handle_request(core: &Arc<Core>, conn_id: u64, hello_seen: &mut bool, req: Request) -> bool {
    if !*hello_seen && !matches!(req, Request::Hello { .. }) {
        core.send(
            conn_id,
            &Response::ProtoError {
                message: "first frame must be Hello".to_string(),
            },
        );
        return false;
    }
    match req {
        Request::Hello {
            client_name,
            schema,
        } => {
            if schema != PROTO_SCHEMA {
                core.send(
                    conn_id,
                    &Response::ProtoError {
                        message: format!("schema mismatch: client {schema}, server {PROTO_SCHEMA}"),
                    },
                );
                return false;
            }
            *hello_seen = true;
            gopim_obs::log_debug!("serve: conn {conn_id} hello from '{client_name}'");
            core.send(
                conn_id,
                &Response::HelloAck {
                    schema: PROTO_SCHEMA,
                    server_name: core.cfg.server_name.clone(),
                },
            );
        }
        Request::Submit {
            client_job_id,
            deadline_ms,
            payload,
        } => submit(core, conn_id, client_job_id, deadline_ms, payload),
        Request::Cancel { job_id } => cancel(core, conn_id, job_id),
        Request::Stats => {
            let stats = core.stats();
            core.send(conn_id, &Response::StatsReply(stats));
        }
        Request::Shutdown => {
            core.send(conn_id, &Response::ShuttingDown);
            // Tear down from a detached thread: this reader is among
            // the threads the teardown joins.
            let c = Arc::clone(core);
            let _ = std::thread::Builder::new()
                .name("serve-shutdown".to_string())
                .spawn(move || c.shutdown());
        }
    }
    true
}

fn submit(core: &Arc<Core>, conn_id: u64, client_job_id: u64, deadline_ms: u64, payload: Vec<u8>) {
    if core.shutting_down.load(Ordering::SeqCst) {
        core.send(conn_id, &Response::ShuttingDown);
        return;
    }
    let key = core.handler.cache_key(&payload);
    // Cache fast path: a repeated request is answered inline without
    // consuming a queue slot or a worker.
    if let Some(key) = key {
        if let Some(bytes) = gopim_cache::global().get_bytes(key) {
            let job_id = core.next_job.fetch_add(1, Ordering::Relaxed);
            SUBMITTED.add(1);
            CACHE_SERVED.add(1);
            COMPLETED.add(1);
            core.counters.submitted.fetch_add(1, Ordering::Relaxed);
            core.counters.cache_served.fetch_add(1, Ordering::Relaxed);
            core.counters.completed.fetch_add(1, Ordering::Relaxed);
            core.send(
                conn_id,
                &Response::Accepted {
                    client_job_id,
                    job_id,
                },
            );
            core.send(
                conn_id,
                &Response::Done {
                    job_id,
                    client_job_id,
                    cache_served: true,
                    result: bytes.to_vec(),
                },
            );
            return;
        }
    }
    let cost = core.handler.predicted_cost_ns(&payload);
    let deadline = (deadline_ms > 0).then(|| Instant::now() + Duration::from_millis(deadline_ms));
    let (verdict, depth) = {
        let mut st = core.state.lock();
        if !st.accepting {
            (None, 0)
        } else if st.queue.depth() >= core.cfg.max_queue {
            (Some(false), st.queue.depth())
        } else {
            let job_id = core.next_job.fetch_add(1, Ordering::Relaxed);
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
            let depth = st.queue.depth();
            QUEUE_DEPTH.record_max(depth as u64);
            (Some(true), job_id as usize)
        }
    };
    match verdict {
        None => core.send(conn_id, &Response::ShuttingDown),
        Some(false) => {
            BUSY.add(1);
            core.counters.busy.fetch_add(1, Ordering::Relaxed);
            core.send(
                conn_id,
                &Response::Busy {
                    client_job_id,
                    queue_depth: depth as u64,
                },
            );
        }
        Some(true) => {
            SUBMITTED.add(1);
            core.counters.submitted.fetch_add(1, Ordering::Relaxed);
            core.send(
                conn_id,
                &Response::Accepted {
                    client_job_id,
                    job_id: depth as u64,
                },
            );
            core.work_cv.notify_one();
        }
    }
}

fn cancel(core: &Arc<Core>, conn_id: u64, job_id: u64) {
    let reply = {
        let mut st = core.state.lock();
        match st.jobs.get_mut(&job_id) {
            Some(meta) if meta.phase == Phase::Queued => {
                let client_job_id = meta.client_job_id;
                st.queue.cancel(job_id);
                st.jobs.remove(&job_id);
                Some(client_job_id)
            }
            Some(meta) if meta.phase == Phase::Running => {
                meta.phase = Phase::CancelRunning;
                Some(meta.client_job_id)
            }
            _ => None,
        }
    };
    match reply {
        Some(client_job_id) => {
            CANCELLED.add(1);
            core.counters.cancelled.fetch_add(1, Ordering::Relaxed);
            core.send(
                conn_id,
                &Response::Cancelled {
                    job_id,
                    client_job_id,
                },
            );
        }
        None => core.send(
            conn_id,
            &Response::Failed {
                job_id,
                client_job_id: 0,
                message: format!("cancel: job {job_id} unknown or already completed"),
            },
        ),
    }
}

fn worker_loop(core: &Arc<Core>) {
    loop {
        let popped = {
            let mut st = core.state.lock();
            loop {
                if let Some(p) = st.queue.pop() {
                    break Some(p);
                }
                if core.shutting_down.load(Ordering::SeqCst) {
                    break None;
                }
                st = core.work_cv.wait(st);
            }
        };
        let Some(popped) = popped else { return };
        let job_id = popped.job_id;
        let job = popped.item;
        // The queued-phase check already happened: a cancelled entry
        // never pops. Deadline check happens at dispatch — a job that
        // waited past its deadline is dropped with a typed reply
        // instead of burning a worker.
        if job.deadline.is_some_and(|d| Instant::now() > d) {
            core.state.lock().jobs.remove(&job_id);
            EXPIRED.add(1);
            core.counters.expired.fetch_add(1, Ordering::Relaxed);
            core.send(
                job.conn,
                &Response::Expired {
                    job_id,
                    client_job_id: job.client_job_id,
                },
            );
            continue;
        }
        {
            let mut st = core.state.lock();
            match st.jobs.get_mut(&job_id) {
                Some(meta) => {
                    meta.phase = Phase::Running;
                    st.running += 1;
                    INFLIGHT.record_max(st.running as u64);
                }
                // Disconnect raced the pop: the job is already gone.
                None => continue,
            }
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
                        core.counters.cache_served.fetch_add(1, Ordering::Relaxed);
                        Ok(bytes.to_vec())
                    }
                    None => {
                        let r = core.handler.execute(&job.payload);
                        if let Ok(bytes) = &r {
                            gopim_cache::global().store(key, std::sync::Arc::new(bytes.clone()));
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
            st.running -= 1;
            st.jobs.remove(&job_id)
        };
        let Some(meta) = meta else { continue };
        if meta.phase == Phase::CancelRunning {
            // The Cancelled reply went out when the client asked;
            // the late result is discarded.
            continue;
        }
        LATENCY_NS.record_ns(job.submitted_at.elapsed().as_nanos() as f64);
        match result {
            Ok(bytes) => {
                COMPLETED.add(1);
                core.counters.completed.fetch_add(1, Ordering::Relaxed);
                core.send(
                    meta.conn,
                    &Response::Done {
                        job_id,
                        client_job_id: meta.client_job_id,
                        cache_served: false,
                        result: bytes,
                    },
                );
            }
            Err(message) => {
                FAILED.add(1);
                core.send(
                    meta.conn,
                    &Response::Failed {
                        job_id,
                        client_job_id: meta.client_job_id,
                        message,
                    },
                );
            }
        }
    }
}

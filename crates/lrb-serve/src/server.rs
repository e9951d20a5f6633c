//! The daemon front-end: TCP listener, per-connection frame pumps, and
//! the single state thread that owns every farm.
//!
//! Durability ordering per batch: **admit → apply → WAL append+flush →
//! reply**. An event is acknowledged only after it is on disk, so a
//! SIGKILL at any point loses no acked event; events applied in memory
//! but not yet logged were never acked, and recovery reconstructs exactly
//! the logged prefix. Rejections mutate nothing and are never logged.
//!
//! Backpressure is explicit: the state queue is a bounded channel
//! (`queue_bound`), per-tenant in-flight requests are capped
//! (`tenant_pending`), and both trip a `Reject` response carrying a
//! Retry-After hint rather than blocking or dropping the connection.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;

use lrb_obs::{names, AtomicRecorder, Recorder};

use crate::snapshot::{self, SnapshotError};
use crate::state::{ApplyOutcome, ServeConfig, ServeState};
use crate::wal::{LoggedEvent, Wal};
use crate::wire::{
    decode_request, encode_response, read_frame, write_frame, RejectCode, Request, Response,
    WireError,
};

/// Anything that can stop the daemon.
#[derive(Debug)]
pub enum ServeError {
    /// Filesystem or socket failure.
    Io(std::io::Error),
    /// Snapshot on disk is malformed or does not restore.
    Snapshot(SnapshotError),
    /// Durable state is internally inconsistent.
    State(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "io: {e}"),
            ServeError::Snapshot(e) => write!(f, "snapshot: {e}"),
            ServeError::State(d) => write!(f, "state: {d}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<SnapshotError> for ServeError {
    fn from(e: SnapshotError) -> Self {
        ServeError::Snapshot(e)
    }
}

/// The WAL's location inside a data directory.
pub fn wal_path(data_dir: &Path) -> PathBuf {
    data_dir.join("wal.log")
}

/// What recovery found on disk.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryReport {
    /// A snapshot was loaded.
    pub had_snapshot: bool,
    /// WAL events replayed past the snapshot.
    pub replayed: u64,
    /// Torn bytes truncated from the WAL tail.
    pub torn_bytes: u64,
}

/// Rebuild state from the data directory: load the snapshot (if any),
/// open the WAL (truncating any torn tail), and replay the WAL suffix
/// past the snapshot's `applied` mark. Works on an empty directory, a
/// snapshot with no newer WAL records, or a bare WAL — the full
/// state ≡ replay-of-survivors contract.
///
/// # Errors
///
/// I/O failure, a malformed snapshot, a snapshot ahead of the WAL, or a
/// logged event that no longer applies (all indicate corruption beyond
/// what the torn-tail rule repairs).
pub fn recover(
    data_dir: &Path,
    cfg: ServeConfig,
) -> Result<(ServeState, Wal, RecoveryReport), ServeError> {
    std::fs::create_dir_all(data_dir)?;
    let (mut state, had_snapshot) = match snapshot::load(data_dir)? {
        Some(doc) => (ServeState::from_snapshot(cfg, &doc)?, true),
        None => (ServeState::new(cfg), false),
    };
    let (wal, scan) = Wal::open(&wal_path(data_dir))?;
    let already = state.applied();
    if (scan.events.len() as u64) < already {
        return Err(ServeError::State(format!(
            "snapshot applied={already} but WAL holds only {} records",
            scan.events.len()
        )));
    }
    let suffix = &scan.events[already as usize..];
    for chunk in suffix.chunks(cfg.batch_max.max(1)) {
        for outcome in state.apply_events(chunk) {
            if let ApplyOutcome::Failed { detail } = outcome {
                return Err(ServeError::State(format!("replay failed: {detail}")));
            }
        }
    }
    state.counters.replayed = suffix.len() as u64;
    state.counters.recoveries = u64::from(had_snapshot || !scan.events.is_empty());
    Ok((
        state,
        wal,
        RecoveryReport {
            had_snapshot,
            replayed: suffix.len() as u64,
            torn_bytes: scan.torn_bytes,
        },
    ))
}

/// A request in flight from a connection to the state thread.
struct Msg {
    req: Request,
    reply: mpsc::Sender<Response>,
}

/// A reply that must wait for the batch's WAL flush before it is sent.
struct Deferred {
    reply: mpsc::Sender<Response>,
    resp: Response,
    tenant: Option<u64>,
}

/// Shutdown acks handed to connection threads but not yet written to their
/// sockets. The state thread counts them in before sending; each
/// connection thread counts its ack out once written and flushed, and
/// [`Server::run`] waits for zero, so the process cannot exit with an ack
/// still queued for a detached connection thread.
#[derive(Default)]
struct AckGate {
    left: Mutex<usize>,
    written: Condvar,
}

impl AckGate {
    fn add(&self, n: usize) {
        *self.left.lock().unwrap_or_else(PoisonError::into_inner) += n;
    }

    fn done(&self) {
        let mut left = self.left.lock().unwrap_or_else(PoisonError::into_inner);
        *left = left.saturating_sub(1);
        if *left == 0 {
            self.written.notify_all();
        }
    }

    fn wait(&self) {
        let mut left = self.left.lock().unwrap_or_else(PoisonError::into_inner);
        while *left > 0 {
            left = self
                .written
                .wait(left)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// The tenant a request would mutate (admission/backpressure scope).
fn mutating_tenant(req: &Request) -> Option<u64> {
    match *req {
        Request::Arrive { tenant, .. }
        | Request::Depart { tenant, .. }
        | Request::Rebalance { tenant, .. } => Some(tenant),
        _ => None,
    }
}

/// A bound, recovered daemon ready to serve.
pub struct Server {
    listener: TcpListener,
    state: ServeState,
    wal: Wal,
    data_dir: PathBuf,
    recovery: RecoveryReport,
    recorder: Arc<AtomicRecorder>,
}

impl Server {
    /// Recover state from `data_dir` and bind `addr` (use port 0 for an
    /// ephemeral port; read it back with [`Server::port`]).
    ///
    /// # Errors
    ///
    /// Recovery failure (see [`recover`]) or a bind error.
    pub fn bind(data_dir: &Path, addr: &str, cfg: ServeConfig) -> Result<Self, ServeError> {
        let (state, wal, recovery) = recover(data_dir, cfg)?;
        let recorder = Arc::new(AtomicRecorder::default());
        recorder.incr(names::SERVE_RECOVERIES, state.counters.recoveries);
        recorder.incr(names::SERVE_REPLAYED, state.counters.replayed);
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            listener,
            state,
            wal,
            data_dir: data_dir.to_path_buf(),
            recovery,
            recorder,
        })
    }

    /// The bound port.
    ///
    /// # Errors
    ///
    /// Socket introspection failure.
    pub fn port(&self) -> std::io::Result<u16> {
        Ok(self.listener.local_addr()?.port())
    }

    /// What recovery found at startup.
    pub fn recovery(&self) -> RecoveryReport {
        self.recovery
    }

    /// The recorder collecting `serve.*` counters.
    pub fn recorder(&self) -> Arc<AtomicRecorder> {
        Arc::clone(&self.recorder)
    }

    /// Serve until a `Shutdown` request arrives. A final snapshot is
    /// written before the Shutdown is acked, and `run` returns only after
    /// every Shutdown ack has been written and flushed to its socket.
    ///
    /// # Errors
    ///
    /// A WAL or snapshot write failure (the daemon cannot continue
    /// honoring its durability contract) or an accept-loop I/O error.
    pub fn run(self) -> Result<(), ServeError> {
        let Server {
            listener,
            state,
            wal,
            data_dir,
            recorder,
            ..
        } = self;
        let cfg = *state.config();
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let pending: Arc<Mutex<BTreeMap<u64, u64>>> = Arc::new(Mutex::new(BTreeMap::new()));
        let acks = Arc::new(AckGate::default());
        let (tx, rx) = mpsc::sync_channel::<Msg>(cfg.queue_bound.max(1));

        let state_thread = {
            let shutdown = Arc::clone(&shutdown);
            let pending = Arc::clone(&pending);
            let recorder = Arc::clone(&recorder);
            let acks = Arc::clone(&acks);
            thread::spawn(move || {
                let out = state_loop(state, wal, rx, &pending, &data_dir, &cfg, &recorder, &acks);
                shutdown.store(true, Ordering::SeqCst);
                // Unblock the acceptor so run() can return.
                drop(TcpStream::connect(local));
                out
            })
        };

        for incoming in listener.incoming() {
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match incoming {
                Ok(s) => s,
                Err(_) => continue,
            };
            recorder.incr(names::SERVE_CONNECTIONS, 1);
            let tx = tx.clone();
            let pending = Arc::clone(&pending);
            let recorder = Arc::clone(&recorder);
            let acks = Arc::clone(&acks);
            thread::spawn(move || connection_loop(stream, &tx, &pending, &cfg, &recorder, &acks));
        }
        drop(tx);
        let out = match state_thread.join() {
            Ok(out) => out,
            Err(_) => Err(ServeError::State("state thread panicked".into())),
        };
        acks.wait();
        out
    }
}

/// Send one length-prefixed response on the connection's write half.
fn send_response(stream: &TcpStream, resp: &Response) -> Result<(), WireError> {
    let mut w = stream;
    write_frame(&mut w, &encode_response(resp))?;
    w.flush().map_err(|e| WireError::Io(e.to_string()))
}

/// Per-connection pump: read frames, enforce backpressure bounds, hand
/// requests to the state thread, relay replies. Frame-level errors
/// (malformed, truncated, oversized) answer with `Error` and close the
/// connection — after a framing error the stream offset is untrusted.
fn connection_loop(
    stream: TcpStream,
    tx: &SyncSender<Msg>,
    pending: &Mutex<BTreeMap<u64, u64>>,
    cfg: &ServeConfig,
    recorder: &AtomicRecorder,
    acks: &AckGate,
) {
    loop {
        let frame = {
            let mut r = &stream;
            match read_frame(&mut r) {
                Ok(f) => f,
                Err(WireError::Closed) => return,
                Err(e) => {
                    recorder.incr(names::SERVE_FRAME_ERRORS, 1);
                    let _ = send_response(
                        &stream,
                        &Response::Error {
                            detail: format!("bad frame: {e}"),
                        },
                    );
                    return;
                }
            }
        };
        let req = match decode_request(&frame) {
            Ok(r) => r,
            Err(e) => {
                recorder.incr(names::SERVE_FRAME_ERRORS, 1);
                let _ = send_response(
                    &stream,
                    &Response::Error {
                        detail: format!("bad request: {e}"),
                    },
                );
                return;
            }
        };

        // Per-tenant in-flight bound (mutating requests only).
        let tenant = mutating_tenant(&req);
        if let Some(t) = tenant {
            let mut map = match pending.lock() {
                Ok(m) => m,
                Err(_) => return,
            };
            let slot = map.entry(t).or_insert(0);
            if *slot >= cfg.tenant_pending as u64 {
                drop(map);
                let busy = Response::Reject {
                    code: RejectCode::TenantBusy,
                    retry_after: 1,
                    detail: format!("tenant {t} has {} requests in flight", cfg.tenant_pending),
                };
                recorder.incr(names::SERVE_REJECTS, 1);
                if send_response(&stream, &busy).is_err() {
                    return;
                }
                continue;
            }
            *slot += 1;
        }

        let shutdown = matches!(req, Request::Shutdown);
        let (rtx, rrx) = mpsc::channel();
        match tx.try_send(Msg { req, reply: rtx }) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => {
                if let (Some(t), Ok(mut map)) = (tenant, pending.lock()) {
                    if let Some(slot) = map.get_mut(&t) {
                        *slot = slot.saturating_sub(1);
                    }
                }
                let full = Response::Reject {
                    code: RejectCode::QueueFull,
                    retry_after: 1,
                    detail: format!("event queue at {}", cfg.queue_bound),
                };
                recorder.incr(names::SERVE_REJECTS, 1);
                if send_response(&stream, &full).is_err() {
                    return;
                }
                continue;
            }
            Err(TrySendError::Disconnected(_)) => {
                let _ = send_response(
                    &stream,
                    &Response::Error {
                        detail: "server shutting down".into(),
                    },
                );
                return;
            }
        }
        let resp = rrx.recv().unwrap_or(Response::Error {
            detail: "server shutting down".into(),
        });
        let sent = send_response(&stream, &resp);
        if shutdown && matches!(resp, Response::Ack { .. }) {
            acks.done();
        }
        if sent.is_err() {
            return;
        }
    }
}

/// Release one in-flight slot for a tenant.
fn release_pending(pending: &Mutex<BTreeMap<u64, u64>>, tenant: Option<u64>) {
    if let (Some(t), Ok(mut map)) = (tenant, pending.lock()) {
        if let Some(slot) = map.get_mut(&t) {
            *slot = slot.saturating_sub(1);
        }
    }
}

/// Answer a read-only request from current state.
fn answer_read(state: &ServeState, req: &Request) -> Response {
    match *req {
        Request::Query { tenant } => match state.farm(tenant) {
            Some(farm) => Response::TenantState {
                tenant,
                jobs: farm.num_jobs() as u64,
                makespan: farm.makespan(),
                banked: farm.bank().balance(),
                digest: state.tenant_digest(tenant).unwrap_or(0),
            },
            None => Response::Reject {
                code: RejectCode::UnknownTenant,
                retry_after: 0,
                detail: format!("tenant {tenant} unknown"),
            },
        },
        Request::Lookup { tenant, key } => match state.farm(tenant).and_then(|f| f.proc_of(key)) {
            Some(proc) => Response::Located { proc: proc as u64 },
            None => Response::NotFound,
        },
        Request::Stats => Response::ServerStats {
            tenants: state.num_tenants() as u64,
            applied: state.applied(),
            snapshots: state.counters.snapshots,
            recoveries: state.counters.recoveries,
            replayed: state.counters.replayed,
            epochs: state.epochs(),
            rejects: state.counters.rejects,
            degraded: state.counters.degraded,
        },
        _ => Response::Error {
            detail: "not a read request".into(),
        },
    }
}

/// Map an applied event's outcome to its wire response.
fn outcome_response(outcome: ApplyOutcome, seq: u64, recorder: &AtomicRecorder) -> Response {
    match outcome {
        ApplyOutcome::Applied => Response::Ack { seq },
        ApplyOutcome::Rebalanced {
            moves,
            makespan,
            degraded,
            tier,
        } => {
            if degraded {
                recorder.incr(names::SERVE_DEGRADED, 1);
            }
            Response::Rebalanced {
                seq,
                moves,
                makespan,
                degraded,
                tier: tier.to_string(),
            }
        }
        ApplyOutcome::Failed { detail } => Response::Error { detail },
    }
}

/// The state thread: drain a batch, admit and apply in queue order
/// (grouping consecutive undegraded rebalances for distinct tenants into
/// one engine epoch), append the admitted events to the WAL, flush, and
/// only then release the acks.
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn state_loop(
    mut state: ServeState,
    mut wal: Wal,
    rx: Receiver<Msg>,
    pending: &Mutex<BTreeMap<u64, u64>>,
    data_dir: &Path,
    cfg: &ServeConfig,
    recorder: &AtomicRecorder,
    acks: &AckGate,
) -> Result<(), ServeError> {
    let mut last_snapshot = state.applied();
    loop {
        let first = match rx.recv() {
            Ok(m) => m,
            Err(_) => return Ok(()), // every sender gone: orderly teardown
        };
        let mut batch = vec![first];
        while batch.len() < cfg.batch_max.max(1) {
            match rx.try_recv() {
                Ok(m) => batch.push(m),
                Err(_) => break,
            }
        }

        let timer = recorder.time(names::SERVE_BATCH);
        let mut logged: Vec<LoggedEvent> = Vec::new();
        let mut deferred: Vec<Deferred> = Vec::new();
        let mut shutdown_replies: Vec<mpsc::Sender<Response>> = Vec::new();
        let mut i = 0;
        while i < batch.len() {
            let msg = &batch[i];
            let tenant = mutating_tenant(&msg.req);
            match msg.req {
                Request::Query { .. } | Request::Lookup { .. } | Request::Stats => {
                    let _ = msg.reply.send(answer_read(&state, &msg.req));
                }
                Request::Shutdown => shutdown_replies.push(msg.reply.clone()),
                _ => match state.admit(&msg.req) {
                    Err(rej) => {
                        state.counters.rejects += 1;
                        recorder.incr(names::SERVE_REJECTS, 1);
                        release_pending(pending, tenant);
                        let _ = msg.reply.send(Response::Reject {
                            code: rej.code,
                            retry_after: rej.retry_after,
                            detail: rej.detail,
                        });
                    }
                    Ok(ev) => {
                        // Gather a run of consecutive undegraded
                        // rebalances for distinct tenants: rebalance
                        // admission mutates nothing and is independent
                        // across tenants, so the whole run can share one
                        // engine epoch.
                        let mut run = vec![ev];
                        let mut replies = vec![(msg.reply.clone(), tenant)];
                        if matches!(
                            run[0],
                            LoggedEvent::Rebalance {
                                work_limit: u64::MAX,
                                ..
                            }
                        ) {
                            while i + 1 < batch.len() {
                                let next = &batch[i + 1];
                                let Request::Rebalance { tenant: t, .. } = next.req else {
                                    break;
                                };
                                if run.iter().any(|e| e.tenant() == t) {
                                    break;
                                }
                                match state.admit(&next.req) {
                                    Ok(
                                        ev2 @ LoggedEvent::Rebalance {
                                            work_limit: u64::MAX,
                                            ..
                                        },
                                    ) => {
                                        run.push(ev2);
                                        replies.push((next.reply.clone(), Some(t)));
                                        i += 1;
                                    }
                                    // A degraded-limit rebalance ends the
                                    // engine run; leave it for the next
                                    // iteration.
                                    Ok(_) => break,
                                    Err(rej) => {
                                        state.counters.rejects += 1;
                                        recorder.incr(names::SERVE_REJECTS, 1);
                                        release_pending(pending, Some(t));
                                        let _ = next.reply.send(Response::Reject {
                                            code: rej.code,
                                            retry_after: rej.retry_after,
                                            detail: rej.detail,
                                        });
                                        i += 1;
                                    }
                                }
                            }
                        }
                        let first_seq = state.applied() + 1;
                        let outcomes = state.apply_events(&run);
                        for (n, (outcome, (reply, t))) in
                            outcomes.into_iter().zip(replies).enumerate()
                        {
                            deferred.push(Deferred {
                                reply,
                                resp: outcome_response(outcome, first_seq + n as u64, recorder),
                                tenant: t,
                            });
                        }
                        logged.extend(run);
                    }
                },
            }
            i += 1;
        }

        if !logged.is_empty() {
            wal.append_batch(&logged)?;
            recorder.incr(names::SERVE_WAL_APPENDS, 1);
            recorder.incr(names::SERVE_EVENTS, logged.len() as u64);
        }
        recorder.incr(names::SERVE_EPOCHS, 1);
        for d in deferred {
            release_pending(pending, d.tenant);
            let _ = d.reply.send(d.resp);
        }
        drop(timer);

        let due = cfg.snapshot_every > 0
            && state.applied().saturating_sub(last_snapshot) >= cfg.snapshot_every;
        if due || !shutdown_replies.is_empty() {
            snapshot::write(data_dir, &state.capture())?;
            state.counters.snapshots += 1;
            recorder.incr(names::SERVE_SNAPSHOTS, 1);
            last_snapshot = state.applied();
        }
        if !shutdown_replies.is_empty() {
            let seq = state.applied();
            acks.add(shutdown_replies.len());
            for reply in shutdown_replies {
                if reply.send(Response::Ack { seq }).is_err() {
                    // Its connection thread is gone; nobody will write it.
                    acks.done();
                }
            }
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{frame_request, BudgetSpec};
    use std::io::Write;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lrb-serve-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn roundtrip(stream: &TcpStream, req: &Request) -> Response {
        let mut w = stream;
        w.write_all(&frame_request(req)).unwrap();
        w.flush().unwrap();
        let mut r = stream;
        let frame = read_frame(&mut r).unwrap();
        crate::wire::decode_response(&frame).unwrap()
    }

    fn small_cfg() -> ServeConfig {
        ServeConfig {
            procs: 3,
            threads: 1,
            snapshot_every: 4,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn serve_accepts_events_and_survives_restart() {
        let dir = temp_dir("restart");
        let server = Server::bind(&dir, "127.0.0.1:0", small_cfg()).unwrap();
        let port = server.port().unwrap();
        let handle = thread::spawn(move || server.run());

        let stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
        for k in 0..6u64 {
            let resp = roundtrip(
                &stream,
                &Request::Arrive {
                    tenant: 1,
                    key: k,
                    size: k + 3,
                    cost: 1,
                    proc: k % 3,
                },
            );
            assert!(matches!(resp, Response::Ack { .. }), "{resp:?}");
        }
        let resp = roundtrip(
            &stream,
            &Request::Rebalance {
                tenant: 1,
                budget: BudgetSpec::Moves(4),
            },
        );
        assert!(matches!(resp, Response::Rebalanced { .. }), "{resp:?}");
        let live_digest = match roundtrip(&stream, &Request::Query { tenant: 1 }) {
            Response::TenantState { digest, .. } => digest,
            other => panic!("{other:?}"),
        };
        assert!(matches!(
            roundtrip(&stream, &Request::Shutdown),
            Response::Ack { .. }
        ));
        handle.join().unwrap().unwrap();

        // Recovery reproduces the exact state.
        let (state, _wal, report) = recover(&dir, small_cfg()).unwrap();
        assert!(report.had_snapshot);
        assert_eq!(state.tenant_digest(1), Some(live_digest));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_frames_answer_error_and_close() {
        let dir = temp_dir("badframe");
        let server = Server::bind(&dir, "127.0.0.1:0", small_cfg()).unwrap();
        let port = server.port().unwrap();
        let recorder = server.recorder();
        let handle = thread::spawn(move || server.run());

        // Oversized declared length.
        let stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
        {
            let mut w = &stream;
            w.write_all(&u32::MAX.to_be_bytes()).unwrap();
            w.flush().unwrap();
        }
        let mut r = &stream;
        let resp = crate::wire::decode_response(&read_frame(&mut r).unwrap()).unwrap();
        assert!(matches!(resp, Response::Error { .. }), "{resp:?}");
        // Server closed its end after the framing error.
        assert!(matches!(read_frame(&mut r), Err(WireError::Closed)));
        assert!(
            recorder
                .snapshot()
                .counter(names::SERVE_FRAME_ERRORS)
                .unwrap_or(0)
                >= 1
        );

        let stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
        assert!(matches!(
            roundtrip(&stream, &Request::Shutdown),
            Response::Ack { .. }
        ));
        handle.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_tenant_and_key_reads() {
        let dir = temp_dir("reads");
        let server = Server::bind(&dir, "127.0.0.1:0", small_cfg()).unwrap();
        let port = server.port().unwrap();
        let handle = thread::spawn(move || server.run());

        let stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
        assert!(matches!(
            roundtrip(&stream, &Request::Query { tenant: 42 }),
            Response::Reject {
                code: RejectCode::UnknownTenant,
                ..
            }
        ));
        assert!(matches!(
            roundtrip(&stream, &Request::Lookup { tenant: 42, key: 7 }),
            Response::NotFound
        ));
        assert!(matches!(
            roundtrip(&stream, &Request::Stats),
            Response::ServerStats { .. }
        ));
        assert!(matches!(
            roundtrip(&stream, &Request::Shutdown),
            Response::Ack { .. }
        ));
        handle.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

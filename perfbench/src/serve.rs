//! `serve_mixed`: client requests through an in-process `lrb-serve` server.
//!
//! The server runs with the default `ServeConfig` on loopback over a data
//! directory the benchmark prefills offline (a snapshot plus a WAL suffix),
//! so set-up covers recovery. The load is a closed loop of `mt` clients,
//! each owning a disjoint share of the tenants: a client sends its next
//! request only after the reply to the previous one. The mix is
//! stationary (about 40% Arrive, 40% Depart of a live key, 10% Rebalance,
//! 10% Lookup/Query), so per-request work does not drift over the window.
//! The window is cut into 30 segments; in each break between two
//! segments, with the clients held, more set-ups of a separate server are
//! timed, so that `setup_s` samples the host over the whole run.
//!
//! Afterwards the exact acknowledged request sequence is replayed through
//! the public state-layer calls (`ServeState::admit`, `apply_events`,
//! `Wal::append_batch`, `capture` + `snapshot::write`): the shadow's
//! per-tenant digests must equal the server's, and its timings are the
//! traced run's serve layer.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use lrb_core::model::Budget;
use lrb_engine::{BatchItem, BatchSolver, EngineConfig, StreamEngine};
use lrb_harness::loadgen::{Client, ClientConfig};
use lrb_obs::{names, AtomicRecorder};
use lrb_serve::state::{splitmix64, ApplyOutcome, ServeConfig, ServeState};
use lrb_serve::wal::Wal;
use lrb_serve::wire::{decode_response, frame_request, read_frame, BudgetSpec, Request, Response};
use lrb_serve::{recover, snapshot, ServeError, Server};

use crate::engine::{self, elapsed_ns};
use crate::report::{median, peak_rss_mb, percentile, EndToEnd, Layers, Measured, Slices};
use crate::spans::{self, SpanLog};
use crate::{host_threads, Settings};

/// Tenant farms on the server.
const TENANTS: u64 = 8;
/// The load window is cut into this many segments. Before the first and
/// between two segments, while the clients wait, the main thread times
/// another batch of set-ups, so `setup_s` (their median) samples the host
/// over the whole run rather than over its first second: the set-up's
/// speed on a shared host changes from one second to the next.
const SEGMENTS: usize = 30;
/// Set-ups timed before the load and in each break between segments.
const SETUP_BATCH: usize = 3;
/// Offline recoveries timed for `serve.recovery_ms`.
const RECOVERY_REPS: usize = 3;
/// Requests per write in the pipelined verification pass.
const VERIFY_CHUNK: usize = 256;

/// Distinguishes the data directories of measurements in one process.
static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// Expected fate of every key a run acknowledged: `true` = must be live.
pub type Ledger = BTreeMap<(u64, u64), bool>;

/// A tenant's client-side book: its live keys and its next fresh key.
#[derive(Debug, Clone, Default)]
struct Book {
    live: Vec<u64>,
    next: u64,
}

/// One request as its client saw it; `resp` is `None` on transport failure.
#[derive(Debug, Clone)]
struct Call {
    req: Request,
    resp: Option<Response>,
    lat_ns: u64,
}

fn key_of(tenant: u64, n: u64) -> u64 {
    (tenant << 32) | n
}

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

fn serve_err(what: &str) -> impl Fn(ServeError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Prefill `dir` offline: `jobs` arrivals per tenant with a rebalance every
/// eighth, a snapshot at three quarters, and the rest left in the WAL for
/// recovery to replay. Returns each tenant's book.
fn prefill(
    dir: &Path,
    cfg: ServeConfig,
    seed: u64,
    jobs: u64,
) -> Result<BTreeMap<u64, Book>, String> {
    let (mut state, mut wal, _) = recover(dir, cfg).map_err(serve_err("prefill"))?;
    let mut books: BTreeMap<u64, Book> = (0..TENANTS).map(|t| (t, Book::default())).collect();
    let mut h = splitmix64(seed ^ 0x0070_7265_6669_6c6c);
    let mut reqs = Vec::new();
    for n in 0..jobs {
        for (&tenant, book) in &mut books {
            h = splitmix64(h);
            let key = key_of(tenant, book.next);
            book.next += 1;
            book.live.push(key);
            reqs.push(arrive(tenant, key, h, cfg.procs as u64));
            if n % 8 == 7 {
                reqs.push(Request::Rebalance {
                    tenant,
                    budget: BudgetSpec::Moves(2),
                });
            }
        }
    }
    let snapshot_at = reqs.len() * 3 / 4;
    for (i, req) in reqs.iter().enumerate() {
        let ev = state
            .admit(req)
            .map_err(|r| format!("prefill rejected: {}", r.detail))?;
        if let Some(ApplyOutcome::Failed { detail }) =
            state.apply_events(std::slice::from_ref(&ev)).pop()
        {
            return Err(format!("prefill failed: {detail}"));
        }
        wal.append_batch(&[ev]).map_err(io_err("prefill wal"))?;
        if i + 1 == snapshot_at {
            snapshot::write(dir, &state.capture()).map_err(|e| format!("prefill snapshot: {e}"))?;
        }
    }
    Ok(books)
}

fn arrive(tenant: u64, key: u64, h: u64, procs: u64) -> Request {
    Request::Arrive {
        tenant,
        key,
        size: h % 40 + 1,
        cost: (h >> 8) % 3 + 1,
        proc: (h >> 16) % procs.max(1),
    }
}

/// The next request of the stationary mix for one of `tenants`.
fn next_request(
    h: &mut u64,
    tenants: &[u64],
    books: &mut BTreeMap<u64, Book>,
    procs: u64,
) -> Request {
    *h = splitmix64(*h);
    let x = *h;
    let tenant = tenants[(x % tenants.len() as u64) as usize];
    let book = books
        .get_mut(&tenant)
        .expect("every owned tenant has a book");
    let live_key = |b: &Book| b.live[((x >> 40) % b.live.len() as u64) as usize];
    match (x >> 8) % 10 {
        4..=7 if !book.live.is_empty() => Request::Depart {
            tenant,
            key: live_key(book),
        },
        0..=7 => {
            let key = key_of(tenant, book.next);
            book.next += 1;
            arrive(tenant, key, x >> 20, procs)
        }
        8 => Request::Rebalance {
            tenant,
            budget: BudgetSpec::Moves((x >> 16) % 4 + 1),
        },
        _ if (x >> 16) & 1 == 0 && !book.live.is_empty() => Request::Lookup {
            tenant,
            key: live_key(book),
        },
        _ => Request::Query { tenant },
    }
}

/// A request that got a Reject, an Error, or no reply at all.
fn is_failure(resp: Option<&Response>) -> bool {
    matches!(
        resp,
        None | Some(Response::Reject { .. } | Response::Error { .. })
    )
}

/// What one closed-loop client did.
struct ClientRun {
    calls: Vec<Call>,
    retries: u64,
    log: SpanLog,
}

/// Holds the clients between load segments: every client and the main
/// thread wait on `barrier` at the start and at the end of each segment.
struct Gate {
    barrier: Barrier,
    segment: Duration,
}

/// One closed-loop client: send the next request of the mix only after the
/// previous reply, for each of the [`SEGMENTS`] segments `gate` opens.
fn client_loop(
    addr: &str,
    seed: u64,
    mut books: BTreeMap<u64, Book>,
    gate: &Gate,
    mut log: SpanLog,
    procs: u64,
) -> ClientRun {
    let tenants: Vec<u64> = books.keys().copied().collect();
    let mut client = Client::new(
        addr,
        ClientConfig {
            seed,
            ..ClientConfig::default()
        },
    );
    let mut h = splitmix64(seed);
    let mut calls = Vec::new();
    for _ in 0..SEGMENTS {
        gate.barrier.wait();
        let deadline = Instant::now() + gate.segment;
        while Instant::now() < deadline {
            let req = next_request(&mut h, &tenants, &mut books, procs);
            log.enter("client.call");
            let t0 = Instant::now();
            let resp = client.call(&req).ok();
            let lat_ns = elapsed_ns(t0);
            log.exit();
            match (&req, &resp) {
                (Request::Arrive { tenant, key, .. }, Some(Response::Ack { .. })) => {
                    books.get_mut(tenant).expect("owned").live.push(*key);
                }
                (Request::Depart { tenant, key }, Some(Response::Ack { .. })) => {
                    books
                        .get_mut(tenant)
                        .expect("owned")
                        .live
                        .retain(|k| k != key);
                }
                _ => {}
            }
            calls.push(Call { req, resp, lat_ns });
        }
        gate.barrier.wait();
    }
    ClientRun {
        calls,
        retries: client.retries_used,
        log,
    }
}

/// A recovered server running on its own thread.
struct Running {
    addr: String,
    handle: JoinHandle<Result<(), ServeError>>,
    recorder: Arc<AtomicRecorder>,
    replayed: u64,
}

/// Set-up, as timed: `Server::bind` over the data dir (snapshot load + WAL
/// replay) through the first answered request.
fn start_server(dir: &Path, cfg: ServeConfig, log: &mut SpanLog) -> Result<(Running, f64), String> {
    let t0 = Instant::now();
    log.enter("bench.setup");
    let server = log
        .time("serve.bind", || Server::bind(dir, "127.0.0.1:0", cfg))
        .map_err(serve_err("bind"))?;
    let addr = format!("127.0.0.1:{}", server.port().map_err(io_err("port"))?);
    let recorder = server.recorder();
    let replayed = server.recovery().replayed;
    let handle = thread::spawn(move || server.run());
    let mut client = Client::new(&addr, ClientConfig::default());
    let first = log.time("client.call", || client.call(&Request::Stats));
    log.exit();
    let setup_s = t0.elapsed().as_secs_f64();
    let running = Running {
        addr,
        handle,
        recorder,
        replayed,
    };
    match first {
        Ok(Response::ServerStats { .. }) => Ok((running, setup_s)),
        other => {
            let _ = stop_server(running);
            Err(format!("first request answered {other:?}"))
        }
    }
}

/// Shut the server down cleanly and join its thread.
fn stop_server(running: Running) -> Result<(), String> {
    let mut client = Client::new(&running.addr, ClientConfig::default());
    let ack = client.call(&Request::Shutdown);
    let joined = running.handle.join();
    match (ack, joined) {
        (Ok(Response::Ack { .. }), Ok(Ok(()))) => Ok(()),
        (ack, joined) => Err(format!("shutdown: {ack:?} / {joined:?}")),
    }
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(io_err("create data dir"))?;
    for entry in std::fs::read_dir(from).map_err(io_err("read template"))? {
        let entry = entry.map_err(io_err("read template"))?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(io_err("copy template"))?;
    }
    Ok(())
}

/// Send `reqs` on one connection, writing a chunk of frames before reading
/// their replies (one round trip per chunk instead of per request).
fn pipelined(addr: &str, reqs: &[Request]) -> Result<Vec<Response>, String> {
    let stream = TcpStream::connect(addr).map_err(io_err("verify connect"))?;
    stream.set_nodelay(true).map_err(io_err("verify nodelay"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(io_err("verify timeout"))?;
    let mut out = Vec::with_capacity(reqs.len());
    for chunk in reqs.chunks(VERIFY_CHUNK) {
        let bytes: Vec<u8> = chunk.iter().flat_map(frame_request).collect();
        (&stream)
            .write_all(&bytes)
            .map_err(io_err("verify write"))?;
        for _ in chunk {
            let frame = read_frame(&mut &stream).map_err(|e| format!("verify read: {e:?}"))?;
            out.push(decode_response(&frame).map_err(|e| format!("verify decode: {e:?}"))?);
        }
    }
    Ok(out)
}

/// The serve output checks against the live server: every acked-live key
/// is `Located`, every acked-departed key is `NotFound` (as in
/// `loadgen::verify`), and each tenant's `Query` digest is returned.
fn verify(
    addr: &str,
    ledger: &Ledger,
    problems: &mut Vec<String>,
) -> Result<BTreeMap<u64, u64>, String> {
    let mut reqs: Vec<Request> = ledger
        .keys()
        .map(|&(tenant, key)| Request::Lookup { tenant, key })
        .collect();
    reqs.extend((0..TENANTS).map(|tenant| Request::Query { tenant }));
    let resps = pipelined(addr, &reqs)?;
    let (lost, ghosts) = ledger
        .iter()
        .zip(&resps)
        .fold((0, 0), |(l, g), (((_, _), &live), r)| match (live, r) {
            (true, Response::Located { .. }) | (false, Response::NotFound) => (l, g),
            (true, _) => (l + 1, g),
            (false, _) => (l, g + 1),
        });
    if lost > 0 {
        problems.push(format!("{lost} acked-live keys not Located"));
    }
    if ghosts > 0 {
        problems.push(format!("{ghosts} acked-departed keys still present"));
    }
    let mut digests = BTreeMap::new();
    for (tenant, r) in (0..TENANTS).zip(&resps[ledger.len()..]) {
        match r {
            Response::TenantState { digest, .. } => {
                digests.insert(tenant, *digest);
            }
            other => problems.push(format!("query({tenant}) answered {other:?}")),
        }
    }
    Ok(digests)
}

/// The state-layer replay of the acknowledged requests.
struct Shadow {
    state: ServeState,
    wal: Wal,
    dir: PathBuf,
    snapshot_every: u64,
    last_snapshot: u64,
    /// `(total ns, calls)` per state-layer call.
    admit: (u64, u64),
    apply_write: (u64, u64),
    apply_rebalance: (u64, u64),
    wal_append: (u64, u64),
    snapshot: (u64, u64),
    /// Each rebalance as the engine receives it (for the core/engine layers).
    rebalances: Vec<BatchItem>,
}

fn timed<T>(
    log: &mut SpanLog,
    name: &'static str,
    slot: &mut (u64, u64),
    f: impl FnOnce() -> T,
) -> (T, u64) {
    log.enter(name);
    let t0 = Instant::now();
    let out = f();
    let ns = elapsed_ns(t0);
    log.exit();
    slot.0 += ns;
    slot.1 += 1;
    (out, ns)
}

impl Shadow {
    /// Replay one client call; returns its state-layer time in ns (the
    /// snapshot, which the server takes after replying, is not included).
    fn replay(&mut self, call: &Call, log: &mut SpanLog, problems: &mut Vec<String>) -> u64 {
        log.enter("serve.shadow_request");
        let ns = self.replay_inner(call, log, problems);
        log.exit();
        ns
    }

    fn replay_inner(&mut self, call: &Call, log: &mut SpanLog, problems: &mut Vec<String>) -> u64 {
        let acked = matches!(
            call.resp,
            Some(Response::Ack { .. } | Response::Rebalanced { .. })
        );
        match call.req {
            Request::Lookup { tenant, key } => {
                let t0 = Instant::now();
                std::hint::black_box(self.state.farm(tenant).and_then(|f| f.proc_of(key)));
                return elapsed_ns(t0);
            }
            Request::Query { tenant } => {
                let t0 = Instant::now();
                std::hint::black_box(self.state.tenant_digest(tenant));
                return elapsed_ns(t0);
            }
            _ if !acked => return 0,
            _ => {}
        }
        let state = &mut self.state;
        let (ev, admit_ns) = timed(log, "serve.admit", &mut self.admit, || {
            state.admit(&call.req)
        });
        let ev = match ev {
            Ok(ev) => ev,
            Err(rej) => {
                problems.push(format!("shadow rejected an acked request: {}", rej.detail));
                return admit_ns;
            }
        };
        let rebalance = match call.req {
            Request::Rebalance { tenant, budget } => state.farm(tenant).map(|farm| {
                let bank = farm.bank();
                let banked = bank
                    .balance()
                    .saturating_add(bank.accrual())
                    .min(bank.cap());
                let k = match budget {
                    BudgetSpec::Moves(k) | BudgetSpec::Cost(k) => k,
                };
                BatchItem {
                    instance: farm.instance(),
                    budget: Budget::Moves(k.min(banked) as usize),
                }
            }),
            _ => None,
        };
        let slot = if rebalance.is_some() {
            &mut self.apply_rebalance
        } else {
            &mut self.apply_write
        };
        let (outcome, apply_ns) = timed(log, "serve.apply_events", slot, || {
            state.apply_events(std::slice::from_ref(&ev)).pop()
        });
        match (&outcome, &call.resp) {
            (
                Some(ApplyOutcome::Rebalanced {
                    moves, makespan, ..
                }),
                Some(Response::Rebalanced {
                    moves: m2,
                    makespan: s2,
                    ..
                }),
            ) if (moves, makespan) != (m2, s2) => problems.push(format!(
                "shadow rebalance gave {moves} moves / makespan {makespan}, server {m2} / {s2}"
            )),
            (Some(ApplyOutcome::Failed { detail }), _) => {
                problems.push(format!("shadow apply failed: {detail}"));
            }
            _ => {}
        }
        if let Some(item) = rebalance.filter(|i| i.instance.num_jobs() > 0) {
            self.rebalances.push(item);
        }
        let wal = &mut self.wal;
        let (appended, wal_ns) = timed(log, "serve.wal_append", &mut self.wal_append, || {
            wal.append_batch(&[ev])
        });
        if let Err(e) = appended {
            problems.push(format!("shadow wal: {e}"));
        }
        if state.applied() - self.last_snapshot >= self.snapshot_every {
            let dir = &self.dir;
            let (written, _) = timed(log, "serve.snapshot", &mut self.snapshot, || {
                snapshot::write(dir, &state.capture())
            });
            if let Err(e) = written {
                problems.push(format!("shadow snapshot: {e}"));
            }
            self.last_snapshot = state.applied();
        }
        admit_ns + apply_ns + wal_ns
    }
}

/// Measure `serve_mixed`; see [`crate::run`].
///
/// # Errors
///
/// An I/O or server failure that prevents the measurement.
pub fn measure(s: &Settings) -> Result<Measured, String> {
    measure_with(s, |_, _| {})
}

/// [`measure`] with a hook that runs against the live server after the load
/// and before the output checks; the benchmark's tests use it to drop an
/// acknowledged key behind the checks' back.
///
/// # Errors
///
/// As [`measure`].
pub fn measure_with(s: &Settings, tamper: impl FnOnce(&str, &Ledger)) -> Result<Measured, String> {
    let root = s.work_dir.join(format!(
        "serve-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let out = measure_in(&root, s, tamper);
    let _ = std::fs::remove_dir_all(&root);
    out
}

#[allow(clippy::too_many_lines)]
fn measure_in(
    root: &Path,
    s: &Settings,
    tamper: impl FnOnce(&str, &Ledger),
) -> Result<Measured, String> {
    let cfg = ServeConfig::default();
    let procs = cfg.procs as u64;
    let mt = host_threads();
    let origin = Instant::now();
    let mut log = SpanLog::new(s.traced, "main", origin);
    let template = root.join("template");
    let live = root.join("live");
    let jobs = if s.smoke { 8 } else { 48 };
    let prefilled = prefill(&template, cfg, s.seed, jobs)?;

    // The first batch of set-ups; the last server started serves the load.
    let mut setup_s = Vec::with_capacity(SETUP_BATCH * SEGMENTS);
    let mut running = None;
    for _ in 0..SETUP_BATCH {
        if let Some(r) = running.take() {
            stop_server(r)?;
        }
        copy_dir(&template, &live)?;
        let (r, t) = start_server(&live, cfg, &mut log)?;
        setup_s.push(t);
        running = Some(r);
    }
    let running = running.expect("at least one set-up repetition");
    let probe = root.join("probe");
    let set_up_between = |log: &mut SpanLog, setup_s: &mut Vec<f64>| {
        for _ in 0..SETUP_BATCH {
            copy_dir(&template, &probe)?;
            let (r, t) = start_server(&probe, cfg, log)?;
            setup_s.push(t);
            stop_server(r)?;
        }
        Ok::<(), String>(())
    };

    // `mt` clients, each owning the tenants ≡ its index mod mt.
    let mut shares: Vec<BTreeMap<u64, Book>> = vec![BTreeMap::new(); mt];
    for (tenant, book) in prefilled.clone() {
        shares[(tenant % mt as u64) as usize].insert(tenant, book);
    }
    shares.retain(|books| !books.is_empty());
    let gate = Gate {
        barrier: Barrier::new(shares.len() + 1),
        segment: s.window / SEGMENTS as u32,
    };
    let mut elapsed = Duration::ZERO;
    let mut between = Ok(());
    log.enter("bench.phase_mt");
    let clients: Vec<ClientRun> = thread::scope(|scope| {
        let handles: Vec<_> = shares
            .into_iter()
            .enumerate()
            .map(|(w, books)| {
                let addr = running.addr.as_str();
                let gate = &gate;
                let log = SpanLog::new(s.traced, format!("client-{w}"), origin);
                let seed = splitmix64(s.seed ^ (0x100 + w as u64));
                scope.spawn(move || client_loop(addr, seed, books, gate, log, procs))
            })
            .collect();
        for segment in 0..SEGMENTS {
            gate.barrier.wait();
            let t0 = Instant::now();
            gate.barrier.wait();
            elapsed += t0.elapsed();
            if segment + 1 < SEGMENTS && between.is_ok() {
                between = set_up_between(&mut log, &mut setup_s);
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    log.exit();

    let mut m = Measured::default();
    let all_calls = || clients.iter().flat_map(|c| &c.calls);
    m.attempted = all_calls().count() as u64;
    m.failed = all_calls().filter(|c| is_failure(c.resp.as_ref())).count() as u64;
    for c in all_calls() {
        match (&c.req, &c.resp) {
            (Request::Lookup { .. }, Some(Response::Located { .. }))
            | (Request::Query { .. }, Some(Response::TenantState { .. }))
            | (Request::Arrive { .. } | Request::Depart { .. }, Some(Response::Ack { .. }))
            | (Request::Rebalance { .. }, Some(Response::Rebalanced { .. })) => {}
            (req, resp) if !is_failure(resp.as_ref()) => {
                m.problems.push(format!("{req:?} answered {resp:?}"));
            }
            _ => {}
        }
    }

    // Ledger: every prefilled key is live, then each acked write in order.
    let mut ledger: Ledger = BTreeMap::new();
    for (tenant, book) in &prefilled {
        for &key in &book.live {
            ledger.insert((*tenant, key), true);
        }
    }
    for c in all_calls() {
        match (&c.req, &c.resp) {
            (Request::Arrive { tenant, key, .. }, Some(Response::Ack { .. })) => {
                ledger.insert((*tenant, *key), true);
            }
            (Request::Depart { tenant, key }, Some(Response::Ack { .. })) => {
                ledger.insert((*tenant, *key), false);
            }
            _ => {}
        }
    }
    let counters = running.recorder.snapshot();
    tamper(&running.addr, &ledger);
    let digests = verify(&running.addr, &ledger, &mut m.problems);
    let replayed = running.replayed;
    let stopped = stop_server(running);
    let digests = digests?;
    stopped?;
    between?;

    // Offline recovery of the prefilled data dir, then the shadow replay.
    let mut recovery_ms = Vec::with_capacity(RECOVERY_REPS);
    let mut recovered = None;
    let shadow_dir = root.join("shadow");
    for _ in 0..RECOVERY_REPS {
        copy_dir(&template, &shadow_dir)?;
        let t0 = Instant::now();
        let r = log
            .time("serve.recover", || recover(&shadow_dir, cfg))
            .map_err(serve_err("recover"))?;
        recovery_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        recovered = Some(r);
    }
    let (state, wal, _) = recovered.expect("at least one recovery");
    let mut shadow = Shadow {
        last_snapshot: state.applied(),
        state,
        wal,
        dir: shadow_dir,
        snapshot_every: cfg.snapshot_every,
        admit: (0, 0),
        apply_write: (0, 0),
        apply_rebalance: (0, 0),
        wal_append: (0, 0),
        snapshot: (0, 0),
        rebalances: Vec::new(),
    };
    // The prefilled state depends only on the seed: its digest identifies
    // the run's inputs.
    let inputs = shadow
        .state
        .digests()
        .into_iter()
        .fold(0, |h, (t, d)| splitmix64(h ^ t ^ d));
    m.info.push(("digest".into(), format!("{inputs:016x}")));
    let mut shadow_log = SpanLog::new(s.traced, "shadow", origin);
    // Clients own disjoint tenants, so replaying them one after another
    // reaches the same per-tenant state as any interleaving.
    let mut lat_ns = Vec::new();
    let mut state_ns = Vec::new();
    let mut transport_ns = Vec::new();
    for c in all_calls() {
        let st = shadow.replay(c, &mut shadow_log, &mut m.problems);
        lat_ns.push(c.lat_ns);
        state_ns.push(st);
        transport_ns.push(c.lat_ns.saturating_sub(st));
    }
    let shadow_digests: BTreeMap<u64, u64> = shadow.state.digests().into_iter().collect();
    if shadow_digests != digests {
        m.problems.push(format!(
            "tenant digests differ: server {digests:?}, shadow replay {shadow_digests:?}"
        ));
    }
    if lat_ns.is_empty() {
        m.problems.push("no request completed".into());
    }
    for v in [&mut lat_ns, &mut state_ns, &mut transport_ns] {
        v.sort_unstable();
    }

    m.e2e = EndToEnd {
        setup_s: median(&setup_s),
        ops_per_s: lat_ns.len() as f64 / elapsed.as_secs_f64(),
        lat_p50_us: percentile(&lat_ns, 0.50) / 1e3,
        lat_p99_us: percentile(&lat_ns, 0.99) / 1e3,
        peak_rss_mb: peak_rss_mb(),
    };
    m.info
        .push(("lat_samples".into(), lat_ns.len().to_string()));

    if s.traced {
        let avg_us = |(ns, n): (u64, u64)| crate::report::mean(ns as f64, n) / 1e3;
        let p50_state = percentile(&state_ns, 0.5);
        let p50_transport = percentile(&transport_ns, 0.5);
        let counter = |name| counters.counter(name).unwrap_or(0) as f64;
        m.layers = Layers::from([
            ("serve.admit_us", avg_us(shadow.admit)),
            ("serve.apply_write_us", avg_us(shadow.apply_write)),
            ("serve.apply_rebalance_us", avg_us(shadow.apply_rebalance)),
            ("serve.wal_append_us", avg_us(shadow.wal_append)),
            ("serve.snapshot_ms", avg_us(shadow.snapshot) / 1e3),
            ("serve.snapshots", shadow.snapshot.1 as f64),
            ("serve.state_us", p50_state / 1e3),
            ("serve.transport_ms", p50_transport / 1e6),
            (
                "serve.accounted_share",
                (p50_state + p50_transport) / percentile(&lat_ns, 0.5).max(1.0),
            ),
            (
                "serve.events_per_batch",
                counter(names::SERVE_EVENTS) / counter(names::SERVE_WAL_APPENDS).max(1.0),
            ),
            ("serve.recovery_ms", median(&recovery_ms)),
            ("serve.replayed", replayed as f64),
            (
                "client.retries",
                clients.iter().map(|c| c.retries).sum::<u64>() as f64,
            ),
        ]);
        // The rebalances reach the engine as 1-item epochs; time the same
        // items through the core and the engine from outside.
        let items = &shadow.rebalances;
        let (core, per_item_ns) = log.time("bench.core_pass", || engine::core_layers(items));
        m.layers.extend(core);
        let mut stream = StreamEngine::new(
            BatchSolver::MPartition,
            &EngineConfig::with_threads(cfg.threads),
        );
        let calls: Vec<engine::Call> = items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                let t0 = Instant::now();
                let r = stream.solve_epoch(std::slice::from_ref(item));
                engine::Call {
                    first_item: i,
                    len: 1,
                    wall_ns: elapsed_ns(t0),
                    workers: r.workers,
                    steals: r.steals,
                }
            })
            .collect();
        m.layers.extend(engine::engine_layers(&calls, &per_item_ns));
        let mut epochs = Slices::default();
        let wall: Vec<u64> = calls.iter().map(|c| c.wall_ns).collect();
        epochs.push(wall.clone(), wall.len() as u64, wall.iter().sum());
        let (rate, p50, p99) = epochs.figures();
        m.layers.extend([
            ("engine.ops_per_s_mt", rate),
            ("engine.lat_p50_mt_us", p50 / 1e3),
            ("engine.lat_p99_mt_us", p99 / 1e3),
        ]);

        let path = s
            .work_dir
            .join(format!("spans-serve_mixed-seed{}.json", s.seed));
        let mut lanes: Vec<&SpanLog> = vec![&log, &shadow_log];
        lanes.extend(clients.iter().map(|c| &c.log));
        let n = spans::write_json(&path, &lanes).map_err(io_err("span file"))?;
        m.info
            .push(("spans".into(), format!("{n} in {}", path.display())));
    }
    Ok(m)
}

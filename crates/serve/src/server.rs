//! The daemon: accept loop, worker pool, routing, backpressure.
//!
//! # Concurrency shape
//!
//! One acceptor thread pushes connections onto an mpsc channel; `threads`
//! workers pull and serve them (one request per connection, each read
//! and written under fixed deadlines, so an idle client gets a 408
//! instead of holding a worker). Predict and explore requests pass three
//! gates, in order:
//!
//! 1. **Response cache**: a bounded FIFO of completed responses keyed by
//!    (profile content, canonical request JSON). A warm repeat performs
//!    zero new predictions. It is looked up at flight admission, under
//!    the flights lock, so gates 1 and 2 are one decision.
//! 2. **Flights** ([`crate::flight`]): concurrent requests that can
//!    share work join one flight — identical explores coalesce onto one
//!    sweep, distinct predicts on one profile batch into one
//!    `BatchPredictor` pass. Members hand their connection to the flight
//!    and free their worker; the leader computes once and answers all.
//! 3. **Backpressure**: explore leaders take an in-flight sweep slot
//!    (compare-and-swap on an atomic); at capacity the flight is
//!    rejected with 429 + `Retry-After` rather than queued without
//!    bound.
//!
//! Every predict or explore request that reaches gate 1 ends as exactly
//! one [`Outcome`], so the six partition counters sum to the number of
//! such requests, and identical work runs at most once — the invariants
//! the serve-smoke CI job asserts via `/metrics`.

use crate::engine;
use crate::flight::{Admission, FlightGuard, FlightKey, Flights, Member};
use crate::http::{read_request, Request, Response, READ_TIMEOUT, WRITE_TIMEOUT};
use crate::metrics::{Kind, Metrics, Outcome};
use crate::registry::{RegisteredProfile, Registry};
use pmt_api::{
    fnv1a, ApiError, ExploreRequest, HealthResponse, PredictRequest, ProfilesResponse,
    RegisterProfileRequest, WIRE_SCHEMA_VERSION,
};
use pmt_core::{BatchPredictor, ModelConfig};
use pmt_uarch::MachineConfig;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Daemon configuration. The defaults serve a workstation: a handful of
/// workers, two concurrent sweeps, space sizes up to a few million
/// points.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address (`127.0.0.1:7071`; port 0 picks a free port).
    pub addr: String,
    /// Worker threads serving requests.
    pub threads: usize,
    /// Concurrent explore sweeps admitted before 429.
    pub max_inflight_sweeps: usize,
    /// Largest admitted design space (points); larger requests get 413.
    pub max_space_points: usize,
    /// `Retry-After` seconds on 429.
    pub retry_after_s: u32,
    /// Largest accepted request body (registered profiles dominate).
    pub max_body_bytes: usize,
    /// Completed responses kept for the warm-repeat fast path.
    pub response_cache_entries: usize,
    /// Most profile names the registry holds at once (replacing a live
    /// name always fits).
    pub max_profiles: usize,
    /// Micro-batching collection window for `/v1/predict`, in
    /// milliseconds. Concurrent predicts against the same profile that
    /// arrive within one window share one `BatchPredictor` flight; the
    /// window closes early when the batch is full or the daemon is
    /// otherwise idle, so a solo request pays no added latency. `0`
    /// disables batching (every predict is its own flight).
    pub batch_window_ms: u64,
    /// Most design points admitted into one batch flight.
    pub batch_max_points: usize,
    /// Learned residual corrector loaded at boot (`pmt serve
    /// --corrector`). Predictions against profiles the corrector covers
    /// gain the additive `corrected_*` wire fields; everything else —
    /// including every analytical field — is untouched.
    pub corrector: Option<Arc<pmt_api::ResidualModel>>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:7071".to_string(),
            threads: 4,
            max_inflight_sweeps: 2,
            max_space_points: 4_000_000,
            retry_after_s: 2,
            max_body_bytes: 64 * 1024 * 1024,
            response_cache_entries: 64,
            max_profiles: 64,
            batch_window_ms: 5,
            batch_max_points: 64,
            corrector: None,
        }
    }
}

/// One response-cache lookup outcome. A `Collision` is a lookup whose
/// 64-bit key matched an entry but whose stored identity bytes did not —
/// without the verification it would have served another request's
/// response.
enum CacheLookup {
    Hit(Response),
    Miss,
    Collision,
}

/// Bounded FIFO of completed responses. Entries store the full request
/// identity alongside the response, and [`get`](ResponseCache::get)
/// verifies it: the 64-bit FNV key alone is an index, not proof of
/// equality.
struct ResponseCache {
    capacity: usize,
    order: VecDeque<u64>,
    by_key: HashMap<u64, (String, Response)>,
}

impl ResponseCache {
    fn new(capacity: usize) -> ResponseCache {
        ResponseCache {
            capacity,
            order: VecDeque::new(),
            by_key: HashMap::new(),
        }
    }

    fn get(&self, key: u64, identity: &str) -> CacheLookup {
        match self.by_key.get(&key) {
            Some((stored, response)) if stored == identity => CacheLookup::Hit(response.clone()),
            Some(_) => CacheLookup::Collision,
            None => CacheLookup::Miss,
        }
    }

    fn insert(&mut self, key: u64, identity: &str, response: &Response) {
        // A colliding key keeps its first occupant; the colliding
        // request is simply never cached (and counted on lookup).
        if self.capacity == 0 || self.by_key.contains_key(&key) {
            return;
        }
        if self.order.len() >= self.capacity {
            if let Some(evicted) = self.order.pop_front() {
                self.by_key.remove(&evicted);
            }
        }
        self.order.push_back(key);
        self.by_key
            .insert(key, (identity.to_string(), response.clone()));
    }

    fn len(&self) -> usize {
        self.by_key.len()
    }
}

/// State shared by every worker.
pub(crate) struct Shared {
    pub(crate) config: ServeConfig,
    pub(crate) registry: Arc<Registry>,
    pub(crate) metrics: Metrics,
    pub(crate) flights: Flights,
    cache: Mutex<ResponseCache>,
}

impl Shared {
    pub(crate) fn new(config: ServeConfig, registry: Arc<Registry>) -> Shared {
        Shared {
            cache: Mutex::new(ResponseCache::new(config.response_cache_entries)),
            config,
            registry,
            metrics: Metrics::new(),
            flights: Mutex::new(HashMap::new()),
        }
    }
}

/// A running daemon. Dropping it stops and joins the threads.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    stop: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the acceptor and worker pool, and return immediately.
    pub fn start(config: ServeConfig, registry: Arc<Registry>) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared::new(config, registry));
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));

        let mut handles = Vec::new();
        for _ in 0..shared.config.threads.max(1) {
            let shared = Arc::clone(&shared);
            let rx = Arc::clone(&rx);
            handles.push(std::thread::spawn(move || worker_loop(&shared, &rx)));
        }
        {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    if let Ok(stream) = stream {
                        Metrics::bump(&shared.metrics.queue_depth);
                        if tx.send(stream).is_err() {
                            break;
                        }
                    }
                }
                // Dropping `tx` here shuts the workers down.
            }));
        }
        Ok(Server {
            addr,
            shared,
            stop,
            handles,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Counters (for in-process callers; HTTP clients use `/metrics`).
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// Ask the daemon to stop and join every thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    /// A handle another thread (e.g. a signal watcher) can use to begin
    /// a graceful drain while this thread blocks in [`join`](Self::join).
    pub fn stop_handle(&self) -> StopHandle {
        StopHandle {
            stop: Arc::clone(&self.stop),
            addr: self.addr,
        }
    }

    /// Block until the daemon is stopped from another thread.
    pub fn join(mut self) {
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.handles.is_empty() {
            self.shutdown();
        }
    }
}

/// Requests a graceful drain of a running [`Server`] from another
/// thread: the acceptor stops taking new connections, every connection
/// already accepted — including every member of an in-flight flight —
/// is served to completion (an idle one with its 408 once its read
/// deadline passes), then the workers exit and
/// [`Server::join`] returns. This is what `pmt serve` triggers on
/// SIGTERM/SIGINT.
#[derive(Clone, Debug)]
pub struct StopHandle {
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl StopHandle {
    /// Begin the drain (idempotent; returns immediately).
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the acceptor with a throwaway connection; it checks
        // the stop flag before dispatching whatever it accepts next.
        let _ = TcpStream::connect(self.addr);
    }
}

/// Serve connections until the channel closes.
fn worker_loop(shared: &Shared, rx: &Mutex<mpsc::Receiver<TcpStream>>) {
    loop {
        let stream = match rx.lock().expect("worker queue lock").recv() {
            Ok(s) => s,
            Err(_) => return,
        };
        shared.metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
        serve_connection(shared, stream);
    }
}

/// One request, one response, close — unless the handler handed the
/// connection off to a flight, in which case the flight's leader writes
/// the response and this worker writes nothing.
fn serve_connection(shared: &Shared, stream: TcpStream) {
    Metrics::bump(&shared.metrics.requests);
    // Deadlines: an idle client is answered 408 instead of holding this
    // worker, and a client that never reads cannot stall whoever writes
    // to it — this worker, or the leader of a flight it joins.
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let mut stream = Some(stream);
    let response = match read_request(
        stream.as_mut().expect("connection"),
        shared.config.max_body_bytes,
    ) {
        // Contain panics here so one poisoned request answers a
        // structured 500 instead of killing the worker thread.
        Ok(request) => std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle(shared, &request, &mut stream)
        }))
        .unwrap_or_else(|_| Response::error(&ApiError::internal("request handling panicked"))),
        Err(e) => Response::error(&e),
    };
    // Handed off: the response belongs to the flight's leader now.
    if let Some(stream) = stream.as_mut() {
        respond(&shared.metrics, stream, &response);
    }
}

/// Write one response, counting it under `errors` if it is one. Worker
/// replies and flight deliveries alike go through here, so this is the
/// only writer of `errors`.
pub(crate) fn respond(metrics: &Metrics, stream: &mut TcpStream, response: &Response) {
    if response.is_error() {
        Metrics::bump(&metrics.errors);
    }
    let _ = response.write_to(stream);
}

/// Route one parsed request. `stream` is the caller's connection; the
/// predict and explore handlers may move it into a flight, after which
/// the returned response is a placeholder that is never written.
fn handle(shared: &Shared, request: &Request, stream: &mut Option<TcpStream>) -> Response {
    let method = request.method.as_str();
    let target = request.target.split('?').next().unwrap_or("");
    match (method, target) {
        ("GET", "/healthz") => json_200(&HealthResponse {
            schema_version: WIRE_SCHEMA_VERSION,
            status: "ok".to_string(),
            profiles: shared.registry.len(),
        }),
        ("GET", "/metrics") => {
            let snap = shared.metrics.snapshot(
                shared.registry.len(),
                shared.config.max_inflight_sweeps as u64,
                shared.config.threads as u64,
                shared.config.corrector.is_some(),
            );
            json_200(&snap)
        }
        ("GET", "/v1/profiles") => json_200(&ProfilesResponse {
            schema_version: WIRE_SCHEMA_VERSION,
            profiles: shared.registry.list(),
        }),
        ("POST", "/v1/profiles") => or_error(handle_register(shared, request)),
        ("POST", "/v1/predict") => {
            Metrics::bump(&shared.metrics.predict_requests);
            or_error(handle_predict(shared, request, stream))
        }
        ("POST", "/v1/explore") => {
            Metrics::bump(&shared.metrics.explore_requests);
            or_error(handle_explore(shared, request, stream))
        }
        (_, "/healthz" | "/metrics" | "/v1/profiles" | "/v1/predict" | "/v1/explore") => {
            Response::error(&ApiError::new(
                405,
                "method_not_allowed",
                format!("{method} is not supported on {target}"),
            ))
        }
        _ => Response::error(&ApiError::not_found(
            "unknown_endpoint",
            format!("no endpoint at {target}"),
        )),
    }
}

fn json_200<T: serde::Serialize>(value: &T) -> Response {
    Response::json(serde_json::to_string(value).expect("wire types serialize"))
}

/// Assemble one predict response through the engine, overlay the
/// daemon's corrector (when one is loaded), and keep the corrector
/// counters honest. Every predict flight answers each member through
/// this one function, so a corrected batched response is byte-identical
/// to the corrected solo response.
fn predict_json(
    shared: &Shared,
    profile: &RegisteredProfile,
    machine: &pmt_uarch::MachineConfig,
    summary: &pmt_core::PredictionSummary,
) -> Response {
    let mut response = engine::summary_response(&profile.name, machine, summary);
    if shared.config.corrector.is_some() {
        // The registry's content hash is the profile fingerprint's
        // pre-hex form, so no per-request re-serialization happens here.
        let fingerprint = format!("{:016x}", profile.content_hash);
        let applied = engine::apply_corrector(
            &mut response,
            shared.config.corrector.as_deref(),
            &fingerprint,
            machine,
            profile.prepared.profile(),
        );
        Metrics::bump(if applied {
            &shared.metrics.corrected_requests
        } else {
            &shared.metrics.corrector_skipped
        });
    }
    json_200(&response)
}

fn or_error(result: Result<Response, ApiError>) -> Response {
    result.unwrap_or_else(|e| Response::error(&e))
}

fn parse_body<T: serde::Deserialize>(request: &Request) -> Result<T, ApiError> {
    let body = request.body_utf8()?;
    serde_json::from_str(body)
        .map_err(|e| ApiError::bad_request("bad_json", format!("parsing request body: {e}")))
}

fn handle_register(shared: &Shared, request: &Request) -> Result<Response, ApiError> {
    let req: RegisterProfileRequest = parse_body(request)?;
    req.check_version()?;
    let response = shared.registry.register(req.profile)?;
    Ok(json_200(&response))
}

/// Decrements a gauge on scope exit — including unwind.
struct GaugeGuard<'a> {
    gauge: &'a std::sync::atomic::AtomicU64,
}

impl<'a> GaugeGuard<'a> {
    fn hold(gauge: &'a std::sync::atomic::AtomicU64) -> GaugeGuard<'a> {
        gauge.fetch_add(1, Ordering::Relaxed);
        GaugeGuard { gauge }
    }
}

impl Drop for GaugeGuard<'_> {
    fn drop(&mut self) {
        self.gauge.fetch_sub(1, Ordering::Relaxed);
    }
}

fn handle_predict(
    shared: &Shared,
    request: &Request,
    stream: &mut Option<TcpStream>,
) -> Result<Response, ApiError> {
    let req: PredictRequest = parse_body(request)?;
    req.check_version()?;
    let profile = shared.registry.get(&req.profile)?;
    // Resolve before admission: machine errors are this caller's 4xx,
    // never a flight-mate's problem.
    let machine = req.machine.resolve()?;
    let (key, identity) = request_identity(profile.content_hash, &req);
    let _inflight = GaugeGuard::hold(&shared.metrics.predict_inflight);
    let capacity = match shared.config.batch_window_ms {
        0 => 1,
        _ => shared.config.batch_max_points.max(1),
    };
    let member = Member::new(key, identity, Some(machine));
    let flight_key = FlightKey::Predict(profile.content_hash);
    let mut guard = match FlightGuard::admit(shared, flight_key, member, stream, capacity) {
        Admission::Hit(hit) => return Ok(hit),
        Admission::Joined => return Ok(HANDED_OFF),
        Admission::Lead(guard) => guard,
    };
    guard.collect();
    let responses = predict_flight(shared, &profile, guard.close());
    Ok(guard.deliver(responses, Outcome::Led))
}

/// The placeholder a handler returns once its connection belongs to a
/// flight; nothing ever writes it.
const HANDED_OFF: Response = Response {
    status: 200,
    body: String::new(),
    retry_after_s: None,
};

/// Evaluate a closed predict flight: every member's design point in one
/// bounded `BatchPredictor` pass on the leader's worker, later points
/// replaying earlier points' memoized curve queries, stride walks,
/// CP(ROB) and branch penalties — and every point replaying what earlier
/// flights and explores over the profile left in its warm memos. The
/// predictor's results are bit-identical to the single-point path in any
/// order, so sharing a flight or a memo can never change a byte of
/// anyone's response.
fn predict_flight(
    shared: &Shared,
    profile: &RegisteredProfile,
    members: &[Member],
) -> Vec<Response> {
    let started = Instant::now();
    let mut predictor = BatchPredictor::bounded(
        &profile.prepared,
        &ModelConfig::default(),
        shared.config.batch_max_points.max(1),
    );
    let warm = predictor.memo_stats();
    let machines: Vec<&MachineConfig> = members
        .iter()
        .map(|member| member.machine.as_ref().expect("a predict member"))
        .collect();
    let mut summaries = Vec::with_capacity(machines.len());
    predictor.predict_batch_into(machines.iter().copied(), &mut summaries);
    let responses = machines
        .iter()
        .zip(&summaries)
        .map(|(machine, summary)| predict_json(shared, profile, machine, summary))
        .collect();
    let metrics = &shared.metrics;
    let n = members.len() as u64;
    Metrics::add(&metrics.points_predicted, n);
    Metrics::add(&metrics.predict_nanos, started.elapsed().as_nanos() as u64);
    if shared.config.batch_window_ms > 0 {
        Metrics::bump(&metrics.batch_flights);
        Metrics::add(&metrics.batch_points, n);
        metrics.absorb_memo_stats(&predictor.memo_stats().since(&warm));
    }
    responses
}

fn handle_explore(
    shared: &Shared,
    request: &Request,
    stream: &mut Option<TcpStream>,
) -> Result<Response, ApiError> {
    let req: ExploreRequest = parse_body(request)?;
    req.check_version()?;
    let profile = shared.registry.get(&req.profile)?;
    let (key, identity) = request_identity(profile.content_hash, &req);
    let member = Member::new(key, identity.clone(), None);
    let flight_key = FlightKey::Explore(identity);
    let guard = match FlightGuard::admit(shared, flight_key, member, stream, usize::MAX) {
        Admission::Hit(hit) => return Ok(hit),
        Admission::Joined => return Ok(HANDED_OFF),
        Admission::Lead(guard) => guard,
    };
    // The flight stays open to identical requests while the sweep runs;
    // every member then gets the leader's bytes, including a 429 or a
    // structured 4xx from the sweep.
    let response = leader_compute(shared, &req, &profile.prepared);
    let leader = if response.status == 429 {
        Outcome::Rejected
    } else {
        Outcome::Led
    };
    Ok(guard.deliver_to_all(response, leader))
}

/// Releases an in-flight sweep slot on scope exit — including unwind, so
/// a panicking sweep cannot permanently shrink the admission capacity.
struct SweepSlot<'a> {
    metrics: &'a Metrics,
}

impl Drop for SweepSlot<'_> {
    fn drop(&mut self) {
        self.metrics.inflight_sweeps.fetch_sub(1, Ordering::AcqRel);
    }
}

/// An explore leader's path: backpressure gate, space-size cap, sweep.
fn leader_compute(
    shared: &Shared,
    req: &ExploreRequest,
    prepared: &pmt_core::PreparedProfile<'static>,
) -> Response {
    // Gate 3: an in-flight sweep slot, or 429.
    if !acquire_sweep_slot(shared) {
        return Response::error(&ApiError::busy(
            format!(
                "{} sweeps already in flight; retry shortly",
                shared.config.max_inflight_sweeps
            ),
            shared.config.retry_after_s,
        ));
    }
    let _slot = SweepSlot {
        metrics: &shared.metrics,
    };
    if let Err(e) = sized_ok(shared, req) {
        return Response::error(&e);
    }
    let started = Instant::now();
    match engine::explore_response(prepared, req) {
        Ok(resp) => {
            Metrics::add(
                &shared.metrics.points_predicted,
                resp.summary.evaluated as u64,
            );
            Metrics::add(
                &shared.metrics.predict_nanos,
                started.elapsed().as_nanos() as u64,
            );
            json_200(&resp)
        }
        Err(e) => Response::error(&e),
    }
}

/// Refuse spaces past the configured point cap (413) before sweeping.
fn sized_ok(shared: &Shared, req: &ExploreRequest) -> Result<(), ApiError> {
    let space = req.space.resolve()?;
    let len = space.len();
    if len > shared.config.max_space_points {
        return Err(ApiError::too_large(
            "space_too_large",
            format!(
                "space has {len} points; this server admits at most {}",
                shared.config.max_space_points
            ),
        ));
    }
    Ok(())
}

/// Take an in-flight sweep slot if one is free (CAS loop).
fn acquire_sweep_slot(shared: &Shared) -> bool {
    let max = shared.config.max_inflight_sweeps as u64;
    let counter = &shared.metrics.inflight_sweeps;
    let mut current = counter.load(Ordering::Relaxed);
    loop {
        if current >= max {
            return false;
        }
        match counter.compare_exchange(current, current + 1, Ordering::AcqRel, Ordering::Relaxed) {
            Ok(_) => return true,
            Err(now) => current = now,
        }
    }
}

/// The cache/coalescing identity: profile content hash plus the
/// canonical re-serialization of the request (so client-side formatting
/// or field order differences cannot split it), and its 64-bit FNV key.
/// The key indexes the maps; only the full identity string proves two
/// requests equal — coalescing compares identities and cache hits are
/// verified against them, so a hash collision can never serve or share
/// the wrong response.
fn request_identity<T: serde::Serialize>(content_hash: u64, req: &T) -> (u64, String) {
    let mut identity = format!("{content_hash:016x}:");
    serde::Serialize::to_json(req, &mut identity);
    (fnv1a(&[&identity]), identity)
}

/// Gate-1 lookup: a verified hit returns the cached response (the
/// request's outcome); a verified collision counts toward
/// `response_cache_collisions` and misses.
pub(crate) fn cache_lookup(
    shared: &Shared,
    kind: Kind,
    key: u64,
    identity: &str,
) -> Option<Response> {
    match shared.cache.lock().expect("cache lock").get(key, identity) {
        CacheLookup::Hit(hit) => {
            shared.metrics.record(kind, Outcome::CacheHit);
            Some(hit)
        }
        CacheLookup::Collision => {
            Metrics::bump(&shared.metrics.response_cache_collisions);
            None
        }
        CacheLookup::Miss => None,
    }
}

pub(crate) fn cache_insert(shared: &Shared, key: u64, identity: &str, response: &Response) {
    let mut cache = shared.cache.lock().expect("cache lock");
    cache.insert(key, identity, response);
    shared
        .metrics
        .response_cache_entries
        .store(cache.len() as u64, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(lookup: CacheLookup) -> Option<Response> {
        match lookup {
            CacheLookup::Hit(r) => Some(r),
            _ => None,
        }
    }

    #[test]
    fn response_cache_is_bounded_fifo() {
        let mut cache = ResponseCache::new(2);
        cache.insert(1, "one", &Response::json("a".into()));
        cache.insert(2, "two", &Response::json("b".into()));
        cache.insert(3, "three", &Response::json("c".into()));
        assert_eq!(cache.len(), 2);
        assert!(hit(cache.get(1, "one")).is_none(), "oldest evicted");
        assert_eq!(hit(cache.get(2, "two")).unwrap().body, "b");
        assert_eq!(hit(cache.get(3, "three")).unwrap().body, "c");
        // Zero capacity caches nothing.
        let mut none = ResponseCache::new(0);
        none.insert(1, "one", &Response::json("a".into()));
        assert_eq!(none.len(), 0);
    }

    #[test]
    fn colliding_keys_are_verified_misses_not_wrong_hits() {
        let mut cache = ResponseCache::new(4);
        cache.insert(7, "request A", &Response::json("a".into()));
        // Same 64-bit key, different request bytes: must not serve "a".
        assert!(matches!(cache.get(7, "request B"), CacheLookup::Collision));
        assert!(matches!(cache.get(8, "request B"), CacheLookup::Miss));
        // The first occupant keeps the slot; the collider is never cached.
        cache.insert(7, "request B", &Response::json("b".into()));
        assert_eq!(hit(cache.get(7, "request A")).unwrap().body, "a");
        assert!(matches!(cache.get(7, "request B"), CacheLookup::Collision));
    }

    #[test]
    fn request_identity_separates_profiles_and_requests() {
        use pmt_api::{MachineSpec, PredictRequest};
        let a = PredictRequest::new("astar", MachineSpec::named("nehalem"));
        let b = PredictRequest::new("astar", MachineSpec::named("low-power"));
        assert_ne!(request_identity(1, &a), request_identity(1, &b));
        assert_ne!(request_identity(1, &a), request_identity(2, &a));
        assert_eq!(request_identity(1, &a), request_identity(1, &a.clone()));
        // The identity embeds the full canonical request, not just a hash.
        let (_, identity) = request_identity(1, &a);
        assert!(identity.contains("nehalem"));
    }
}

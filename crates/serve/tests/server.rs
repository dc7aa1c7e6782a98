//! End-to-end daemon tests over real sockets: an in-process [`Server`]
//! on an OS-assigned port, exercised by a minimal raw-`TcpStream` HTTP
//! client (one request per connection, exactly like the wire contract).
//!
//! The load-bearing assertions mirror CI's serve-smoke job:
//!
//! * a served `/v1/explore` body is **byte-identical** to the engine's
//!   (and therefore to `pmt explore --out`),
//! * a warm repeat of the same request does **zero** new predictions,
//! * N concurrent identical requests partition exactly into
//!   `cache hits + coalesced followers + leaders + busy rejections`,
//! * backpressure is a structured 429 carrying `Retry-After`.

use pmt_api::{
    AxisSpec, ExploreRequest, MachineSpec, PredictRequest, RegisterProfileRequest, SpaceSpec,
    WIRE_SCHEMA_VERSION,
};
use pmt_core::PreparedProfile;
use pmt_profiler::{ApplicationProfile, Profiler, ProfilerConfig};
use pmt_serve::{engine, Registry, ServeConfig, Server};
use pmt_workloads::WorkloadSpec;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;

fn profile(name: &str) -> ApplicationProfile {
    let spec = WorkloadSpec::by_name(name).unwrap();
    Profiler::new(ProfilerConfig::fast_test()).profile_named(name, &mut spec.trace(20_000))
}

/// Start a daemon on a free port with `astar` pre-registered.
fn serve(config: ServeConfig) -> Server {
    let registry = Arc::new(Registry::new(8));
    registry.register(profile("astar")).unwrap();
    let mut config = config;
    config.addr = "127.0.0.1:0".to_string();
    Server::start(config, registry).unwrap()
}

/// One HTTP exchange: status, lower-cased headers, body.
struct Reply {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Reply {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

fn exchange(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> Reply {
    let mut stream = TcpStream::connect(addr).unwrap();
    let body = body.unwrap_or("");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    read_reply(stream)
}

fn read_reply(mut stream: TcpStream) -> Reply {
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let raw = String::from_utf8(raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").expect("complete response");
    let mut lines = head.lines();
    let status_line = lines.next().unwrap();
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    let headers = lines
        .map(|l| {
            let (k, v) = l.split_once(':').unwrap();
            (k.trim().to_ascii_lowercase(), v.trim().to_string())
        })
        .collect();
    Reply {
        status,
        headers,
        body: body.to_string(),
    }
}

fn get(addr: SocketAddr, path: &str) -> Reply {
    exchange(addr, "GET", path, None)
}

fn post(addr: SocketAddr, path: &str, body: &str) -> Reply {
    exchange(addr, "POST", path, Some(body))
}

fn explore_request() -> ExploreRequest {
    let mut req = ExploreRequest::new("astar", SpaceSpec::named("small"));
    req.top_k = 3;
    req.objective = "energy".to_string();
    req
}

fn metrics(addr: SocketAddr) -> pmt_api::MetricsResponse {
    serde_json::from_str(&get(addr, "/metrics").body).unwrap()
}

/// Every terminal request outcome, summed. The serve-smoke script
/// asserts the same partition: every request the daemon ever answered
/// is a cache hit, a coalesced explore follower, a batched predict
/// rider, a busy rejection, a panic-failed request, or a flight leader.
fn partition_terms(addr: SocketAddr) -> u64 {
    let m = metrics(addr);
    m.response_cache_hits
        + m.coalesced_requests
        + m.batched_requests
        + m.rejected_busy
        + m.failed_requests
        + m.flight_leaders
}

#[test]
fn serves_health_profiles_predict_and_explore() {
    let server = serve(ServeConfig::default());
    let addr = server.addr();

    let health = get(addr, "/healthz");
    assert_eq!(health.status, 200);
    let h: pmt_api::HealthResponse = serde_json::from_str(&health.body).unwrap();
    assert_eq!((h.status.as_str(), h.profiles), ("ok", 1));

    let profiles = get(addr, "/v1/profiles");
    let p: pmt_api::ProfilesResponse = serde_json::from_str(&profiles.body).unwrap();
    assert_eq!(p.profiles[0].name, "astar");

    // Register a second profile over the wire, then predict against it.
    let req = RegisterProfileRequest::new(profile("mcf"));
    let reply = post(addr, "/v1/profiles", &serde_json::to_string(&req).unwrap());
    assert_eq!(reply.status, 200, "{}", reply.body);
    let ack: pmt_api::RegisterProfileResponse = serde_json::from_str(&reply.body).unwrap();
    assert_eq!((ack.name.as_str(), ack.replaced), ("mcf", false));

    let req = PredictRequest::new("mcf", MachineSpec::named("low-power"));
    let reply = post(addr, "/v1/predict", &serde_json::to_string(&req).unwrap());
    assert_eq!(reply.status, 200, "{}", reply.body);
    let resp: pmt_api::PredictResponse = serde_json::from_str(&reply.body).unwrap();
    assert_eq!(resp.machine, "low-power");
    assert!(resp.cpi > 0.0);

    server.stop();
}

#[test]
fn re_uploading_one_name_never_fills_the_registry() {
    let max_profiles = 4;
    let registry = Arc::new(Registry::new(max_profiles));
    let base = profile("astar");
    registry.register(base.clone()).unwrap();
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    };
    let server = Server::start(config, Arc::clone(&registry)).unwrap();
    for i in 1..=2 * max_profiles as u64 {
        let mut next = base.clone();
        next.total_instructions += i;
        let req = RegisterProfileRequest::new(next);
        let reply = post(
            server.addr(),
            "/v1/profiles",
            &serde_json::to_string(&req).unwrap(),
        );
        assert_eq!(reply.status, 200, "upload {i}: {}", reply.body);
        assert_eq!(registry.len(), 1);
    }
    server.stop();
}

#[test]
fn served_explore_is_byte_identical_to_the_engine() {
    let server = serve(ServeConfig::default());
    let addr = server.addr();
    let req = explore_request();

    let reply = post(addr, "/v1/explore", &serde_json::to_string(&req).unwrap());
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert_eq!(reply.header("content-type"), Some("application/json"));

    // The same function the CLI's `pmt explore --out` writes through.
    let p = profile("astar");
    let prepared = PreparedProfile::new(&p);
    let direct = engine::explore_response(&prepared, &req).unwrap();
    assert_eq!(
        reply.body,
        serde_json::to_string(&direct).unwrap(),
        "served bytes must equal the engine's"
    );
    server.stop();
}

#[test]
fn warm_repeat_hits_the_cache_and_predicts_nothing() {
    let server = serve(ServeConfig::default());
    let addr = server.addr();
    let body = serde_json::to_string(&explore_request()).unwrap();

    let cold = post(addr, "/v1/explore", &body);
    assert_eq!(cold.status, 200);
    let after_cold = metrics(addr).points_predicted;
    assert_eq!(after_cold, 32);

    let warm = post(addr, "/v1/explore", &body);
    assert_eq!(warm.status, 200);
    assert_eq!(warm.body, cold.body, "cache must replay identical bytes");
    assert_eq!(
        metrics(addr).points_predicted,
        after_cold,
        "a warm repeat does zero new predictions"
    );
    assert_eq!(metrics(addr).response_cache_hits, 1);
    assert_eq!(metrics(addr).response_cache_collisions, 0);
    server.stop();
}

/// A request engineered to panic inside the leader's computation: a
/// one-point space with a zero-entry ROB passes resolution and the size
/// cap, then panics inside the sweep — *after* the leader has registered
/// the in-flight entry.
fn poison_request() -> ExploreRequest {
    let axes = vec![AxisSpec::new("rob", &[0.0])];
    ExploreRequest::new("astar", SpaceSpec::product(None, axes))
}

/// A space whose point count overflows `usize` (eight 256-value `f`
/// axes: 256⁸ = 2⁶⁴ points) is a client error, answered `413
/// space_too_large` before any sweep, never a panic.
#[test]
fn an_overflowing_space_is_413_space_too_large() {
    let server = serve(ServeConfig::default());
    let addr = server.addr();
    let values: Vec<f64> = (0..256).map(f64::from).collect();
    let axes = (0..8).map(|_| AxisSpec::new("f", &values)).collect();
    let req = ExploreRequest::new("astar", SpaceSpec::product(None, axes));
    let reply = post(addr, "/v1/explore", &serde_json::to_string(&req).unwrap());
    assert_eq!(reply.status, 413, "{}", reply.body);
    let err: pmt_api::ErrorBody = serde_json::from_str(&reply.body).unwrap();
    assert_eq!(err.code, "space_too_large");
    assert_eq!(metrics(addr).failed_requests, 0);
    assert_eq!(metrics(addr).points_predicted, 0);
    server.stop();
}

#[test]
fn leader_panic_answers_500_frees_the_flight_and_never_strands_followers() {
    let server = serve(ServeConfig {
        max_inflight_sweeps: 1,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let body = serde_json::to_string(&poison_request()).unwrap();

    // Concurrent identical poison requests: the leader panics between
    // registering the flight and completing it. Before the drop-guard
    // fix, the leader's connection died and every follower blocked on
    // the flight condvar forever (this test hung here).
    const N: usize = 6;
    let replies: Vec<Reply> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..N)
            .map(|_| scope.spawn(|| post(addr, "/v1/explore", &body)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in &replies {
        assert_eq!(r.status, 500, "{}", r.body);
        let err: pmt_api::ErrorBody = serde_json::from_str(&r.body).unwrap();
        assert_eq!(err.code, "internal");
        assert!(err.message.contains("panicked"), "{}", err.message);
    }

    // The flight key was removed on unwind: a repeat is a fresh leader
    // (panicking again), not a replay of a stale completed flight.
    assert_eq!(post(addr, "/v1/explore", &body).status, 500);

    // The sweep slot was released on unwind: a valid explore still gets
    // admitted (max_inflight_sweeps is 1, so a leaked slot would 429).
    let good = post(
        addr,
        "/v1/explore",
        &serde_json::to_string(&explore_request()).unwrap(),
    );
    assert_eq!(good.status, 200, "{}", good.body);
    assert_eq!(metrics(addr).rejected_busy, 0);

    // The panic-shaped requests (N concurrent + 1 repeat) are `failed`
    // terms; the good explore is a leader; the partition stays exact.
    assert_eq!(metrics(addr).failed_requests, (N + 1) as u64);
    assert_eq!(metrics(addr).flight_leaders, 1);
    assert_eq!(partition_terms(addr), (N + 2) as u64);
    server.stop();
}

#[test]
fn concurrent_identical_requests_partition_exactly() {
    let server = serve(ServeConfig {
        max_inflight_sweeps: 1,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let body = serde_json::to_string(&explore_request()).unwrap();

    const N: usize = 12;
    let replies: Vec<Reply> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..N)
            .map(|_| scope.spawn(|| post(addr, "/v1/explore", &body)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut ok = 0;
    let mut busy = 0;
    for r in &replies {
        match r.status {
            200 => ok += 1,
            429 => busy += 1,
            other => panic!("unexpected status {other}: {}", r.body),
        }
    }
    assert!(ok >= 1, "someone must have been served");

    // Identical work never runs twice: exactly one leader predicted the
    // 32-point space, everyone else was a cache hit, a coalesced
    // follower, or a busy rejection.
    assert_eq!(metrics(addr).points_predicted, 32);
    assert_eq!(metrics(addr).flight_leaders, 1);
    assert_eq!(metrics(addr).failed_requests, 0);
    assert_eq!(
        partition_terms(addr),
        N as u64,
        "every request is accounted for"
    );
    assert_eq!(metrics(addr).rejected_busy, busy as u64);

    // And every 200 carried the same bytes.
    let first = replies.iter().find(|r| r.status == 200).unwrap();
    for r in replies.iter().filter(|r| r.status == 200) {
        assert_eq!(r.body, first.body);
    }
    server.stop();
}

// --------------------------------------------------- predict batching

/// A predict request whose machine is inlined with a distinct clock.
/// Frequency appears in no memo key, so concurrent DVFS-style points
/// replay every memoized curve when they share one batch flight.
fn dvfs_request(frequency_ghz: f64) -> String {
    let mut m = pmt_api::machine_by_name("nehalem").unwrap();
    m.core.frequency_ghz = frequency_ghz;
    serde_json::to_string(&PredictRequest::new("astar", MachineSpec::inline(m))).unwrap()
}

#[test]
fn concurrent_distinct_predicts_batch_and_match_solo_bytes() {
    // Two workers force rendezvous: the leader holds its window open
    // while connections are queued, and closes the moment every worker
    // is aboard — so concurrent callers pair up without racing the
    // clock. The window is generous because it should never be hit.
    let server = serve(ServeConfig {
        threads: 2,
        batch_window_ms: 500,
        batch_max_points: 8,
        ..ServeConfig::default()
    });
    // Control daemon: batching disabled, every request a solo flight.
    let solo = serve(ServeConfig {
        batch_window_ms: 0,
        ..ServeConfig::default()
    });
    let addr = server.addr();

    const N: usize = 6;
    let bodies: Vec<String> = (0..N).map(|i| dvfs_request(2.0 + 0.2 * i as f64)).collect();

    // Deterministic rendezvous: send every request's headers first, so
    // both workers park reading bodies while the acceptor queues the
    // remaining connections. When the bodies land, the first leader
    // sees queued work (no idle close) and holds its window until the
    // second worker boards — the batch then closes as full.
    let mut streams: Vec<TcpStream> = bodies
        .iter()
        .map(|body| {
            let mut s = TcpStream::connect(addr).unwrap();
            write!(
                s,
                "POST /v1/predict HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n",
                body.len()
            )
            .unwrap();
            s.flush().unwrap();
            s
        })
        .collect();
    std::thread::sleep(std::time::Duration::from_millis(150));
    for (s, body) in streams.iter_mut().zip(&bodies) {
        s.write_all(body.as_bytes()).unwrap();
    }
    let replies: Vec<Reply> = streams.into_iter().map(read_reply).collect();

    // The tentpole invariant: whoever you shared a flight with, your
    // bytes are the solo daemon's bytes — and all N points are distinct.
    let mut seen = std::collections::HashSet::new();
    for (body, reply) in bodies.iter().zip(&replies) {
        assert_eq!(reply.status, 200, "{}", reply.body);
        let control = post(solo.addr(), "/v1/predict", body);
        assert_eq!(control.status, 200, "{}", control.body);
        assert_eq!(
            reply.body, control.body,
            "batched bytes must equal solo bytes"
        );
        seen.insert(reply.body.clone());
    }
    assert_eq!(seen.len(), N, "distinct points get distinct responses");

    // Accounting: every point went through a batch flight, the
    // extended partition is exact, and at least one pair shared one.
    assert_eq!(metrics(addr).points_predicted, N as u64);
    assert_eq!(metrics(addr).batch_points, N as u64);
    assert_eq!(metrics(addr).failed_requests, 0);
    assert_eq!(metrics(addr).response_cache_hits, 0);
    assert_eq!(metrics(addr).batch_flights, metrics(addr).flight_leaders);
    assert_eq!(partition_terms(addr), N as u64);
    assert!(
        metrics(addr).batched_requests >= 1,
        "at least two concurrent callers must share one flight"
    );
    // Sharing a flight replays memoized curves across callers.
    assert!(metrics(addr).memo.cache_hits >= 1);

    server.stop();
    solo.stop();
}

/// A registered profile keeps its flights' memos: a later flight on it
/// replays what an earlier one computed, and `/metrics` counts each
/// flight's own lookups. Replacing the profile drops its memos with it.
#[test]
fn a_later_flight_replays_an_earlier_ones_memo() {
    let server = serve(ServeConfig::default());
    let addr = server.addr();
    let predict = |frequency_ghz: f64| {
        let reply = post(addr, "/v1/predict", &dvfs_request(frequency_ghz));
        assert_eq!(reply.status, 200, "{}", reply.body);
        metrics(addr)
    };

    let first = predict(2.0);
    assert_eq!(first.batch_flights, 1);
    assert!(first.memo.misses() > 0, "the first flight starts cold");
    let second = predict(2.4);
    assert_eq!(second.batch_flights, 2, "two flights, one after the other");
    assert_eq!(
        second.memo.misses(),
        first.memo.misses(),
        "frequency is in no memo key: the second flight computes nothing"
    );
    assert!(second.memo.hits() > first.memo.hits());
    assert_eq!(
        second.memo.cache_entries, first.memo.cache_entries,
        "warm entries are counted once"
    );

    let mut replacement = profile("astar");
    replacement.total_instructions += 1;
    let req = RegisterProfileRequest::new(replacement);
    let reply = post(addr, "/v1/profiles", &serde_json::to_string(&req).unwrap());
    assert_eq!(reply.status, 200, "{}", reply.body);
    let third = predict(2.8);
    assert_eq!(third.batch_flights, 3);
    assert!(
        third.memo.misses() > second.memo.misses(),
        "a replaced profile's memos went with it"
    );
    server.stop();
}

#[test]
fn solo_daemon_counts_leaders_and_cache_hits_in_the_partition() {
    let solo = serve(ServeConfig {
        batch_window_ms: 0,
        ..ServeConfig::default()
    });
    let addr = solo.addr();
    let body = dvfs_request(3.0);
    let cold = post(addr, "/v1/predict", &body);
    assert_eq!(cold.status, 200, "{}", cold.body);
    let warm = post(addr, "/v1/predict", &body);
    assert_eq!(warm.body, cold.body, "cache must replay identical bytes");
    assert_eq!(metrics(addr).flight_leaders, 1);
    assert_eq!(metrics(addr).response_cache_hits, 1);
    assert_eq!(metrics(addr).batch_flights, 0);
    assert_eq!(partition_terms(addr), 2);
    solo.stop();
}

/// A predict whose inlined machine has `line_bytes: 0`: resolution
/// accepts it (only named specs are validated), and the first cache
/// curve evaluated inside the flight divides by zero.
fn poison_predict() -> String {
    let mut m = pmt_api::machine_by_name("nehalem").unwrap();
    m.caches.l3.line_bytes = 0;
    serde_json::to_string(&PredictRequest::new("astar", MachineSpec::inline(m))).unwrap()
}

#[test]
fn batch_leader_panic_fails_riders_with_structured_500s_and_frees_the_queue() {
    let server = serve(ServeConfig {
        threads: 2,
        batch_window_ms: 500,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let body = poison_predict();

    const N: usize = 4;
    let barrier = std::sync::Barrier::new(N);
    let replies: Vec<Reply> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..N)
            .map(|_| {
                let (body, barrier) = (&body, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    post(addr, "/v1/predict", body)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in &replies {
        assert_eq!(r.status, 500, "{}", r.body);
        let err: pmt_api::ErrorBody = serde_json::from_str(&r.body).unwrap();
        assert_eq!(err.code, "internal");
        assert!(err.message.contains("panicked"), "{}", err.message);
    }

    // Every poisoned request is a `failed` term, leaders and riders
    // alike, counted by their flight's guard mid-unwind.
    assert_eq!(metrics(addr).failed_requests, N as u64);
    assert_eq!(metrics(addr).batched_requests, 0);
    assert_eq!(partition_terms(addr), N as u64);

    // Nothing was cached and the open-batch key was released: a repeat
    // panics afresh, and a healthy predict on the same profile is 200.
    assert_eq!(post(addr, "/v1/predict", &body).status, 500);
    let good = post(addr, "/v1/predict", &dvfs_request(2.66));
    assert_eq!(good.status, 200, "{}", good.body);
    server.stop();
}

/// A flight of one runs inline on the leader's own worker, as every
/// flight does: its panic unwinds there, through the flight guard and
/// the worker's catch-all, and must leave the same trail as a
/// multi-member flight's.
#[test]
fn a_poisoned_flight_of_one_fails_alone_and_frees_the_queue() {
    let server = serve(ServeConfig {
        threads: 2,
        batch_window_ms: 500,
        ..ServeConfig::default()
    });
    let addr = server.addr();

    let reply = post(addr, "/v1/predict", &poison_predict());
    assert_eq!(reply.status, 500, "{}", reply.body);
    let err: pmt_api::ErrorBody = serde_json::from_str(&reply.body).unwrap();
    assert_eq!(err.code, "internal");
    assert!(err.message.contains("panicked"), "{}", err.message);
    assert_eq!(metrics(addr).failed_requests, 1);
    assert_eq!(metrics(addr).batch_flights, 0);
    assert_eq!(partition_terms(addr), 1);

    // The worker survived its own unwind and the key was released.
    let good = post(addr, "/v1/predict", &dvfs_request(2.66));
    assert_eq!(good.status, 200, "{}", good.body);
    assert_eq!(metrics(addr).flight_leaders, 1);
    assert_eq!(partition_terms(addr), 2);
    server.stop();
}

// --------------------------------------------------- graceful shutdown

#[test]
fn stop_drains_in_flight_requests_and_closes_the_listener() {
    let server = serve(ServeConfig::default());
    let addr = server.addr();
    let stop = server.stop_handle();

    // Half-send a request so a worker is parked reading its body, then
    // request the stop, then complete the request: drain semantics mean
    // the worker still answers before the daemon exits.
    let body = dvfs_request(2.66);
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "POST /v1/predict HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .unwrap();
    stream.flush().unwrap();
    std::thread::sleep(std::time::Duration::from_millis(100));
    stop.request_stop();
    std::thread::sleep(std::time::Duration::from_millis(50));
    stream.write_all(body.as_bytes()).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let head = String::from_utf8(raw).unwrap();
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");

    server.join();
    assert!(
        TcpStream::connect(addr).is_err(),
        "the listener must be closed after join"
    );
}

#[test]
fn backpressure_is_a_structured_429_with_retry_after() {
    let server = serve(ServeConfig {
        max_inflight_sweeps: 0, // no sweep may ever be admitted
        retry_after_s: 7,
        ..ServeConfig::default()
    });
    let addr = server.addr();

    let reply = post(
        addr,
        "/v1/explore",
        &serde_json::to_string(&explore_request()).unwrap(),
    );
    assert_eq!(reply.status, 429);
    assert_eq!(reply.header("retry-after"), Some("7"));
    let err: pmt_api::ErrorBody = serde_json::from_str(&reply.body).unwrap();
    assert_eq!(err.code, "busy");
    assert_eq!(err.retry_after_s, Some(7));
    assert_eq!(metrics(addr).rejected_busy, 1);
    server.stop();
}

#[test]
fn oversized_spaces_are_refused_with_413() {
    let server = serve(ServeConfig {
        max_space_points: 100,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let req = ExploreRequest::new("astar", SpaceSpec::named("big"));
    let reply = post(addr, "/v1/explore", &serde_json::to_string(&req).unwrap());
    assert_eq!(reply.status, 413);
    let err: pmt_api::ErrorBody = serde_json::from_str(&reply.body).unwrap();
    assert_eq!(err.code, "space_too_large");
    assert!(err.message.contains("103680"), "{}", err.message);
    server.stop();
}

#[test]
fn errors_are_structured_and_versioned() {
    let server = serve(ServeConfig::default());
    let addr = server.addr();

    let missing = get(addr, "/nope");
    assert_eq!(missing.status, 404);
    let err: pmt_api::ErrorBody = serde_json::from_str(&missing.body).unwrap();
    assert_eq!(err.code, "unknown_endpoint");
    assert_eq!(err.schema_version, WIRE_SCHEMA_VERSION);

    let wrong_method = get(addr, "/v1/predict");
    assert_eq!(wrong_method.status, 405);

    let garbage = post(addr, "/v1/predict", "{not json");
    assert_eq!(garbage.status, 400);

    let unknown = PredictRequest::new("ghost", MachineSpec::named("nehalem"));
    let reply = post(
        addr,
        "/v1/predict",
        &serde_json::to_string(&unknown).unwrap(),
    );
    assert_eq!(reply.status, 404);
    let err: pmt_api::ErrorBody = serde_json::from_str(&reply.body).unwrap();
    assert_eq!(err.code, "unknown_profile");
    assert!(err.message.contains("astar"), "lists what is registered");

    let mut stale = PredictRequest::new("astar", MachineSpec::named("nehalem"));
    stale.schema_version = 99;
    let reply = post(addr, "/v1/predict", &serde_json::to_string(&stale).unwrap());
    assert_eq!(reply.status, 400);
    let err: pmt_api::ErrorBody = serde_json::from_str(&reply.body).unwrap();
    assert_eq!(err.code, "bad_schema_version");

    server.stop();
}

/// A body nested 100,000 arrays deep inside an unknown field is a 400,
/// and the daemon keeps serving: skipping it cannot overflow the stack.
#[test]
fn deeply_nested_bodies_are_a_400_and_the_daemon_survives() {
    let server = serve(ServeConfig::default());
    let addr = server.addr();

    let req = PredictRequest::new("astar", MachineSpec::named("nehalem"));
    let json = serde_json::to_string(&req).unwrap();
    let deep = format!("{{\"junk\":{}{}", "[".repeat(100_000), &json[1..]);
    let reply = post(addr, "/v1/predict", &deep);
    assert_eq!(reply.status, 400, "{}", reply.body);
    let err: pmt_api::ErrorBody = serde_json::from_str(&reply.body).unwrap();
    assert_eq!(err.code, "bad_json");
    assert!(err.message.contains("nested"), "{}", err.message);

    assert_eq!(get(addr, "/healthz").status, 200);
    server.stop();
}

/// Train a tiny corrector covering `profile`, with a deliberate
/// systematic +10% residual so the correction is visibly nonzero.
fn corrector_for(profile: &ApplicationProfile) -> pmt_api::ResidualModel {
    let rows: Vec<pmt_ml::TrainingRow> = pmt_uarch::DesignSpace::small()
        .enumerate()
        .into_iter()
        .enumerate()
        .map(|(i, p)| pmt_ml::TrainingRow {
            workload: profile.name.clone(),
            machine: p.machine,
            model_cpi: 0.8 + 0.1 * i as f64,
            sim_cpi: (0.8 + 0.1 * i as f64) * 1.1,
            model_power: 12.0 + i as f64,
            sim_power: (12.0 + i as f64) * 1.1,
        })
        .collect();
    pmt_ml::train(
        &rows,
        std::slice::from_ref(profile),
        &pmt_ml::TrainOptions::default(),
    )
    .unwrap()
}

#[test]
fn corrector_overlays_covered_predicts_and_skips_uncovered_ones() {
    let astar = profile("astar");
    let corrector = corrector_for(&astar);
    let registry = Arc::new(Registry::new(8));
    registry.register(astar).unwrap();
    registry.register(profile("mcf")).unwrap();
    let server = Server::start(
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            batch_window_ms: 0,
            corrector: Some(Arc::new(corrector)),
            ..ServeConfig::default()
        },
        registry,
    )
    .unwrap();
    let addr = server.addr();

    // Covered profile: the additive fields ride along, the analytical
    // fields are the uncorrected daemon's bytes.
    let req = PredictRequest::new("astar", MachineSpec::named("nehalem"));
    let reply = post(addr, "/v1/predict", &serde_json::to_string(&req).unwrap());
    assert_eq!(reply.status, 200);
    let resp: pmt_api::PredictResponse = serde_json::from_str(&reply.body).unwrap();
    assert!(resp.corrected);
    let corrected_cpi = resp.corrected_cpi.expect("corrected CPI");
    assert!(
        corrected_cpi > resp.cpi,
        "systematic +10% residual raises CPI"
    );
    assert!(resp.corrected_power_w.expect("corrected power") > 0.0);

    // Uncovered profile (mcf was not in the training set): analytical
    // answer, marked uncorrected, counted as skipped.
    let req = PredictRequest::new("mcf", MachineSpec::named("nehalem"));
    let reply = post(addr, "/v1/predict", &serde_json::to_string(&req).unwrap());
    assert_eq!(reply.status, 200);
    let resp: pmt_api::PredictResponse = serde_json::from_str(&reply.body).unwrap();
    assert!(!resp.corrected);
    assert_eq!(resp.corrected_cpi, None);

    let m: pmt_api::MetricsResponse = serde_json::from_str(&get(addr, "/metrics").body).unwrap();
    assert!(m.corrector.loaded);
    assert_eq!(m.corrector.corrected_requests, 1);
    assert_eq!(m.corrector.skipped_requests, 1);
    server.stop();
}

#[test]
fn corrected_batched_predicts_match_corrected_solo_bytes() {
    let astar = profile("astar");
    let corrector = Arc::new(corrector_for(&astar));
    let start = |batch_window_ms| {
        let registry = Arc::new(Registry::new(8));
        registry.register(profile("astar")).unwrap();
        Server::start(
            ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                batch_window_ms,
                corrector: Some(Arc::clone(&corrector)),
                ..ServeConfig::default()
            },
            registry,
        )
        .unwrap()
    };
    let batched = start(5);
    let solo = start(0);
    let req = PredictRequest::new("astar", MachineSpec::named("nehalem"));
    let body = serde_json::to_string(&req).unwrap();
    let from_batched = post(batched.addr(), "/v1/predict", &body);
    let from_solo = post(solo.addr(), "/v1/predict", &body);
    assert_eq!(from_batched.status, 200);
    assert_eq!(from_batched.body, from_solo.body, "corrected bytes agree");
    batched.stop();
    solo.stop();
}

// --------------------------------------------------- flights and deadlines

/// An explore whose sweep outlasts a few probes, in debug and release
/// builds alike: ROB sizes × clocks, about a second of sweeping.
fn long_explore() -> String {
    let points = if cfg!(debug_assertions) {
        49_152
    } else {
        393_216
    };
    let robs: Vec<f64> = (0..points / 8).map(|i| 32.0 + i as f64).collect();
    let clocks: Vec<f64> = (0..8).map(|i| 2.0 + 0.1 * f64::from(i)).collect();
    let axes = vec![AxisSpec::new("rob", &robs), AxisSpec::new("f", &clocks)];
    let req = ExploreRequest::new("astar", SpaceSpec::product(None, axes));
    serde_json::to_string(&req).unwrap()
}

/// Send a complete request without reading the reply yet.
fn send(addr: SocketAddr, path: &str, body: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "POST {path} HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    stream
}

#[test]
fn explore_followers_free_their_workers() {
    let server = serve(ServeConfig {
        threads: 2,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let body = long_explore();

    // The leader's sweep holds one worker; the other is free.
    let leader = send(addr, "/v1/explore", &body);
    while metrics(addr).inflight_sweeps == 0 {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    // The free worker parses the identical follower, then this probe.
    // A follower that handed its connection to the flight freed that
    // worker, so the probe is answered mid-sweep; a follower parked on
    // the flight would hold it until the sweep ends.
    let follower = send(addr, "/v1/explore", &body);
    assert_eq!(
        metrics(addr).inflight_sweeps,
        1,
        "the probe must be answered while the sweep runs"
    );

    let (led, joined) = (read_reply(leader), read_reply(follower));
    assert_eq!(led.status, 200, "{}", led.body);
    assert_eq!(
        joined.body, led.body,
        "every member gets the leader's bytes"
    );
    assert_eq!(metrics(addr).coalesced_requests, 1);
    assert_eq!(metrics(addr).flight_leaders, 1);
    server.stop();
}

#[test]
fn a_mixed_burst_keeps_the_partition() {
    let server = serve(ServeConfig {
        threads: 2,
        max_inflight_sweeps: 1,
        ..ServeConfig::default()
    });
    let addr = server.addr();

    // Warm the cache for the repeats.
    let warm_predict = dvfs_request(3.0);
    let warm_explore = serde_json::to_string(&explore_request()).unwrap();
    assert_eq!(post(addr, "/v1/predict", &warm_predict).status, 200);
    assert_eq!(post(addr, "/v1/explore", &warm_explore).status, 200);

    // One concurrent burst of every outcome: identical explores (one
    // leads, the rest join), a different explore the single sweep slot
    // refuses, distinct predicts on one profile, warm repeats, and a
    // poisoned request of each kind.
    let long = long_explore();
    let mut other = explore_request();
    other.top_k = 5;
    let mut burst = vec![("/v1/explore", long.clone()), ("/v1/explore", long.clone())];
    burst.push(("/v1/explore", long));
    burst.push(("/v1/explore", serde_json::to_string(&other).unwrap()));
    burst.extend((0..4).map(|i| ("/v1/predict", dvfs_request(2.0 + 0.1 * f64::from(i)))));
    burst.push(("/v1/predict", warm_predict));
    burst.push(("/v1/explore", warm_explore));
    burst.push(("/v1/predict", poison_predict()));
    let poison = serde_json::to_string(&poison_request()).unwrap();
    burst.push(("/v1/explore", poison));

    let barrier = std::sync::Barrier::new(burst.len());
    let replies: Vec<Reply> = std::thread::scope(|scope| {
        let handles: Vec<_> = burst
            .iter()
            .map(|(path, body)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    post(addr, path, body)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in &replies {
        assert!(
            matches!(r.status, 200 | 429 | 500),
            "{}: {}",
            r.status,
            r.body
        );
    }

    // Every predict or explore sent (the two warm-ups included) is
    // exactly one partition term, and every non-200 reply received is
    // exactly one `errors` count.
    assert_eq!(partition_terms(addr), burst.len() as u64 + 2);
    let non_200 = replies.iter().filter(|r| r.status != 200).count();
    assert_eq!(metrics(addr).errors, non_200 as u64);
    assert!(metrics(addr).response_cache_hits >= 2, "warm repeats hit");
    assert!(metrics(addr).failed_requests >= 1, "the poisoned predict");
    server.stop();
}

#[test]
fn idle_connections_get_408_and_never_starve_the_pool() {
    let server = serve(ServeConfig {
        threads: 2,
        ..ServeConfig::default()
    });
    let addr = server.addr();

    // Two connections that never send a byte reach both workers first
    // (connections are dispatched in accept order) and park them in a
    // read; the read deadline must free them for the probe.
    let idle: Vec<TcpStream> = (0..2).map(|_| TcpStream::connect(addr).unwrap()).collect();
    assert_eq!(get(addr, "/healthz").status, 200);
    for stream in idle {
        let reply = read_reply(stream);
        assert_eq!(reply.status, 408, "{}", reply.body);
        let err: pmt_api::ErrorBody = serde_json::from_str(&reply.body).unwrap();
        assert_eq!(err.code, "request_timeout");
    }
    assert_eq!(metrics(addr).errors, 2);
    server.stop();
}

#[test]
fn stop_completes_while_idle_connections_are_open() {
    let server = serve(ServeConfig {
        threads: 2,
        ..ServeConfig::default()
    });
    let idle: Vec<TcpStream> = (0..2)
        .map(|_| TcpStream::connect(server.addr()).unwrap())
        .collect();
    // Both idle connections are with workers before the stop begins.
    while server.metrics().requests.load(Ordering::Relaxed) < 2 {
        std::thread::yield_now();
    }
    let (done, stopped) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.stop();
        done.send(()).unwrap();
    });
    stopped
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("stop must complete while idle connections are open");
    drop(idle);
}

//! One flight type for every piece of shared work in `pmt serve`.
//!
//! # Protocol
//!
//! A **flight** is one computation that several concurrent requests
//! share. Flights live in one map, keyed by what may be shared:
//!
//! * an explore's full request identity — only *identical* explores
//!   share a flight, and every member receives the leader's bytes;
//! * a predict's profile content hash — *distinct* predicts on one
//!   profile share a flight, one [`BatchPredictor`](pmt_core::BatchPredictor)
//!   pass over all their design points, each member receiving its own
//!   response.
//!
//! Identity strings, not 64-bit hashes, decide whether two explores
//! coalesce. Admission ([`FlightGuard::admit`]) looks the response cache
//! up under the flights lock, so a request sees the cache and the open
//! flights as one state. The first request to miss the cache publishes
//! a fresh flight with itself already inside as member 0, its **leader**;
//! a request that finds an open flight joins it by **handing its
//! `TcpStream` to the flight** and returning at once, so its worker goes
//! straight back to the accept queue — no thread ever parks waiting for
//! work it isn't doing. A request that finds a *closed* flight (or none)
//! publishes a fresh one and leads it. A flight's capacity bounds its
//! members: an explore flight admits any number, a predict flight
//! `--batch-max-points`, and with `--batch-window-ms 0` a predict flight
//! is published already closed — a flight of one, through the same code.
//!
//! The leader computes once, inline on its own worker. An explore
//! flight stays open while its sweep runs and ends through
//! [`FlightGuard::deliver_to_all`], which caches the response *before*
//! releasing the key: an identical explore admitted at any moment
//! either joins the flight or hits the cache, so it never leads a
//! second sweep. A predict flight first holds a bounded collection
//! window ([`FlightGuard::collect`]), then closes — releasing its key,
//! so the next distinct predicts on the profile form the next batch
//! while this one computes — and evaluates every admitted point in one
//! pass. This is deliberate: an identical predict admitted between that
//! release and delivery recomputes one point in a fresh flight, where
//! holding the key would stall the next batch behind this one.
//!
//! # Accounting and failure isolation
//!
//! A [`FlightGuard`] owns the members from the leader's admission to
//! delivery. On the normal path ([`deliver`](FlightGuard::deliver)) it
//! caches every successful response, writes each handed-off member's,
//! and returns member 0's to the leader's worker. If the computation
//! unwinds, its `Drop` releases the key (so the next request publishes a
//! fresh flight instead of joining a corpse), writes a structured 500 to
//! every handed-off connection, and records every member as failed.
//! Either way each member ends as exactly one
//! [`Outcome`], recorded through
//! [`Metrics::record`](crate::Metrics::record) — the `/metrics` request partition holds by
//! construction.

use crate::http::Response;
use crate::metrics::{Kind, Outcome};
use crate::server::{cache_insert, cache_lookup, respond, Shared};
use pmt_api::ApiError;
use pmt_uarch::MachineConfig;
use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// What concurrent requests may share a flight on.
#[derive(Clone, PartialEq, Eq, Hash)]
pub(crate) enum FlightKey {
    /// An explore's full request identity: identical explores coalesce.
    Explore(String),
    /// A predict's profile content hash: distinct predicts batch.
    Predict(u64),
}

impl FlightKey {
    fn kind(&self) -> Kind {
        match self {
            FlightKey::Explore(_) => Kind::Explore,
            FlightKey::Predict(_) => Kind::Predict,
        }
    }
}

/// One admitted request: everything the leader needs to compute, cache
/// and answer it.
pub(crate) struct Member {
    /// Response-cache key (64-bit FNV of the identity).
    key: u64,
    /// Full request identity (profile content hash + canonical JSON).
    identity: String,
    /// A predict's resolved design point; `None` for an explore.
    pub(crate) machine: Option<MachineConfig>,
    /// A joiner's connection, handed off so its worker can serve the
    /// next request. `None` for the leader, whose response returns
    /// through its own worker.
    stream: Option<TcpStream>,
}

impl Member {
    pub(crate) fn new(key: u64, identity: String, machine: Option<MachineConfig>) -> Member {
        Member {
            key,
            identity,
            machine,
            stream: None,
        }
    }
}

struct State {
    /// Admitted members in admission order; the leader is member 0.
    members: Vec<Member>,
    /// No further member may join.
    closed: bool,
}

/// One shared computation. Joiners push members and notify; only the
/// leader ever waits on the condvar (for a predict's collection window).
pub(crate) struct Flight {
    key: FlightKey,
    state: Mutex<State>,
    cv: Condvar,
}

/// The open flights, at most one per key.
pub(crate) type Flights = Mutex<HashMap<FlightKey, Arc<Flight>>>;

/// How [`FlightGuard::admit`] placed a request.
pub(crate) enum Admission<'a> {
    /// The response cache answered it; it joins no flight.
    Hit(Response),
    /// It joined an open flight, which now owns its connection.
    Joined,
    /// It published a fresh flight and leads it.
    Lead(FlightGuard<'a>),
}

/// Owns a flight's members from the leader's admission to delivery; see
/// the module docs.
pub(crate) struct FlightGuard<'a> {
    shared: &'a Shared,
    flight: Arc<Flight>,
    members: Vec<Member>,
    delivered: bool,
}

impl<'a> FlightGuard<'a> {
    /// Answer `member` from the response cache; else join the open
    /// flight under `key` — moving `stream` into it, so the caller must
    /// write nothing — or publish a fresh flight of at most `capacity`
    /// members with `member` as its leader, and return the guard this
    /// caller leads it with. A flight of capacity 1 is published closed.
    ///
    /// The cache lookup runs under the flights lock, so it cannot fall
    /// between an explore flight caching its response and releasing its
    /// key.
    pub(crate) fn admit(
        shared: &'a Shared,
        key: FlightKey,
        mut member: Member,
        stream: &mut Option<TcpStream>,
        capacity: usize,
    ) -> Admission<'a> {
        let mut flights = shared.flights.lock().expect("flights lock");
        if let Some(hit) = cache_lookup(shared, key.kind(), member.key, &member.identity) {
            return Admission::Hit(hit);
        }
        if let Some(flight) = flights.get(&key) {
            let mut state = flight.state.lock().expect("flight state lock");
            if !state.closed {
                member.stream = stream.take();
                state.members.push(member);
                state.closed = state.members.len() >= capacity;
                // Wake the leader: the join may have filled the flight or
                // made its idle-close condition worth re-checking.
                flight.cv.notify_all();
                return Admission::Joined;
            }
        }
        // No flight, or a closed one still computing: publish a fresh
        // flight with its leader already inside, so no joiner can ever
        // take member 0.
        let flight = Arc::new(Flight {
            key: key.clone(),
            state: Mutex::new(State {
                members: vec![member],
                closed: capacity <= 1,
            }),
            cv: Condvar::new(),
        });
        flights.insert(key, Arc::clone(&flight));
        Admission::Lead(FlightGuard {
            shared,
            flight,
            members: Vec::new(),
            delivered: false,
        })
    }

    /// A predict flight's collection window: wait for joiners until
    /// `--batch-window-ms` expires or waiting longer cannot grow the
    /// flight — it is closed (full, or born closed), or the daemon is
    /// otherwise idle.
    pub(crate) fn collect(&self) {
        let config = &self.shared.config;
        let metrics = &self.shared.metrics;
        let window = Duration::from_millis(config.batch_window_ms);
        let deadline = Instant::now() + window;
        // Idle (every in-flight predict aboard, accept queue empty) is a
        // racy read: a caller mid-`connect()` sits in the kernel's listen
        // backlog where neither gauge can see it. Closing on the first
        // idle reading fragments a concurrent burst into many small
        // flights, so once the flight has company, idleness must survive
        // a short linger re-check before it closes the window. A request
        // with no company still closes on the first reading — a solo
        // predict pays no window latency at all.
        // One tenth of the window per re-check, floored at 500µs: wide
        // windows ride out scheduler hiccups between a burst's connects,
        // narrow windows stay snappy.
        let linger = (window / 10).max(Duration::from_micros(500));
        let mut state = self.flight.state.lock().expect("flight state lock");
        let mut idle_streak = 0u32;
        let mut len_at_check = state.members.len();
        loop {
            let len = state.members.len();
            let inflight = metrics.predict_inflight.load(Ordering::Relaxed);
            let solo = len == 1 && inflight <= 1;
            let idle = inflight <= len as u64 && metrics.queue_depth.load(Ordering::Relaxed) == 0;
            if len != len_at_check {
                len_at_check = len;
                idle_streak = 0;
            }
            idle_streak = if idle { idle_streak + 1 } else { 0 };
            let now = Instant::now();
            if state.closed || (idle && (solo || idle_streak >= 2)) || now >= deadline {
                return;
            }
            let timeout = if idle { linger } else { deadline - now };
            state = self
                .flight
                .cv
                .wait_timeout(state, timeout.min(deadline - now))
                .expect("flight state lock")
                .0;
        }
    }

    /// Close the flight to joiners, release its key (so new arrivals
    /// publish the next flight while this one finishes), and return its
    /// members, leader first. Idempotent; poison-tolerant because `Drop`
    /// runs it during unwind.
    pub(crate) fn close(&mut self) -> &[Member] {
        if let Ok(mut flights) = self.shared.flights.lock() {
            // Only remove our own flight: a successor may hold the key.
            if flights
                .get(&self.flight.key)
                .is_some_and(|f| Arc::ptr_eq(f, &self.flight))
            {
                flights.remove(&self.flight.key);
            }
        }
        if let Ok(mut state) = self.flight.state.lock() {
            state.closed = true;
            self.members.append(&mut state.members);
        }
        &self.members
    }

    /// Normal path: `responses[i]` answers member `i` of the closed
    /// flight. Cache every successful response, write each joiner's to
    /// its connection, record every member's outcome (`leader` for
    /// member 0, [`Outcome::Joined`] for the rest), and return the
    /// leader's response to its worker.
    pub(crate) fn deliver(mut self, responses: Vec<Response>, leader: Outcome) -> Response {
        self.delivered = true;
        let (shared, kind) = (self.shared, self.flight.key.kind());
        for (i, (member, response)) in self.members.iter_mut().zip(&responses).enumerate() {
            if !response.is_error() {
                cache_insert(shared, member.key, &member.identity, response);
            }
            if let Some(stream) = member.stream.as_mut() {
                respond(&shared.metrics, stream, response);
            }
            shared
                .metrics
                .record(kind, if i == 0 { leader } else { Outcome::Joined });
        }
        responses
            .into_iter()
            .next()
            .expect("the leader is member 0")
    }

    /// An explore flight's end: every member gets the leader's
    /// `response`. A successful response is cached before [`close`]
    /// releases the key, so no identical request can miss both the
    /// flight and the cache.
    ///
    /// [`close`]: Self::close
    pub(crate) fn deliver_to_all(mut self, response: Response, leader: Outcome) -> Response {
        if !response.is_error() {
            let state = self.flight.state.lock().expect("flight state lock");
            let first = &state.members[0];
            cache_insert(self.shared, first.key, &first.identity, &response);
        }
        let members = self.close().len();
        self.deliver(vec![response; members], leader)
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if self.delivered {
            return;
        }
        self.close();
        let kind = self.flight.key.kind();
        let error = Response::error(&ApiError::internal(match kind {
            Kind::Explore => "explore computation panicked; the in-flight request was aborted",
            Kind::Predict => "batch evaluation panicked; the in-flight request was aborted",
        }));
        // Every member failed: the joiners answered here, the leader by
        // its worker's catch-all 500.
        for member in &mut self.members {
            if let Some(stream) = member.stream.as_mut() {
                respond(&self.shared.metrics, stream, &error);
            }
            self.shared.metrics.record(kind, Outcome::Failed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use crate::server::ServeConfig;

    fn shared() -> Shared {
        Shared::new(ServeConfig::default(), Arc::new(Registry::new(1)))
    }

    fn admit_to<'a>(
        shared: &'a Shared,
        key: FlightKey,
        identity: &str,
        capacity: usize,
    ) -> Admission<'a> {
        let member = Member::new(fnv(identity), identity.to_string(), None);
        FlightGuard::admit(shared, key, member, &mut None, capacity)
    }

    /// Admit a predict: the guard if it leads, `None` if it joined.
    fn admit<'a>(shared: &'a Shared, identity: &str, capacity: usize) -> Option<FlightGuard<'a>> {
        match admit_to(shared, FlightKey::Predict(7), identity, capacity) {
            Admission::Lead(guard) => Some(guard),
            Admission::Joined => None,
            Admission::Hit(_) => panic!("`{identity}` hit the response cache"),
        }
    }

    fn fnv(identity: &str) -> u64 {
        pmt_api::fnv1a(&[identity])
    }

    fn identities(guard: &mut FlightGuard<'_>) -> Vec<String> {
        guard.close().iter().map(|m| m.identity.clone()).collect()
    }

    #[test]
    fn a_joiner_never_takes_the_leaders_slot() {
        let shared = shared();
        let mut guard = admit(&shared, "leader", 64).expect("no flight was open");
        // A joiner arriving before the leader reaches its window lands
        // behind it: `deliver` returns member 0's response to the
        // leader's worker.
        assert!(admit(&shared, "joiner", 64).is_none(), "joined");
        assert_eq!(identities(&mut guard), ["leader", "joiner"]);
        guard.deliver(vec![Response::json("a".into()); 2], Outcome::Led);
    }

    #[test]
    fn a_flight_delivers_to_every_member() {
        let shared = shared();
        let mut guard = admit(&shared, "leader", 64).unwrap();
        assert!(admit(&shared, "joiner", 64).is_none());
        guard.close();
        let responses = vec![Response::json("a".into()), Response::json("b".into())];
        assert_eq!(guard.deliver(responses, Outcome::Led).body, "a");

        let m = shared.metrics.snapshot(0, 0, 0, false);
        assert_eq!((m.flight_leaders, m.batched_requests), (1, 1));
        assert_eq!(
            m.response_cache_entries, 2,
            "every member's response cached"
        );
        assert!(shared.flights.lock().unwrap().is_empty(), "key released");
    }

    #[test]
    fn a_joiner_after_close_leads_a_fresh_flight() {
        let shared = shared();
        let mut full = admit(&shared, "leader", 2).unwrap();
        assert!(admit(&shared, "filler", 2).is_none(), "joins and fills it");
        let mut fresh = admit(&shared, "late", 2).expect("bounced to a fresh flight");
        // Closing the full flight must not release its successor's key.
        assert_eq!(identities(&mut full), ["leader", "filler"]);
        assert!(admit(&shared, "joiner", 2).is_none(), "joins the fresh one");
        assert_eq!(identities(&mut fresh), ["late", "joiner"]);
        full.deliver(vec![Response::json("a".into()); 2], Outcome::Led);
        fresh.deliver(vec![Response::json("b".into()); 2], Outcome::Led);
    }

    #[test]
    fn a_window_zero_flight_admits_no_joiner() {
        let shared = shared();
        let mut solo = admit(&shared, "solo", 1).unwrap();
        let mut next = admit(&shared, "next", 1).expect("a closed flight admits no joiner");
        assert_eq!(identities(&mut solo), ["solo"]);
        assert_eq!(identities(&mut next), ["next"]);
        solo.deliver(vec![Response::json("a".into())], Outcome::Led);
        next.deliver(vec![Response::json("b".into())], Outcome::Led);
        assert_eq!(shared.metrics.snapshot(0, 0, 0, false).flight_leaders, 2);
    }

    /// Once an explore leader has delivered and released its key, an
    /// identical explore is answered from the cache and leads nothing:
    /// no second sweep.
    #[test]
    fn an_explore_after_delivery_hits_the_cache_and_leads_nothing() {
        let shared = shared();
        let key = || FlightKey::Explore("explore".to_string());
        let Admission::Lead(guard) = admit_to(&shared, key(), "explore", usize::MAX) else {
            panic!("no flight was open");
        };
        guard.deliver_to_all(Response::json("sweep".into()), Outcome::Led);
        assert!(shared.flights.lock().unwrap().is_empty(), "key released");

        match admit_to(&shared, key(), "explore", usize::MAX) {
            Admission::Hit(hit) => assert_eq!(hit.body, "sweep"),
            Admission::Joined => panic!("joined a flight after delivery"),
            Admission::Lead(_) => panic!("led a second sweep"),
        }
        assert!(shared.flights.lock().unwrap().is_empty(), "no flight");
        let m = shared.metrics.snapshot(0, 0, 0, false);
        assert_eq!((m.flight_leaders, m.response_cache_hits), (1, 1));
    }

    #[test]
    fn an_unwinding_leader_fails_every_member_and_releases_the_key() {
        let shared = shared();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = admit(&shared, "leader", 64).unwrap();
            assert!(admit(&shared, "joiner", 64).is_none());
            panic!("evaluation failed");
        }));
        assert!(unwound.is_err());
        let m = shared.metrics.snapshot(0, 0, 0, false);
        assert_eq!((m.failed_requests, m.flight_leaders), (2, 0));
        assert_eq!(m.response_cache_entries, 0, "nothing cached");
        assert!(shared.flights.lock().unwrap().is_empty(), "key released");
    }
}

//! Cross-request micro-batching: one `BatchPredictor` flight for many
//! concurrent `/v1/predict` callers.
//!
//! # Protocol
//!
//! Each registered profile has at most one **open** batch at a time,
//! keyed by the profile's content hash. The first predict request to
//! miss the response cache opens the batch and becomes its **leader**
//! (published with the leader already inside as entry 0, the slot whose
//! response returns to the leader's worker); concurrent requests for the
//! same profile join as **riders** by handing their `TcpStream` to the
//! batch and returning immediately — the worker thread that parsed a
//! rider goes straight back to the accept queue, where it usually parses
//! the *next* rider for the same still-open batch. Batches therefore grow past the worker count, and
//! no thread ever blocks waiting for a flight it isn't computing.
//!
//! The leader holds the batch open for a bounded collection window
//! (`--batch-window-ms`), closing early as soon as waiting longer
//! cannot help: the batch is full (`--batch-max-points`), or every
//! in-flight predict is already aboard and the accept queue is empty
//! (the daemon is otherwise idle — a solo request pays no window
//! latency at all). It then evaluates every admitted design point in
//! **one** [`BatchPredictor`] pass over the shared `PreparedProfile` —
//! later points replaying earlier points' memoized cache queries,
//! stride walks, CP(ROB) and branch penalties — and writes each rider's
//! response to the rider's own connection, demuxed by admission index
//! via [`BatchPredictor::predict_tagged`].
//!
//! # Why shared flights cannot change anyone's bytes
//!
//! The strictest invariant in this crate: a served response must never
//! depend on who shared a flight with you. It holds structurally:
//!
//! * `BatchPredictor` results are bit-identical to the scalar path in
//!   any evaluation order (the PR 8 conformance suite pins this), so the
//!   summary a rider's point gets inside a batch is the summary it would
//!   have gotten solo;
//! * both the solo path and the batch demux assemble the wire response
//!   through the same `predict_json` (which wraps
//!   [`crate::engine::summary_response`] plus the optional corrector
//!   overlay), so equal summaries become equal bytes.
//!
//! # Failure isolation
//!
//! A panicking leader must not strand its riders' connections or poison
//! the open-batch slot for future requests. [`BatchGuard`] owns the
//! admitted entries during the evaluation: on unwind it removes the
//! open-batch key, writes a structured 500 to every rider's connection,
//! and counts every admitted request — leader included — under
//! `failed_requests`, the `failed` term the extended `/metrics`
//! partition invariant sums.

use crate::http::Response;
use crate::metrics::Metrics;
use crate::registry::RegisteredProfile;
use crate::server::{cache_insert, predict_json, Shared};
use pmt_api::ApiError;
use pmt_core::{BatchPredictor, ModelConfig};
use pmt_uarch::MachineConfig;
use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One admitted request: everything the leader needs to evaluate,
/// cache, and answer it.
struct BatchEntry {
    /// Response-cache key (64-bit FNV of the identity).
    key: u64,
    /// Full request identity (profile content hash + canonical JSON).
    identity: String,
    /// The resolved design point.
    machine: MachineConfig,
    /// A rider's connection, handed off so its worker can go parse the
    /// next request; the leader writes the response. `None` for the
    /// leader's own entry — its response returns through its worker.
    stream: Option<TcpStream>,
}

/// The open-batch state, guarded by [`BatchCell::state`].
struct BatchState {
    /// Admitted entries, in admission order. The leader takes them when
    /// the window closes.
    entries: Vec<BatchEntry>,
    /// No further riders may join (window closed or batch full).
    closed: bool,
}

/// One batch. Riders push entries and notify; only the leader ever
/// waits on the condvar (for its collection window).
struct BatchCell {
    state: Mutex<BatchState>,
    cv: Condvar,
}

impl BatchCell {
    /// A fresh batch with its leader already admitted: the leader is
    /// entry 0 by construction, before any rider can see the cell.
    fn open(leader: BatchEntry) -> BatchCell {
        BatchCell {
            state: Mutex::new(BatchState {
                entries: vec![leader],
                closed: false,
            }),
            cv: Condvar::new(),
        }
    }
}

/// The per-profile open batches (at most one open batch per profile).
pub(crate) struct BatchQueues {
    open: Mutex<HashMap<u64, Arc<BatchCell>>>,
}

/// What [`BatchQueues::claim`] found for a request.
enum Claim {
    /// No batch was open: a new one holds the request as its leader.
    Opened(Arc<BatchCell>),
    /// A batch is open; the request is handed back to ride it.
    Found(Arc<BatchCell>, Box<BatchEntry>),
}

impl BatchQueues {
    pub(crate) fn new() -> BatchQueues {
        BatchQueues {
            open: Mutex::new(HashMap::new()),
        }
    }

    /// Open a batch for `content_hash` led by `entry`, or find the open
    /// one. The new cell is published with its leader inside, so no
    /// rider can ever take entry 0.
    fn claim(&self, content_hash: u64, entry: Box<BatchEntry>) -> Claim {
        let mut open = self.open.lock().expect("batch queues lock");
        match open.get(&content_hash) {
            Some(cell) => Claim::Found(Arc::clone(cell), entry),
            None => {
                let cell = Arc::new(BatchCell::open(*entry));
                open.insert(content_hash, Arc::clone(&cell));
                Claim::Opened(cell)
            }
        }
    }
}

/// Owns the admitted entries from window close to response delivery, so
/// the batch completes exactly once: rider responses written on the
/// normal path ([`deliver`](BatchGuard::deliver)), or a structured 500
/// per rider from `Drop` if the evaluation unwinds. Either way the
/// open-batch key is released, so the next request opens a fresh batch
/// instead of joining a corpse.
struct BatchGuard<'a> {
    shared: &'a Shared,
    content_hash: u64,
    cell: &'a Arc<BatchCell>,
    entries: Vec<BatchEntry>,
    completed: bool,
}

impl BatchGuard<'_> {
    fn release_key(shared: &Shared, content_hash: u64, cell: &Arc<BatchCell>) {
        // `if let` rather than `.expect`: the drop path runs during
        // unwind. Only remove our own cell — a successor batch may have
        // claimed the key already.
        if let Ok(mut open) = shared.batches.open.lock() {
            if open
                .get(&content_hash)
                .is_some_and(|c| Arc::ptr_eq(c, cell))
            {
                open.remove(&content_hash);
            }
        }
    }

    /// Normal path: cache every response, write the riders' to their
    /// connections, return the leader's (entry 0) to its worker.
    fn deliver(mut self, responses: Vec<Response>) -> Response {
        self.completed = true;
        let mut riders = 0;
        for (entry, response) in self.entries.iter_mut().zip(&responses) {
            cache_insert(self.shared, entry.key, &entry.identity, response);
            if let Some(stream) = entry.stream.as_mut() {
                riders += 1;
                let _ = response.write_to(stream);
            }
        }
        Metrics::add(&self.shared.metrics.batched_requests, riders);
        responses.into_iter().next().expect("leader is entry 0")
    }
}

impl Drop for BatchGuard<'_> {
    fn drop(&mut self) {
        if self.completed {
            return;
        }
        Self::release_key(self.shared, self.content_hash, self.cell);
        let error = Response::error(&ApiError::internal(
            "batch evaluation panicked; the in-flight request was aborted",
        ));
        for entry in &mut self.entries {
            if let Some(stream) = entry.stream.as_mut() {
                Metrics::bump(&self.shared.metrics.errors);
                let _ = error.write_to(stream);
            }
        }
        // Every admitted request failed: the riders answered here, the
        // leader by its worker's catch-all 500 (its `errors` bump too).
        Metrics::add(
            &self.shared.metrics.failed_requests,
            self.entries.len() as u64,
        );
    }
}

/// Admit one predict request into the profile's open batch (or open
/// one). Returns the leader's computed response, or `None` if the
/// connection was handed off to the batch — the leader answers it, and
/// the caller's worker must write nothing. Called with the machine
/// already resolved and the response cache already missed.
pub(crate) fn submit(
    shared: &Shared,
    profile: &RegisteredProfile,
    machine: MachineConfig,
    key: u64,
    identity: String,
    stream: &mut Option<TcpStream>,
) -> Option<Response> {
    let mut entry = Box::new(BatchEntry {
        key,
        identity,
        machine,
        stream: None,
    });
    let max_points = shared.config.batch_max_points.max(1);
    loop {
        match shared.batches.claim(profile.content_hash, entry) {
            Claim::Opened(cell) => return Some(lead(shared, profile, &cell)),
            Claim::Found(cell, bounced) => match ride(&cell, bounced, stream, max_points) {
                Ok(()) => return None,
                // The batch closed between the map lookup and the join:
                // try again (a fresh batch, possibly as its leader).
                Err(bounced) => entry = bounced,
            },
        }
    }
}

/// Join an existing open batch: hand the connection off and return so
/// this worker can go parse the next request. Returns the entry back if
/// the batch closed before the join landed.
fn ride(
    cell: &BatchCell,
    mut entry: Box<BatchEntry>,
    stream: &mut Option<TcpStream>,
    max_points: usize,
) -> Result<(), Box<BatchEntry>> {
    let mut state = cell.state.lock().expect("batch state lock");
    if state.closed {
        return Err(entry);
    }
    entry.stream = stream.take();
    state.entries.push(*entry);
    if state.entries.len() >= max_points {
        state.closed = true;
    }
    drop(state);
    // Wake the leader: the join may have filled the batch or made the
    // idle-close condition worth re-checking.
    cell.cv.notify_all();
    Ok(())
}

/// Lead a fresh batch (the leader's entry already inside): collect
/// riders for the window, evaluate every admitted point in one
/// `BatchPredictor` pass, answer everyone.
fn lead(shared: &Shared, profile: &RegisteredProfile, cell: &Arc<BatchCell>) -> Response {
    // Collection window: wait for riders until the window expires or
    // waiting longer cannot grow the batch.
    let deadline = Instant::now() + Duration::from_millis(shared.config.batch_window_ms);
    // Idle (every in-flight predict aboard, accept queue empty) is a
    // racy read: a caller mid-`connect()` sits in the kernel's listen
    // backlog where neither gauge can see it. Closing on the first idle
    // reading fragments a concurrent burst into many small flights, so
    // once the batch has company, idleness must survive a short linger
    // re-check before it closes the window. A request with no company
    // still closes on the first reading — a solo predict pays no window
    // latency at all.
    // One tenth of the window per re-check, floored at 500µs: wide
    // windows ride out scheduler hiccups between a burst's connects,
    // narrow windows stay snappy.
    let linger =
        (Duration::from_millis(shared.config.batch_window_ms) / 10).max(Duration::from_micros(500));
    let entries = {
        let mut state = cell.state.lock().expect("batch state lock");
        let mut idle_streak = 0u32;
        let mut len_at_check = state.entries.len();
        loop {
            let full = state.entries.len() >= shared.config.batch_max_points.max(1);
            let inflight = shared.metrics.predict_inflight.load(Ordering::Relaxed);
            let solo = state.entries.len() == 1 && inflight <= 1;
            let idle = inflight <= state.entries.len() as u64
                && shared.metrics.queue_depth.load(Ordering::Relaxed) == 0;
            if state.entries.len() != len_at_check {
                len_at_check = state.entries.len();
                idle_streak = 0;
            }
            idle_streak = if idle { idle_streak + 1 } else { 0 };
            let now = Instant::now();
            if state.closed || full || (idle && (solo || idle_streak >= 2)) || now >= deadline {
                break;
            }
            let timeout = if idle { linger } else { deadline - now };
            let (next, _timeout) = cell
                .cv
                .wait_timeout(state, timeout.min(deadline - now))
                .expect("batch state lock");
            state = next;
        }
        state.closed = true;
        std::mem::take(&mut state.entries)
    };
    // Release the key before the evaluation so new arrivals collect the
    // next batch while this one computes.
    BatchGuard::release_key(shared, profile.content_hash, cell);
    let guard = BatchGuard {
        shared,
        content_hash: profile.content_hash,
        cell,
        entries,
        completed: false,
    };

    // One flight for the whole window, demuxed by admission index. The
    // batch splits into at most `threads` contiguous lanes — one
    // `BatchPredictor` per lane, each borrowing the profile's curve
    // arena, so points share memoized work within their lane while lanes
    // run on the worker cores the flight just freed (every admitted
    // rider's worker is back on the accept queue). The first lane runs
    // right here on the leader's worker and only the others get scoped
    // threads, so a flight of one spawns nothing; a panic in the inline
    // lane unwinds through `guard` once the scope has joined the rest,
    // exactly as a lane thread's does through its join. Lane results are bit-identical to the single-point path
    // in any split (the batch conformance property), so the lane count
    // can never change a byte of anyone's response.
    let started = Instant::now();
    let width = std::thread::available_parallelism().map_or(1, |n| n.get());
    let lanes = shared
        .config
        .threads
        .max(1)
        .min(width)
        .min(guard.entries.len());
    let chunk = guard.entries.len().div_ceil(lanes);
    let run_lane = |lane: &[BatchEntry]| {
        let mut predictor = BatchPredictor::new(&profile.prepared, &ModelConfig::default());
        let responses: Vec<Response> = predictor
            .predict_tagged(lane.iter().enumerate().map(|(i, e)| (i, e.machine.clone())))
            .into_iter()
            .map(|(i, summary)| predict_json(shared, profile, &lane[i].machine, &summary))
            .collect();
        (responses, predictor.memo_stats())
    };
    let per_lane: Vec<(Vec<Response>, pmt_core::MemoStats)> = std::thread::scope(|scope| {
        let mut chunks = guard.entries.chunks(chunk);
        let first = chunks.next().expect("a flight holds its leader");
        let handles: Vec<_> = chunks
            .map(|lane| scope.spawn(move || run_lane(lane)))
            .collect();
        let mut per_lane = vec![run_lane(first)];
        per_lane.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("flight lane thread")),
        );
        per_lane
    });
    let mut responses = Vec::with_capacity(guard.entries.len());
    for (lane_responses, stats) in per_lane {
        responses.extend(lane_responses);
        shared.metrics.absorb_memo_stats(&stats);
    }

    let n = guard.entries.len() as u64;
    Metrics::add(&shared.metrics.points_predicted, n);
    Metrics::add(
        &shared.metrics.predict_nanos,
        started.elapsed().as_nanos() as u64,
    );
    Metrics::bump(&shared.metrics.batch_flights);
    Metrics::add(&shared.metrics.batch_points, n);
    Metrics::bump(&shared.metrics.flight_leaders);

    guard.deliver(responses)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(identity: &str) -> Box<BatchEntry> {
        Box::new(BatchEntry {
            key: 0,
            identity: identity.to_string(),
            machine: MachineConfig::nehalem(),
            stream: None,
        })
    }

    #[test]
    fn a_rider_joining_a_just_opened_batch_never_takes_the_leaders_slot() {
        let queues = BatchQueues::new();
        let Claim::Opened(cell) = queues.claim(7, entry("leader")) else {
            panic!("no batch was open");
        };
        // A rider arriving before the leader reaches its collection
        // window: `deliver` returns entry 0's response to the leader's
        // worker, so the rider must land behind the leader.
        let Claim::Found(found, rider) = queues.claim(7, entry("rider")) else {
            panic!("the leader's batch is open");
        };
        assert!(Arc::ptr_eq(&cell, &found));
        assert!(ride(&found, rider, &mut None, 64).is_ok());
        let state = cell.state.lock().unwrap();
        let order: Vec<&str> = state.entries.iter().map(|e| e.identity.as_str()).collect();
        assert_eq!(order, ["leader", "rider"]);
    }
}

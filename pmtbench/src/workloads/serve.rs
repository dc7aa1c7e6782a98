//! `serve_predict` and `serve_mixed`: an in-process daemon
//! (`Server::start` with the default `ServeConfig`, port 0) with astar
//! and mcf registered, driven over real sockets by closed-loop callers,
//! each waiting for its reply. One operation is one request.
//!
//! * `serve_predict`: one caller; every request is a distinct machine of
//!   the `big` space, alternating between the two profiles, so the
//!   response cache never hits.
//! * `serve_mixed`: two callers in lockstep rounds. The interactive
//!   caller predicts from a pool larger than the response cache; the
//!   batch caller sends new `thesis` explores and, spread evenly over the
//!   phase, a fixed number of profile uploads. Every tenth round both
//!   send the same new explore at once, so they coalesce. The fixed round
//!   plan keeps the traffic mix the same whatever the host's speed.
//!
//! Only one caller ever predicts: concurrent predicts against one
//! profile can be answered with each other's bytes (see `README.md`).
//!
//! Replies are kept as FNV-1a digests of their bodies, so the memory the
//! benchmark holds does not grow with the rate it measures.

use super::{fold_self_frac, leak, profile_cli, MemoTally};
use crate::client::{self, Reply};
use crate::inputs::{self, MixedPlan, PredictStream, Uploads};
use crate::{stats, Bench, Checked, Ctx, Layers, Measured};
use pmt_api::{
    fnv1a, ExploreRequest, MetricsResponse, PredictRequest, RegisterProfileRequest,
    RegisterProfileResponse,
};
use pmt_core::{BatchPredictor, IntervalModel, ModelConfig, PreparedProfile};
use pmt_dse::LazyDesignSpace;
use pmt_power::PowerModel;
use pmt_serve::{engine, http, Registry, ServeConfig, Server};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

const PROFILES: [&str; 2] = ["astar", "mcf"];
/// Suite members uploads are renamed copies of: fixed, so set-up time
/// does not depend on the seed (the seed picks each upload's base).
const UPLOAD_BASES: [&str; 2] = ["gcc", "bzip2"];
/// `serve_mixed`'s predicting caller; the other (the batch caller)
/// explores and uploads.
const INTERACTIVE: usize = 0;

/// What one request was, so its reply can be checked and replayed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Op {
    /// `serve_predict` stream request `i`.
    Stream(u64),
    /// Pool predict.
    Pool(usize),
    /// The batch caller's explore `k`.
    Explore(u64),
    /// Synchronized explore round.
    Round(u64),
    /// Profile upload `k`.
    Upload(u64),
}

impl Op {
    fn span(self) -> &'static str {
        match self {
            Op::Stream(_) | Op::Pool(_) => "client.predict",
            Op::Explore(_) | Op::Round(_) => "client.explore",
            Op::Upload(_) => "client.register",
        }
    }

    fn target(self) -> &'static str {
        match self {
            Op::Stream(_) | Op::Pool(_) => "/v1/predict",
            Op::Explore(_) | Op::Round(_) => "/v1/explore",
            Op::Upload(_) => "/v1/profiles",
        }
    }
}

struct Record {
    op: Op,
    phase: u32,
    /// `f64::INFINITY` for a failed request.
    latency_ms: f64,
    ended: Instant,
    status: u16,
    /// FNV-1a of the reply body.
    digest: u64,
    /// The body itself, kept only for uploads (checked field by field)
    /// and failed requests (reported on stderr).
    reply: Option<String>,
}

impl Record {
    fn new(op: Op, phase: u32, (latency_ms, status, body): (f64, u16, String)) -> Record {
        let keep = status != 200 || matches!(op, Op::Upload(_));
        Record {
            op,
            phase,
            latency_ms,
            ended: Instant::now(),
            status,
            digest: fnv1a(&[&body]),
            reply: keep.then_some(body),
        }
    }
}

pub struct Serve<const MIXED: bool> {
    server: Server,
    registry: Arc<Registry>,
    /// The two registered profiles, prepared independently of the
    /// daemon's registry — the reference path replies are checked on.
    local: [PreparedProfile<'static>; 2],
    space: Box<dyn LazyDesignSpace + Send + Sync>,
    stream: PredictStream,
    plan: Option<MixedPlan>,
    uploads: Option<Uploads>,
    next_request: u64,
    next_op: [u64; 2],
    next_round: u64,
    next_upload: u64,
    phase: u32,
    records: Vec<Record>,
    /// The daemon's `/metrics` counters over the last phase.
    counters: Counters,
}

/// The `/metrics` counters the traced run reads.
#[derive(Debug, Default)]
struct Counters {
    predict_seconds: f64,
    points_predicted: u64,
    batch_flights: u64,
    batch_points: u64,
    batched_requests: u64,
    predict_requests: u64,
    explore_requests: u64,
    response_cache_hits: u64,
    coalesced_requests: u64,
    memo_hits: u64,
    memo_misses: u64,
}

impl Counters {
    /// The daemon's counters since it started.
    fn read(addr: SocketAddr) -> Result<Counters, String> {
        let reply = client::call(addr, "GET", "/metrics", "")?;
        if reply.status != 200 {
            return Err(format!("GET /metrics answered {}", reply.status));
        }
        let m: MetricsResponse =
            serde_json::from_str(&reply.body).map_err(|e| format!("parsing /metrics: {e}"))?;
        let memo = &m.memo;
        Ok(Counters {
            predict_seconds: m.predict_seconds,
            points_predicted: m.points_predicted,
            batch_flights: m.batch_flights,
            batch_points: m.batch_points,
            batched_requests: m.batched_requests,
            predict_requests: m.predict_requests,
            explore_requests: m.explore_requests,
            response_cache_hits: m.response_cache_hits,
            coalesced_requests: m.coalesced_requests,
            memo_hits: memo.cache_hits + memo.stride_hits + memo.cp_hits + memo.branch_hits,
            memo_misses: memo.cache_misses
                + memo.stride_misses
                + memo.cp_misses
                + memo.branch_misses,
        })
    }

    /// What accrued between `before` and `self`.
    fn since(&self, before: &Counters) -> Counters {
        Counters {
            predict_seconds: self.predict_seconds - before.predict_seconds,
            points_predicted: self.points_predicted - before.points_predicted,
            batch_flights: self.batch_flights - before.batch_flights,
            batch_points: self.batch_points - before.batch_points,
            batched_requests: self.batched_requests - before.batched_requests,
            predict_requests: self.predict_requests - before.predict_requests,
            explore_requests: self.explore_requests - before.explore_requests,
            response_cache_hits: self.response_cache_hits - before.response_cache_hits,
            coalesced_requests: self.coalesced_requests - before.coalesced_requests,
            memo_hits: self.memo_hits - before.memo_hits,
            memo_misses: self.memo_misses - before.memo_misses,
        }
    }
}

/// `serve_mixed`'s round plan (see `mixed_caller`).
const PREDICTS_PER_ROUND: usize = 16;
const COALESCE_EVERY: u64 = 10;

/// State the callers of one phase share.
struct Phase {
    started: Instant,
    seconds: f64,
    barrier: Barrier,
    stop: AtomicBool,
    uploads_claimed: AtomicU64,
    rounds: AtomicU64,
}

fn send(ctx: &Ctx, addr: SocketAddr, op: Op, id: u64, body: &str) -> (f64, u16, String) {
    let reply = {
        let _span = ctx.tracer.span(op.span(), id);
        client::call(addr, "POST", op.target(), body)
    };
    match reply {
        Ok(Reply {
            status: 200,
            body,
            latency,
        }) => (latency.as_secs_f64() * 1e3, 200, body),
        Ok(Reply { status, body, .. }) => (f64::INFINITY, status, body),
        Err(e) => (f64::INFINITY, 0, e),
    }
}

impl<const MIXED: bool> Serve<MIXED> {
    /// Drive the daemon for `seconds`; returns every latency, the failed
    /// count and the wall time.
    fn run_phase(&mut self, ctx: &Ctx, seconds: f64) -> (Vec<f64>, u64, f64) {
        let addr = self.server.addr();
        let phase = Phase {
            started: Instant::now(),
            seconds,
            barrier: Barrier::new(2),
            stop: AtomicBool::new(false),
            uploads_claimed: AtomicU64::new(0),
            rounds: AtomicU64::new(0),
        };
        let this = &*self;
        let callers = if MIXED { 2 } else { 1 };
        let per_caller: Vec<(Vec<Record>, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..callers)
                .map(|caller| {
                    let phase = &phase;
                    scope.spawn(move || {
                        if MIXED {
                            this.mixed_caller(ctx, addr, caller, phase)
                        } else {
                            this.predict_caller(ctx, addr, phase)
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("caller thread panicked"))
                .collect()
        });
        let elapsed_s = phase.started.elapsed().as_secs_f64();
        let mut latencies = Vec::new();
        let mut failed = 0;
        for (caller, (records, drawn)) in per_caller.into_iter().enumerate() {
            if MIXED {
                self.next_op[caller] += drawn;
            } else {
                self.next_request += drawn;
            }
            for r in records {
                failed += u64::from(r.status != 200);
                latencies.push(r.latency_ms);
                self.records.push(r);
            }
        }
        self.next_round += phase.rounds.load(Ordering::SeqCst);
        self.next_upload += phase.uploads_claimed.load(Ordering::SeqCst);
        (latencies, failed, elapsed_s)
    }

    fn predict(&self, op: Op) -> (usize, PredictRequest) {
        match op {
            Op::Stream(i) => self.stream.request(self.space.as_ref(), i),
            Op::Pool(i) => {
                let (slot, req, _) = &self.plan.as_ref().expect("mixed plan").predicts[i];
                (*slot, req.clone())
            }
            other => unreachable!("{other:?} is not a predict"),
        }
    }

    fn explore(&self, op: Op) -> (usize, ExploreRequest) {
        let plan = self.plan.as_ref().expect("mixed plan");
        match op {
            Op::Explore(k) => {
                let (slot, req, _) = plan.explore(k, false);
                (slot, req)
            }
            Op::Round(r) => {
                let (slot, req, _) = plan.explore(r, true);
                (slot, req)
            }
            other => unreachable!("{other:?} is not an explore"),
        }
    }

    /// The closed loop of `serve_predict`.
    fn predict_caller(&self, ctx: &Ctx, addr: SocketAddr, phase: &Phase) -> (Vec<Record>, u64) {
        let mut records = Vec::new();
        let mut i = self.next_request;
        while phase.started.elapsed().as_secs_f64() < phase.seconds {
            let (_, req) = self.stream.request(self.space.as_ref(), i);
            let reply = send(ctx, addr, Op::Stream(i), i, &inputs::body(&req));
            records.push(Record::new(Op::Stream(i), self.phase, reply));
            i += 1;
            ctx.calib.tick();
        }
        (records, i - self.next_request)
    }

    /// One caller's closed loop for `serve_mixed`, in rounds both
    /// callers start together (a barrier, where they also decide
    /// together whether time is up). Every `COALESCE_EVERY`-th round both
    /// send the round's explore at once; otherwise the interactive caller
    /// sends `PREDICTS_PER_ROUND` pool predicts and the batch caller one
    /// new explore, or an upload when one is due (`claim_upload`).
    /// Returns the records and the predicts or explores drawn.
    fn mixed_caller(
        &self,
        ctx: &Ctx,
        addr: SocketAddr,
        caller: usize,
        phase: &Phase,
    ) -> (Vec<Record>, u64) {
        let plan = self.plan.as_ref().expect("mixed plan");
        let uploads = self.uploads.as_ref().expect("mixed uploads");
        let mut records = Vec::new();
        let mut drawn = 0;
        for local in 0.. {
            if phase.barrier.wait().is_leader() {
                ctx.calib.tick();
                let over = phase.started.elapsed().as_secs_f64() >= phase.seconds;
                phase.stop.store(over, Ordering::SeqCst);
            }
            phase.barrier.wait();
            if phase.stop.load(Ordering::SeqCst) {
                break;
            }
            let round = self.next_round + local;
            let mut ops = Vec::new();
            if round.is_multiple_of(COALESCE_EVERY) {
                ops.push(Op::Round(round));
            } else if caller == INTERACTIVE {
                for _ in 0..PREDICTS_PER_ROUND {
                    ops.push(Op::Pool(plan.predict(self.next_op[caller] + drawn)));
                    drawn += 1;
                }
            } else if let Some(u) = self.claim_upload(ctx, phase) {
                ops.push(Op::Upload(self.next_upload + u));
            } else {
                ops.push(Op::Explore(self.next_op[caller] + drawn));
                drawn += 1;
            }
            for op in ops {
                let body = match op {
                    Op::Pool(i) => plan.predicts[i].2.clone(),
                    Op::Explore(k) => plan.explore(k, false).2,
                    Op::Round(r) => plan.explore(r, true).2,
                    Op::Upload(u) => uploads.upload(u).2,
                    Op::Stream(_) => unreachable!("mixed traffic has no stream predicts"),
                };
                let reply = send(ctx, addr, op, round, &body);
                records.push(Record::new(op, self.phase, reply));
            }
            if caller == INTERACTIVE {
                phase.rounds.fetch_add(1, Ordering::SeqCst);
            }
        }
        (records, drawn)
    }

    /// Claim the phase's next upload once it is due: the phase sends
    /// `scale.uploads` of them, the `c`-th after `c / uploads` of its
    /// time, so the count does not depend on the host's speed.
    fn claim_upload(&self, ctx: &Ctx, phase: &Phase) -> Option<u64> {
        let budget = ctx.scale.uploads;
        let elapsed = phase.started.elapsed().as_secs_f64() / phase.seconds;
        phase
            .uploads_claimed
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |c| {
                (c < budget && elapsed * budget as f64 >= c as f64).then_some(c + 1)
            })
            .ok()
    }
}
impl<const MIXED: bool> Bench for Serve<MIXED> {
    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let tracer = ctx.tracer;
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServeConfig::default()
        };
        let registry = Arc::new(Registry::new(config.max_profiles));
        let mut local = Vec::new();
        for (i, name) in PROFILES.into_iter().enumerate() {
            let profile = leak(profile_cli(tracer, name, ctx.scale.instructions, i as u64));
            tracer
                .time("serve.register", i as u64, || {
                    registry.register(profile.clone())
                })
                .map_err(|e| e.to_string())?;
            local.push(tracer.time("core.prepare", i as u64, || PreparedProfile::new(profile)));
        }
        let local: [PreparedProfile<'static>; 2] = local.try_into().map_err(|_| "two profiles")?;
        let server = Server::start(config, Arc::clone(&registry))
            .map_err(|e| format!("starting the daemon: {e}"))?;
        let health = client::call(server.addr(), "GET", "/healthz", "")?;
        if health.status != 200 {
            return Err(format!("GET /healthz answered {}", health.status));
        }
        let space = pmt_api::SpaceSpec::named(ctx.scale.predict_space)
            .resolve()
            .map_err(|e| e.to_string())?;
        let (plan, uploads) = if MIXED {
            let bases: Vec<_> = UPLOAD_BASES[..ctx.scale.upload_bases.min(UPLOAD_BASES.len())]
                .iter()
                .enumerate()
                .map(|(i, name)| profile_cli(tracer, name, ctx.scale.instructions, 2 + i as u64))
                .collect();
            let plan = MixedPlan::new(
                ctx.seed,
                PROFILES,
                space.as_ref(),
                ctx.scale.predict_pool,
                ctx.scale.explore_space,
            );
            (Some(plan), Some(Uploads::new(ctx.seed, &bases)))
        } else {
            (None, None)
        };
        Ok(Serve {
            server,
            registry,
            local,
            stream: PredictStream::new(ctx.seed, PROFILES, space.len()),
            space,
            plan,
            uploads,
            next_request: 0,
            next_op: [0; 2],
            next_round: 0,
            next_upload: 0,
            phase: 0,
            records: Vec::new(),
            counters: Counters::default(),
        })
    }

    fn measure(&mut self, ctx: &Ctx, seconds: f64) -> Result<Measured, String> {
        let before = Counters::read(self.server.addr())?;
        let mark = ctx.calib.mark();
        let (latencies, failed, elapsed_s) = self.run_phase(ctx, seconds);
        self.counters = Counters::read(self.server.addr())?.since(&before);
        let scaled: Vec<f64> = self
            .records
            .iter()
            .filter(|r| r.phase == self.phase)
            .map(|r| ctx.calib.scale_ms(r.latency_ms, r.ended))
            .collect();
        self.phase += 1;
        for r in self.records.iter().filter(|r| r.status != 200).take(3) {
            let excerpt: String = r.reply.iter().flat_map(|b| b.chars()).take(300).collect();
            eprintln!("pmtbench: {:?} failed: status {} {excerpt}", r.op, r.status);
        }
        let attempted = latencies.len() as u64;
        // The rate counts the callers' time, not the calibration's.
        let host_rate = (attempted - failed) as f64 / (elapsed_s - ctx.calib.spent_since(mark));
        Ok(Measured {
            attempted,
            failed,
            rate: host_rate * ctx.calib.slowdown_since(mark),
            p50_ms: stats::quantile(&scaled, 0.50),
            host_rate,
            host_p50_ms: stats::quantile(&latencies, 0.50),
            elapsed_s,
        })
    }

    /// Served bytes must equal the engine's in-process answer on an
    /// independently prepared profile; repeats of one request (cache
    /// hits, coalesced explores) must equal each other; uploads must
    /// echo their name and size. Bytes are compared by digest.
    fn verify(&mut self, ctx: &Ctx) -> Result<Checked, String> {
        let mut checked = Checked::default();
        let mut by_op: BTreeMap<Op, Vec<&Record>> = BTreeMap::new();
        for r in self.records.iter().filter(|r| r.status == 200) {
            by_op.entry(r.op).or_default().push(r);
        }
        for replies in by_op.values() {
            for r in &replies[1..] {
                checked.expect(r.digest == replies[0].digest);
            }
        }
        let predicts: Vec<(&Op, u64)> = by_op
            .iter()
            .filter(|(op, _)| matches!(op, Op::Stream(_) | Op::Pool(_)))
            .map(|(op, r)| (op, r[0].digest))
            .collect();
        let stride = predicts
            .len()
            .div_ceil(ctx.scale.verify_predicts.max(1))
            .max(1);
        for (op, served) in predicts.into_iter().step_by(stride) {
            let (slot, req) = self.predict(*op);
            let expected =
                engine::predict_response(&self.local[slot], &req).map_err(|e| e.to_string())?;
            checked.expect(fnv1a(&[&inputs::body(&expected)]) == served);
        }
        let explores: Vec<(&Op, u64)> = by_op
            .iter()
            .filter(|(op, _)| matches!(op, Op::Explore(_) | Op::Round(_)))
            .map(|(op, r)| (op, r[0].digest))
            .collect();
        let stride = explores
            .len()
            .div_ceil(ctx.scale.verify_explores.max(1))
            .max(1);
        for (op, served) in explores.into_iter().step_by(stride) {
            let (slot, req) = self.explore(*op);
            let expected =
                engine::explore_response(&self.local[slot], &req).map_err(|e| e.to_string())?;
            checked.expect(fnv1a(&[&inputs::body(&expected)]) == served);
        }
        for (op, replies) in &by_op {
            let Op::Upload(k) = op else { continue };
            let (name, instructions, _) = self.uploads.as_ref().expect("mixed uploads").upload(*k);
            let reply: Option<RegisterProfileResponse> = replies[0]
                .reply
                .as_deref()
                .and_then(|body| serde_json::from_str(body).ok());
            checked.expect(reply.is_some_and(|r| {
                r.name == name && !r.replaced && r.total_instructions == instructions
            }));
        }
        Ok(checked)
    }

    fn layers(&mut self, ctx: &Ctx, layers: &mut Layers) -> Result<Checked, String> {
        let tracer = ctx.tracer;
        let traced: Vec<&Record> = self
            .records
            .iter()
            .filter(|r| r.phase + 1 == self.phase)
            .collect();
        let latencies = |spans: &[&str]| -> Vec<f64> {
            traced
                .iter()
                .filter(|r| spans.contains(&r.op.span()))
                .map(|r| r.latency_ms)
                .collect()
        };
        let predict_ms = latencies(&["client.predict"]);
        let explore_ms = latencies(&["client.explore"]);
        let register_ms = latencies(&["client.register"]);
        layers.set("client.predict_p50_ms", stats::quantile(&predict_ms, 0.50));
        layers.set("client.predict_p99_ms", stats::quantile(&predict_ms, 0.99));
        layers.set("client.explore_p50_ms", stats::quantile(&explore_ms, 0.50));
        layers.set("client.explore_p90_ms", stats::quantile(&explore_ms, 0.90));
        layers.set(
            "client.register_p50_ms",
            stats::quantile(&register_ms, 0.50),
        );

        // The daemons' own counters over the traced phase.
        let c = &self.counters;
        let ratio = |num: u64, den: u64| {
            if den > 0 {
                num as f64 / den as f64
            } else {
                0.0
            }
        };
        let compute_us = if c.points_predicted > 0 {
            c.predict_seconds * 1e6 / c.points_predicted as f64
        } else {
            0.0
        };
        layers.set("serve.compute_us", compute_us);
        let predict_p50_us = stats::quantile(&predict_ms, 0.50) * 1e3;
        layers.set(
            "serve.overhead_us",
            if predict_ms.is_empty() {
                0.0
            } else {
                predict_p50_us - compute_us
            },
        );
        layers.set("serve.flights", c.batch_flights as f64);
        layers.set(
            "serve.batch_mean_size",
            ratio(c.batch_points, c.batch_flights),
        );
        layers.set(
            "serve.batched_frac",
            ratio(c.batched_requests, c.predict_requests),
        );
        layers.set(
            "serve.cache_hit_ratio",
            ratio(
                c.response_cache_hits,
                c.predict_requests + c.explore_requests,
            ),
        );
        layers.set(
            "serve.coalesced_frac",
            ratio(c.coalesced_requests, c.explore_requests),
        );
        layers.set(
            "core.memo_hit_ratio",
            ratio(c.memo_hits, c.memo_hits + c.memo_misses),
        );

        // Replay sampled predicts of the traced phase in process, along
        // the path the daemon takes under the default batch window: every
        // predict, even a solo one, is a flight on a lane thread of its
        // own, with a fresh `BatchPredictor`. The scalar `core.point` is
        // the solo-path reference (batching off). Both must give the
        // served bytes.
        let mut checked = Checked::default();
        let replays: Vec<(Op, u64)> = traced
            .iter()
            .filter(|r| r.status == 200 && r.op.span() == "client.predict")
            .map(|r| (r.op, r.digest))
            .collect();
        let stride = replays.len().div_ceil(ctx.scale.replay.max(1)).max(1);
        let max_body = ServeConfig::default().max_body_bytes;
        for (n, (op, served)) in replays.into_iter().step_by(stride).enumerate() {
            let id = n as u64;
            let raw =
                client::request_bytes("POST", op.target(), &inputs::body(&self.predict(op).1));
            let _replay = tracer.span("replay.predict", id);
            let request = tracer
                .time("serve.read_request", id, || {
                    http::read_request(&mut raw.as_slice(), max_body)
                })
                .map_err(|e| e.to_string())?;
            let text = request.body_utf8().map_err(|e| e.to_string())?;
            let req: PredictRequest = tracer
                .time("api.request_parse", id, || serde_json::from_str(text))
                .map_err(|e| e.to_string())?;
            let registered = tracer
                .time("serve.registry_get", id, || self.registry.get(&req.profile))
                .map_err(|e| e.to_string())?;
            let machine = req.machine.resolve().map_err(|e| e.to_string())?;
            let response = {
                let _flight = tracer.span("serve.flight", id);
                std::thread::scope(|scope| {
                    scope
                        .spawn(|| {
                            let mut predictor = tracer.time("core.batch_new", id, || {
                                BatchPredictor::new(&registered.prepared, &ModelConfig::default())
                            });
                            let summary = {
                                let mut span = tracer.span("core.predict_batch", id);
                                span.count(1);
                                predictor
                                    .predict_tagged(std::iter::once((0, machine.clone())))
                                    .remove(0)
                                    .1
                            };
                            tracer.time("serve.summary_response", id, || {
                                engine::summary_response(&registered.name, &machine, &summary)
                            })
                        })
                        .join()
                        .expect("replay lane thread")
                })
            };
            let body = tracer
                .time("api.response_serialize", id, || {
                    serde_json::to_string(&response)
                })
                .map_err(|e| e.to_string())?;
            let mut wire = Vec::new();
            let reply = http::Response::json(body);
            tracer
                .time("serve.write_to", id, || reply.write_to(&mut wire))
                .map_err(|e| e.to_string())?;
            checked.expect(fnv1a(&[&reply.body]) == served);

            let summary = tracer.time("core.point", id, || {
                IntervalModel::new(&machine).predict_summary(&registered.prepared)
            });
            tracer.time("power.point", id, || {
                std::hint::black_box(PowerModel::new(&machine).power(&summary.activity));
            });
            let solo = engine::summary_response(&registered.name, &machine, &summary);
            checked.expect(fnv1a(&[&inputs::body(&solo)]) == served);
        }

        if MIXED {
            let uploads = self.uploads.as_ref().expect("mixed uploads");
            let replay_registry = Registry::new(ctx.scale.replay);
            let keys: Vec<u64> = traced
                .iter()
                .filter_map(|r| match r.op {
                    Op::Upload(k) => Some(k),
                    _ => None,
                })
                .take(4)
                .collect();
            for k in keys {
                let (_, _, body) = uploads.upload(k);
                let req: RegisterProfileRequest = tracer
                    .time("api.profile_parse", k, || serde_json::from_str(&body))
                    .map_err(|e| e.to_string())?;
                tracer.time("core.prepare", k, || {
                    std::hint::black_box(PreparedProfile::new(&req.profile));
                });
                tracer
                    .time("serve.register", k, || {
                        replay_registry.register(req.profile.clone())
                    })
                    .map_err(|e| e.to_string())?;
                tracer.time("api.profile_serialize", k, || {
                    std::hint::black_box(inputs::body(&req.profile));
                });
            }
            let (slot, req) = self.explore(Op::Explore(0));
            for id in 0..2 {
                tracer
                    .time("dse.explore", id, || {
                        engine::explore_response(&self.local[slot], &req)
                    })
                    .map_err(|e| e.to_string())?;
            }
            // The fold is the same code on any space; measure its share
            // over enough predict-space points for a steady ratio.
            let count = ctx.scale.fold_probe_points;
            let start = inputs::Rng::new(ctx.seed, 12)
                .below(self.space.len().saturating_sub(count) as u64 + 1);
            let frac = fold_self_frac(
                tracer,
                &self.local[slot],
                &req,
                self.space.as_ref(),
                start as usize,
                count,
                &mut MemoTally::default(),
            );
            layers.set("dse.fold_self_frac", frac);
        }
        Ok(checked)
    }
}

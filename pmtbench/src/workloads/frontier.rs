//! `frontier_sweep`: one astar profile swept with
//! `engine::explore_response` over the 103,680-point `big` space, with
//! the energy objective and a seeded top-K and power budget. One
//! operation is one design point; one call is one sweep.

use super::{fold_self_frac, leak, profile_cli, serial_sweep, MemoTally};
use crate::{inputs, stats, Bench, Checked, Ctx, Layers, Measured};
use pmt_api::{ExploreRequest, ExploreResponse};
use pmt_core::PreparedProfile;
use pmt_dse::LazyDesignSpace;
use pmt_serve::engine;
use std::time::Instant;

pub struct Frontier {
    prepared: PreparedProfile<'static>,
    space: Box<dyn LazyDesignSpace + Send + Sync>,
    request: ExploreRequest,
    /// The first sweep's response, and every sweep's serialized bytes.
    first: Option<ExploreResponse>,
    bodies: Vec<String>,
}

impl Bench for Frontier {
    fn setup(ctx: &Ctx) -> Result<Frontier, String> {
        let request = inputs::frontier_request(ctx.seed, "astar", ctx.scale.frontier_space);
        let profile = leak(profile_cli(ctx.tracer, "astar", ctx.scale.instructions, 0));
        let prepared = ctx
            .tracer
            .time("core.prepare", 0, || PreparedProfile::new(profile));
        let space = request.space.resolve().map_err(|e| e.to_string())?;
        Ok(Frontier {
            prepared,
            space,
            request,
            first: None,
            bodies: Vec::new(),
        })
    }

    fn measure(&mut self, ctx: &Ctx, seconds: f64) -> Result<Measured, String> {
        let points = self.space.len() as f64;
        let mut latencies = Vec::new();
        let mut ends = Vec::new();
        let started = Instant::now();
        // Start another sweep only if it should end by the deadline, give
        // or take half a sweep.
        while latencies.is_empty()
            || started.elapsed().as_secs_f64() + stats::median(&latencies) / 2e3 < seconds
        {
            let id = self.bodies.len() as u64;
            let t = Instant::now();
            let response = ctx.tracer.time("dse.explore", id, || {
                engine::explore_response(&self.prepared, &self.request)
            });
            latencies.push(t.elapsed().as_secs_f64() * 1e3);
            ends.push(Instant::now());
            let response = response.map_err(|e| e.to_string())?;
            self.bodies
                .push(serde_json::to_string(&response).map_err(|e| e.to_string())?);
            self.first.get_or_insert(response);
            ctx.calib.tick();
        }
        let elapsed_s = started.elapsed().as_secs_f64();
        let scaled: Vec<f64> = latencies
            .iter()
            .zip(ends)
            .map(|(&ms, ended)| ctx.calib.scale_ms(ms, ended))
            .collect();
        let points_per_s = |ms: &[f64]| {
            stats::median(&ms.iter().map(|ms| points / (ms / 1e3)).collect::<Vec<_>>())
        };
        Ok(Measured::pooled(
            (latencies.len() as f64 * points) as u64,
            (points_per_s(&scaled), points_per_s(&latencies)),
            &scaled,
            &latencies,
            elapsed_s,
        ))
    }

    /// Every sweep must return the same bytes, and the parallel batched
    /// sweep must equal a serial fold of the same request.
    fn verify(&mut self, _ctx: &Ctx) -> Result<Checked, String> {
        let mut checked = Checked::default();
        for body in &self.bodies[1..] {
            checked.expect(*body == self.bodies[0]);
        }
        let first = self.first.as_ref().expect("at least one sweep ran");
        let serial = serial_sweep(self.prepared.profile(), &self.request)
            .run_prepared(&self.prepared, self.space.as_ref());
        checked.expect(serial.frontier_ids() == first.summary.frontier_ids());
        checked.expect(
            serial.top.iter().map(|e| e.id).collect::<Vec<_>>()
                == first.summary.top.iter().map(|e| e.id).collect::<Vec<_>>(),
        );
        checked.expect(serial == first.summary);
        Ok(checked)
    }

    fn layers(&mut self, ctx: &Ctx, layers: &mut Layers) -> Result<Checked, String> {
        let mut memo = MemoTally::default();
        let count = ctx.scale.fold_probe_points;
        let start =
            inputs::Rng::new(ctx.seed, 12).below(self.space.len().saturating_sub(count) as u64 + 1);
        let frac = fold_self_frac(
            ctx.tracer,
            &self.prepared,
            &self.request,
            self.space.as_ref(),
            start as usize,
            count,
            &mut memo,
        );
        layers.set("dse.fold_self_frac", frac);
        layers.set("core.memo_hit_ratio", memo.ratio());
        Ok(Checked::default())
    }
}

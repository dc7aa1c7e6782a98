//! `suite_profile`: profile every SPEC stand-in, round-trip the profile
//! through its JSON (as `pmt profile --out` then `--profile` does),
//! prepare it and evaluate the 243-point thesis grid with a
//! `BatchPredictor`. One operation is one profile through that pipeline.

use super::{evaluate_batch, profile_cli, MemoTally};
use crate::{inputs, stats, Bench, Checked, Ctx, Layers, Measured};
use pmt_api::fnv1a;
use pmt_core::{IntervalModel, PreparedProfile};
use pmt_power::PowerModel;
use pmt_profiler::ApplicationProfile;
use pmt_uarch::{DesignSpace, MachineConfig};
use std::time::Instant;

pub struct Suite {
    names: Vec<&'static str>,
    grid: Vec<MachineConfig>,
    /// Per suite member: (JSON digest, grid digest) of every pass.
    digests: Vec<Vec<(u64, u64)>>,
    pass: u64,
    position: usize,
    memo: MemoTally,
}

/// FNV-1a over the grid's (CPI, power) bit patterns.
fn grid_digest(points: &[(f64, f64)]) -> u64 {
    let text: Vec<String> = points
        .iter()
        .map(|(cpi, watts)| format!("{:016x}{:016x}", cpi.to_bits(), watts.to_bits()))
        .collect();
    fnv1a(&[&text.concat()])
}

/// Profiles per second over the members sampled, from each member's
/// median pass: robust to which members a partial pass reached.
fn profiles_per_s(times_ms: &[Vec<f64>]) -> f64 {
    let sampled: Vec<f64> = times_ms
        .iter()
        .filter(|t| !t.is_empty())
        .map(|t| stats::median(t))
        .collect();
    sampled.len() as f64 / (sampled.iter().sum::<f64>() / 1e3)
}

impl Suite {
    /// One profile through the whole pipeline; returns its digests.
    fn pipeline(&mut self, ctx: &Ctx, member: usize) -> Result<(u64, u64), String> {
        let id = member as u64;
        let tracer = ctx.tracer;
        let _span = tracer.span("suite.pipeline", id);
        let profile = profile_cli(tracer, self.names[member], ctx.scale.instructions, id);
        let json = tracer.time("api.profile_serialize", id, || {
            serde_json::to_string(&profile)
        });
        let json = json.map_err(|e| format!("serializing {}: {e}", profile.name))?;
        let parsed: ApplicationProfile = tracer
            .time("api.profile_parse", id, || serde_json::from_str(&json))
            .map_err(|e| format!("parsing {}: {e}", profile.name))?;
        let prepared = tracer.time("core.prepare", id, || PreparedProfile::new(&parsed));
        let machines: Vec<&MachineConfig> = self.grid.iter().collect();
        let points = evaluate_batch(tracer, &prepared, &machines, id, &mut self.memo);
        Ok((fnv1a(&[&json]), grid_digest(&points)))
    }
}

impl Bench for Suite {
    fn setup(ctx: &Ctx) -> Result<Suite, String> {
        let space = DesignSpace::thesis_table_6_3();
        let names: Vec<&'static str> = pmt_workloads::SUITE[..ctx.scale.suite_len].to_vec();
        let mut suite = Suite {
            digests: vec![Vec::new(); names.len()],
            names,
            grid: (0..space.len())
                .map(|i| space.point_at(i).machine)
                .collect(),
            pass: 0,
            position: 0,
            memo: MemoTally::default(),
        };
        // Warm the allocator and caches on the first member; a fixed one,
        // so set-up time does not depend on the seed.
        suite.pipeline(ctx, 0)?;
        Ok(suite)
    }

    fn measure(&mut self, ctx: &Ctx, seconds: f64) -> Result<Measured, String> {
        // Per member: each pass's time and when it ended.
        let mut times: Vec<Vec<(f64, Instant)>> = vec![Vec::new(); self.names.len()];
        let mut calls = 0;
        let started = Instant::now();
        while calls == 0 || started.elapsed().as_secs_f64() < seconds {
            let order = inputs::suite_order(ctx.seed, self.pass, self.names.len());
            let member = order[self.position];
            self.position += 1;
            if self.position == order.len() {
                self.position = 0;
                self.pass += 1;
            }
            let t = Instant::now();
            let digests = self.pipeline(ctx, member)?;
            times[member].push((t.elapsed().as_secs_f64() * 1e3, Instant::now()));
            self.digests[member].push(digests);
            calls += 1;
            ctx.calib.tick();
        }
        let elapsed_s = started.elapsed().as_secs_f64();
        let latencies: Vec<Vec<f64>> = times
            .iter()
            .map(|t| t.iter().map(|c| c.0).collect())
            .collect();
        let scaled: Vec<Vec<f64>> = times
            .iter()
            .map(|t| {
                t.iter()
                    .map(|&(ms, ended)| ctx.calib.scale_ms(ms, ended))
                    .collect()
            })
            .collect();
        Ok(Measured::pooled(
            calls,
            (profiles_per_s(&scaled), profiles_per_s(&latencies)),
            &scaled.concat(),
            &latencies.concat(),
            elapsed_s,
        ))
    }

    /// Every repeat of a member must give the same digests, and for a
    /// seeded sample of members a fresh profile's JSON must re-serialize
    /// to itself and its grid — evaluated point by point through the
    /// scalar `IntervalModel` on the profile that never went through
    /// JSON — must match the batched, round-tripped grid bit for bit.
    fn verify(&mut self, ctx: &Ctx) -> Result<Checked, String> {
        let mut checked = Checked::default();
        for runs in &self.digests {
            for d in runs.iter().skip(1) {
                checked.expect(*d == runs[0]);
            }
        }
        let sampled: Vec<usize> = (0..self.names.len())
            .filter(|&m| !self.digests[m].is_empty())
            .collect();
        let mut rng = inputs::Rng::new(ctx.seed, 11);
        for _ in 0..ctx.scale.suite_checks.min(sampled.len()) {
            let member = sampled[rng.below(sampled.len() as u64) as usize];
            let profile = profile_cli(ctx.tracer, self.names[member], ctx.scale.instructions, 0);
            let json = serde_json::to_string(&profile).map_err(|e| e.to_string())?;
            let parsed: ApplicationProfile =
                serde_json::from_str(&json).map_err(|e| e.to_string())?;
            checked.expect(parsed == profile);
            let prepared = PreparedProfile::new(&profile);
            let points: Vec<(f64, f64)> = self
                .grid
                .iter()
                .map(|m| {
                    let s = IntervalModel::new(m).predict_summary(&prepared);
                    (s.cpi(), PowerModel::new(m).power(&s.activity).total())
                })
                .collect();
            let (json_digest, grid) = self.digests[member][0];
            checked.expect(fnv1a(&[&json]) == json_digest);
            checked.expect(grid_digest(&points) == grid);
        }
        Ok(checked)
    }

    fn layers(&mut self, _ctx: &Ctx, layers: &mut Layers) -> Result<Checked, String> {
        layers.set("core.memo_hit_ratio", self.memo.ratio());
        Ok(Checked::default())
    }
}

//! Seeded input generation. Every input the program receives — suite
//! order, machines, objectives, upload contents and request order — is a
//! pure function of the seed (and of the request's position in its
//! stream), so two runs with one seed send the same bytes.

use pmt_api::{ExploreRequest, MachineSpec, PredictRequest, RegisterProfileRequest, SpaceSpec};
use pmt_dse::LazyDesignSpace;
use pmt_profiler::ApplicationProfile;
use serde::Serialize;

/// SplitMix64: tiny, fast and fully determined by its state.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, separated per `stream` so independent
    /// input streams of one run never share draws.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-enough draw in `0..n` (`n` is tiny next to 2^64).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// One draw keyed by `(seed, stream, index)` — for streams that are
/// consumed concurrently and so cannot share a sequential generator.
pub fn draw(seed: u64, stream: u64, index: u64) -> u64 {
    Rng::new(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15), stream).next_u64()
}

/// `count` distinct indices into `0..n`, without materializing a
/// permutation: `i ↦ (a·i + b) mod n` with `a` coprime to `n`.
#[derive(Clone, Debug)]
pub struct DistinctIndices {
    n: u64,
    a: u64,
    b: u64,
}

impl DistinctIndices {
    pub fn new(seed: u64, stream: u64, n: usize) -> DistinctIndices {
        let n = n as u64;
        let mut rng = Rng::new(seed, stream);
        let a = loop {
            let a = 1 + rng.below(n.max(2) - 1);
            if gcd(a, n) == 1 {
                break a;
            }
        };
        DistinctIndices {
            n,
            a,
            b: rng.below(n),
        }
    }

    /// The `i`-th index; distinct for `i < n`.
    pub fn at(&self, i: u64) -> usize {
        ((self.a as u128 * (i % self.n) as u128 + self.b as u128) % self.n as u128) as usize
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// The order `suite_profile` visits the suite in on pass `pass`.
pub fn suite_order(seed: u64, pass: u64, len: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    Rng::new(seed ^ pass.wrapping_mul(0xA24B_AED4_963E_E407), 1).shuffle(&mut order);
    order
}

/// Post-prediction power budgets a seeded explore may carry.
const POWER_BUDGETS_W: [Option<f64>; 4] = [None, Some(30.0), Some(45.0), Some(60.0)];

/// `frontier_sweep`'s explore: the energy objective (the paper's
/// design-space use), a seeded top-K and power budget.
pub fn frontier_request(seed: u64, profile: &str, space: &str) -> ExploreRequest {
    let mut rng = Rng::new(seed, 2);
    ExploreRequest {
        objective: "energy".to_string(),
        top_k: 5 + rng.below(16) as usize,
        max_power_w: POWER_BUDGETS_W[rng.below(4) as usize],
        ..ExploreRequest::new(profile, SpaceSpec::named(space))
    }
}

/// Objectives the mixed-traffic explores rotate through.
const OBJECTIVES: [&str; 3] = ["energy", "edp", "seconds"];

/// A predict of machine `index` of `space` against `profile`.
pub fn predict_request(profile: &str, space: &dyn LazyDesignSpace, index: usize) -> PredictRequest {
    PredictRequest::new(profile, MachineSpec::inline(space.point_at(index).machine))
}

/// The JSON bytes the benchmark sends for a wire request.
pub fn body<T: Serialize>(request: &T) -> String {
    serde_json::to_string(request).expect("wire types serialize")
}

/// `serve_predict`'s request stream: every request names a machine of
/// the space no other request of the run names, so the response cache
/// never hits.
pub struct PredictStream {
    profiles: [String; 2],
    indices: DistinctIndices,
}

impl PredictStream {
    pub fn new(seed: u64, profiles: [&str; 2], space_len: usize) -> PredictStream {
        PredictStream {
            profiles: profiles.map(str::to_string),
            indices: DistinctIndices::new(seed, 3, space_len),
        }
    }

    /// Request `i` and the profile slot it targets: the stream
    /// alternates between the two profiles.
    pub fn request(&self, space: &dyn LazyDesignSpace, i: u64) -> (usize, PredictRequest) {
        let slot = (i % 2) as usize;
        (
            slot,
            predict_request(&self.profiles[slot], space, self.indices.at(i)),
        )
    }
}

/// A request, the profile slot it targets, and its body.
pub type Planned<T> = (usize, T, String);

/// `serve_mixed`'s inputs: a predict pool larger than the daemon's
/// 64-entry response cache (so it both hits and evicts), explores that
/// are each new (so they compute, or coalesce when both callers send one
/// at once), and profile uploads.
pub struct MixedPlan {
    seed: u64,
    pub predicts: Vec<Planned<PredictRequest>>,
    profiles: [String; 2],
    explore_space: String,
}

impl MixedPlan {
    pub fn new(
        seed: u64,
        profiles: [&str; 2],
        predict_space: &dyn LazyDesignSpace,
        pool: usize,
        explore_space: &str,
    ) -> MixedPlan {
        let indices = DistinctIndices::new(seed, 4, predict_space.len());
        let predicts = (0..pool as u64)
            .map(|i| {
                let slot = (i % 2) as usize;
                let req = predict_request(profiles[slot], predict_space, indices.at(i));
                let body = body(&req);
                (slot, req, body)
            })
            .collect();
        MixedPlan {
            seed,
            predicts,
            profiles: profiles.map(str::to_string),
            explore_space: explore_space.to_string(),
        }
    }

    /// The pool index of the `k`-th predict.
    pub fn predict(&self, k: u64) -> usize {
        draw(self.seed, 5, k) as usize % self.predicts.len()
    }

    /// The `k`-th explore of the batch caller (`synchronized == false`)
    /// or of synchronized round `k`: a seeded objective and a power
    /// budget no other explore of the run uses, so it is never cached.
    pub fn explore(&self, k: u64, synchronized: bool) -> Planned<ExploreRequest> {
        let slot = (k % 2) as usize;
        let r = draw(self.seed, 6 + u64::from(synchronized), k);
        let offset = if synchronized { 0.5 } else { 0.0 };
        let req = ExploreRequest {
            objective: OBJECTIVES[(r % 3) as usize].to_string(),
            top_k: 5,
            max_power_w: Some(20.0 + k as f64 + offset + (r % 1000) as f64 / 4000.0),
            ..ExploreRequest::new(&self.profiles[slot], SpaceSpec::named(&self.explore_space))
        };
        let body = body(&req);
        (slot, req, body)
    }
}

/// Upload bodies with distinct contents: upload `k` is one of the base
/// profiles (picked by seed) renamed `<base>-up<k>`.
pub struct Uploads {
    seed: u64,
    /// Per base: its name, instruction count, and its request JSON with a
    /// placeholder name.
    templates: Vec<(String, u64, String)>,
}

const PLACEHOLDER: &str = "pmtbench-upload-placeholder";

impl Uploads {
    pub fn new(seed: u64, bases: &[ApplicationProfile]) -> Uploads {
        let templates = bases
            .iter()
            .map(|p| {
                let mut renamed = p.clone();
                renamed.name = PLACEHOLDER.to_string();
                let req = RegisterProfileRequest::new(renamed);
                (p.name.clone(), p.total_instructions, body(&req))
            })
            .collect();
        Uploads { seed, templates }
    }

    /// Upload `k`: the registered name, the instruction count the
    /// daemon must echo, and the body.
    pub fn upload(&self, k: u64) -> (String, u64, String) {
        let pick = draw(self.seed, 8, k) as usize % self.templates.len();
        let (base, instructions, json) = &self.templates[pick];
        let name = format!("{base}-up{k}");
        let body = json.replacen(&format!("\"{PLACEHOLDER}\""), &format!("\"{name}\""), 1);
        (name, *instructions, body)
    }
}

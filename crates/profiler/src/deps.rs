//! Dependence-chain profiling (thesis Alg 3.1) and the logarithmic
//! interpolation between profiled ROB sizes (thesis §5.2).

use pmt_trace::MicroOp;
use serde::{Deserialize, Serialize};

/// AP/ABP/CP dependence-chain statistics on an ROB-size grid.
///
/// * **AP** (average path): mean producing-chain depth over all μops,
/// * **ABP** (average branch path): mean chain depth of branch μops,
/// * **CP** (critical path): mean over windows of the longest chain.
///
/// Queries at non-grid sizes use the thesis' per-segment
/// `a·log(ROB) + b` fit (Eqs 5.2–5.4), which Fig 5.3/5.4 shows is accurate
/// to well under 1%.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DependenceProfile {
    rob_sizes: Vec<u32>,
    ap: Vec<f64>,
    abp: Vec<f64>,
    cp: Vec<f64>,
}

impl DependenceProfile {
    /// Profile the chains of a μop buffer at every grid size.
    ///
    /// Windows *step* over the buffer (the thesis' own preference for the
    /// analogous MLP windows, §4.5: stepping and sliding "gave similar
    /// results").
    pub fn profile(uops: &[MicroOp], rob_grid: &[u32]) -> DependenceProfile {
        let mut ap = Vec::with_capacity(rob_grid.len());
        let mut abp = Vec::with_capacity(rob_grid.len());
        let mut cp = Vec::with_capacity(rob_grid.len());
        for &rob in rob_grid {
            let (a, b, c) = chain_stats(uops, rob as usize);
            ap.push(a);
            abp.push(b);
            cp.push(c);
        }
        DependenceProfile {
            rob_sizes: rob_grid.to_vec(),
            ap,
            abp,
            cp,
        }
    }

    /// Merge by instruction-weighted averaging (used to combine
    /// micro-traces into an aggregate profile).
    pub fn weighted_average(profiles: &[(&DependenceProfile, f64)]) -> DependenceProfile {
        assert!(!profiles.is_empty(), "nothing to average");
        let grid = profiles[0].0.rob_sizes.clone();
        let n = grid.len();
        let mut ap = vec![0.0; n];
        let mut abp = vec![0.0; n];
        let mut cp = vec![0.0; n];
        let mut wsum = 0.0;
        for (p, w) in profiles {
            assert_eq!(p.rob_sizes, grid, "mismatched grids");
            for i in 0..n {
                ap[i] += p.ap[i] * w;
                abp[i] += p.abp[i] * w;
                cp[i] += p.cp[i] * w;
            }
            wsum += w;
        }
        if wsum > 0.0 {
            for i in 0..n {
                ap[i] /= wsum;
                abp[i] /= wsum;
                cp[i] /= wsum;
            }
        }
        DependenceProfile {
            rob_sizes: grid,
            ap,
            abp,
            cp,
        }
    }

    /// The profiled grid.
    pub fn grid(&self) -> &[u32] {
        &self.rob_sizes
    }

    /// Average path length at an arbitrary ROB size.
    pub fn ap(&self, rob: u32) -> f64 {
        interp_log(&self.rob_sizes, &self.ap, rob)
    }

    /// Average branch path length at an arbitrary ROB size.
    pub fn abp(&self, rob: u32) -> f64 {
        interp_log(&self.rob_sizes, &self.abp, rob)
    }

    /// Critical path length at an arbitrary ROB size.
    pub fn cp(&self, rob: u32) -> f64 {
        interp_log(&self.rob_sizes, &self.cp, rob)
    }
}

/// Per-segment logarithmic interpolation `y = a·log(x) + b` (Eq 5.2),
/// fitted exactly through the two surrounding grid points. Below the grid
/// — where a log fit can go negative for steeply growing chains — values
/// scale linearly from the first grid point (a chain cannot exceed the
/// window, so results are clamped to `[0, x]`).
fn interp_log(xs: &[u32], ys: &[f64], x: u32) -> f64 {
    debug_assert!(!xs.is_empty());
    let x = x.max(1);
    let clamp = |v: f64| v.clamp(0.0, x as f64);
    if xs.len() == 1 {
        return clamp(ys[0]);
    }
    let seg = match xs.binary_search(&x) {
        Ok(i) => return clamp(ys[i]),
        Err(0) => {
            // Linear scaling below the grid: exact for serial chains
            // (y ∝ window) and clamped for flat ones.
            return clamp(ys[0] * x as f64 / xs[0] as f64).max(ys[0].min(1.0));
        }
        Err(i) if i >= xs.len() => xs.len() - 2,
        Err(i) => i - 1,
    };
    let (x0, x1) = (xs[seg] as f64, xs[seg + 1] as f64);
    let (y0, y1) = (ys[seg], ys[seg + 1]);
    let a = (y1 - y0) / (x1.ln() - x0.ln());
    let b = y0 - a * x0.ln();
    clamp(a * (x as f64).ln() + b)
}

/// Alg 3.1 over stepping windows: returns (AP, ABP, CP).
fn chain_stats(uops: &[MicroOp], rob: usize) -> (f64, f64, f64) {
    if uops.is_empty() || rob == 0 {
        return (0.0, 0.0, 0.0);
    }
    let mut ap_sum = 0.0;
    let mut cp_sum = 0.0;
    let mut abp_sum = 0.0;
    let mut windows = 0u64;
    let mut branch_windows = 0u64;
    let mut depth: Vec<u32> = Vec::with_capacity(rob);

    for window in uops.chunks(rob) {
        // Skip a tiny trailing remnant; it would skew the averages.
        if window.len() < rob.min(8) {
            continue;
        }
        depth.clear();
        let mut max_depth = 0u32;
        let mut sum_depth = 0u64;
        let mut branch_sum = 0u64;
        let mut branch_count = 0u64;
        for (i, u) in window.iter().enumerate() {
            let mut d = 0u32;
            for dist in u.deps() {
                let dist = dist as usize;
                if dist <= i {
                    d = d.max(depth[i - dist]);
                }
            }
            let d = d + 1;
            depth.push(d);
            sum_depth += d as u64;
            max_depth = max_depth.max(d);
            if u.class.is_branch() {
                branch_sum += d as u64;
                branch_count += 1;
            }
        }
        ap_sum += sum_depth as f64 / window.len() as f64;
        cp_sum += max_depth as f64;
        if branch_count > 0 {
            abp_sum += branch_sum as f64 / branch_count as f64;
            branch_windows += 1;
        }
        windows += 1;
    }
    if windows == 0 {
        return (0.0, 0.0, 0.0);
    }
    (
        ap_sum / windows as f64,
        if branch_windows > 0 {
            abp_sum / branch_windows as f64
        } else {
            0.0
        },
        cp_sum / windows as f64,
    )
}

/// The inter-load dependence distribution f(ℓ) of thesis §4.4/Fig 4.5:
/// f(ℓ) is the fraction of loads that are the ℓ-th load on their
/// dependence path.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LoadDependenceDistribution {
    /// f(ℓ) for ℓ = 1.. (index 0 holds ℓ=1).
    fractions: Vec<f64>,
    /// Loads per window observed.
    pub loads_per_window: f64,
}

impl LoadDependenceDistribution {
    /// Maximum tracked path depth.
    pub const MAX_DEPTH: usize = 32;

    /// Compute f(ℓ) over stepping windows of `window` μops.
    pub fn profile(uops: &[MicroOp], window: usize) -> LoadDependenceDistribution {
        let mut counts = vec![0u64; Self::MAX_DEPTH];
        let mut total_loads = 0u64;
        let mut windows = 0u64;
        let mut load_depth: Vec<u32> = Vec::with_capacity(window);
        for w in uops.chunks(window.max(1)) {
            if w.len() < window.min(8) {
                continue;
            }
            load_depth.clear();
            for (i, u) in w.iter().enumerate() {
                let mut d = 0u32;
                for dist in u.deps() {
                    let dist = dist as usize;
                    if dist <= i {
                        d = d.max(load_depth[i - dist]);
                    }
                }
                let is_load = u.class == pmt_trace::UopClass::Load;
                let d = d + is_load as u32;
                load_depth.push(d);
                if is_load {
                    let idx = (d as usize - 1).min(Self::MAX_DEPTH - 1);
                    counts[idx] += 1;
                    total_loads += 1;
                }
            }
            windows += 1;
        }
        let fractions = if total_loads == 0 {
            vec![1.0]
        } else {
            // Trim trailing zeros.
            let last = counts.iter().rposition(|&c| c > 0).unwrap_or(0);
            counts[..=last]
                .iter()
                .map(|&c| c as f64 / total_loads as f64)
                .collect()
        };
        LoadDependenceDistribution {
            fractions,
            loads_per_window: if windows == 0 {
                0.0
            } else {
                total_loads as f64 / windows as f64
            },
        }
    }

    /// Build directly from fractions (tests, synthetic scenarios).
    pub fn from_fractions(fractions: Vec<f64>, loads_per_window: f64) -> Self {
        LoadDependenceDistribution {
            fractions,
            loads_per_window,
        }
    }

    /// f(ℓ); ℓ is 1-based.
    pub fn f(&self, l: usize) -> f64 {
        if l == 0 {
            0.0
        } else {
            self.fractions.get(l - 1).copied().unwrap_or(0.0)
        }
    }

    /// Iterate (ℓ, f(ℓ)) over non-zero entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.fractions
            .iter()
            .enumerate()
            .filter(|(_, &f)| f > 0.0)
            .map(|(i, &f)| (i + 1, f))
    }

    /// Fraction of loads that head a dependence path (ℓ = 1).
    pub fn independent_fraction(&self) -> f64 {
        self.f(1)
    }

    /// Mean ℓ.
    pub fn mean_depth(&self) -> f64 {
        self.iter().map(|(l, f)| l as f64 * f).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmt_trace::UopClass;

    /// The thesis Example 3.1 / Fig 3.2 instruction sequence:
    /// a: R0←…; b: R1←…; c: R2←…; then 3 iterations of {d: LD [R2]→R3;
    /// e: R1+R3→R1; f: R2+4→R2; g: BNE} and h: ST R1→[R0].
    fn example_3_1() -> Vec<MicroOp> {
        let mut v: Vec<MicroOp> = Vec::new();
        // a, b, c: independent movs.
        v.push(MicroOp::compute(UopClass::Move, 0x0, 0));
        v.push(MicroOp::compute(UopClass::Move, 0x4, 0));
        v.push(MicroOp::compute(UopClass::Move, 0x8, 0));
        // Three loop iterations; track producer positions.
        let mut pos_r1 = 1u32; // b produced R1
        let mut pos_r2 = 2u32; // c produced R2
        let mut idx = 3u32;
        for _ in 0..3 {
            // d: LD [R2] → R3 (depends on R2 producer).
            v.push(MicroOp::load(0xc, 0, 0xf0).with_dep1(idx - pos_r2));
            let pos_r3 = idx;
            idx += 1;
            // e: ADD R1,R3 → R1.
            v.push(
                MicroOp::compute(UopClass::IntAlu, 0x10, 0)
                    .with_dep1(idx - pos_r1)
                    .with_dep2(idx - pos_r3),
            );
            pos_r1 = idx;
            idx += 1;
            // f: ADD R2,4 → R2.
            v.push(MicroOp::compute(UopClass::IntAlu, 0x14, 0).with_dep1(idx - pos_r2));
            pos_r2 = idx;
            idx += 1;
            // g: BNE R2.
            v.push(MicroOp::branch(0x18, 0, true).with_dep1(idx - pos_r2));
            idx += 1;
        }
        // h: ST R1 → [R0].
        v.push(
            MicroOp::store(0x1c, 0, 0xfc)
                .with_dep1(idx - pos_r1)
                .with_dep2(idx), // R0 producer is position 0 → distance idx-0
        );
        v
    }

    #[test]
    fn example_3_1_first_window_matches_thesis() {
        // Thesis Fig 3.3: for the first 8-instruction ROB, AP = 2,
        // ABP = 3, CP = 3.
        let uops = example_3_1();
        let first8 = &uops[..8];
        let p = DependenceProfile::profile(first8, &[8]);
        assert!((p.ap(8) - 2.0).abs() < 1e-9, "AP = {}", p.ap(8));
        assert!((p.abp(8) - 3.0).abs() < 1e-9, "ABP = {}", p.abp(8));
        assert!((p.cp(8) - 3.0).abs() < 1e-9, "CP = {}", p.cp(8));
    }

    #[test]
    fn example_3_1_critical_path_of_whole_program() {
        // Thesis §3.3: the critical path of the full 16-instruction example
        // is 6 (chain c→d1→e1→e2→e3→h ... executing takes ≥ 6 cycles).
        let uops = example_3_1();
        let p = DependenceProfile::profile(&uops, &[16]);
        assert!((p.cp(16) - 6.0).abs() < 1e-9, "CP = {}", p.cp(16));
    }

    #[test]
    fn independent_stream_has_unit_depths() {
        let uops: Vec<MicroOp> = (0..256)
            .map(|i| MicroOp::compute(UopClass::IntAlu, i * 4, 0))
            .collect();
        let p = DependenceProfile::profile(&uops, &[16, 64]);
        assert!((p.ap(16) - 1.0).abs() < 1e-9);
        assert!((p.cp(64) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn serial_chain_has_depth_equal_to_window() {
        let uops: Vec<MicroOp> = (0..256)
            .map(|i| {
                let mut u = MicroOp::compute(UopClass::IntAlu, i * 4, 0);
                if i > 0 {
                    u.dep1 = 1;
                }
                u
            })
            .collect();
        let p = DependenceProfile::profile(&uops, &[32]);
        // Every window is one serial chain: CP = 32, AP = mean(1..32).
        assert!((p.cp(32) - 32.0).abs() < 1e-9);
        assert!((p.ap(32) - 16.5).abs() < 1e-9);
    }

    #[test]
    fn log_interpolation_is_exact_on_log_curves() {
        // If the truth is y = 2·ln(x) + 1, interpolation is exact.
        let grid: Vec<u32> = vec![16, 32, 64, 128, 256];
        let ys: Vec<f64> = grid.iter().map(|&x| 2.0 * (x as f64).ln() + 1.0).collect();
        let p = DependenceProfile {
            rob_sizes: grid,
            ap: ys.clone(),
            abp: ys.clone(),
            cp: ys,
        };
        for q in [20u32, 48, 100, 200] {
            let expect = 2.0 * (q as f64).ln() + 1.0;
            assert!((p.ap(q) - expect).abs() < 1e-9, "at {q}");
        }
        // Below the grid, values scale linearly from the first point
        // (clamped into [0, x]).
        let expect8 = (2.0 * 16f64.ln() + 1.0) * 8.0 / 16.0;
        assert!((p.ap(8) - expect8).abs() < 1e-9, "{} vs {expect8}", p.ap(8));
    }

    #[test]
    fn weighted_average_blends() {
        let grid = vec![16u32];
        let a = DependenceProfile {
            rob_sizes: grid.clone(),
            ap: vec![1.0],
            abp: vec![1.0],
            cp: vec![1.0],
        };
        let b = DependenceProfile {
            rob_sizes: grid,
            ap: vec![3.0],
            abp: vec![3.0],
            cp: vec![3.0],
        };
        let avg = DependenceProfile::weighted_average(&[(&a, 1.0), (&b, 3.0)]);
        assert!((avg.ap(16) - 2.5).abs() < 1e-9);
    }

    #[test]
    fn load_dependence_distribution_fig_4_5() {
        // Reconstruct thesis Fig 4.5: 7 loads; two heads (ℓ=1), three at
        // ℓ=2, two at ℓ=3 → f = [2/7, 3/7, 2/7].
        // Layout (oldest first): L1, L2(dep L1), L3(dep L1), L4(dep L2),
        // L5, L6(dep L5), L7(dep L6).
        let mut v: Vec<MicroOp> = Vec::new();
        let load = |deps: Option<u32>, idx: u32| {
            let mut u = MicroOp::load(idx as u64 * 4, 0, 0x100 + idx as u64 * 8);
            if let Some(d) = deps {
                u.dep1 = d;
            }
            u
        };
        v.push(load(None, 0)); // L1 @0
        v.push(load(Some(1), 1)); // L2 dep L1
        v.push(load(Some(2), 2)); // L3 dep L1
        v.push(load(Some(2), 3)); // L4 dep L2
        v.push(load(None, 4)); // L5
        v.push(load(Some(1), 5)); // L6 dep L5
        v.push(load(Some(1), 6)); // L7 dep L6
                                  // Pad to a 16-μop window with independent ALU ops.
        for i in 7..16 {
            v.push(MicroOp::compute(UopClass::IntAlu, i * 4, 0));
        }
        let d = LoadDependenceDistribution::profile(&v, 16);
        assert!((d.f(1) - 2.0 / 7.0).abs() < 1e-9);
        assert!((d.f(2) - 3.0 / 7.0).abs() < 1e-9);
        assert!((d.f(3) - 2.0 / 7.0).abs() < 1e-9);
        assert!((d.independent_fraction() - 2.0 / 7.0).abs() < 1e-9);
        assert!((d.loads_per_window - 7.0).abs() < 1e-9);
    }

    #[test]
    fn f_sums_to_one() {
        let uops = example_3_1();
        let d = LoadDependenceDistribution::profile(&uops, 16);
        let sum: f64 = d.iter().map(|(_, f)| f).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }
}

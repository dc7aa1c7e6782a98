//! The effective dispatch rate (thesis §3.3–3.4, Eq 3.10):
//!
//! ```text
//! D_eff = min(D, ROB/(lat·CP(ROB)), N/N_p, N·U_i/N_i, N·U_j/(N_j·lat_j))
//! ```

use pmt_trace::UopClass;
use pmt_uarch::{ExecConfig, MachineConfig};
use serde::{Deserialize, Serialize};

/// Which term of Eq 3.10 limits the effective dispatch rate (Fig 3.6).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DispatchLimiter {
    /// The physical dispatch width.
    Width,
    /// Inter-instruction dependences (the critical path).
    Dependences,
    /// Issue-port contention.
    FunctionalPort,
    /// Functional-unit counts (pipelined or not).
    FunctionalUnit,
}

impl DispatchLimiter {
    /// Display label matching Fig 3.6.
    pub fn label(self) -> &'static str {
        match self {
            DispatchLimiter::Width => "Dispatch",
            DispatchLimiter::Dependences => "Dependences",
            DispatchLimiter::FunctionalPort => "Functional port",
            DispatchLimiter::FunctionalUnit => "Functional unit",
        }
    }
}

/// The four candidate rates of Eq 3.10 and the resulting minimum.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DispatchBreakdown {
    /// The physical dispatch width `D`.
    pub width_limit: f64,
    /// `ROB / (lat · CP(ROB))` — Little's-law ILP limit (Eq 3.7).
    pub dependence_limit: f64,
    /// `N / max_p activity(p)` — issue-port limit.
    pub port_limit: f64,
    /// `min_i N·U_i/N_i` over pipelined units and
    /// `min_j N·U_j/(N_j·lat_j)` over non-pipelined units.
    pub unit_limit: f64,
    /// The effective dispatch rate (the minimum of the above).
    pub effective: f64,
    /// Which term is binding.
    pub limiter: DispatchLimiter,
}

/// Compute the effective dispatch rate for a window.
///
/// * `class_counts` — μop counts per class in the window (`N_i`),
/// * `critical_path` — `CP(ROB)` from the dependence profile,
/// * `avg_latency` — the average μop latency `lat` (including short L1/L2
///   load hits, thesis §3.3).
///
/// The port and unit terms read only `class_counts` and `machine.exec`;
/// a batched sweep keeps them per window and combines them with the
/// width and dependence terms through the same code, so both give the
/// same bits.
pub fn effective_dispatch_rate(
    machine: &MachineConfig,
    class_counts: &[f64; UopClass::COUNT],
    critical_path: f64,
    avg_latency: f64,
) -> DispatchBreakdown {
    ExecLimits::new(&machine.exec, class_counts).dispatch_rate(machine, critical_path, avg_latency)
}

/// The terms of Eq 3.10 fixed by a window's class counts and the issue
/// stage alone: the port term and the functional-unit terms.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct ExecLimits {
    /// `N / max_p activity(p)` — issue-port limit.
    port_limit: f64,
    /// `min_i N·U_i/N_i` over pipelined units and
    /// `min_j N·U_j/(N_j·lat_j)` over non-pipelined units.
    unit_limit: f64,
}

impl ExecLimits {
    /// The port limit (the greedy schedule of §3.4) and the unit limits
    /// of a window with per-class μop counts `class_counts` on `exec`.
    pub(crate) fn new(exec: &ExecConfig, class_counts: &[f64; UopClass::COUNT]) -> ExecLimits {
        let n: f64 = class_counts.iter().sum();

        // Term 3: issue ports via the greedy schedule of §3.4.
        let activity = exec.ports.schedule_activity(class_counts);
        let max_activity = activity[..exec.ports.port_count() as usize]
            .iter()
            .cloned()
            .fold(0.0f64, f64::max);
        let port_limit = if max_activity > 0.0 {
            n / max_activity
        } else {
            f64::INFINITY
        };

        // Terms 4+5: functional units.
        let mut unit_limit = f64::INFINITY;
        for class in UopClass::ALL {
            let count = class_counts[class.index()];
            if count <= 0.0 {
                continue;
            }
            let res = exec.resources(class);
            let lim = if res.pipelined {
                n * res.units as f64 / count
            } else {
                n * res.units as f64 / (count * res.latency as f64)
            };
            unit_limit = unit_limit.min(lim);
        }

        ExecLimits {
            port_limit,
            unit_limit,
        }
    }

    /// Eq 3.10 on `machine`'s core: these limits combined with the
    /// width and the dependence term `ROB/(lat·CP(ROB))`.
    pub(crate) fn dispatch_rate(
        self,
        machine: &MachineConfig,
        critical_path: f64,
        avg_latency: f64,
    ) -> DispatchBreakdown {
        let ExecLimits {
            port_limit,
            unit_limit,
        } = self;
        let d = machine.core.dispatch_width as f64;
        let rob = machine.core.rob_size as f64;

        // Term 2: dependences (Eq 3.7).
        let dependence_limit = if critical_path > 0.0 && avg_latency > 0.0 {
            rob / (avg_latency * critical_path)
        } else {
            f64::INFINITY
        };

        let mut effective = d;
        let mut limiter = DispatchLimiter::Width;
        for (value, kind) in [
            (dependence_limit, DispatchLimiter::Dependences),
            (port_limit, DispatchLimiter::FunctionalPort),
            (unit_limit, DispatchLimiter::FunctionalUnit),
        ] {
            if value < effective {
                effective = value;
                limiter = kind;
            }
        }

        DispatchBreakdown {
            width_limit: d,
            dependence_limit,
            port_limit,
            unit_limit,
            effective: effective.max(1e-6),
            limiter,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmt_uarch::MachineConfig;

    fn counts(pairs: &[(UopClass, f64)]) -> [f64; UopClass::COUNT] {
        let mut c = [0.0; UopClass::COUNT];
        for &(class, n) in pairs {
            c[class.index()] = n;
        }
        c
    }

    /// Thesis Eq 3.8: ROB 16, unit latency, CP 6 → D_eff = 2.67.
    #[test]
    fn thesis_eq_3_8() {
        let mut m = MachineConfig::nehalem();
        m.core.rob_size = 16;
        // All-ALU window: ports/units do not bind.
        let c = counts(&[(UopClass::IntAlu, 16.0)]);
        let b = effective_dispatch_rate(&m, &c, 6.0, 1.0);
        assert!((b.dependence_limit - 16.0 / 6.0).abs() < 1e-9);
        assert!((b.effective - 16.0 / 6.0).abs() < 1e-9);
        assert_eq!(b.limiter, DispatchLimiter::Dependences);
    }

    /// Thesis Eq 3.11 (Table 3.1 left mix): 100 μops — 40 loads, 20
    /// stores, 20 ALU, 10 FP multiply, 10 branches; ROB 64, CP 8,
    /// lat 2 → D_eff = 2.5, port limited by the load port.
    #[test]
    fn thesis_eq_3_11() {
        let mut m = MachineConfig::nehalem();
        m.core.rob_size = 64;
        let c = counts(&[
            (UopClass::Load, 40.0),
            (UopClass::Store, 20.0),
            (UopClass::IntAlu, 20.0),
            (UopClass::FpMul, 10.0),
            (UopClass::Branch, 10.0),
        ]);
        let b = effective_dispatch_rate(&m, &c, 8.0, 2.0);
        assert!((b.dependence_limit - 4.0).abs() < 1e-9);
        assert!((b.port_limit - 2.5).abs() < 1e-9, "{}", b.port_limit);
        assert!((b.unit_limit - 2.5).abs() < 1e-9, "{}", b.unit_limit);
        assert!((b.effective - 2.5).abs() < 1e-9);
    }

    /// Thesis Eq 3.12 (Table 3.1 right mix): replacing the FP multiplies
    /// with 10 non-pipelined 5-cycle divides lowers D_eff to 2.
    #[test]
    fn thesis_eq_3_12() {
        let mut m = MachineConfig::nehalem();
        m.core.rob_size = 64;
        // Configure a 5-cycle non-pipelined divider as in the example.
        use pmt_uarch::{ExecConfig, OpResources, PortMap, PortRoute};
        use UopClass::*;
        let ports = PortMap::new(
            6,
            vec![
                (IntAlu, PortRoute::one_of(&[0, 1])),
                (Move, PortRoute::one_of(&[0, 1])),
                (IntMul, PortRoute::only(1)),
                (IntDiv, PortRoute::only(0)),
                (FpAlu, PortRoute::only(1)),
                (FpMul, PortRoute::only(0)),
                (FpDiv, PortRoute::only(0)),
                (Load, PortRoute::only(2)),
                (Store, PortRoute::all_of(3, &[4])),
                (Branch, PortRoute::only(5)),
            ],
        );
        m.exec = ExecConfig::new(
            vec![
                (IntAlu, OpResources::new(1, true, 2)),
                (Move, OpResources::new(1, true, 2)),
                (IntMul, OpResources::new(3, true, 1)),
                (IntDiv, OpResources::new(5, false, 1)),
                (FpAlu, OpResources::new(3, true, 1)),
                (FpMul, OpResources::new(5, true, 1)),
                (FpDiv, OpResources::new(5, false, 1)),
                (Load, OpResources::new(2, true, 1)),
                (Store, OpResources::new(1, true, 1)),
                (Branch, OpResources::new(1, true, 1)),
            ],
            ports,
        );
        let c = counts(&[
            (UopClass::Load, 40.0),
            (UopClass::Store, 20.0),
            (UopClass::IntAlu, 20.0),
            (UopClass::IntDiv, 10.0),
            (UopClass::Branch, 10.0),
        ]);
        let b = effective_dispatch_rate(&m, &c, 8.0, 2.0);
        assert!((b.unit_limit - 2.0).abs() < 1e-9, "{}", b.unit_limit);
        assert!((b.effective - 2.0).abs() < 1e-9);
        assert_eq!(b.limiter, DispatchLimiter::FunctionalUnit);
    }

    #[test]
    fn all_alu_code_is_port_limited_on_nehalem() {
        // Three ALU-capable ports < 4-wide dispatch.
        let m = MachineConfig::nehalem();
        let c = counts(&[(UopClass::IntAlu, 50.0), (UopClass::Move, 50.0)]);
        let b = effective_dispatch_rate(&m, &c, 2.0, 1.0);
        assert_eq!(b.limiter, DispatchLimiter::FunctionalPort);
        assert!((b.effective - 3.0).abs() < 1e-9);
    }

    #[test]
    fn balanced_window_hits_width() {
        let m = MachineConfig::nehalem();
        let c = counts(&[
            (UopClass::IntAlu, 41.0),
            (UopClass::Load, 24.0),
            (UopClass::Store, 10.0),
            (UopClass::Branch, 15.0),
            (UopClass::FpAlu, 10.0),
        ]);
        let b = effective_dispatch_rate(&m, &c, 2.0, 1.0);
        assert_eq!(b.limiter, DispatchLimiter::Width, "{b:?}");
        assert!((b.effective - 4.0).abs() < 1e-9);
    }

    #[test]
    fn empty_window_is_benign() {
        let m = MachineConfig::nehalem();
        let c = [0.0; UopClass::COUNT];
        let b = effective_dispatch_rate(&m, &c, 0.0, 0.0);
        assert!(b.effective > 0.0);
    }
}

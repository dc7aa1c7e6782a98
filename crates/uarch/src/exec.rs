//! Issue-stage resources: ports and functional units (thesis §3.4, Fig 3.5).

use pmt_trace::UopClass;
use serde::{Deserialize, Serialize};

/// Execution resources for one μop class.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct OpResources {
    /// Execution latency in cycles.
    pub latency: u32,
    /// Whether the functional unit is pipelined (a non-pipelined unit
    /// accepts a new μop only every `latency` cycles — thesis Eq 3.10's
    /// `N·U_j/(N_j·lat_j)` term).
    pub pipelined: bool,
    /// Number of functional units of this type, `U_i` in Eq 3.10.
    pub units: u32,
}

impl OpResources {
    /// Convenience constructor.
    pub fn new(latency: u32, pipelined: bool, units: u32) -> OpResources {
        OpResources {
            latency,
            pipelined,
            units,
        }
    }
}

/// How μops of one class reach the functional units.
///
/// A μop picks *one* port out of `any_of` and additionally occupies every
/// port in `also_all_of` (used for stores, which consume both the
/// store-address and store-data ports on Nehalem — thesis §3.4's example
/// counts 20 stores as activity 20 on port 3 *and* port 4).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PortRoute {
    /// Candidate ports; the scheduler balances over these (at most
    /// [`MAX_PORTS`] of them).
    pub any_of: Vec<u8>,
    /// Ports occupied in addition to the chosen one.
    pub also_all_of: Vec<u8>,
}

/// Order-sensitive equality (the scheduler and the simulator read
/// `any_of` in order), written out so that two empty lists never reach
/// `memcmp`. The derived `==` compares each `Vec<u8>` with `memcmp`, and
/// an empty `Vec`'s pointer is dangling (`0x1`): on an AVX-512 host with
/// glibc 2.36, `memcmp` of two such empty slices took ~130 ns against
/// 2.6 ns for two 1-byte heap slices. Nine of Nehalem's ten routes have
/// an empty `also_all_of`, so one derived `ExecConfig ==` cost
/// 1.2–1.5 µs, paid twice per design point of a sweep.
impl PartialEq for PortRoute {
    fn eq(&self, other: &PortRoute) -> bool {
        fn same(a: &[u8], b: &[u8]) -> bool {
            a.len() == b.len() && (a.is_empty() || a == b)
        }
        same(&self.any_of, &other.any_of) && same(&self.also_all_of, &other.also_all_of)
    }
}

impl PortRoute {
    /// Route choosing one of the given ports.
    pub fn one_of(ports: &[u8]) -> PortRoute {
        PortRoute {
            any_of: ports.to_vec(),
            also_all_of: Vec::new(),
        }
    }

    /// Route pinned to a single port.
    pub fn only(port: u8) -> PortRoute {
        Self::one_of(&[port])
    }

    /// Route occupying a fixed port plus companions.
    pub fn all_of(primary: u8, companions: &[u8]) -> PortRoute {
        PortRoute {
            any_of: vec![primary],
            also_all_of: companions.to_vec(),
        }
    }
}

/// The machine's port map: routes per μop class plus the port count.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PortMap {
    port_count: u8,
    routes: Vec<PortRoute>, // indexed by UopClass::index()
}

impl PortMap {
    /// Build a port map from per-class routes.
    ///
    /// # Panics
    ///
    /// Panics if `routes` does not cover every class, names a port
    /// `>= port_count`, or leaves a class with no candidate port.
    pub fn new(port_count: u8, routes: Vec<(UopClass, PortRoute)>) -> PortMap {
        let mut table: Vec<Option<PortRoute>> = vec![None; UopClass::COUNT];
        for (class, route) in routes {
            assert!(!route.any_of.is_empty(), "class {class} has no port");
            for &p in route.any_of.iter().chain(route.also_all_of.iter()) {
                assert!(p < port_count, "port {p} out of range for {class}");
            }
            table[class.index()] = Some(route);
        }
        let routes = table
            .into_iter()
            .enumerate()
            .map(|(i, r)| r.unwrap_or_else(|| panic!("no route for {}", UopClass::from_index(i))))
            .collect();
        PortMap { port_count, routes }
    }

    /// Number of issue ports, `N_p` candidates in Eq 3.10.
    pub fn port_count(&self) -> u8 {
        self.port_count
    }

    /// Route for one class.
    pub fn route(&self, class: UopClass) -> &PortRoute {
        &self.routes[class.index()]
    }

    /// Greedy issue schedule of thesis §3.4: single-port classes are pinned
    /// first, then multi-port classes are water-filled onto their candidate
    /// ports in least-loaded order. Returns the per-port activity vector:
    /// entry `p` is port `p`'s activity, and every entry at or past
    /// [`port_count`](Self::port_count) is zero.
    ///
    /// `counts` holds per-class μop counts (indexed by `UopClass::index()`).
    /// The schedule works in fixed stack buffers and never allocates: port
    /// numbers are `u8`s, so [`MAX_PORTS`] entries hold every port.
    pub fn schedule_activity(&self, counts: &[f64; UopClass::COUNT]) -> [f64; MAX_PORTS] {
        let mut schedule = [0.0f64; MAX_PORTS];
        let activity = &mut schedule[..self.port_count as usize];
        // Pass 1: classes with a single candidate port.
        for (i, route) in self.routes.iter().enumerate() {
            let n = counts[i];
            if n == 0.0 || route.any_of.len() != 1 {
                continue;
            }
            activity[route.any_of[0] as usize] += n;
            for &p in &route.also_all_of {
                activity[p as usize] += n;
            }
        }
        // Pass 2: multi-port classes, balanced over candidates.
        for (i, route) in self.routes.iter().enumerate() {
            let n = counts[i];
            if n == 0.0 || route.any_of.len() < 2 {
                continue;
            }
            for &p in &route.also_all_of {
                activity[p as usize] += n;
            }
            distribute_balanced(activity, &route.any_of, n);
        }
        schedule
    }
}

/// Size of the schedule's buffers: one entry per possible `u8` port.
pub const MAX_PORTS: usize = 256;

/// Water-fill `amount` across `ports` (at most [`MAX_PORTS`] of them),
/// minimizing the resulting maximum.
fn distribute_balanced(activity: &mut [f64], ports: &[u8], amount: f64) {
    // Sort candidate ports by current load.
    let mut order = [0u8; MAX_PORTS];
    let order = &mut order[..ports.len()];
    order.copy_from_slice(ports);
    order.sort_by(|&a, &b| {
        activity[a as usize]
            .partial_cmp(&activity[b as usize])
            .unwrap()
    });
    let load = |k: usize| activity[order[k] as usize];
    // Find the fill level L such that Σ max(0, L - load_i) = amount.
    let mut remaining = amount;
    let mut level = load(0);
    let mut k = 1; // ports at or below `level`
    while k < order.len() {
        let gap = (load(k) - level) * k as f64;
        if gap >= remaining {
            break;
        }
        remaining -= gap;
        level = load(k);
        k += 1;
    }
    level += remaining / k as f64;
    for &p in &order[..k] {
        let add = level - activity[p as usize];
        if add > 0.0 {
            activity[p as usize] = level;
        } else {
            debug_assert!(add > -1e-9);
        }
    }
}

/// Per-class execution resources plus the port map.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExecConfig {
    resources: Vec<OpResources>, // indexed by UopClass::index()
    /// Port map.
    pub ports: PortMap,
}

impl ExecConfig {
    /// Build from per-class resources.
    ///
    /// # Panics
    ///
    /// Panics if a class is missing.
    pub fn new(resources: Vec<(UopClass, OpResources)>, ports: PortMap) -> ExecConfig {
        let mut table: Vec<Option<OpResources>> = vec![None; UopClass::COUNT];
        for (class, r) in resources {
            table[class.index()] = Some(r);
        }
        let resources = table
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                r.unwrap_or_else(|| panic!("no resources for {}", UopClass::from_index(i)))
            })
            .collect();
        ExecConfig { resources, ports }
    }

    /// Resources for one class.
    pub fn resources(&self, class: UopClass) -> OpResources {
        self.resources[class.index()]
    }

    /// Execution latency of one class (for loads this is the L1 hit
    /// latency; longer cache latencies come from the hierarchy config).
    pub fn latency(&self, class: UopClass) -> u32 {
        self.resources(class).latency
    }

    /// The Nehalem-style issue stage of thesis Fig 3.5: six ports, three
    /// ALU-capable ports, dedicated load / store-address / store-data
    /// ports, one non-pipelined divider.
    pub fn nehalem() -> ExecConfig {
        use UopClass::*;
        let ports = PortMap::new(
            6,
            vec![
                (IntAlu, PortRoute::one_of(&[0, 1, 5])),
                (Move, PortRoute::one_of(&[0, 1, 5])),
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
        ExecConfig::new(
            vec![
                (IntAlu, OpResources::new(1, true, 3)),
                (Move, OpResources::new(1, true, 3)),
                (IntMul, OpResources::new(3, true, 1)),
                (IntDiv, OpResources::new(20, false, 1)),
                (FpAlu, OpResources::new(3, true, 1)),
                (FpMul, OpResources::new(5, true, 1)),
                (FpDiv, OpResources::new(24, false, 1)),
                (Load, OpResources::new(2, true, 1)),
                (Store, OpResources::new(1, true, 1)),
                (Branch, OpResources::new(1, true, 1)),
            ],
            ports,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use UopClass::*;

    /// The example machine of thesis §3.4 (Table 3.1 / Eq 3.11): loads on
    /// port 2, stores on ports 3+4, branches on port 5, FP multiply on
    /// port 0, ALU balanced over ports 0 and 1.
    fn thesis_example_ports() -> PortMap {
        PortMap::new(
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
        )
    }

    #[test]
    fn thesis_schedule_example_matches() {
        // Table 3.1 first mix: 40 loads, 20 stores, 20 ALU, 10 FP multiply,
        // 10 branches → activity [15, 15, 40, 20, 20, 10].
        let ports = thesis_example_ports();
        let mut counts = [0.0; UopClass::COUNT];
        counts[Load.index()] = 40.0;
        counts[Store.index()] = 20.0;
        counts[IntAlu.index()] = 20.0;
        counts[FpMul.index()] = 10.0;
        counts[Branch.index()] = 10.0;
        let activity = ports.schedule_activity(&counts);
        let expected = [15.0, 15.0, 40.0, 20.0, 20.0, 10.0];
        for (a, e) in activity.iter().zip(expected.iter()) {
            assert!((a - e).abs() < 1e-9, "{activity:?} != {expected:?}");
        }
    }

    #[test]
    fn water_filling_balances_three_ports() {
        let mut activity = vec![10.0, 0.0, 4.0];
        distribute_balanced(&mut activity, &[0, 1, 2], 8.0);
        // Fill 1 up to 4 (uses 4), then 1,2 to 6 (uses 4 more). Port 0 stays.
        assert!((activity[0] - 10.0).abs() < 1e-9);
        assert!((activity[1] - 6.0).abs() < 1e-9);
        assert!((activity[2] - 6.0).abs() < 1e-9);
    }

    #[test]
    fn water_filling_overflows_to_common_level() {
        let mut activity = vec![1.0, 2.0];
        distribute_balanced(&mut activity, &[0, 1], 7.0);
        assert!((activity[0] - 5.0).abs() < 1e-9);
        assert!((activity[1] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn nehalem_routes_cover_all_classes() {
        let exec = ExecConfig::nehalem();
        for class in UopClass::ALL {
            assert!(!exec.ports.route(class).any_of.is_empty());
            assert!(exec.resources(class).units >= 1);
        }
        assert!(!exec.resources(IntDiv).pipelined);
        assert!(!exec.resources(FpDiv).pipelined);
    }

    #[test]
    #[should_panic(expected = "no route for")]
    fn missing_route_panics() {
        let _ = PortMap::new(1, vec![(Load, PortRoute::only(0))]);
    }
}

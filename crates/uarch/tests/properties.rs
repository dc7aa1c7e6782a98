//! Property-based tests for the issue-port scheduler, issue-stage
//! equality and the design space.

use pmt_trace::UopClass;
use pmt_uarch::{DesignSpace, ExecConfig, PortMap, PortRoute};
use proptest::prelude::*;

/// Port lists over three ports, empty ones included, so equal and
/// merely reordered lists both come up often.
fn ports(min: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..3, min..4)
}

/// Any route, empty lists included.
fn route(min_any_of: usize) -> impl Strategy<Value = PortRoute> {
    (ports(min_any_of), ports(0)).prop_map(|(any_of, also_all_of)| PortRoute {
        any_of,
        also_all_of,
    })
}

/// `route` with one list reversed (`edit` 1 and 2), its lists swapped
/// (3), replaced by `other` (4), or unchanged (0).
fn edited(route: &PortRoute, edit: u8, other: &PortRoute) -> PortRoute {
    let mut edited = route.clone();
    match edit {
        1 => edited.any_of.reverse(),
        2 => edited.also_all_of.reverse(),
        3 => std::mem::swap(&mut edited.any_of, &mut edited.also_all_of),
        4 => edited = other.clone(),
        _ => {}
    }
    edited
}

/// Nehalem's resources on a three-port map with the given routes.
fn exec_with(routes: &[PortRoute]) -> ExecConfig {
    let nehalem = ExecConfig::nehalem();
    let ports = PortMap::new(3, UopClass::ALL.into_iter().zip(routes.to_vec()).collect());
    ExecConfig::new(
        UopClass::ALL
            .iter()
            .map(|&class| (class, nehalem.resources(class)))
            .collect(),
        ports,
    )
}

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("serializes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn schedule_conserves_work(
        counts in prop::collection::vec(0.0f64..1000.0, UopClass::COUNT)
    ) {
        let exec = ExecConfig::nehalem();
        let mut arr = [0.0; UopClass::COUNT];
        arr.copy_from_slice(&counts);
        let schedule = exec.ports.schedule_activity(&arr);
        let (activity, unused) = schedule.split_at(exec.ports.port_count() as usize);
        prop_assert!(unused.iter().all(|&a| a == 0.0));
        // Every μop lands on at least one port (stores on two).
        let singles: f64 = UopClass::ALL
            .iter()
            .map(|&c| {
                let extra = exec.ports.route(c).also_all_of.len() as f64;
                arr[c.index()] * (1.0 + extra)
            })
            .sum();
        let total: f64 = activity.iter().sum();
        prop_assert!((total - singles).abs() < 1e-6, "{total} vs {singles}");
        prop_assert!(activity.iter().all(|&a| a >= -1e-9));
    }

    /// `PortRoute`'s hand-written equality is exactly equality of its
    /// wire form: order-sensitive, and equal for two empty lists.
    #[test]
    fn route_equality_is_json_equality(
        a in route(0),
        other in route(0),
        edit in 0u8..5,
    ) {
        let b = edited(&a, edit, &other);
        prop_assert_eq!(a == b, json(&a) == json(&b), "{:?} vs {:?}", a, b);
        prop_assert!(a == a.clone());
    }

    /// The same for a whole issue stage, one route edited at a time.
    #[test]
    fn exec_equality_is_json_equality(
        routes in prop::collection::vec(route(1), UopClass::COUNT),
        at in 0..UopClass::COUNT,
        other in route(1),
        edit in 0u8..5,
    ) {
        let mut changed = routes.clone();
        changed[at] = edited(&routes[at], edit, &other);
        if changed[at].any_of.is_empty() {
            // A swap may leave no candidate port, which no map accepts.
            changed[at].any_of.push(0);
        }
        let (a, b) = (exec_with(&routes), exec_with(&changed));
        prop_assert_eq!(a == b, json(&a) == json(&b));
        prop_assert!(a == a.clone());
    }

    #[test]
    fn water_filling_is_no_worse_than_single_port(
        alu in 0.0f64..500.0,
        mov in 0.0f64..500.0
    ) {
        // Balancing multi-port classes never exceeds dumping them on one
        // port.
        let exec = ExecConfig::nehalem();
        let mut arr = [0.0; UopClass::COUNT];
        arr[UopClass::IntAlu.index()] = alu;
        arr[UopClass::Move.index()] = mov;
        let schedule = exec.ports.schedule_activity(&arr);
        let activity = &schedule[..exec.ports.port_count() as usize];
        let max = activity.iter().cloned().fold(0.0f64, f64::max);
        prop_assert!(max <= alu + mov + 1e-9);
        // Perfect balance over three ALU-capable ports is the lower bound.
        prop_assert!(max + 1e-9 >= (alu + mov) / 3.0);
    }
}

#[test]
fn design_space_ids_are_dense_for_all_sizes() {
    for space in [DesignSpace::small(), DesignSpace::thesis_table_6_3()] {
        let pts = space.enumerate();
        assert_eq!(pts.len(), space.len());
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(p.id, i);
            assert!(p.machine.caches.is_inclusive_friendly());
        }
    }
}

//! Property-based tests for the issue-port scheduler and design space.

use pmt_trace::UopClass;
use pmt_uarch::{DesignSpace, ExecConfig};
use proptest::prelude::*;

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

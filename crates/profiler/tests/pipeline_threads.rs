//! A profile joins the thread it starts before returning. This file holds
//! one test so that nothing else changes the process's thread count while
//! it runs.

#[cfg(target_os = "linux")]
#[test]
fn profiling_leaves_no_thread_behind() {
    use pmt_profiler::{Profiler, ProfilerConfig};
    use pmt_workloads::WorkloadSpec;
    use std::time::{Duration, Instant};

    fn threads() -> usize {
        std::fs::read_dir("/proc/self/task").unwrap().count()
    }

    let spec = WorkloadSpec::by_name("astar").unwrap();
    let profiler = Profiler::new(ProfilerConfig::fast_test());
    let before = threads();
    for _ in 0..100 {
        let profile = profiler.profile_named("astar", &mut spec.trace(6_000));
        assert_eq!(profile.total_instructions, 6_000);
    }
    // A joined thread can linger in the task list for a moment after
    // `join` returns; a leaked one would stay.
    let deadline = Instant::now() + Duration::from_secs(10);
    while threads() > before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(threads(), before, "profiles left threads behind");
}

//! Integration: profiles and predictions serialize (the on-disk profile
//! format of the original AIP/PMT tools).

use pmt::prelude::*;

#[test]
fn profile_round_trips_through_json() {
    let spec = WorkloadSpec::by_name("tonto").unwrap();
    let profile =
        Profiler::new(ProfilerConfig::fast_test()).profile_named("tonto", &mut spec.trace(30_000));
    let json = serde_json::to_string(&profile).expect("serialize");
    let back: pmt::profiler::ApplicationProfile = serde_json::from_str(&json).expect("deserialize");
    // Compare via re-serialization: exact f64 round-tripping, tolerant of
    // NaN-free float comparison pitfalls.
    let rejson = serde_json::to_string(&back).expect("re-serialize");
    assert_eq!(json, rejson);
    // The round-tripped profile predicts identically.
    let machine = MachineConfig::nehalem();
    let a = IntervalModel::new(&machine).predict(&profile);
    let b = IntervalModel::new(&machine).predict(&back);
    assert_eq!(a.cycles, b.cycles);
}

#[test]
fn machine_config_round_trips() {
    let m = MachineConfig::nehalem();
    let json = serde_json::to_string(&m).unwrap();
    let back: MachineConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(m, back);
}

/// Every machine in the 243-point space survives the trip — the sweep's
/// save/restore path must cover the whole space, not just the reference.
#[test]
fn whole_design_space_round_trips() {
    for point in DesignSpace::thesis_table_6_3().enumerate() {
        let json = serde_json::to_string(&point.machine).unwrap();
        let back: MachineConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(point.machine, back, "machine {}", point.machine.name);
    }
}

/// Sweep outcomes (the batch API's unit of result) round-trip bit-exactly,
/// including the `Option` simulator fields in both states.
#[test]
fn sweep_outcomes_round_trip_bit_exactly() {
    let spec = WorkloadSpec::by_name("astar").unwrap();
    let profile =
        Profiler::new(ProfilerConfig::fast_test()).profile_named("astar", &mut spec.trace(20_000));
    let points = DesignSpace::small().enumerate()[..4].to_vec();
    let cfg = SweepConfig {
        sim_instructions: 5_000,
        ..Default::default()
    };
    let eval = SpaceEvaluation::run(&points, &profile, Some(&spec), &cfg);
    let model_only = SpaceEvaluation::run(&points, &profile, None, &SweepConfig::default());
    for o in eval.outcomes.iter().chain(&model_only.outcomes) {
        let json = serde_json::to_string(o).unwrap();
        let back: pmt::dse::PointOutcome = serde_json::from_str(&json).unwrap();
        assert_eq!(o.design_id, back.design_id);
        assert_eq!(o.workload, back.workload);
        assert_eq!(o.model_cpi.to_bits(), back.model_cpi.to_bits());
        assert_eq!(o.model_power.to_bits(), back.model_power.to_bits());
        assert_eq!(o.model_seconds.to_bits(), back.model_seconds.to_bits());
        assert_eq!(o.sim_cpi.map(f64::to_bits), back.sim_cpi.map(f64::to_bits));
        assert_eq!(
            o.sim_power.map(f64::to_bits),
            back.sim_power.map(f64::to_bits)
        );
        assert_eq!(
            o.sim_seconds.map(f64::to_bits),
            back.sim_seconds.map(f64::to_bits)
        );
    }
}

/// The profile-once file is the contract between the AIP (profiler) and
/// PMT (model) halves: a profile written to disk and read back twice must
/// keep predicting the same bits.
#[test]
fn profile_file_is_stable_across_reloads() {
    let spec = WorkloadSpec::by_name("gcc").unwrap();
    let profile =
        Profiler::new(ProfilerConfig::fast_test()).profile_named("gcc", &mut spec.trace(25_000));
    let json1 = serde_json::to_string(&profile).unwrap();
    let once: pmt::profiler::ApplicationProfile = serde_json::from_str(&json1).unwrap();
    let json2 = serde_json::to_string(&once).unwrap();
    let twice: pmt::profiler::ApplicationProfile = serde_json::from_str(&json2).unwrap();
    let machine = MachineConfig::nehalem();
    let a = IntervalModel::new(&machine).predict(&once);
    let b = IntervalModel::new(&machine).predict(&twice);
    assert_eq!(a.cycles.to_bits(), b.cycles.to_bits());
    assert_eq!(json1, json2);
}

fn fast_profile(name: &str, instructions: u64) -> pmt::profiler::ApplicationProfile {
    let spec = WorkloadSpec::by_name(name).unwrap();
    Profiler::new(ProfilerConfig::fast_test()).profile_named(name, &mut spec.trace(instructions))
}

/// FNV-1a digest of every stand-in's profile JSON (20k instructions,
/// `fast_test` sampling). The generator, the profiler's maps and the
/// serializer must all keep these bytes: a profile is written once and
/// predicted from forever after, so any drift silently changes every
/// prediction made from a re-profiled workload.
#[test]
fn every_suite_profile_keeps_its_bytes() {
    const DIGESTS: [(&str, u64); 29] = [
        ("astar", 0x11b3_ba2b_87d1_c858),
        ("bwaves", 0x369b_0059_4cb4_e0a5),
        ("bzip2", 0x0b15_5fc2_6972_7748),
        ("cactusADM", 0xacb1_7b9e_89e1_542c),
        ("calculix", 0x1a31_e514_aaa5_0c27),
        ("dealII", 0xc89e_ed62_e76d_f736),
        ("gamess", 0x4904_b2e0_b6a2_af18),
        ("gcc", 0xc9f4_4f41_f2ab_ad50),
        ("GemsFDTD", 0x1dec_5cfd_f123_f200),
        ("gobmk", 0x0db5_24d0_47c4_1272),
        ("gromacs", 0xb3c8_88c6_b474_cbb8),
        ("h264ref", 0xb072_eeae_ddd5_7409),
        ("hmmer", 0x9f19_c206_e899_81c7),
        ("lbm", 0x5e9f_eda9_e301_225b),
        ("leslie3d", 0x0751_5443_6d0e_1cef),
        ("libquantum", 0x7597_c99b_9132_b0c2),
        ("mcf", 0x84d4_f97a_bb14_e7d0),
        ("milc", 0xb741_4dde_7b45_cd4a),
        ("namd", 0xccf4_4407_e2e4_7709),
        ("omnetpp", 0xe58a_0a64_18c1_aba3),
        ("perlbench", 0x984e_dc8e_eb25_a579),
        ("povray", 0x6aad_9782_8413_0a7d),
        ("sjeng", 0xdd3c_1321_19dd_5aa5),
        ("soplex", 0xf601_e700_de5d_9e31),
        ("sphinx3", 0xba14_9df5_457b_231e),
        ("tonto", 0x6b98_92f9_d9b8_991c),
        ("wrf", 0xf8a5_3bfd_dd1d_feee),
        ("xalancbmk", 0x592f_87bc_0dc9_80bf),
        ("zeusmp", 0xae3f_c73a_5489_6af2),
    ];
    let mut drifted = Vec::new();
    for (&name, &(pinned_name, pinned)) in SUITE.iter().zip(DIGESTS.iter()) {
        assert_eq!(name, pinned_name, "SUITE order changed");
        let json = serde_json::to_string(&fast_profile(name, 20_000)).unwrap();
        let digest = pmt::api::fnv1a(&[&json]);
        if digest != pinned {
            drifted.push(format!("(\"{name}\", {digest:#018x})"));
        }
    }
    assert!(drifted.is_empty(), "profile bytes drifted: {drifted:#?}");
}

/// FNV-1a digest of the CPI bits over the 243-point thesis grid for the
/// two stand-ins whose branch-penalty leaky bucket runs longest, so the
/// bucket's early exit is pinned to the bit.
#[test]
fn thesis_grid_cpi_keeps_its_bits() {
    for (name, pinned) in [
        ("lbm", 0x9c97_fec3_35c2_0b62),
        ("cactusADM", 0x31eb_82d3_5745_800c),
    ] {
        let profile = fast_profile(name, 20_000);
        let prepared = pmt::model::PreparedProfile::new(&profile);
        let mut batch =
            pmt::model::BatchPredictor::new(&prepared, &pmt::model::ModelConfig::default());
        let bits: String = DesignSpace::thesis_table_6_3()
            .enumerate()
            .iter()
            .map(|p| format!("{:016x}", batch.predict_summary(&p.machine).cpi().to_bits()))
            .collect();
        let digest = pmt::api::fnv1a(&[&bits]);
        assert_eq!(
            digest, pinned,
            "{name}: thesis-grid CPI drifted ({digest:#018x})"
        );
    }
}

/// FNV-1a digest of profile JSON for streams that end where the whole-window
/// pins above never do: at 0 instructions, inside a skip segment (999 and
/// 12,345 under `fast_test`'s 500-in-5,000 schedule), inside a micro-trace
/// (10,250), and inside a window of the exhaustive schedule, which skips
/// nothing (the last row).
#[test]
fn odd_length_profiles_keep_their_bytes() {
    let fast = ProfilerConfig::fast_test;
    let exhaustive = || ProfilerConfig::exhaustive(1_000);
    let pins: [(&str, u64, ProfilerConfig, u64); 13] = [
        ("astar", 0, fast(), 0x2bc9_46c9_a473_fb1a),
        ("astar", 999, fast(), 0x02ae_47cc_96db_cc82),
        ("astar", 10_250, fast(), 0x7567_2c19_1d59_09d4),
        ("astar", 12_345, fast(), 0xb3d3_84b1_82a9_2c5f),
        ("mcf", 0, fast(), 0xe5d8_9692_2a39_042d),
        ("mcf", 999, fast(), 0x63a0_bf1d_d1a7_4d98),
        ("mcf", 10_250, fast(), 0xaf6f_784d_1ce8_44a1),
        ("mcf", 12_345, fast(), 0x2949_638d_bbb9_b29f),
        ("lbm", 0, fast(), 0xff10_0cdb_1f10_c82a),
        ("lbm", 999, fast(), 0x2b65_ea70_cec1_4d64),
        ("lbm", 10_250, fast(), 0xd6ae_eb44_0e83_c525),
        ("lbm", 12_345, fast(), 0x265e_6880_adc9_0570),
        ("gcc", 12_345, exhaustive(), 0x51db_646a_313b_19d5),
    ];
    let mut drifted = Vec::new();
    for (name, n, config, pinned) in pins {
        let spec = WorkloadSpec::by_name(name).unwrap();
        let profile = Profiler::new(config).profile_named(name, &mut spec.trace(n));
        let digest = pmt::api::fnv1a(&[&serde_json::to_string(&profile).unwrap()]);
        if digest != pinned {
            drifted.push(format!("(\"{name}\", {n}, {digest:#018x})"));
        }
    }
    assert!(drifted.is_empty(), "profile bytes drifted: {drifted:#?}");
}

//! The three-level inclusive hierarchy with miss classification.

use crate::cache::SetAssocCache;
use crate::prefetcher::StridePrefetcher;
use pmt_uarch::{CacheHierarchy, DataLevel, PrefetcherConfig};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Where a data access was served from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Hit in the given level.
    Hit(DataLevel),
    /// Missed everywhere; served from DRAM. The flag marks a cold miss
    /// (line never touched before).
    Memory {
        /// True if this was the first-ever touch of the line.
        cold: bool,
        /// True if the line was covered by an in-flight or completed
        /// prefetch (functional approximation of a prefetch hit).
        prefetched: bool,
    },
}

impl AccessOutcome {
    /// Whether the access needed DRAM.
    pub fn is_memory(&self) -> bool {
        matches!(self, AccessOutcome::Memory { .. })
    }
}

/// Per-level counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LevelStats {
    /// Load accesses reaching this level.
    pub load_accesses: u64,
    /// Store accesses reaching this level.
    pub store_accesses: u64,
    /// Load misses at this level.
    pub load_misses: u64,
    /// Store misses at this level.
    pub store_misses: u64,
    /// Load misses that were first-ever touches.
    pub cold_load_misses: u64,
    /// Store misses that were first-ever touches.
    pub cold_store_misses: u64,
}

impl LevelStats {
    /// Total misses.
    pub fn misses(&self) -> u64 {
        self.load_misses + self.store_misses
    }

    /// Capacity/conflict (non-cold) load misses.
    pub fn capacity_load_misses(&self) -> u64 {
        self.load_misses - self.cold_load_misses
    }

    /// Capacity/conflict (non-cold) store misses.
    pub fn capacity_store_misses(&self) -> u64 {
        self.store_misses - self.cold_store_misses
    }

    /// Misses per kilo-instruction for a given instruction count.
    pub fn mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.misses() as f64 * 1000.0 / instructions as f64
        }
    }
}

/// All hierarchy counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierarchyStats {
    /// L1 instruction cache.
    pub l1i: LevelStats,
    /// L1 data cache.
    pub l1d: LevelStats,
    /// Unified L2 (data-path accesses only; instruction refills are
    /// counted in `l2_inst_misses`).
    pub l2: LevelStats,
    /// Last-level cache.
    pub l3: LevelStats,
    /// Instruction fetches that missed L2.
    pub l2_inst_misses: u64,
    /// Instruction fetches that missed L3 (DRAM instruction fetches).
    pub l3_inst_misses: u64,
    /// Prefetches issued.
    pub prefetches_issued: u64,
    /// Loads that hit a prefetched line in L1/L2.
    pub prefetch_useful: u64,
}

/// Functional, untimed simulation of the full cache hierarchy
/// (inclusive fills, thesis §4.2's modeling assumption).
#[derive(Clone, Debug)]
pub struct HierarchySim {
    config: CacheHierarchy,
    l1i: SetAssocCache,
    l1d: SetAssocCache,
    l2: SetAssocCache,
    l3: SetAssocCache,
    seen_lines: HashSet<u64>,
    seen_inst_lines: HashSet<u64>,
    prefetcher: Option<StridePrefetcher>,
    prefetched_lines: HashSet<u64>,
    stats: HierarchyStats,
    line_shift: u32,
    page_bytes: u64,
}

impl HierarchySim {
    /// Build the hierarchy; `prefetcher` enables the per-PC stride
    /// prefetcher at the L1-D level.
    pub fn new(config: CacheHierarchy, prefetcher: Option<PrefetcherConfig>) -> HierarchySim {
        let line_shift = config.l1d.line_bytes.trailing_zeros();
        HierarchySim {
            l1i: SetAssocCache::new(&config.l1i),
            l1d: SetAssocCache::new(&config.l1d),
            l2: SetAssocCache::new(&config.l2),
            l3: SetAssocCache::new(&config.l3),
            seen_lines: HashSet::new(),
            seen_inst_lines: HashSet::new(),
            prefetcher: prefetcher
                .filter(|p| p.enabled)
                .map(|p| StridePrefetcher::new(p.table_entries as usize)),
            prefetched_lines: HashSet::new(),
            stats: HierarchyStats::default(),
            line_shift,
            page_bytes: 4096,
            config,
        }
    }

    /// The configured hierarchy.
    pub fn config(&self) -> &CacheHierarchy {
        &self.config
    }

    /// Counters so far.
    pub fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    /// Access the data path. `pc` trains the prefetcher for loads.
    pub fn access_data(&mut self, addr: u64, is_store: bool, pc: u64) -> AccessOutcome {
        let line = addr >> self.line_shift;
        let outcome = self.lookup_data(addr, is_store);

        // Prefetcher: train on every load, issue within-page prefetches.
        if !is_store {
            if let Some(pf) = self.prefetcher.as_mut() {
                if let Some(target) = pf.train(pc, addr) {
                    let same_page = target / self.page_bytes == addr / self.page_bytes;
                    if same_page {
                        self.stats.prefetches_issued += 1;
                        let tline = target >> self.line_shift;
                        self.prefetched_lines.insert(tline);
                        self.fill_all(target);
                        self.seen_lines.insert(tline);
                    }
                }
            }
        }

        if let AccessOutcome::Memory { .. } = outcome {
            self.fill_all(addr);
        }
        self.seen_lines.insert(line);
        outcome
    }

    fn lookup_data(&mut self, addr: u64, is_store: bool) -> AccessOutcome {
        let line = addr >> self.line_shift;
        let cold = !self.seen_lines.contains(&line);
        let bump = |s: &mut LevelStats, hit: bool, cold: bool| {
            if is_store {
                s.store_accesses += 1;
                if !hit {
                    s.store_misses += 1;
                    if cold {
                        s.cold_store_misses += 1;
                    }
                }
            } else {
                s.load_accesses += 1;
                if !hit {
                    s.load_misses += 1;
                    if cold {
                        s.cold_load_misses += 1;
                    }
                }
            }
        };

        let (l1_hit, _) = self.l1d.access(addr);
        bump(&mut self.stats.l1d, l1_hit, cold);
        if l1_hit {
            return AccessOutcome::Hit(DataLevel::L1d);
        }
        let (l2_hit, _) = self.l2.access(addr);
        bump(&mut self.stats.l2, l2_hit, cold);
        if l2_hit {
            self.l1d.fill(addr);
            return AccessOutcome::Hit(DataLevel::L2);
        }
        let (l3_hit, _) = self.l3.access(addr);
        bump(&mut self.stats.l3, l3_hit, cold);
        if l3_hit {
            self.l1d.fill(addr);
            self.l2.fill(addr);
            let prefetched = self.prefetched_lines.contains(&line);
            if prefetched {
                self.stats.prefetch_useful += 1;
            }
            return AccessOutcome::Hit(DataLevel::L3);
        }
        let prefetched = self.prefetched_lines.contains(&line);
        AccessOutcome::Memory { cold, prefetched }
    }

    fn fill_all(&mut self, addr: u64) {
        self.l1d.fill(addr);
        self.l2.fill(addr);
        self.l3.fill(addr);
    }

    /// Non-mutating probe of the data path: the level that would serve an
    /// access right now (`None` = DRAM).
    pub fn probe_data(&self, addr: u64) -> Option<DataLevel> {
        if self.l1d.probe(addr) {
            Some(DataLevel::L1d)
        } else if self.l2.probe(addr) {
            Some(DataLevel::L2)
        } else if self.l3.probe(addr) {
            Some(DataLevel::L3)
        } else {
            None
        }
    }

    /// Fill a line on behalf of a prefetcher without touching the demand
    /// counters; returns where the line was before the fill
    /// (`None` = DRAM). The line counts as seen (no longer cold).
    pub fn prefetch_fill(&mut self, addr: u64) -> Option<DataLevel> {
        let level = self.probe_data(addr);
        self.fill_all(addr);
        let line = addr >> self.line_shift;
        self.prefetched_lines.insert(line);
        self.seen_lines.insert(line);
        self.stats.prefetches_issued += 1;
        level
    }

    /// Access the instruction path with a fetch address. Returns the level
    /// the fetch was served from (`None` = DRAM).
    pub fn access_inst(&mut self, pc: u64) -> Option<DataLevel> {
        let line = pc >> self.line_shift;
        let cold = !self.seen_inst_lines.contains(&line);
        self.seen_inst_lines.insert(line);
        self.stats.l1i.load_accesses += 1;
        let (hit, _) = self.l1i.access(pc);
        if hit {
            return Some(DataLevel::L1d); // level-1 (naming reuses data enum)
        }
        self.stats.l1i.load_misses += 1;
        if cold {
            self.stats.l1i.cold_load_misses += 1;
        }
        let (l2_hit, _) = self.l2.access(pc);
        if l2_hit {
            self.l1i.fill(pc);
            return Some(DataLevel::L2);
        }
        self.stats.l2_inst_misses += 1;
        let (l3_hit, _) = self.l3.access(pc);
        if l3_hit {
            self.l1i.fill(pc);
            return Some(DataLevel::L3);
        }
        self.stats.l3_inst_misses += 1;
        self.l1i.fill(pc);
        self.l3.fill(pc);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy() -> HierarchySim {
        HierarchySim::new(CacheHierarchy::nehalem(), None)
    }

    #[test]
    fn l1_resident_set_hits_after_warmup() {
        let mut h = hierarchy();
        // 8 KB working set of 128 lines fits L1 (32 KB).
        for round in 0..10 {
            for i in 0..128u64 {
                let out = h.access_data(i * 64, false, 0x10);
                if round > 0 {
                    assert_eq!(out, AccessOutcome::Hit(DataLevel::L1d));
                }
            }
        }
        assert_eq!(h.stats().l1d.load_misses, 128);
        assert_eq!(h.stats().l1d.cold_load_misses, 128);
    }

    #[test]
    fn l2_sized_set_misses_l1_hits_l2() {
        let mut h = hierarchy();
        // 128 KB working set: > L1 (32 KB), < L2 (256 KB).
        let lines = 128 * 1024 / 64u64;
        for _ in 0..3 {
            for i in 0..lines {
                h.access_data(i * 64, false, 0x10);
            }
        }
        let s = h.stats();
        assert!(s.l1d.load_misses > 2 * lines, "L1 misses every sweep");
        // After the cold sweep, L2 serves everything.
        assert_eq!(s.l2.load_misses, lines);
    }

    #[test]
    fn dram_set_misses_all_levels() {
        let mut h = hierarchy();
        // 16 MB > L3 (8 MB): second sweep still misses L3 (capacity).
        let lines = 16 * 1024 * 1024 / 64u64;
        for _ in 0..2 {
            for i in 0..lines {
                h.access_data(i * 64, false, 0x10);
            }
        }
        let s = h.stats();
        assert_eq!(s.l3.cold_load_misses, lines);
        assert!(
            s.l3.capacity_load_misses() > lines / 2,
            "second sweep thrashes L3"
        );
    }

    #[test]
    fn stores_are_counted_separately() {
        let mut h = hierarchy();
        h.access_data(0x1000, true, 0x10);
        h.access_data(0x1000, false, 0x10);
        let s = h.stats();
        assert_eq!(s.l1d.store_accesses, 1);
        assert_eq!(s.l1d.store_misses, 1);
        assert_eq!(s.l1d.load_accesses, 1);
        assert_eq!(s.l1d.load_misses, 0);
    }

    #[test]
    fn instruction_path_tracks_misses() {
        let mut h = hierarchy();
        // 64 KB of code: more than L1-I (32 KB).
        let lines = 64 * 1024 / 64u64;
        for _ in 0..3 {
            for i in 0..lines {
                h.access_inst(0x40_0000 + i * 64);
            }
        }
        let s = h.stats();
        assert!(s.l1i.load_misses > lines, "L1-I thrashes");
        assert_eq!(s.l3_inst_misses, lines, "only cold fetches reach DRAM");
    }

    #[test]
    fn prefetcher_catches_streaming_loads() {
        let mut h = HierarchySim::new(
            CacheHierarchy::nehalem(),
            Some(PrefetcherConfig::stride_64()),
        );
        // A single static load streaming at 64 B: perfectly predictable.
        for i in 0..5_000u64 {
            h.access_data(0x100_0000 + i * 64, false, 0x44);
        }
        let s = h.stats();
        assert!(s.prefetches_issued > 3_000, "{}", s.prefetches_issued);
        // Most accesses hit because the prefetcher filled the line.
        assert!(
            s.l3.load_misses < 1_000,
            "prefetched stream should mostly hit: {}",
            s.l3.load_misses
        );
    }

    #[test]
    fn mpki_helper() {
        let s = LevelStats {
            load_misses: 10,
            store_misses: 5,
            ..Default::default()
        };
        assert!((s.mpki(1_000) - 15.0).abs() < 1e-12);
    }
}

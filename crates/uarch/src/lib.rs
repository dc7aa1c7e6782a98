//! Machine configuration for the analytical model and the reference
//! simulator.
//!
//! This crate holds every micro-architecture parameter the thesis varies:
//! the superscalar core (dispatch width, ROB, front-end depth), the issue
//! stage (ports and functional units, thesis Fig 3.5), the cache hierarchy,
//! the memory subsystem (DRAM latency, bus, MSHRs), branch predictor and
//! prefetcher choices, DVFS operating points (Table 7.2), the Nehalem-based
//! reference architecture (Table 6.1) and the 243-point design space
//! (Table 6.3).
//!
//! # Example
//!
//! ```
//! use pmt_uarch::MachineConfig;
//!
//! let machine = MachineConfig::nehalem();
//! assert_eq!(machine.core.dispatch_width, 4);
//! assert_eq!(machine.core.rob_size, 128);
//! assert_eq!(machine.caches.l3.size_bytes(), 8 * 1024 * 1024);
//! ```

mod activity;
mod bp;
mod cache;
mod core_cfg;
mod cpi;
pub mod design_space;
mod dvfs;
mod exec;
mod machine;
mod mem;
mod prefetch;

pub use activity::ActivityVector;
pub use bp::{PredictorConfig, PredictorKind};
pub use cache::{CacheConfig, CacheHierarchy, DataLevel};
pub use core_cfg::CoreConfig;
pub use cpi::{CpiComponent, CpiStack};
pub use design_space::{l3_latency_for_kb, DesignPoint, DesignSpace};
pub use dvfs::{nehalem_dvfs_points, OperatingPoint};
pub use exec::{ExecConfig, OpResources, PortMap, PortRoute, MAX_PORTS};
pub use machine::MachineConfig;
pub use mem::MemoryConfig;
pub use prefetch::PrefetcherConfig;

//! CPI stacks: cycles-per-instruction decomposed by miss event
//! (thesis §6.4). Shared vocabulary between the cycle-level simulator and
//! the analytical model.

use serde::{Deserialize, Serialize};

/// Where a dispatch slot went (slot-based CPI accounting: every cycle has
/// `D` slots; used slots are base work, wasted slots are attributed to
/// their blocking miss event — the simulator-side mirror of the interval
/// model's components).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum CpiComponent {
    /// Useful dispatch plus dependency/execution-limited slots.
    Base,
    /// Branch misprediction resolution + refill.
    Branch,
    /// Instruction-cache stalls.
    ICache,
    /// Backend stall on a load served by L2.
    L2Data,
    /// Backend stall on a load served by L3 (the "LLC hit chaining"
    /// territory of thesis §4.8).
    L3Data,
    /// Backend stall on a load served by DRAM.
    Dram,
}

impl CpiComponent {
    /// All components in display order.
    pub const ALL: [CpiComponent; 6] = [
        CpiComponent::Base,
        CpiComponent::Branch,
        CpiComponent::ICache,
        CpiComponent::L2Data,
        CpiComponent::L3Data,
        CpiComponent::Dram,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            CpiComponent::Base => "base",
            CpiComponent::Branch => "branch",
            CpiComponent::ICache => "icache",
            CpiComponent::L2Data => "L2",
            CpiComponent::L3Data => "LLC",
            CpiComponent::Dram => "DRAM",
        }
    }
}

/// A CPI stack: cycles per instruction, split by component.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CpiStack {
    components: [f64; CpiComponent::ALL.len()],
}

impl CpiStack {
    /// Add CPI to one component.
    pub fn add(&mut self, component: CpiComponent, cpi: f64) {
        self.components[component as usize] += cpi;
    }

    /// CPI of one component.
    pub fn get(&self, component: CpiComponent) -> f64 {
        self.components[component as usize]
    }

    /// Total CPI.
    pub fn total(&self) -> f64 {
        self.components.iter().sum()
    }

    /// Iterate (component, cpi).
    pub fn iter(&self) -> impl Iterator<Item = (CpiComponent, f64)> + '_ {
        CpiComponent::ALL
            .iter()
            .map(move |&c| (c, self.components[c as usize]))
    }

    /// Memory (DRAM) share of the total.
    pub fn dram_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0.0 {
            0.0
        } else {
            self.get(CpiComponent::Dram) / t
        }
    }
}

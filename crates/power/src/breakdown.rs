//! Power breakdowns ("power stacks", thesis Fig 6.7).

use serde::{Deserialize, Serialize};

/// The structures whose power is reported separately.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PowerComponent {
    /// Out-of-order engine: ROB, issue queue, rename, bypass.
    Core,
    /// Functional units (per-class energies folded in).
    FunctionalUnits,
    /// Physical register file.
    RegisterFile,
    /// Front-end: fetch, decode, branch predictor.
    FrontEnd,
    /// L1 instruction + data caches.
    L1Caches,
    /// Unified L2.
    L2Cache,
    /// Last-level cache.
    L3Cache,
    /// Memory controller + bus + DRAM interface.
    Memory,
}

impl PowerComponent {
    /// All components, display order.
    pub const ALL: [PowerComponent; 8] = [
        PowerComponent::Core,
        PowerComponent::FunctionalUnits,
        PowerComponent::RegisterFile,
        PowerComponent::FrontEnd,
        PowerComponent::L1Caches,
        PowerComponent::L2Cache,
        PowerComponent::L3Cache,
        PowerComponent::Memory,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            PowerComponent::Core => "core",
            PowerComponent::FunctionalUnits => "FUs",
            PowerComponent::RegisterFile => "regfile",
            PowerComponent::FrontEnd => "frontend",
            PowerComponent::L1Caches => "L1",
            PowerComponent::L2Cache => "L2",
            PowerComponent::L3Cache => "L3",
            PowerComponent::Memory => "memory",
        }
    }
}

/// A power result in watts, split into static and per-structure dynamic
/// shares.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PowerBreakdown {
    /// Leakage power in watts.
    pub static_w: f64,
    /// Dynamic power per structure in watts.
    dynamic_w: [f64; PowerComponent::ALL.len()],
}

impl PowerBreakdown {
    /// Add dynamic power to a component.
    pub fn add_dynamic(&mut self, component: PowerComponent, watts: f64) {
        self.dynamic_w[component as usize] += watts;
    }

    /// Dynamic power of one component.
    pub fn dynamic(&self, component: PowerComponent) -> f64 {
        self.dynamic_w[component as usize]
    }

    /// Total dynamic power.
    pub fn dynamic_total(&self) -> f64 {
        self.dynamic_w.iter().sum()
    }

    /// Total power (static + dynamic).
    pub fn total(&self) -> f64 {
        self.static_w + self.dynamic_total()
    }

    /// Static share of the total.
    pub fn static_fraction(&self) -> f64 {
        let t = self.total();
        if t > 0.0 {
            self.static_w / t
        } else {
            0.0
        }
    }

    /// Energy in joules over an execution time in seconds.
    pub fn energy(&self, seconds: f64) -> f64 {
        self.total() * seconds
    }

    /// Energy-delay product (J·s).
    pub fn edp(&self, seconds: f64) -> f64 {
        self.energy(seconds) * seconds
    }

    /// Energy-delay-squared product (J·s²), the thesis' DVFS metric
    /// (Fig 7.3).
    pub fn ed2p(&self, seconds: f64) -> f64 {
        self.energy(seconds) * seconds * seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let mut b = PowerBreakdown {
            static_w: 10.0,
            ..Default::default()
        };
        b.add_dynamic(PowerComponent::Core, 5.0);
        b.add_dynamic(PowerComponent::Memory, 3.0);
        assert!((b.total() - 18.0).abs() < 1e-12);
        assert!((b.dynamic_total() - 8.0).abs() < 1e-12);
        assert!((b.static_fraction() - 10.0 / 18.0).abs() < 1e-12);
    }

    #[test]
    fn energy_metrics_scale_correctly() {
        let b = PowerBreakdown {
            static_w: 20.0,
            ..Default::default()
        };
        let e = b.energy(2.0);
        assert!((e - 40.0).abs() < 1e-12);
        assert!((b.edp(2.0) - 80.0).abs() < 1e-12);
        assert!((b.ed2p(2.0) - 160.0).abs() < 1e-12);
    }

    #[test]
    fn labels_unique() {
        let mut l: Vec<_> = PowerComponent::ALL.iter().map(|c| c.label()).collect();
        l.sort();
        l.dedup();
        assert_eq!(l.len(), PowerComponent::ALL.len());
    }
}

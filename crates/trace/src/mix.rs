//! Instruction-mix histograms (thesis Table 2.1, Fig 5.2).

use crate::uop::{MicroOp, UopClass};
use serde::{Deserialize, Serialize};

/// μop histogram of (part of) a dynamic instruction stream.
///
/// Records per-class μop counts plus the macro-instruction count, which
/// together give the μops-per-instruction ratio of thesis Fig 3.1 and the
/// per-class frequencies consumed by the issue-stage model (§3.4).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct InstructionMix {
    counts: [u64; UopClass::COUNT],
    instructions: u64,
}

impl InstructionMix {
    /// An empty mix.
    pub fn new() -> InstructionMix {
        InstructionMix::default()
    }

    /// Build a mix from a flat μop buffer.
    pub fn from_uops(uops: &[MicroOp]) -> InstructionMix {
        let mut mix = InstructionMix::new();
        mix.record_all(uops);
        mix
    }

    /// Record one μop.
    #[inline]
    pub fn record(&mut self, uop: &MicroOp) {
        self.counts[uop.class.index()] += 1;
        if uop.begins_instruction {
            self.instructions += 1;
        }
    }

    /// Record every μop in a buffer.
    pub fn record_all(&mut self, uops: &[MicroOp]) {
        for u in uops {
            self.record(u);
        }
    }

    /// Merge another mix into this one.
    pub fn merge(&mut self, other: &InstructionMix) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.instructions += other.instructions;
    }

    /// Merge with a weight: counts are scaled by `weight` (used to
    /// extrapolate sampled micro-traces to full windows).
    pub fn merge_weighted(&mut self, other: &InstructionMix, weight: f64) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += (*b as f64 * weight).round() as u64;
        }
        self.instructions += (other.instructions as f64 * weight).round() as u64;
    }

    /// μop count for one class.
    #[inline]
    pub fn count(&self, class: UopClass) -> u64 {
        self.counts[class.index()]
    }

    /// Total μop count.
    pub fn total_uops(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total macro-instruction count.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Fraction of μops in `class` (0 if the mix is empty).
    pub fn fraction(&self, class: UopClass) -> f64 {
        let total = self.total_uops();
        if total == 0 {
            0.0
        } else {
            self.count(class) as f64 / total as f64
        }
    }

    /// μops per macro-instruction (thesis Fig 3.1); 0 if empty.
    pub fn uops_per_instruction(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.total_uops() as f64 / self.instructions as f64
        }
    }

    /// Fraction of μops that are loads.
    pub fn load_fraction(&self) -> f64 {
        self.fraction(UopClass::Load)
    }

    /// Per-class sampling error versus a reference mix, per thesis Eq 5.1:
    /// `|n_c(sampled→scaled) − n_c(full)| / Σ_c n_c(full)`, returned per
    /// class. The sampled mix is first rescaled so both mixes describe the
    /// same number of μops.
    pub fn sampling_error(&self, full: &InstructionMix) -> [f64; UopClass::COUNT] {
        let mut err = [0.0; UopClass::COUNT];
        let total_full = full.total_uops() as f64;
        let total_sampled = self.total_uops() as f64;
        if total_full == 0.0 || total_sampled == 0.0 {
            return err;
        }
        let scale = total_full / total_sampled;
        for (i, e) in err.iter_mut().enumerate() {
            let scaled = self.counts[i] as f64 * scale;
            *e = (scaled - full.counts[i] as f64).abs() / total_full;
        }
        err
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uop(class: UopClass, first: bool) -> MicroOp {
        let mut u = match class {
            UopClass::Load => MicroOp::load(0, 0, 0),
            UopClass::Store => MicroOp::store(0, 0, 0),
            UopClass::Branch => MicroOp::branch(0, 0, false),
            c => MicroOp::compute(c, 0, 0),
        };
        u.begins_instruction = first;
        u
    }

    #[test]
    fn counts_and_fractions() {
        let uops = vec![
            uop(UopClass::Load, true),
            uop(UopClass::IntAlu, false),
            uop(UopClass::Store, true),
            uop(UopClass::Branch, true),
        ];
        let mix = InstructionMix::from_uops(&uops);
        assert_eq!(mix.total_uops(), 4);
        assert_eq!(mix.instructions(), 3);
        assert!((mix.uops_per_instruction() - 4.0 / 3.0).abs() < 1e-12);
        assert!((mix.load_fraction() - 0.25).abs() < 1e-12);
        assert!((mix.fraction(UopClass::IntAlu) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates() {
        let a = InstructionMix::from_uops(&[uop(UopClass::Load, true)]);
        let mut b = InstructionMix::from_uops(&[uop(UopClass::Store, true)]);
        b.merge(&a);
        assert_eq!(b.total_uops(), 2);
        assert_eq!(b.count(UopClass::Load), 1);
        assert_eq!(b.instructions(), 2);
    }

    #[test]
    fn weighted_merge_scales() {
        let a = InstructionMix::from_uops(&[uop(UopClass::Load, true)]);
        let mut acc = InstructionMix::new();
        acc.merge_weighted(&a, 100.0);
        assert_eq!(acc.count(UopClass::Load), 100);
        assert_eq!(acc.instructions(), 100);
    }

    #[test]
    fn sampling_error_of_identical_mixes_is_zero() {
        let uops = vec![uop(UopClass::Load, true), uop(UopClass::IntAlu, false)];
        let mix = InstructionMix::from_uops(&uops);
        let err = mix.sampling_error(&mix);
        assert!(err.iter().all(|&e| e < 1e-12));
    }

    #[test]
    fn sampling_error_detects_skew() {
        // Full: 50/50 load/alu. Sampled: all loads.
        let full = {
            let mut m = InstructionMix::new();
            m.record_all(&[uop(UopClass::Load, true), uop(UopClass::IntAlu, true)]);
            m
        };
        let sampled = InstructionMix::from_uops(&[uop(UopClass::Load, true)]);
        let err = sampled.sampling_error(&full);
        assert!((err[UopClass::Load.index()] - 0.5).abs() < 1e-12);
        assert!((err[UopClass::IntAlu.index()] - 0.5).abs() < 1e-12);
    }
}

//! The beam-steering kernel.
//!
//! Paper Section 3.3: "Beam steering is a radar-processing kernel that
//! directs a phased-array radar without physically rotating the antenna.
//! The computation of the phase for each antenna element stresses memory
//! bandwidth and latency because large tables are used for calibration …
//! Arithmetic operations are additions and shift operations. … The number
//! of antenna elements is 1608. Each element can direct the signal up to 4
//! directions per dwell."
//!
//! Per output the kernel performs **2 reads, 1 write, 5 additions and
//! 1 shift** (Section 4.4). The paper does not state the number of dwells
//! simulated; back-calculating from its own Section 4.4 consistency checks
//! (see DESIGN.md) yields 8 dwells, which [`BeamSteeringWorkload::paper`]
//! uses.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use triarch_simcore::{KernelDemands, SimError};

use crate::verify::Golden;

/// Paper parameter: antenna elements.
pub const PAPER_ELEMENTS: usize = 1608;
/// Paper parameter: directions per dwell.
pub const PAPER_DIRECTIONS: usize = 4;
/// Dwell count back-calculated from the paper's Section 4.4 numbers.
pub const PAPER_DWELLS: usize = 8;

/// A beam-steering workload: calibration tables plus steering parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BeamSteeringWorkload {
    elements: usize,
    directions: usize,
    dwells: usize,
    cal_coarse: Vec<i32>,
    cal_fine: Vec<i32>,
    dir_offset: Vec<i32>,
    phase_inc: Vec<i32>,
    dwell_stride: i32,
    steer_bias: i32,
    shift: u32,
    golden: Golden<Vec<i32>>,
}

impl BeamSteeringWorkload {
    /// Creates the paper-sized workload (1608 elements × 4 directions ×
    /// 8 dwells) from a seed.
    ///
    /// # Errors
    ///
    /// Never fails for the paper parameters.
    pub fn paper(seed: u64) -> Result<Self, SimError> {
        Self::new(PAPER_ELEMENTS, PAPER_DIRECTIONS, PAPER_DWELLS, seed)
    }

    /// Creates a workload of arbitrary shape.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if any dimension is zero.
    pub fn new(
        elements: usize,
        directions: usize,
        dwells: usize,
        seed: u64,
    ) -> Result<Self, SimError> {
        if elements == 0 || directions == 0 || dwells == 0 {
            return Err(SimError::invalid_config("beam steering dimensions must be non-zero"));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        Ok(BeamSteeringWorkload {
            elements,
            directions,
            dwells,
            cal_coarse: (0..elements).map(|_| rng.gen_range(-1 << 20..1 << 20)).collect(),
            cal_fine: (0..elements).map(|_| rng.gen_range(-1 << 12..1 << 12)).collect(),
            dir_offset: (0..directions).map(|_| rng.gen_range(-1 << 16..1 << 16)).collect(),
            phase_inc: (0..directions).map(|_| rng.gen_range(1..1 << 8)).collect(),
            dwell_stride: rng.gen_range(1 << 8..1 << 12),
            steer_bias: rng.gen_range(-1 << 10..1 << 10),
            shift: 4,
            golden: Golden::default(),
        })
    }

    /// Antenna elements.
    #[must_use]
    pub fn elements(&self) -> usize {
        self.elements
    }

    /// Directions per dwell.
    #[must_use]
    pub fn directions(&self) -> usize {
        self.directions
    }

    /// Dwells simulated.
    #[must_use]
    pub fn dwells(&self) -> usize {
        self.dwells
    }

    /// Total phase outputs: `elements × directions × dwells`.
    #[must_use]
    pub fn outputs(&self) -> usize {
        self.elements * self.directions * self.dwells
    }

    /// Coarse calibration table (one read per output).
    #[must_use]
    pub fn cal_coarse(&self) -> &[i32] {
        &self.cal_coarse
    }

    /// Fine calibration table (the second read per output).
    #[must_use]
    pub fn cal_fine(&self) -> &[i32] {
        &self.cal_fine
    }

    /// Per-direction base offsets (register resident).
    #[must_use]
    pub fn dir_offset(&self) -> &[i32] {
        &self.dir_offset
    }

    /// Per-direction phase-accumulator increments (register resident).
    #[must_use]
    pub fn phase_inc(&self) -> &[i32] {
        &self.phase_inc
    }

    /// Per-dwell stride (register resident).
    #[must_use]
    pub fn dwell_stride(&self) -> i32 {
        self.dwell_stride
    }

    /// Steering bias (register resident).
    #[must_use]
    pub fn steer_bias(&self) -> i32 {
        self.steer_bias
    }

    /// Final quantization shift.
    #[must_use]
    pub fn shift(&self) -> u32 {
        self.shift
    }

    /// Computes one output phase. Exactly 5 additions and 1 arithmetic
    /// shift; `acc` is the per-direction running phase accumulator,
    /// updated in place (the first of the 5 additions).
    #[inline]
    #[must_use]
    pub fn phase(&self, e: usize, d: usize, dwell_base: i32, acc: &mut i32) -> i32 {
        *acc = acc.wrapping_add(self.phase_inc[d]); // add 1
        let s = self.cal_coarse[e]
            .wrapping_add(self.cal_fine[e]) // add 2
            .wrapping_add(self.dir_offset[d]) // add 3
            .wrapping_add(dwell_base) // add 4
            .wrapping_add(*acc); // add 5
        s >> self.shift // shift 1
    }

    /// Runs the reference kernel, afresh on every call.
    ///
    /// Output layout: `[dwell][direction][element]` flattened.
    #[must_use]
    pub fn reference_output(&self) -> Vec<i32> {
        let mut out = Vec::with_capacity(self.outputs());
        for dwell in 0..self.dwells {
            let dwell_base = (dwell as i32).wrapping_mul(self.dwell_stride);
            for d in 0..self.directions {
                let mut acc = self.steer_bias;
                for e in 0..self.elements {
                    out.push(self.phase(e, d, dwell_base, &mut acc));
                }
            }
        }
        out
    }

    /// The reference output, computed on first use and then shared by
    /// every run of this workload. Only the verifier reads it.
    #[must_use]
    pub(crate) fn golden(&self) -> &[i32] {
        self.golden.get_or_init(|| self.reference_output())
    }

    /// Integer operations per output: 5 adds + 1 shift.
    #[must_use]
    pub fn ops_per_output(&self) -> u64 {
        6
    }

    /// Memory words per output: 2 table reads + 1 result write.
    #[must_use]
    pub fn words_per_output(&self) -> u64 {
        3
    }

    /// Demands for the Section 2.5 performance model.
    #[must_use]
    pub fn demands(&self) -> KernelDemands {
        let outputs = self.outputs() as u64;
        KernelDemands {
            onchip_words: outputs * self.words_per_output(),
            offchip_words: outputs * self.words_per_output(),
            ops: outputs * self.ops_per_output(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_shape() {
        let w = BeamSteeringWorkload::paper(1).unwrap();
        assert_eq!(w.elements(), 1608);
        assert_eq!(w.directions(), 4);
        assert_eq!(w.dwells(), 8);
        assert_eq!(w.outputs(), 51_456);
        assert_eq!(w.reference_output().len(), 51_456);
    }

    #[test]
    fn rejects_zero_dimensions() {
        assert!(BeamSteeringWorkload::new(0, 4, 1, 0).is_err());
        assert!(BeamSteeringWorkload::new(4, 0, 1, 0).is_err());
        assert!(BeamSteeringWorkload::new(4, 4, 0, 0).is_err());
    }

    #[test]
    fn deterministic_generation_and_output() {
        let a = BeamSteeringWorkload::new(64, 2, 3, 9).unwrap();
        let b = BeamSteeringWorkload::new(64, 2, 3, 9).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.reference_output(), b.reference_output());
    }

    #[test]
    fn accumulator_makes_outputs_element_dependent() {
        let w = BeamSteeringWorkload::new(16, 1, 1, 2).unwrap();
        let out = w.reference_output();
        // With a strictly positive phase increment, consecutive outputs
        // for the same tables differ even when calibration entries repeat.
        let mut acc = w.steer_bias();
        let mut acc2 = w.steer_bias();
        let first = w.phase(0, 0, 0, &mut acc);
        assert_eq!(out[0], first);
        let _ = w.phase(0, 0, 0, &mut acc2);
        let again = w.phase(0, 0, 0, &mut acc2);
        assert_ne!(first, again, "running accumulator must advance");
    }

    #[test]
    fn phase_performs_expected_arithmetic() {
        let mut w = BeamSteeringWorkload::new(2, 1, 1, 0).unwrap();
        w.cal_coarse = vec![100, 200];
        w.cal_fine = vec![10, 20];
        w.dir_offset = vec![1000];
        w.phase_inc = vec![16];
        w.steer_bias = 0;
        w.shift = 4;
        let mut acc = 0;
        // (100 + 10 + 1000 + 0 + 16) >> 4 = 1126 >> 4 = 70
        assert_eq!(w.phase(0, 0, 0, &mut acc), 70);
        assert_eq!(acc, 16);
        // (200 + 20 + 1000 + 0 + 32) >> 4 = 1252 >> 4 = 78
        assert_eq!(w.phase(1, 0, 0, &mut acc), 78);
    }

    #[test]
    fn wrapping_arithmetic_never_panics() {
        let mut w = BeamSteeringWorkload::new(2, 1, 1, 0).unwrap();
        w.cal_coarse = vec![i32::MAX, i32::MIN];
        w.cal_fine = vec![i32::MAX, i32::MIN];
        let out = w.reference_output();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn demands_match_paper_per_output_costs() {
        let w = BeamSteeringWorkload::paper(0).unwrap();
        let d = w.demands();
        assert_eq!(d.ops, 51_456 * 6);
        assert_eq!(d.onchip_words, 51_456 * 3);
    }
}

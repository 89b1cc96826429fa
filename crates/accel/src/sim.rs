//! Cycle-level functional simulation of the weight-stationary PE array.
//!
//! The analytic model in [`crate::alloc`] counts cycles; this simulator
//! actually executes a dense layer on the modelled hardware — `MAChw`
//! PEs, each with an 8-bit MAC (32-bit accumulator), a ReLU, and a local
//! weight ROM — cycle by cycle, with time multiplexing of the `#MACop`
//! sequences over the PEs. Tests verify the simulated datapath computes
//! exactly the reference matrix arithmetic and that the measured cycle
//! count matches the closed form `MACseq · ⌈#MACop / MAChw⌉` used by the
//! allocator.

use mindful_core::units::Energy;

use crate::error::{AccelError, Result};
use crate::tech::TechnologyNode;
use crate::workload::MacWorkload;

/// An 8-bit weight-stationary layer executed by the simulator.
///
/// Computes `out[j] = relu(Σ_k w[j][k] · x[k] + b[j])` with `i8` inputs
/// and weights and an `i32` accumulator, matching the synthesized 8-bit
/// datatype of the Fig. 9 study.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenseLayer {
    inputs: usize,
    outputs: usize,
    /// Row-major `[outputs × inputs]` weights.
    weights: Vec<i8>,
    bias: Vec<i32>,
    relu: bool,
}

impl DenseLayer {
    /// Creates a dense layer from row-major weights and a bias vector.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::ShapeMismatch`] when `weights.len() !=
    /// inputs · outputs` or `bias.len() != outputs`, and
    /// [`AccelError::EmptyWorkload`] for zero dimensions.
    pub fn new(
        inputs: usize,
        outputs: usize,
        weights: Vec<i8>,
        bias: Vec<i32>,
        relu: bool,
    ) -> Result<Self> {
        if inputs == 0 || outputs == 0 {
            return Err(AccelError::EmptyWorkload);
        }
        if weights.len() != inputs * outputs {
            return Err(AccelError::ShapeMismatch {
                expected: inputs * outputs,
                actual: weights.len(),
            });
        }
        if bias.len() != outputs {
            return Err(AccelError::ShapeMismatch {
                expected: outputs,
                actual: bias.len(),
            });
        }
        Ok(Self {
            inputs,
            outputs,
            weights,
            bias,
            relu,
        })
    }

    /// The layer's MAC workload (`#MACop = outputs`, `MACseq = inputs`).
    ///
    /// # Errors
    ///
    /// Never fails for a constructed layer; kept fallible for API
    /// uniformity with [`MacWorkload::new`].
    pub fn workload(&self) -> Result<MacWorkload> {
        MacWorkload::dense(self.inputs as u64, self.outputs as u64)
    }

    /// Reference (non-simulated) computation of the layer.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::ShapeMismatch`] when `x` has the wrong
    /// width.
    pub fn reference(&self, x: &[i8]) -> Result<Vec<i32>> {
        if x.len() != self.inputs {
            return Err(AccelError::ShapeMismatch {
                expected: self.inputs,
                actual: x.len(),
            });
        }
        Ok((0..self.outputs)
            .map(|j| {
                let row = &self.weights[j * self.inputs..(j + 1) * self.inputs];
                let mut acc = self.bias[j];
                for (w, v) in row.iter().zip(x) {
                    acc += i32::from(*w) * i32::from(*v);
                }
                if self.relu {
                    acc.max(0)
                } else {
                    acc
                }
            })
            .collect())
    }
}

/// The result of one simulated layer execution.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// The computed (post-ReLU) outputs.
    pub outputs: Vec<i32>,
    /// Cycles spent, counting one MAC step per cycle per active PE.
    pub cycles: u64,
    /// Total MAC operations actually issued (excludes idle PE slots).
    pub macs_issued: u64,
    /// Dynamic energy consumed by issued MAC steps at the node's per-step
    /// energy (`P_MAC · t_MAC`).
    pub(crate) energy: Energy,
}

/// Simulates a dense layer on a PE array of `mac_hw` units, cycle by
/// cycle.
///
/// Each *round* assigns up to `mac_hw` output neurons to PEs; the round
/// then runs `MACseq` cycles, every active PE consuming the broadcast
/// input element of that cycle and its ROM weight. After the last cycle
/// of a round, active PEs apply ReLU and write their staging register.
///
/// # Errors
///
/// Returns [`AccelError::InvalidParameter`] for `mac_hw == 0` and
/// [`AccelError::ShapeMismatch`] for a wrong input width.
pub fn simulate_dense(
    layer: &DenseLayer,
    x: &[i8],
    mac_hw: u64,
    node: TechnologyNode,
) -> Result<SimOutcome> {
    if mac_hw == 0 {
        return Err(AccelError::InvalidParameter {
            name: "MAChw",
            value: 0.0,
        });
    }
    if x.len() != layer.inputs {
        return Err(AccelError::ShapeMismatch {
            expected: layer.inputs,
            actual: x.len(),
        });
    }
    let mac_hw = usize::try_from(mac_hw)
        .unwrap_or(usize::MAX)
        .min(layer.outputs);

    let mut outputs = vec![0_i32; layer.outputs];
    let mut cycles: u64 = 0;
    let mut macs_issued: u64 = 0;

    // Per-PE accumulator registers.
    let mut acc = vec![0_i32; mac_hw];
    for round_start in (0..layer.outputs).step_by(mac_hw) {
        let active = (layer.outputs - round_start).min(mac_hw);
        // Load bias into accumulators (the ROM's first entry in the real
        // design; free here, like the synthesis study's register init).
        for (pe, a) in acc.iter_mut().enumerate().take(active) {
            *a = layer.bias[round_start + pe];
        }
        // MACseq cycles: the dataflow FSM broadcasts x[k]; each active PE
        // multiplies by its stationary weight and accumulates.
        for (k, &xv) in x.iter().enumerate() {
            for (pe, a) in acc.iter_mut().enumerate().take(active) {
                let j = round_start + pe;
                let w = layer.weights[j * layer.inputs + k];
                *a += i32::from(w) * i32::from(xv);
                macs_issued += 1;
            }
            cycles += 1;
        }
        // Writeback through ReLU.
        for (pe, a) in acc.iter().enumerate().take(active) {
            let v = if layer.relu { (*a).max(0) } else { *a };
            outputs[round_start + pe] = v;
        }
    }

    let step_energy = node.mac_power() * node.mac_latency();
    Ok(SimOutcome {
        outputs,
        cycles,
        macs_issued,
        energy: step_energy * macs_issued as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(inputs: usize, outputs: usize, relu: bool, seed: i32) -> DenseLayer {
        // Deterministic pseudo-random small weights.
        let weights: Vec<i8> = (0..inputs * outputs)
            .map(|i| (((i as i32).wrapping_mul(31).wrapping_add(seed) % 23) - 11) as i8)
            .collect();
        let bias: Vec<i32> = (0..outputs).map(|j| (j as i32 % 7) - 3).collect();
        DenseLayer::new(inputs, outputs, weights, bias, relu).unwrap()
    }

    fn input(len: usize, seed: i32) -> Vec<i8> {
        (0..len)
            .map(|i| (((i as i32).wrapping_mul(17).wrapping_add(seed) % 19) - 9) as i8)
            .collect()
    }

    #[test]
    fn simulation_matches_reference_exactly() {
        let l = layer(37, 23, true, 5);
        let x = input(37, 2);
        let expected = l.reference(&x).unwrap();
        for hw in [1, 2, 3, 8, 23, 64] {
            let sim = simulate_dense(&l, &x, hw, TechnologyNode::NANGATE_45NM).unwrap();
            assert_eq!(sim.outputs, expected, "MAChw = {hw}");
        }
    }

    #[test]
    fn simulation_without_relu_can_be_negative() {
        let l = layer(8, 4, false, 11);
        let x = input(8, 3);
        let sim = simulate_dense(&l, &x, 2, TechnologyNode::NANGATE_45NM).unwrap();
        assert_eq!(sim.outputs, l.reference(&x).unwrap());
        assert!(
            sim.outputs.iter().any(|&v| v < 0),
            "chosen seed should produce a negative output: {:?}",
            sim.outputs
        );
    }

    #[test]
    fn cycle_count_matches_closed_form() {
        let l = layer(64, 30, true, 1);
        let x = input(64, 1);
        for hw in [1_u64, 3, 7, 16, 30] {
            let sim = simulate_dense(&l, &x, hw, TechnologyNode::NANGATE_45NM).unwrap();
            let expected = 64 * (30_u64.div_ceil(hw));
            assert_eq!(sim.cycles, expected, "MAChw = {hw}");
        }
    }

    #[test]
    fn macs_issued_equals_total_work() {
        // Regardless of parallelism, the same number of MACs is issued.
        let l = layer(40, 12, true, 9);
        let x = input(40, 4);
        for hw in [1, 5, 12] {
            let sim = simulate_dense(&l, &x, hw, TechnologyNode::NANGATE_45NM).unwrap();
            assert_eq!(sim.macs_issued, 40 * 12);
        }
    }

    #[test]
    fn energy_is_macs_times_step_energy() {
        let node = TechnologyNode::NANGATE_45NM;
        let l = layer(16, 8, true, 7);
        let x = input(16, 7);
        let sim = simulate_dense(&l, &x, 4, node).unwrap();
        // 0.05 mW × 2 ns = 0.1 pJ per step; 128 steps = 12.8 pJ.
        assert!((sim.energy.picojoules() - 12.8).abs() < 1e-9);
    }

    #[test]
    fn oversized_mac_hw_is_clamped() {
        let l = layer(10, 4, true, 3);
        let x = input(10, 8);
        let few = simulate_dense(&l, &x, 4, TechnologyNode::NANGATE_45NM).unwrap();
        let many = simulate_dense(&l, &x, 1000, TechnologyNode::NANGATE_45NM).unwrap();
        assert_eq!(few.outputs, many.outputs);
        assert_eq!(few.cycles, many.cycles);
    }

    #[test]
    fn shape_errors_are_reported() {
        let l = layer(10, 4, true, 3);
        assert!(simulate_dense(&l, &input(9, 0), 2, TechnologyNode::NANGATE_45NM).is_err());
        assert!(simulate_dense(&l, &input(10, 0), 0, TechnologyNode::NANGATE_45NM).is_err());
        assert!(l.reference(&input(11, 0)).is_err());
        assert!(DenseLayer::new(4, 2, vec![0; 7], vec![0; 2], true).is_err());
        assert!(DenseLayer::new(4, 2, vec![0; 8], vec![0; 3], true).is_err());
        assert!(DenseLayer::new(0, 2, vec![], vec![0; 2], true).is_err());
    }

    #[test]
    fn workload_matches_layer_shape() {
        let l = layer(128, 40, true, 0);
        let w = l.workload().unwrap();
        assert_eq!(w.ops(), 40);
        assert_eq!(w.seq(), 128);
    }

    #[test]
    fn simulated_latency_matches_allocator_model() {
        use crate::alloc::allocate_non_pipelined;
        use crate::workload::NetworkWorkload;
        let l = layer(100, 50, true, 13);
        let x = input(100, 13);
        let net = NetworkWorkload::new(vec![l.workload().unwrap()]).unwrap();
        let node = TechnologyNode::NANGATE_45NM;
        let deadline = mindful_core::units::TimeSpan::from_microseconds(60.0);
        let alloc = allocate_non_pipelined(&net, node, deadline).unwrap();
        let sim = simulate_dense(&l, &x, alloc.total_mac_hw(), node).unwrap();
        let sim_latency = node.mac_latency() * sim.cycles as f64;
        assert!(
            (sim_latency - alloc.latency()).abs().seconds() < 1e-12,
            "simulated {} vs allocated {}",
            sim_latency.microseconds(),
            alloc.latency().microseconds()
        );
        assert!(sim_latency <= deadline);
    }
}

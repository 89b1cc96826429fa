//! MAC allocation under a real-time deadline (Section 5.3, Eqs. 10–15).
//!
//! Given the per-layer MAC decomposition of a DNN and the NI sampling
//! period `t = 1/f`, find the minimum number of MAC units (`#MAChw`) that
//! executes the whole network within `t`:
//!
//! * **Non-pipelined** (Eqs. 11–12): one shared pool of `#MAChw` units
//!   runs the layers back-to-back; the *sum* of layer times must meet the
//!   deadline.
//! * **Pipelined** (Eqs. 14–15): each layer gets its own units and layers
//!   overlap across consecutive inputs; the *slowest stage* must meet the
//!   deadline.
//!
//! The resulting MAC count yields the architecture-independent power
//! lower bound `P_comp = #MAChw · P_MAC` (Eq. 13).

use core::fmt;

use mindful_core::units::{Power, TimeSpan};

use crate::error::{AccelError, Result};
use crate::tech::TechnologyNode;
use crate::workload::{MacWorkload, NetworkWorkload};

/// How layers share MAC hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ExecutionMode {
    /// One shared MAC pool; layers run sequentially (Eqs. 11–12).
    NonPipelined,
    /// Per-layer MAC pools; layers overlap (Eqs. 14–15).
    Pipelined,
}

impl fmt::Display for ExecutionMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NonPipelined => f.write_str("non-pipelined"),
            Self::Pipelined => f.write_str("pipelined"),
        }
    }
}

/// A feasible MAC allocation for a network under a deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    mode: ExecutionMode,
    node: TechnologyNode,
    per_layer: Vec<u64>,
    total_mac_hw: u64,
    latency: TimeSpan,
}

impl Allocation {
    /// The execution mode used.
    #[must_use]
    pub fn mode(&self) -> ExecutionMode {
        self.mode
    }

    /// MAC units assigned per layer. In non-pipelined mode every entry is
    /// the shared pool size.
    #[must_use]
    pub fn per_layer(&self) -> &[u64] {
        &self.per_layer
    }

    /// Total MAC units (`#MAChw`): the shared pool (non-pipelined) or the
    /// sum over stages (pipelined).
    #[must_use]
    pub fn total_mac_hw(&self) -> u64 {
        self.total_mac_hw
    }

    /// Achieved latency: total time non-pipelined, slowest stage
    /// pipelined.
    #[must_use]
    pub fn latency(&self) -> TimeSpan {
        self.latency
    }

    /// The power lower bound `P_comp = #MAChw · P_MAC` (Eq. 13).
    #[must_use]
    pub fn power(&self) -> Power {
        self.node.mac_power() * self.total_mac_hw as f64
    }

    /// Silicon area of the MAC array (units only — ROMs and routing
    /// excluded, matching the power lower bound's scope).
    #[must_use]
    pub fn area(&self) -> mindful_core::units::Area {
        self.node.mac_area() * self.total_mac_hw as f64
    }
}

impl fmt::Display for Allocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {}: {} MACs, {:.2} us, {:.3} mW",
            self.mode,
            self.node.name(),
            self.total_mac_hw,
            self.latency.microseconds(),
            self.power().milliwatts()
        )
    }
}

/// A real-time deadline counted in MAC steps of one technology node:
/// `B = ⌊T / t_MAC⌋`, the steps one MAC unit can take before the
/// deadline `T`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadlineSteps {
    node: TechnologyNode,
    deadline: TimeSpan,
    steps: u64,
}

impl DeadlineSteps {
    /// Counts the MAC steps of `node` that fit in `deadline`.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidParameter`] if the deadline is
    /// shorter than one MAC step.
    pub fn new(node: TechnologyNode, deadline: TimeSpan) -> Result<Self> {
        let steps = deadline / node.mac_latency();
        if !(steps >= 1.0 && steps.is_finite()) {
            return Err(AccelError::InvalidParameter {
                name: "deadline (MAC steps)",
                value: steps,
            });
        }
        Ok(Self {
            node,
            deadline,
            steps: steps as u64,
        })
    }

    /// The step count `B`.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The fewest MAC units that any allocation of a network whose
    /// first layer is `layer` can use: `⌈ops / ⌊B / seq⌋⌉`.
    ///
    /// This is exactly the pipelined stage of `layer`, which every
    /// pipelined total includes. A shared pool of `hw` units runs the
    /// layer in `seq · ⌈ops / hw⌉ ≤ B` steps at best, so `⌈ops / hw⌉ ≤
    /// ⌊B / seq⌋` and `hw` is at least the same count. Hence no
    /// allocation of the network ([`best_allocation`] included) uses
    /// fewer units, and `P_MAC` times this count is a lower bound on its
    /// `P_comp` (Eq. 13).
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::DeadlineInfeasible`] when one sequence of
    /// the layer alone (`seq` steps) overruns the deadline: no amount of
    /// parallelism helps, because sequences are serial.
    pub fn min_mac_hw(&self, layer: &MacWorkload) -> Result<u64> {
        let rounds = self.steps / layer.seq();
        if rounds == 0 {
            return Err(AccelError::DeadlineInfeasible {
                deadline_s: self.deadline.seconds(),
                best_s: self.node.mac_latency().seconds() * layer.seq() as f64,
            });
        }
        Ok(layer.ops().div_ceil(rounds))
    }
}

/// Steps a shared pool of `hw` MACs needs for the whole network.
fn total_steps(network: &NetworkWorkload, hw: u64) -> u64 {
    network
        .layers()
        .iter()
        .map(|l| l.seq().saturating_mul(l.ops().div_ceil(hw)))
        .sum()
}

/// Finds the minimum shared MAC pool meeting the deadline (Eqs. 11–12).
///
/// # Errors
///
/// * [`AccelError::InvalidParameter`] if the deadline is shorter than one
///   MAC step.
/// * [`AccelError::DeadlineInfeasible`] if even `#MAChw = max(#MACop)`
///   (the most useful parallelism, Eq. 12) cannot meet the deadline.
pub fn allocate_non_pipelined(
    network: &NetworkWorkload,
    node: TechnologyNode,
    deadline: TimeSpan,
) -> Result<Allocation> {
    let budget = DeadlineSteps::new(node, deadline)?.steps();
    let max_hw = network.max_ops();
    let best = total_steps(network, max_hw);
    if best > budget {
        return Err(AccelError::DeadlineInfeasible {
            deadline_s: deadline.seconds(),
            best_s: node.mac_latency().seconds() * best as f64,
        });
    }
    // Binary search the smallest hw with total_steps(hw) <= budget;
    // total_steps is non-increasing in hw.
    let (mut lo, mut hi) = (1_u64, max_hw);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if total_steps(network, mid) <= budget {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let hw = lo;
    let steps = total_steps(network, hw);
    Ok(Allocation {
        mode: ExecutionMode::NonPipelined,
        node,
        per_layer: vec![hw; network.len()],
        total_mac_hw: hw,
        latency: node.mac_latency() * steps as f64,
    })
}

/// Finds the minimum per-layer MAC pools for pipelined execution
/// (Eqs. 14–15): each stage independently meets the deadline.
///
/// # Errors
///
/// * [`AccelError::InvalidParameter`] if the deadline is shorter than one
///   MAC step.
/// * [`AccelError::DeadlineInfeasible`] if some layer's sequence alone
///   (`MACseq · t_MAC`) exceeds the deadline — no amount of parallelism
///   helps, because sequences are serial.
pub fn allocate_pipelined(
    network: &NetworkWorkload,
    node: TechnologyNode,
    deadline: TimeSpan,
) -> Result<Allocation> {
    let budget = DeadlineSteps::new(node, deadline)?;
    let mut per_layer = Vec::with_capacity(network.len());
    let mut slowest: u64 = 0;
    for layer in network.layers() {
        let hw = budget.min_mac_hw(layer)?;
        let steps = layer.seq() * layer.ops().div_ceil(hw);
        debug_assert!(steps <= budget.steps());
        slowest = slowest.max(steps);
        per_layer.push(hw);
    }
    let total = per_layer.iter().sum();
    Ok(Allocation {
        mode: ExecutionMode::Pipelined,
        node,
        per_layer,
        total_mac_hw: total,
        latency: node.mac_latency() * slowest as f64,
    })
}

/// Runs both execution modes and returns the one with fewer MAC units —
/// the paper reports "the best result between a pipelined and a
/// non-pipelined design" (Section 5.3).
///
/// # Errors
///
/// Returns [`AccelError::DeadlineInfeasible`] only when *both* modes are
/// infeasible; other validation errors propagate from either mode.
pub fn best_allocation(
    network: &NetworkWorkload,
    node: TechnologyNode,
    deadline: TimeSpan,
) -> Result<Allocation> {
    let np = allocate_non_pipelined(network, node, deadline);
    let pl = allocate_pipelined(network, node, deadline);
    match (np, pl) {
        (Ok(a), Ok(b)) => Ok(if a.total_mac_hw() <= b.total_mac_hw() {
            a
        } else {
            b
        }),
        (Ok(a), Err(_)) => Ok(a),
        (Err(_), Ok(b)) => Ok(b),
        (Err(a), Err(_)) => Err(a),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> TechnologyNode {
        TechnologyNode::NANGATE_45NM // 2 ns per step.
    }

    fn small_net() -> NetworkWorkload {
        NetworkWorkload::new(vec![
            MacWorkload::dense(128, 64).unwrap(),
            MacWorkload::dense(64, 40).unwrap(),
        ])
        .unwrap()
    }

    /// Brute-force minimum shared pool for cross-checking.
    fn brute_force_non_pipelined(net: &NetworkWorkload, budget_steps: u64) -> Option<u64> {
        (1..=net.max_ops()).find(|&hw| total_steps(net, hw) <= budget_steps)
    }

    #[test]
    fn non_pipelined_matches_brute_force() {
        let net = small_net();
        for deadline_us in [20.0, 40.0, 80.0, 160.0, 500.0] {
            let deadline = TimeSpan::from_microseconds(deadline_us);
            let budget = (deadline / node().mac_latency()) as u64;
            let expected = brute_force_non_pipelined(&net, budget);
            let got = allocate_non_pipelined(&net, node(), deadline).ok();
            match (expected, got) {
                (Some(hw), Some(alloc)) => {
                    assert_eq!(alloc.total_mac_hw(), hw, "deadline {deadline_us} us");
                }
                (None, None) => {}
                (e, g) => panic!("mismatch at {deadline_us} us: {e:?} vs {g:?}"),
            }
        }
    }

    #[test]
    fn allocation_meets_its_deadline() {
        let net = small_net();
        let deadline = TimeSpan::from_microseconds(100.0);
        for alloc in [
            allocate_non_pipelined(&net, node(), deadline).unwrap(),
            allocate_pipelined(&net, node(), deadline).unwrap(),
        ] {
            assert!(
                alloc.latency() <= deadline,
                "{alloc}: {} > 100 us",
                alloc.latency().microseconds()
            );
        }
    }

    #[test]
    fn one_fewer_mac_would_miss_the_deadline() {
        // Minimality: the returned pool size is tight.
        let net = small_net();
        let deadline = TimeSpan::from_microseconds(50.0);
        let alloc = allocate_non_pipelined(&net, node(), deadline).unwrap();
        let hw = alloc.total_mac_hw();
        if hw > 1 {
            let budget = (deadline / node().mac_latency()) as u64;
            assert!(total_steps(&net, hw - 1) > budget);
        }
    }

    #[test]
    fn pipelined_stage_times_all_meet_deadline() {
        let net = small_net();
        let deadline = TimeSpan::from_microseconds(30.0);
        let alloc = allocate_pipelined(&net, node(), deadline).unwrap();
        let budget = (deadline / node().mac_latency()) as u64;
        for (layer, &hw) in net.layers().iter().zip(alloc.per_layer()) {
            let steps = layer.seq() * layer.ops().div_ceil(hw);
            assert!(steps <= budget);
            // Minimality per stage.
            if hw > 1 {
                let fewer = layer.seq() * layer.ops().div_ceil(hw - 1);
                assert!(fewer > budget, "layer over-provisioned");
            }
        }
    }

    #[test]
    fn relaxed_deadline_needs_fewer_macs() {
        let net = small_net();
        let tight = allocate_non_pipelined(&net, node(), TimeSpan::from_microseconds(10.0));
        let loose =
            allocate_non_pipelined(&net, node(), TimeSpan::from_microseconds(1000.0)).unwrap();
        if let Ok(tight) = tight {
            assert!(tight.total_mac_hw() >= loose.total_mac_hw());
        }
        // With a millisecond, both layers fit on a single MAC:
        // 128·64 + 64·40 = 10752 steps × 2 ns = 21.5 us... still > 1 MAC
        // only if the deadline is shorter than that.
        assert_eq!(loose.total_mac_hw(), 1);
    }

    #[test]
    fn infeasible_deadline_is_reported() {
        let net = small_net();
        // Even fully parallel, the sum of sequence lengths is
        // (128 + 64) steps × 2 ns = 384 ns; ask for less.
        let err =
            allocate_non_pipelined(&net, node(), TimeSpan::from_nanoseconds(300.0)).unwrap_err();
        assert!(matches!(err, AccelError::DeadlineInfeasible { .. }));
        // Pipelined needs only the slowest layer (128 steps = 256 ns):
        // layer 1 must go fully parallel (64 MACs, 1 round); layer 2 can
        // afford 2 rounds of 64 steps, so 20 MACs suffice.
        let alloc = allocate_pipelined(&net, node(), TimeSpan::from_nanoseconds(300.0)).unwrap();
        assert_eq!(alloc.per_layer(), [64, 20]);
        // But 200 ns is infeasible even pipelined.
        assert!(allocate_pipelined(&net, node(), TimeSpan::from_nanoseconds(200.0)).is_err());
    }

    #[test]
    fn best_allocation_picks_the_cheaper_mode() {
        let net = small_net();
        let deadline = TimeSpan::from_microseconds(25.0);
        let np = allocate_non_pipelined(&net, node(), deadline).unwrap();
        let pl = allocate_pipelined(&net, node(), deadline).unwrap();
        let best = best_allocation(&net, node(), deadline).unwrap();
        assert_eq!(
            best.total_mac_hw(),
            np.total_mac_hw().min(pl.total_mac_hw())
        );
    }

    #[test]
    fn best_allocation_falls_back_when_one_mode_fails() {
        let net = small_net();
        // 300 ns: non-pipelined infeasible, pipelined feasible.
        let best = best_allocation(&net, node(), TimeSpan::from_nanoseconds(300.0)).unwrap();
        assert_eq!(best.mode(), ExecutionMode::Pipelined);
        // 100 ns: both infeasible.
        assert!(best_allocation(&net, node(), TimeSpan::from_nanoseconds(100.0)).is_err());
    }

    #[test]
    fn power_is_mac_count_times_mac_power() {
        let net = small_net();
        let alloc = allocate_pipelined(&net, node(), TimeSpan::from_microseconds(30.0)).unwrap();
        let expected = node().mac_power() * alloc.total_mac_hw() as f64;
        assert!((alloc.power() - expected).abs().watts() < 1e-15);
    }

    #[test]
    fn area_is_mac_count_times_mac_area() {
        let net = small_net();
        let alloc = allocate_pipelined(&net, node(), TimeSpan::from_microseconds(30.0)).unwrap();
        let expected = node().mac_area() * alloc.total_mac_hw() as f64;
        assert!((alloc.area() - expected).abs().square_meters() < 1e-18);
    }

    #[test]
    fn faster_node_needs_fewer_macs() {
        let net = NetworkWorkload::new(vec![MacWorkload::dense(1000, 500).unwrap()]).unwrap();
        let deadline = TimeSpan::from_microseconds(125.0);
        let slow = allocate_non_pipelined(&net, TechnologyNode::NANGATE_45NM, deadline)
            .unwrap()
            .total_mac_hw();
        let fast = allocate_non_pipelined(&net, TechnologyNode::ADVANCED_12NM, deadline)
            .unwrap()
            .total_mac_hw();
        assert!(fast < slow, "fast {fast} vs slow {slow}");
    }

    #[test]
    fn sub_step_deadline_is_invalid() {
        let net = small_net();
        let err =
            allocate_non_pipelined(&net, node(), TimeSpan::from_nanoseconds(1.0)).unwrap_err();
        assert!(matches!(err, AccelError::InvalidParameter { .. }));
    }

    #[test]
    fn first_layer_floor_is_its_pipelined_stage_and_bounds_both_modes() {
        let net = small_net();
        for deadline_us in [0.3, 1.0, 25.0, 100.0] {
            let deadline = TimeSpan::from_microseconds(deadline_us);
            let budget = DeadlineSteps::new(node(), deadline).unwrap();
            let floor = budget.min_mac_hw(&net.layers()[0]).unwrap();
            let pl = allocate_pipelined(&net, node(), deadline).unwrap();
            assert_eq!(pl.per_layer()[0], floor, "{deadline_us} us");
            if let Ok(np) = allocate_non_pipelined(&net, node(), deadline) {
                assert!(np.total_mac_hw() >= floor, "{deadline_us} us");
            }
        }
        // 200 ns is 100 steps: one 128-step sequence of layer 1 overruns.
        let budget = DeadlineSteps::new(node(), TimeSpan::from_nanoseconds(200.0)).unwrap();
        assert_eq!(budget.steps(), 100);
        assert!(matches!(
            budget.min_mac_hw(&net.layers()[0]),
            Err(AccelError::DeadlineInfeasible { .. })
        ));
    }

    #[test]
    fn display_mentions_mode_and_power() {
        let net = small_net();
        let alloc = best_allocation(&net, node(), TimeSpan::from_microseconds(100.0)).unwrap();
        let text = alloc.to_string();
        assert!(text.contains("45nm"));
        assert!(text.contains("mW"));
    }
}

//! # MINDFUL accel — DNN-accelerator substrate for implanted SoCs
//!
//! The weight-stationary, non-Von-Neumann MAC-array accelerator of
//! Section 5.3: an analytic technology library pinned to the paper's
//! post-synthesis anchors (45 nm: 2 ns / 0.05 mW per MAC; 12 nm:
//! 1 ns / 0.026 mW), the Fig. 9 layer-accelerator power model, the
//! deadline-driven MAC allocation optimizer (Eqs. 10–15, pipelined and
//! non-pipelined), and a cycle-level functional simulator that executes
//! real 8-bit layers on the modelled hardware.
//!
//! ## Quick start
//!
//! ```
//! use mindful_accel::prelude::*;
//! use mindful_core::units::TimeSpan;
//!
//! // How many MACs does a 2-layer MLP need to keep up with an 8 kHz NI?
//! let net = NetworkWorkload::new(vec![
//!     MacWorkload::dense(1024, 256)?,
//!     MacWorkload::dense(256, 40)?,
//! ])?;
//! let alloc = best_allocation(&net, TechnologyNode::NANGATE_45NM,
//!                             TimeSpan::from_microseconds(125.0))?;
//! assert!(alloc.total_mac_hw() > 0);
//! println!("lower-bound power: {:.3} mW", alloc.power().milliwatts());
//! # Ok::<(), mindful_accel::AccelError>(())
//! ```

pub mod alloc;
pub mod design;
mod error;
pub mod sim;
pub mod tech;
pub mod workload;

pub use error::{AccelError, Result};

/// Convenient glob-import of the most used items.
pub mod prelude {
    pub use crate::alloc::{
        allocate_non_pipelined, allocate_pipelined, best_allocation, Allocation,
    };
    pub use crate::design::{fig9_design_points, AcceleratorDesign};
    pub use crate::sim::{simulate_dense, DenseLayer};
    pub use crate::tech::TechnologyNode;
    pub use crate::workload::{MacWorkload, NetworkWorkload};
    pub use crate::{AccelError, Result};
}

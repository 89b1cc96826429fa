//! # MINDFUL RF — wireless-link substrate for implantable BCIs
//!
//! The implant-to-wearable wireless link of Sections 5.1–5.2: analytic
//! BER models for OOK and M-QAM, the through-tissue link budget
//! (path loss 60 dB, margin 20 dB, BER 1e-6), the minimum-QAM-efficiency
//! analysis behind Fig. 7, and a functional bit-level modem with an AWGN
//! channel that validates the closed forms by Monte-Carlo measurement.
//!
//! ## Quick start
//!
//! ```
//! use mindful_rf::prelude::*;
//!
//! // How efficient must a 16-QAM transmitter be to stream 4096 channels
//! // from a BISC-like implant?
//! use mindful_core::prelude::*;
//! let anchor = SplitDesign::from_scaled(scale_to_standard(&soc_by_id(1)?)?);
//! let link = LinkBudget::paper_nominal();
//! let point = qam_operating_point(&anchor, 4096, &link)?;
//! assert_eq!(point.bits_per_symbol(), 4);
//! assert!(point.min_efficiency() > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod arq;
pub mod auth;
pub mod efficiency;
mod error;
pub mod fault;
pub mod linkbudget;
pub mod modem;
pub mod modulation;
pub mod ook;
pub mod packet;
pub mod qfunc;
pub mod shannon;
pub mod wpt;

pub use error::{Result, RfError};

/// Convenient glob-import of the most used items.
pub mod prelude {
    pub use crate::arq::{ArqConfig, ArqLink, ArqReceiver, ArqStats, Playout};
    pub use crate::auth::{
        AuthConfig, AuthKey, AuthReceiver, AuthSender, AuthStats, ReplayVerdict, ReplayWindow,
    };
    pub use crate::efficiency::{
        max_channels_at_efficiency, qam_operating_point, CURRENT_QAM_EFFICIENCY,
        SHORT_TERM_QAM_EFFICIENCY,
    };
    pub use crate::fault::{
        Adversary, AttackConfig, AttackCounters, FaultConfig, FaultCounters, FaultPlan, FrameFault,
        WireFaultInjector,
    };
    pub use crate::linkbudget::LinkBudget;
    pub use crate::modem::Modem;
    pub use crate::modulation::Modulation;
    pub use crate::ook::OokTransmitter;
    pub use crate::packet::{
        depacketize, depacketize_into, packetize, packetize_into, Frame, FrameHeader,
    };
    pub use crate::wpt::WptLink;
    pub use crate::{Result, RfError};
}

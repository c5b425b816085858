//! # ofpc-transponder — optical transponder models
//!
//! The data-plane hardware of the paper's §3: the commodity transponder of
//! Fig. 3 (laser, modulator, DAC on the transmit path; photodetector, ADC
//! on the receive path) and the proposed photonic compute transponder of
//! Fig. 4, whose receive path gains a **photonic engine** that operates on
//! the incoming light *before* detection — preamble detection, the
//! configured P1/P2/P3 computation, and result insertion into a reserved
//! frame field.
//!
//! Everything is accounted: per-stage energy ([`energy`]), added latency,
//! bit errors ([`ber`]), form-factor power/area budgets (§5), and
//! reconfiguration latency ([`config`]). The comparison between
//! [`commodity::CommodityTransponder`] + an external accelerator and
//! [`compute::PhotonicComputeTransponder`] is experiment E3's subject.

pub mod ber;
pub mod coherent;
pub mod commodity;
pub mod compute;
pub mod config;
pub mod energy;
pub mod frame;
pub mod rxpath;
pub mod txpath;

pub use commodity::CommodityTransponder;
pub use compute::{ComputeOp, PhotonicComputeTransponder};
pub use frame::Frame;

//! # osiris-board — the OSIRIS network adaptor
//!
//! The adaptor consists of "two mostly independent halves — send and
//! receive — each controlled by an Intel 80960 microprocessor", attached to
//! the host through a 128 KB dual-port memory region on the TURBOchannel.
//! Software defines everything: the host/board interface is the shared
//! data structures this crate implements, and the SAR algorithms are the
//! firmware state machines in [`tx`] and [`rx`].
//!
//! Layout of the reproduction:
//!
//! * [`descriptor`] — buffer descriptors and the **lock-free
//!   one-reader-one-writer FIFO queues** of §2.1.1, with exact load/store
//!   accounting so the cost of crossing the TURBOchannel is charged
//!   faithfully; plus the spin-lock-guarded baseline queue the paper
//!   rejected.
//! * [`dpram`] — the dual-port memory layout: 16 × 4 KB pages per half,
//!   one transmit queue or free/receive queue pair per page (§3.2's ADC
//!   substrate).
//! * [`dma`] — DMA transaction planning: single-cell, double-cell
//!   combining, the page-boundary-stop rule, and ideal arbitrary-length
//!   transfers (§2.5).
//! * [`interrupt`] — interrupt suppression policies (§2.1.2).
//! * [`tx`] / [`rx`] — the firmware: segmentation with per-queue
//!   priorities, reassembly with early demultiplexing by VCI, free-buffer
//!   management, and the fictitious-PDU generator used by the paper's
//!   receive-side experiments (§4).

pub mod descriptor;
pub mod dma;
pub mod dpram;
pub mod interrupt;
pub mod rx;
pub mod tx;

pub use descriptor::{DescRing, Descriptor, LockedRing, RingCosts, RingFull, DESC_WORDS};
pub use dma::{plan_dma, DmaMode, DmaPlan, DmaXfer};
pub use dpram::{DpramLayout, QUEUE_PAGES};
pub use interrupt::InterruptPolicy;
pub use rx::{RxConfig, RxOutcome, RxProcessor};
pub use tx::{FirmwareSpec, TxConfig, TxOutcome, TxProcessor};

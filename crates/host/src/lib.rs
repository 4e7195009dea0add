//! # osiris-host — the host operating system substrate
//!
//! The paper's host side: Mach 3.0 with an x-kernel network subsystem on
//! two generations of DEC workstation. This crate models the parts that
//! interact with the adaptor:
//!
//! * [`machine`] — the two machines of §4 ([`MachineSpec::ds5000_200`],
//!   [`MachineSpec::dec3000_600`]) as bundles of bus topology, cache
//!   geometry and calibrated software costs (75 µs interrupts, 200 µs
//!   UDP/IP PDU service, …), plus [`HostMachine`]: the live CPU / cache /
//!   memory complex with cost-accounted read/write/checksum helpers.
//! * [`wiring`] — §2.4's page-wiring services: Mach's heavyweight
//!   `vm_wire` versus the low-level pmap path the authors switched to.
//! * [`driver`] — the kernel OSIRIS device driver: descriptor-queue
//!   management over the TURBOchannel, interrupt-driven receive drain,
//!   free-buffer replenishment with per-path recycling (§2.3's security
//!   rule), the three cache-invalidation strategies of §2.3, and the
//!   blocked-transmit protocol of §2.1.2.
//! * [`domain`] — protection domains and crossing costs (substrate for
//!   fbufs and ADCs).
//! * [`thread`] — the priority thread scheduler §3.1's prioritised drain
//!   threads run on.

pub mod domain;
pub mod driver;
pub mod machine;
pub mod thread;
pub mod wiring;

pub use domain::DomainId;
pub use driver::{CacheStrategy, DeliveredPdu, DrainOutcome, OsirisDriver, SendOutcome};
pub use machine::{HostMachine, MachineSpec, SoftwareCosts};
pub use thread::{Scheduler, ThreadId, ThreadState};
pub use wiring::{WiringMode, WiringService};

//! Interrupt policies (§2.1.2).
//!
//! "Handling a host interrupt asserted by the OSIRIS board takes
//! approximately 75 µs in Mach on a DECstation 5000/200", versus 200 µs to
//! service a whole UDP/IP PDU — so interrupts are a large fraction of
//! per-packet cost, and the paper's discipline is built around suppressing
//! them:
//!
//! * receive: interrupt only on the receive queue's empty → non-empty
//!   transition, so a burst of n PDUs costs one interrupt;
//! * transmit: no completion interrupts at all; the host polls the tail
//!   pointer during other driver activity, and the board interrupts only
//!   when a previously full transmit queue drains to half empty.
//!
//! [`InterruptPolicy::PerPdu`] is the traditional baseline the paper
//! compares against.

/// When the receive processor asserts a host interrupt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterruptPolicy {
    /// Traditional: one interrupt per received PDU.
    PerPdu,
    /// OSIRIS: interrupt only when the receive queue transitions from
    /// empty to non-empty.
    OnTransition,
}

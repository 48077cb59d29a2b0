//! # dmv-net
//!
//! The cluster transport tier. The paper runs DMV on a 19-node switched
//! LAN over TCP; this crate makes that boundary real while keeping the
//! simulated network as a drop-in alternative:
//!
//! * [`frame`] — the length-prefixed, CRC-checksummed frame format and
//!   the protocol-version/feature-bits handshake;
//! * [`transport`] — the [`Transport`]/[`Endpoint`] traits that
//!   `dmv-core` is generic over (send, broadcast, receive, kill, and
//!   the partition fault hooks the fail-over machinery tests against);
//! * [`sim`] — [`SimnetTransport`], the in-process simulated network:
//!   typed channels, one NIC timeline per sender stamping each
//!   message with its modeled arrival, partitions and node kill;
//! * [`fault`] — [`FaultTransport`], a decorator injecting crash
//!   faults at exact send counts (kill-mid-broadcast scenarios for
//!   deterministic simulation testing);
//! * [`tcp`] — [`TcpTransport`], real sockets on `std::net` loopback or
//!   LAN: thread-per-connection reader/writer pairs, bounded outbound
//!   queues with backpressure, reconnect with capped exponential
//!   backoff + deterministic jitter, heartbeat frames on idle links.
//!
//! Payloads cross either transport through the [`dmv_common::wire`]
//! codec, so the byte counts the simulator charges and the bytes the
//! sockets carry are identical.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod fault;
pub mod frame;
pub mod queue;
pub mod sim;
pub mod tcp;
pub mod transport;

pub use fault::FaultTransport;
pub use sim::SimnetTransport;
pub use tcp::TcpTransport;
pub use transport::{DynTransport, Endpoint, Envelope, Transport};

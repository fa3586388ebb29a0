//! A deterministic discrete-event Ethernet LAN simulator.
//!
//! This crate is the substrate every arpshield experiment runs on. It
//! models a switched (or hubbed) local segment at frame granularity:
//! devices exchange raw Ethernet bytes over links with latency, a
//! [`Switch`] maintains a bounded CAM table with aging and a configurable
//! fail-open mode, and a mirror port feeds monitoring devices exactly the
//! way an IDS tap does on real hardware.
//!
//! Determinism is a design requirement: the event queue breaks timestamp
//! ties by insertion sequence and all randomness flows from a seeded
//! [`SimRng`], so every experiment in the paper reproduction replays
//! bit-identically from its seed.
//!
//! # Example
//!
//! ```rust
//! use arpshield_netsim::{Hub, Simulator, Device, DeviceCtx, PortId, SimTime};
//! use std::time::Duration;
//!
//! struct Beacon;
//! impl Device for Beacon {
//!     fn name(&self) -> &str { "beacon" }
//!     fn port_count(&self) -> usize { 1 }
//!     fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
//!         ctx.send(PortId(0), vec![0u8; 64]);
//!     }
//!     fn on_frame(&mut self, _ctx: &mut DeviceCtx<'_>, _port: PortId, _frame: &[u8]) {}
//! }
//!
//! let mut sim = Simulator::new(42);
//! let a = sim.add_device(Box::new(Beacon));
//! let b = sim.add_device(Box::new(Hub::new("hub", 4)));
//! sim.connect(a, PortId(0), b, PortId(0), Duration::from_micros(5)).unwrap();
//! sim.run_until(SimTime::from_secs(1));
//! assert_eq!(sim.wire_stats().frames, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod device;
mod error;
mod frame;
mod hub;
mod impair;
mod pool;
mod rng;
mod sim;
mod standalone;
mod switch;
mod time;
mod wheel;

pub use device::{Device, DeviceCtx, DeviceId, PortId};
pub use error::NetsimError;
pub use frame::{eth_frame, Frame};
pub use hub::Hub;
pub use impair::{FlapSchedule, LinkProfile};
pub use pool::{pool_stats, PoolStats};
pub use rng::SimRng;
pub use sim::{Simulator, WireStats};
pub use standalone::StandaloneDriver;
pub use switch::{
    CamEntry, CamTable, FailMode, FrameInspector, InspectVerdict, PortSecurityConfig, PortVlan,
    Switch, SwitchConfig, SwitchHandle, SwitchStats, ViolationAction, VlanId, VlanSet,
};
pub use time::SimTime;
pub use wheel::TimingWheel;

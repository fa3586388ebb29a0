//! CAM-table flooding (`macof`-style).

use std::time::Duration;

use arpshield_netsim::{eth_frame, Device, DeviceCtx, PortId};
use arpshield_packet::{EtherType, IpProtocol, Ipv4Addr, Ipv4Emit, MacAddr};

use crate::ground_truth::{AttackEvent, AttackKind, GroundTruth};

/// Flooder parameters.
#[derive(Debug, Clone, Copy)]
pub struct MacFlooderConfig {
    /// The attacker's real address (used only for bookkeeping; flood
    /// frames carry random sources, as `macof` does).
    pub attacker_mac: MacAddr,
    /// Delay before flooding starts.
    pub start_delay: Duration,
    /// Frames per burst.
    pub burst: u32,
    /// Interval between bursts.
    pub interval: Duration,
    /// Total frames to send (`None` = until the run ends).
    pub total: Option<u64>,
}

impl MacFlooderConfig {
    /// Roughly `macof`'s observed rate (~155 000 frames/minute) in
    /// 100-frame bursts.
    pub fn macof_rate(attacker_mac: MacAddr) -> Self {
        MacFlooderConfig {
            attacker_mac,
            start_delay: Duration::from_millis(100),
            burst: 100,
            interval: Duration::from_millis(39),
            total: None,
        }
    }
}

/// Flood statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FloodStats {
    /// Frames emitted.
    pub frames_sent: u64,
    /// Bursts emitted.
    pub bursts: u64,
}

/// Fills a switch's CAM table with random source addresses until it
/// fail-opens into hub behaviour.
#[derive(Debug)]
pub struct MacFlooder {
    config: MacFlooderConfig,
    truth: GroundTruth,
    /// Live counters.
    pub stats: FloodStats,
}

const TICK: u64 = 1;

impl MacFlooder {
    /// Creates a flooder reporting into `truth`.
    pub fn new(config: MacFlooderConfig, truth: GroundTruth) -> Self {
        MacFlooder { config, truth, stats: FloodStats::default() }
    }

    fn random_mac(ctx: &mut DeviceCtx<'_>) -> MacAddr {
        let r = ctx.rng().next_u64().to_be_bytes();
        // Force unicast + locally administered, like macof.
        MacAddr::new([r[0] & 0xfe | 0x02, r[1], r[2], r[3], r[4], r[5]])
    }
}

impl Device for MacFlooder {
    fn name(&self) -> &str {
        "mac-flooder"
    }

    fn port_count(&self) -> usize {
        1
    }

    fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
        ctx.schedule_in(self.config.start_delay, TICK);
    }

    fn on_timer(&mut self, ctx: &mut DeviceCtx<'_>, token: u64) {
        if token != TICK {
            return;
        }
        let mut sent_this_burst = 0u32;
        for _ in 0..self.config.burst {
            if let Some(total) = self.config.total {
                if self.stats.frames_sent >= total {
                    break;
                }
            }
            let src = Self::random_mac(ctx);
            let dst = Self::random_mac(ctx);
            // macof sends small bogus IPv4/TCP packets; the payload content
            // is irrelevant, the random *source MAC* does the damage.
            let r = ctx.rng().next_u64();
            let pkt = Ipv4Emit::new(
                Ipv4Addr::from_u32((r >> 32) as u32),
                Ipv4Addr::from_u32(r as u32),
                IpProtocol::Tcp,
                [0u8; 20].as_slice(),
            );
            ctx.send(PortId(0), eth_frame(dst, src, EtherType::Ipv4, &pkt));
            self.stats.frames_sent += 1;
            sent_this_burst += 1;
        }
        if sent_this_burst > 0 {
            self.stats.bursts += 1;
            self.truth.record(AttackEvent {
                at: ctx.now(),
                attacker: self.config.attacker_mac,
                kind: AttackKind::MacFlood { frames: sent_this_burst },
                forged_ip: None,
                claimed_mac: None,
            });
            ctx.schedule_in(self.config.interval, TICK);
        }
    }

    fn on_frame(&mut self, _ctx: &mut DeviceCtx<'_>, _port: PortId, _frame: &[u8]) {
        // After fail-open the flooder would sniff here; the eavesdropping
        // payoff is measured by the monitor devices, not the attacker.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arpshield_netsim::{SimTime, Simulator, Switch, SwitchConfig};
    use arpshield_packet::EthernetView;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn flood_fills_cam_and_respects_total() {
        let mut sim = Simulator::new(9);
        let (sw, handle) =
            Switch::new("sw", SwitchConfig { ports: 4, cam_capacity: 64, ..Default::default() });
        let sw = sim.add_device(Box::new(sw));
        let truth = GroundTruth::new();
        let flooder = MacFlooder::new(
            MacFlooderConfig {
                attacker_mac: MacAddr::from_index(66),
                start_delay: Duration::from_millis(1),
                burst: 50,
                interval: Duration::from_millis(10),
                total: Some(200),
            },
            truth.clone(),
        );
        let f = sim.add_device(Box::new(flooder));
        sim.connect(f, PortId(0), sw, PortId(0), Duration::from_micros(1)).unwrap();
        sim.run_until(SimTime::from_secs(2));
        assert!(handle.cam.borrow().is_full());
        assert_eq!(handle.cam.borrow().occupancy(), 64);
        assert!(handle.stats.borrow().cam_full_events >= 100);
        // Ground truth recorded bursts.
        assert!(truth.len() >= 4);
        assert!(truth.events().iter().all(|e| matches!(e.kind, AttackKind::MacFlood { .. })));
    }

    #[test]
    fn random_macs_are_unicast() {
        /// Records the source address of every frame it receives.
        struct Probe(Rc<RefCell<Vec<MacAddr>>>);
        impl Device for Probe {
            fn name(&self) -> &str {
                "p"
            }
            fn port_count(&self) -> usize {
                1
            }
            fn on_frame(&mut self, _: &mut DeviceCtx<'_>, _: PortId, frame: &[u8]) {
                self.0.borrow_mut().push(EthernetView::parse_strict(frame).unwrap().src());
            }
        }
        let mut sim = Simulator::new(1);
        let sources = Rc::new(RefCell::new(Vec::new()));
        let p = sim.add_device(Box::new(Probe(Rc::clone(&sources))));
        let f = sim.add_device(Box::new(MacFlooder::new(
            MacFlooderConfig {
                attacker_mac: MacAddr::from_index(1),
                start_delay: Duration::from_millis(1),
                burst: 32,
                interval: Duration::from_millis(5),
                total: Some(32),
            },
            GroundTruth::new(),
        )));
        sim.connect(f, PortId(0), p, PortId(0), Duration::from_micros(1)).unwrap();
        sim.run_until(SimTime::from_secs(1));
        let sources = sources.borrow();
        assert_eq!(sources.len(), 32);
        for src in sources.iter() {
            assert!(src.is_unicast());
            assert!(src.is_locally_administered());
        }
    }
}

//! The man-in-the-middle relay: the payoff attack ARP poisoning enables.

use std::time::Duration;

use arpshield_netsim::{eth_frame, Device, DeviceCtx, PortId};
use arpshield_packet::{ArpOp, ArpPacket, EtherType, EthernetView, Ipv4Addr, Ipv4Packet, MacAddr};

use crate::ground_truth::{AttackEvent, AttackKind, GroundTruth};
use crate::poison::PoisonVariant;

/// Relay parameters: intercept the conversation between two stations
/// (classically a host and its gateway).
#[derive(Debug, Clone, Copy)]
pub struct MitmRelayConfig {
    /// Attacker hardware address.
    pub attacker_mac: MacAddr,
    /// First endpoint (`ip`, real `mac`).
    pub side_a: (Ipv4Addr, MacAddr),
    /// Second endpoint (`ip`, real `mac`).
    pub side_b: (Ipv4Addr, MacAddr),
    /// Delay before the first poisoning round.
    pub start_delay: Duration,
    /// Re-poisoning interval (must be shorter than the victims' ARP
    /// timeout to keep the intercept alive).
    pub repeat: Duration,
}

/// Intercept statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MitmStats {
    /// IPv4 frames intercepted and relayed onward.
    pub relayed_frames: u64,
    /// Bytes of IPv4 payload that crossed the attacker.
    pub intercepted_bytes: u64,
    /// Poisoning rounds emitted.
    pub poison_rounds: u64,
}

/// A full-duplex ARP-poisoning man-in-the-middle.
///
/// Each round it sends two unicast forged replies — telling A that B's IP
/// is at the attacker, and B that A's IP is at the attacker — then
/// transparently relays the intercepted IPv4 traffic so the victims
/// notice nothing. This is the `ettercap`-style attack the detection
/// schemes are scored against.
#[derive(Debug)]
pub struct MitmRelay {
    config: MitmRelayConfig,
    truth: GroundTruth,
    /// Live intercept counters.
    pub stats: MitmStats,
}

const TICK: u64 = 1;

impl MitmRelay {
    /// Creates a relay reporting into `truth`.
    pub fn new(config: MitmRelayConfig, truth: GroundTruth) -> Self {
        MitmRelay { config, truth, stats: MitmStats::default() }
    }

    fn poison(&mut self, ctx: &mut DeviceCtx<'_>) {
        let c = self.config;
        for (victim_of_forgery, poisoned_host) in [(c.side_b, c.side_a), (c.side_a, c.side_b)] {
            let forged = ArpPacket {
                op: ArpOp::Reply,
                sender_mac: c.attacker_mac,
                sender_ip: victim_of_forgery.0,
                target_mac: poisoned_host.1,
                target_ip: poisoned_host.0,
            };
            ctx.send(
                PortId(0),
                eth_frame(poisoned_host.1, c.attacker_mac, EtherType::ARP, &forged),
            );
            self.truth.record(AttackEvent {
                at: ctx.now(),
                attacker: c.attacker_mac,
                kind: AttackKind::ArpPoison(PoisonVariant::UnicastReply),
                forged_ip: Some(victim_of_forgery.0),
                claimed_mac: Some(c.attacker_mac),
            });
        }
        self.stats.poison_rounds += 1;
    }
}

impl Device for MitmRelay {
    fn name(&self) -> &str {
        "mitm-relay"
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
        self.poison(ctx);
        ctx.schedule_in(self.config.repeat, TICK);
    }

    fn on_frame(&mut self, ctx: &mut DeviceCtx<'_>, _port: PortId, frame: &[u8]) {
        let Ok(eth) = EthernetView::parse_strict(frame) else {
            return;
        };
        // Only traffic steered to us by the poisoned caches is relayed.
        if eth.dst() != self.config.attacker_mac || eth.ethertype() != EtherType::Ipv4 {
            return;
        }
        let Ok(pkt) = Ipv4Packet::parse(eth.payload()) else {
            return;
        };
        // Work out which real station this packet was meant for.
        let real_dst = if pkt.dst == self.config.side_a.0 {
            self.config.side_a.1
        } else if pkt.dst == self.config.side_b.0 {
            self.config.side_b.1
        } else {
            return; // not part of the intercepted conversation
        };
        self.stats.relayed_frames += 1;
        self.stats.intercepted_bytes += pkt.payload.len() as u64;
        // An attacker could tamper here; we relay verbatim to stay covert.
        ctx.send(
            PortId(0),
            eth_frame(real_dst, self.config.attacker_mac, EtherType::Ipv4, eth.payload()),
        );
    }
}

// End-to-end interception behaviour is exercised in the crate integration
// tests (`tests/mitm.rs`) with real victim hosts.

//! The ARP cache poisoner and its attack-variant catalogue.

use std::time::Duration;

use arpshield_netsim::{eth_frame, Device, DeviceCtx, PortId};
use arpshield_packet::{ArpOp, ArpPacket, EtherType, EthernetView, Ipv4Addr, MacAddr};

use crate::ground_truth::{AttackEvent, AttackKind, GroundTruth};

/// The ways an attacker can deliver a forged `sender_ip is-at sender_mac`
/// claim. Which ones succeed depends on the victim's
/// [`ArpPolicy`](arpshield_host::ArpPolicy) — that cross product is the
/// susceptibility matrix (experiment T2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoisonVariant {
    /// Broadcast an unsolicited ARP *reply* claiming the victim IP
    /// (classic `arpspoof`). Updates existing entries under permissive
    /// policies; creates entries under fully promiscuous ones.
    GratuitousReply,
    /// Broadcast a gratuitous ARP *request* (`sender_ip == target_ip`)
    /// with the forged binding. Many stacks treat requests more
    /// trustingly than replies.
    GratuitousRequest,
    /// Send the forged reply *unicast* to one target host — quieter on
    /// the wire, invisible to other stations (but not to a mirror-port
    /// monitor).
    UnicastReply,
    /// Send a forged *request* unicast to the target, asking for the
    /// target's own IP with forged sender fields. Because the request is
    /// addressed to the target, even `Standard`-policy stacks create an
    /// entry for the forged sender before answering.
    UnicastRequestProbeStuffing,
    /// Lurk until the target broadcasts a genuine request for the victim
    /// IP, then race the real owner's reply with a forged one. This is
    /// the variant that defeats "ignore unsolicited replies" kernels: the
    /// reply *is* solicited.
    ReplyToRequestRace,
    /// Blackhole denial of service: bind the victim IP to a nonexistent
    /// MAC so the target's traffic to it goes nowhere.
    BlackholeDos,
}

impl PoisonVariant {
    /// All variants, for matrix experiments.
    pub fn all() -> [PoisonVariant; 6] {
        [
            PoisonVariant::GratuitousReply,
            PoisonVariant::GratuitousRequest,
            PoisonVariant::UnicastReply,
            PoisonVariant::UnicastRequestProbeStuffing,
            PoisonVariant::ReplyToRequestRace,
            PoisonVariant::BlackholeDos,
        ]
    }

    /// Short label for report tables.
    pub fn label(&self) -> &'static str {
        match self {
            PoisonVariant::GratuitousReply => "gratuitous-reply",
            PoisonVariant::GratuitousRequest => "gratuitous-request",
            PoisonVariant::UnicastReply => "unicast-reply",
            PoisonVariant::UnicastRequestProbeStuffing => "unicast-request",
            PoisonVariant::ReplyToRequestRace => "reply-race",
            PoisonVariant::BlackholeDos => "blackhole-dos",
        }
    }
}

impl std::fmt::Display for PoisonVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Poisoner parameters.
#[derive(Debug, Clone, Copy)]
pub struct PoisonConfig {
    /// The attacker NIC's real address (frames are sourced from it).
    pub attacker_mac: MacAddr,
    /// Delivery variant.
    pub variant: PoisonVariant,
    /// The IP whose binding is forged (e.g. the gateway's).
    pub victim_ip: Ipv4Addr,
    /// The MAC the forged binding claims (the attacker's for MITM, a
    /// bogus one for [`PoisonVariant::BlackholeDos`]).
    pub claimed_mac: MacAddr,
    /// For unicast variants: the host being poisoned `(ip, mac)`. `None`
    /// broadcasts to the whole segment.
    pub target: Option<(Ipv4Addr, MacAddr)>,
    /// Delay before the first emission.
    pub start_delay: Duration,
    /// Re-poison interval (defeats cache timeouts). `None` = one shot.
    pub repeat: Option<Duration>,
}

/// The attacking device.
///
/// One poisoner executes one configured variant; experiments instantiate
/// one per matrix cell.
#[derive(Debug)]
pub struct ArpPoisoner {
    config: PoisonConfig,
    truth: GroundTruth,
    /// Forged frames emitted.
    pub emissions: u64,
    /// For the race variant: requesters awaiting the delayed second
    /// tap, in scheduling order.
    race_targets: std::collections::VecDeque<(MacAddr, Ipv4Addr)>,
}

const TICK: u64 = 1;
const TICK_RACE_SECOND_TAP: u64 = 2;
/// Delay of the race variant's second forged reply — late enough to land
/// *after* the legitimate owner's answer, so it also wins against
/// last-write-wins (promiscuous/standard) caches.
const RACE_SECOND_TAP_DELAY: Duration = Duration::from_millis(30);

impl ArpPoisoner {
    /// Creates a poisoner reporting into `truth`.
    pub fn new(config: PoisonConfig, truth: GroundTruth) -> Self {
        ArpPoisoner { config, truth, emissions: 0, race_targets: std::collections::VecDeque::new() }
    }

    fn forged_packet(&self) -> ArpPacket {
        let c = &self.config;
        match c.variant {
            // A broadcast gratuitous reply is addressed to nobody in
            // particular — that is exactly why `Standard`-policy stacks only
            // *update* (never create) from it.
            PoisonVariant::GratuitousReply => ArpPacket {
                op: ArpOp::Reply,
                sender_mac: c.claimed_mac,
                sender_ip: c.victim_ip,
                target_mac: MacAddr::BROADCAST,
                target_ip: c.victim_ip,
            },
            PoisonVariant::UnicastReply | PoisonVariant::BlackholeDos => ArpPacket {
                op: ArpOp::Reply,
                sender_mac: c.claimed_mac,
                sender_ip: c.victim_ip,
                target_mac: c.target.map(|(_, m)| m).unwrap_or(MacAddr::BROADCAST),
                target_ip: c.target.map(|(ip, _)| ip).unwrap_or(c.victim_ip),
            },
            PoisonVariant::GratuitousRequest => {
                ArpPacket::gratuitous(ArpOp::Request, c.claimed_mac, c.victim_ip)
            }
            PoisonVariant::UnicastRequestProbeStuffing => ArpPacket {
                op: ArpOp::Request,
                sender_mac: c.claimed_mac,
                sender_ip: c.victim_ip,
                target_mac: MacAddr::ZERO,
                target_ip: c.target.map(|(ip, _)| ip).unwrap_or(c.victim_ip),
            },
            // The race variant emits nothing proactively; see `on_frame`.
            PoisonVariant::ReplyToRequestRace => ArpPacket {
                op: ArpOp::Reply,
                sender_mac: c.claimed_mac,
                sender_ip: c.victim_ip,
                target_mac: MacAddr::BROADCAST,
                target_ip: c.victim_ip,
            },
        }
    }

    fn frame_dst(&self) -> MacAddr {
        match self.config.variant {
            PoisonVariant::UnicastReply | PoisonVariant::UnicastRequestProbeStuffing => {
                self.config.target.map(|(_, m)| m).unwrap_or(MacAddr::BROADCAST)
            }
            _ => MacAddr::BROADCAST,
        }
    }

    fn emit(&mut self, ctx: &mut DeviceCtx<'_>, packet: ArpPacket, dst: MacAddr) {
        ctx.send(PortId(0), eth_frame(dst, self.config.attacker_mac, EtherType::ARP, &packet));
        self.emissions += 1;
        self.truth.record(AttackEvent {
            at: ctx.now(),
            attacker: self.config.attacker_mac,
            kind: AttackKind::ArpPoison(self.config.variant),
            forged_ip: Some(self.config.victim_ip),
            claimed_mac: Some(self.config.claimed_mac),
        });
    }
}

impl Device for ArpPoisoner {
    fn name(&self) -> &str {
        "arp-poisoner"
    }

    fn port_count(&self) -> usize {
        1
    }

    fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
        if self.config.variant != PoisonVariant::ReplyToRequestRace {
            ctx.schedule_in(self.config.start_delay, TICK);
        }
    }

    fn on_timer(&mut self, ctx: &mut DeviceCtx<'_>, token: u64) {
        match token {
            TICK => {
                let packet = self.forged_packet();
                let dst = self.frame_dst();
                self.emit(ctx, packet, dst);
                if let Some(repeat) = self.config.repeat {
                    ctx.schedule_in(repeat, TICK);
                }
            }
            TICK_RACE_SECOND_TAP => {
                if let Some((req_mac, req_ip)) = self.race_targets.pop_front() {
                    let forged = ArpPacket {
                        op: ArpOp::Reply,
                        sender_mac: self.config.claimed_mac,
                        sender_ip: self.config.victim_ip,
                        target_mac: req_mac,
                        target_ip: req_ip,
                    };
                    self.emit(ctx, forged, req_mac);
                }
            }
            _ => {}
        }
    }

    fn on_frame(&mut self, ctx: &mut DeviceCtx<'_>, _port: PortId, frame: &[u8]) {
        if self.config.variant != PoisonVariant::ReplyToRequestRace {
            return;
        }
        let Ok(eth) = EthernetView::parse_strict(frame) else {
            return;
        };
        if eth.ethertype() != EtherType::ARP {
            return;
        }
        let Ok(arp) = ArpPacket::parse(eth.payload()) else {
            return;
        };
        // A genuine broadcast request for the victim IP from someone else:
        // race the legitimate owner's reply.
        if arp.op == ArpOp::Request
            && arp.target_ip == self.config.victim_ip
            && arp.sender_mac != self.config.attacker_mac
            && !arp.sender_ip.is_unspecified()
        {
            let forged = ArpPacket {
                op: ArpOp::Reply,
                sender_mac: self.config.claimed_mac,
                sender_ip: self.config.victim_ip,
                target_mac: arp.sender_mac,
                target_ip: arp.sender_ip,
            };
            self.emit(ctx, forged, arp.sender_mac);
            // Second tap after the legitimate owner has answered, to win
            // against last-write-wins caches too.
            self.race_targets.push_back((arp.sender_mac, arp.sender_ip));
            ctx.schedule_in(RACE_SECOND_TAP_DELAY, TICK_RACE_SECOND_TAP);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(variant: PoisonVariant) -> PoisonConfig {
        PoisonConfig {
            attacker_mac: MacAddr::from_index(66),
            variant,
            victim_ip: Ipv4Addr::new(10, 0, 0, 1),
            claimed_mac: MacAddr::from_index(66),
            target: Some((Ipv4Addr::new(10, 0, 0, 2), MacAddr::from_index(2))),
            start_delay: Duration::from_millis(10),
            repeat: None,
        }
    }

    #[test]
    fn forged_packets_have_expected_shape() {
        let p = ArpPoisoner::new(config(PoisonVariant::GratuitousReply), GroundTruth::new());
        let pkt = p.forged_packet();
        assert_eq!(pkt.op, ArpOp::Reply);
        assert_eq!(pkt.sender_ip, Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(pkt.sender_mac, MacAddr::from_index(66));

        let p = ArpPoisoner::new(config(PoisonVariant::GratuitousRequest), GroundTruth::new());
        let pkt = p.forged_packet();
        assert_eq!(pkt.op, ArpOp::Request);
        assert!(pkt.is_gratuitous());

        let p = ArpPoisoner::new(
            config(PoisonVariant::UnicastRequestProbeStuffing),
            GroundTruth::new(),
        );
        let pkt = p.forged_packet();
        assert_eq!(pkt.op, ArpOp::Request);
        assert_eq!(pkt.target_ip, Ipv4Addr::new(10, 0, 0, 2));
        assert_eq!(pkt.sender_ip, Ipv4Addr::new(10, 0, 0, 1));
    }

    #[test]
    fn unicast_variants_address_the_target() {
        let p = ArpPoisoner::new(config(PoisonVariant::UnicastReply), GroundTruth::new());
        assert_eq!(p.frame_dst(), MacAddr::from_index(2));
        let p = ArpPoisoner::new(config(PoisonVariant::GratuitousReply), GroundTruth::new());
        assert_eq!(p.frame_dst(), MacAddr::BROADCAST);
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<_> =
            PoisonVariant::all().iter().map(|v| v.label()).collect();
        assert_eq!(labels.len(), PoisonVariant::all().len());
    }

    // End-to-end poisoning behaviour (against real Host policies) is
    // covered in this crate's integration tests and in experiment T2.
}

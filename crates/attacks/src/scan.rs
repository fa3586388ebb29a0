//! ARP scanning: the reconnaissance sweep that precedes targeted
//! poisoning.
//!
//! Before an attacker can choose a victim it enumerates the segment —
//! `arp-scan`-style — by requesting every address in the subnet. The
//! sweep is not itself an integrity attack, but its rate signature is
//! detectable (the rate monitor's third counter) and the paper's class
//! of analysis treats reconnaissance visibility as part of a scheme's
//! coverage story.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use arpshield_netsim::{eth_frame, Device, DeviceCtx, PortId};
use arpshield_packet::{ArpOp, ArpPacket, EtherType, EthernetView, Ipv4Addr, Ipv4Cidr, MacAddr};

use crate::ground_truth::{AttackEvent, AttackKind, GroundTruth};

/// Scanner parameters.
#[derive(Debug, Clone, Copy)]
pub struct ArpScannerConfig {
    /// The scanner's hardware address.
    pub attacker_mac: MacAddr,
    /// A source IP to claim in the requests (scanners often use their
    /// real one; `0.0.0.0` turns the sweep into quiet RFC 5227 probes
    /// that never pollute caches — and never trip request counters
    /// keyed on binding-carrying requests).
    pub source_ip: Ipv4Addr,
    /// The subnet to sweep.
    pub subnet: Ipv4Cidr,
    /// Requests per second.
    pub rate_per_sec: u32,
    /// Delay before the sweep starts.
    pub start_delay: Duration,
}

/// Scan results.
#[derive(Debug, Default, Clone)]
pub struct ScanStats {
    /// Requests transmitted.
    pub requests_sent: u64,
    /// Stations discovered (distinct repliers).
    pub discovered: Vec<(Ipv4Addr, MacAddr)>,
}

/// An `arp-scan`-style subnet sweeper.
#[derive(Debug)]
pub struct ArpScanner {
    config: ArpScannerConfig,
    truth: GroundTruth,
    next_host: u32,
    /// Live results, shared so they stay readable after the scanner is
    /// boxed into a simulator.
    pub stats: Rc<RefCell<ScanStats>>,
}

const TICK: u64 = 1;

impl ArpScanner {
    /// Creates a scanner reporting into `truth`.
    pub fn new(config: ArpScannerConfig, truth: GroundTruth) -> Self {
        ArpScanner { config, truth, next_host: 1, stats: Rc::default() }
    }

    /// True when the sweep has covered the whole subnet.
    pub fn finished(&self) -> bool {
        self.config.subnet.host(self.next_host).is_none()
    }
}

impl Device for ArpScanner {
    fn name(&self) -> &str {
        "arp-scanner"
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
        let Some(target) = self.config.subnet.host(self.next_host) else {
            return; // sweep complete
        };
        self.next_host += 1;
        let request = ArpPacket::request(self.config.attacker_mac, self.config.source_ip, target);
        ctx.send(
            PortId(0),
            eth_frame(MacAddr::BROADCAST, self.config.attacker_mac, EtherType::ARP, &request),
        );
        self.stats.borrow_mut().requests_sent += 1;
        self.truth.record(AttackEvent {
            at: ctx.now(),
            attacker: self.config.attacker_mac,
            kind: AttackKind::ArpScan,
            forged_ip: None,
            claimed_mac: None,
        });
        let gap = Duration::from_nanos(1_000_000_000 / u64::from(self.config.rate_per_sec.max(1)));
        ctx.schedule_in(gap, TICK);
    }

    fn on_frame(&mut self, _ctx: &mut DeviceCtx<'_>, _port: PortId, frame: &[u8]) {
        let Ok(eth) = EthernetView::parse_strict(frame) else {
            return;
        };
        if eth.ethertype() != EtherType::ARP || eth.dst() != self.config.attacker_mac {
            return;
        }
        let Ok(arp) = ArpPacket::parse(eth.payload()) else {
            return;
        };
        let mut stats = self.stats.borrow_mut();
        if arp.op == ArpOp::Reply && !stats.discovered.iter().any(|(ip, _)| *ip == arp.sender_ip) {
            stats.discovered.push((arp.sender_ip, arp.sender_mac));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_the_subnet_in_order() {
        let mut s = ArpScanner::new(
            ArpScannerConfig {
                attacker_mac: MacAddr::from_index(66),
                source_ip: Ipv4Addr::new(10, 0, 0, 66),
                subnet: Ipv4Cidr::new(Ipv4Addr::new(10, 0, 0, 0), 29), // 6 hosts
                rate_per_sec: 100,
                start_delay: Duration::ZERO,
            },
            GroundTruth::new(),
        );
        assert!(!s.finished());
        s.next_host = 7; // past .6, the last usable host in a /29
        assert!(s.finished());
    }
}

//! Threshold-counter anomaly detection for the volumetric L2 attacks
//! (MAC flooding, DHCP starvation, ARP sweeps).
//!
//! Binding-verification schemes are blind to attacks that do not forge
//! bindings at all; this monitor covers that flank with the
//! sliding-window counters practical IDS deployments use: distinct
//! source MACs per window (flooding), DHCP DISCOVERs per window
//! (starvation), and ARP requests per window (scanning). The detection
//! logic is deliberately simple — and so are its limits: thresholds must
//! be sized to the LAN, and a slow attacker ducks under them (measured
//! in experiment T6).

use std::collections::{HashSet, VecDeque};
use std::time::Duration;

use arpshield_netsim::{Device, DeviceCtx, PortId, SimTime};
use arpshield_packet::{
    DhcpMessage, DhcpMessageType, EtherType, EthernetView, IpProtocol, Ipv4Packet, UdpDatagram,
    DHCP_SERVER_PORT,
};

use crate::alert::{Alert, AlertKind, AlertLog};
use crate::work;

const SCHEME: &str = "rate-monitor";

/// Rate-monitor thresholds, all per [`RateConfig::window`].
#[derive(Debug, Clone, Copy)]
pub struct RateConfig {
    /// Sliding window length.
    pub window: Duration,
    /// Distinct source MACs tolerated per window before flooding is
    /// suspected. Size to the station population plus headroom.
    pub max_new_macs: usize,
    /// DHCP DISCOVERs tolerated per window before starvation is
    /// suspected (a whole office powering on is the false-positive
    /// hazard).
    pub max_dhcp_discovers: usize,
    /// ARP requests tolerated per window before a sweep is suspected.
    pub max_arp_requests: usize,
    /// Re-alert suppression: one alert per kind per this interval.
    pub alert_cooldown: Duration,
}

impl Default for RateConfig {
    fn default() -> Self {
        RateConfig {
            window: Duration::from_secs(1),
            max_new_macs: 30,
            max_dhcp_discovers: 10,
            max_arp_requests: 60,
            alert_cooldown: Duration::from_secs(5),
        }
    }
}

/// A mirror-port monitor running sliding-window threshold counters.
#[derive(Debug)]
pub struct RateMonitor {
    config: RateConfig,
    log: AlertLog,
    mac_events: VecDeque<(SimTime, arpshield_packet::MacAddr)>,
    discover_events: VecDeque<SimTime>,
    arp_request_events: VecDeque<SimTime>,
    last_alert: [Option<SimTime>; 3],
    /// Frames inspected.
    pub inspected: u64,
}

impl RateMonitor {
    /// Creates a monitor reporting into `log`.
    pub fn new(config: RateConfig, log: AlertLog) -> Self {
        RateMonitor {
            config,
            log,
            mac_events: VecDeque::new(),
            discover_events: VecDeque::new(),
            arp_request_events: VecDeque::new(),
            last_alert: [None; 3],
            inspected: 0,
        }
    }

    fn expire(&mut self, now: SimTime) {
        let w = self.config.window;
        while self.mac_events.front().map(|(t, _)| now.saturating_since(*t) > w).unwrap_or(false) {
            self.mac_events.pop_front();
        }
        while self.discover_events.front().map(|t| now.saturating_since(*t) > w).unwrap_or(false) {
            self.discover_events.pop_front();
        }
        while self.arp_request_events.front().map(|t| now.saturating_since(*t) > w).unwrap_or(false)
        {
            self.arp_request_events.pop_front();
        }
    }

    fn maybe_alert(&mut self, now: SimTime, which: usize, kind: AlertKind) {
        let cooled = self.last_alert[which]
            .map(|t| now.saturating_since(t) >= self.config.alert_cooldown)
            .unwrap_or(true);
        if cooled {
            self.last_alert[which] = Some(now);
            self.log.raise(Alert {
                at: now,
                scheme: SCHEME,
                kind,
                subject_ip: None,
                observed_mac: None,
                expected_mac: None,
            });
        }
    }

    fn check_thresholds(&mut self, now: SimTime) {
        let distinct: HashSet<_> = self.mac_events.iter().map(|(_, m)| *m).collect();
        if distinct.len() > self.config.max_new_macs {
            self.maybe_alert(now, 0, AlertKind::RateAnomaly);
        }
        if self.discover_events.len() > self.config.max_dhcp_discovers {
            self.maybe_alert(now, 1, AlertKind::RateAnomaly);
        }
        if self.arp_request_events.len() > self.config.max_arp_requests {
            self.maybe_alert(now, 2, AlertKind::RateAnomaly);
        }
    }

    /// Feeds one sniffed frame through the counters (also the bench
    /// entry point).
    pub fn observe(&mut self, now: SimTime, eth: &EthernetView<'_>) {
        self.inspected += 1;
        self.log.add_work(SCHEME, work::INSPECT);
        self.expire(now);
        let src = eth.src();
        if src.is_unicast() && !src.is_zero() {
            self.mac_events.push_back((now, src));
        }
        match eth.ethertype() {
            EtherType::ARP => {
                if let Ok(arp) = arpshield_packet::ArpPacket::parse(eth.payload()) {
                    if arp.op == arpshield_packet::ArpOp::Request && !arp.is_probe() {
                        self.arp_request_events.push_back(now);
                    }
                }
            }
            EtherType::Ipv4 => {
                if let Ok(pkt) = Ipv4Packet::parse(eth.payload()) {
                    if pkt.protocol == IpProtocol::Udp {
                        if let Ok(dgram) = UdpDatagram::parse(&pkt.payload, pkt.src, pkt.dst) {
                            if dgram.dst_port == DHCP_SERVER_PORT {
                                if let Ok(msg) = DhcpMessage::parse(&dgram.payload) {
                                    if msg.message_type() == Some(DhcpMessageType::Discover) {
                                        self.discover_events.push_back(now);
                                    }
                                }
                            }
                        }
                    }
                }
            }
            _ => {}
        }
        self.check_thresholds(now);
    }
}

impl Device for RateMonitor {
    fn name(&self) -> &str {
        "rate-monitor"
    }

    fn port_count(&self) -> usize {
        1
    }

    fn on_frame(&mut self, ctx: &mut DeviceCtx<'_>, _port: PortId, frame: &[u8]) {
        if let Ok(eth) = EthernetView::parse(frame) {
            self.observe(ctx.now(), &eth);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arpshield_packet::{EthernetFrame, MacAddr};

    fn frame_from(src: u32) -> Vec<u8> {
        EthernetFrame::new(
            MacAddr::BROADCAST,
            MacAddr::from_index(src),
            EtherType::Other(0x1234),
            vec![0; 46],
        )
        .encode()
    }

    fn observe(m: &mut RateMonitor, now: SimTime, bytes: &[u8]) {
        m.observe(now, &EthernetView::parse(bytes).unwrap());
    }

    #[test]
    fn mac_flood_threshold_fires_once_per_cooldown() {
        let log = AlertLog::new();
        let mut m =
            RateMonitor::new(RateConfig { max_new_macs: 5, ..Default::default() }, log.clone());
        for i in 0..50u32 {
            observe(&mut m, SimTime::from_millis(u64::from(i) * 10), &frame_from(i));
        }
        assert_eq!(log.len(), 1, "cooldown must throttle repeats");
        assert_eq!(log.alerts()[0].kind, AlertKind::RateAnomaly);
    }

    #[test]
    fn stable_population_is_silent() {
        let log = AlertLog::new();
        let mut m =
            RateMonitor::new(RateConfig { max_new_macs: 5, ..Default::default() }, log.clone());
        for i in 0..200u32 {
            observe(&mut m, SimTime::from_millis(u64::from(i) * 10), &frame_from(i % 4));
        }
        assert!(log.is_empty());
    }

    #[test]
    fn window_expiry_forgets_old_macs() {
        let log = AlertLog::new();
        let mut m =
            RateMonitor::new(RateConfig { max_new_macs: 5, ..Default::default() }, log.clone());
        // Five distinct MACs per second, but spread so no window holds
        // more than five: silent.
        for i in 0..50u32 {
            observe(&mut m, SimTime::from_millis(u64::from(i) * 250), &frame_from(i));
        }
        assert!(log.is_empty());
    }

    #[test]
    fn discover_burst_fires() {
        use arpshield_packet::{Ipv4Addr, DHCP_CLIENT_PORT};
        let log = AlertLog::new();
        let mut m = RateMonitor::new(
            RateConfig { max_dhcp_discovers: 3, ..Default::default() },
            log.clone(),
        );
        for i in 0..6u32 {
            let msg = DhcpMessage::discover(i, MacAddr::from_index(i));
            let dgram = UdpDatagram::new(DHCP_CLIENT_PORT, DHCP_SERVER_PORT, msg.encode())
                .encode(Ipv4Addr::UNSPECIFIED, Ipv4Addr::BROADCAST);
            let pkt =
                Ipv4Packet::new(Ipv4Addr::UNSPECIFIED, Ipv4Addr::BROADCAST, IpProtocol::Udp, dgram);
            let eth = EthernetFrame::new(
                MacAddr::BROADCAST,
                MacAddr::from_index(i),
                EtherType::Ipv4,
                pkt.encode(),
            );
            observe(&mut m, SimTime::from_millis(u64::from(i) * 50), &eth.encode());
        }
        assert_eq!(log.len(), 1);
    }
}

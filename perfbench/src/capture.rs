//! The seeded synthetic mirror-port capture the `ingest` workload
//! streams, with the ground truth the checks need.
//!
//! Two phases:
//!
//! - **lan** (`LAN_SECS` capture seconds of `LAN_RATE` exchanges/s, about
//!   2k frames per capture second): every
//!   station first takes a DHCP lease (so DAI snoops it), then the LAN
//!   carries solicited request/reply pairs, gratuitous announcements,
//!   IPv4 data, DHCP renewals, a few runts and jumbos, and `PLANTS`
//!   gratuitous-reply poisonings. Every fourth station sits on an
//!   802.1Q-tagged VLAN, so about one frame in four is tagged.
//! - **scan** (`SCAN_SECS`): the same background plus one leased station
//!   sweeping a /16 at `SCAN_RATE` requests/s. At that rate more than
//!   4096 requests stay outstanding in `StatefulMonitor`'s 2 s window,
//!   and `RateMonitor`'s 1 s window holds thousands of events.
//!
//! Generating it is load generation: it happens before timing starts.

use arpshield_netsim::SimRng;
use arpshield_packet::{
    ArpOp, ArpPacket, DhcpMessage, DhcpMessageType, EtherType, EthernetFrame, IpProtocol, Ipv4Addr,
    Ipv4Packet, MacAddr, UdpDatagram, DHCP_CLIENT_PORT, DHCP_SERVER_PORT,
};
use arpshield_trace::pcapng::PcapngWriter;

const STATIONS: usize = 240;
const TAGGED_VID: u16 = 20;
const LAN_SECS: u64 = 10;
const LAN_RATE: u64 = 1_400;
const SCAN_SECS: u64 = 2;
const SCAN_RATE: u64 = 4_000;
const PLANTS: usize = 8;
const NS: u64 = 1_000_000_000;

const SERVER_MAC: MacAddr = MacAddr::new([0x02, 0x53, 0, 0, 0, 1]);
const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 1);
const MASK: Ipv4Addr = Ipv4Addr::new(255, 255, 0, 0);

/// One planted poisoning: at `ts_ns`, `attacker` claimed `victim`.
#[derive(Debug, Clone, Copy)]
pub struct Plant {
    pub ts_ns: u64,
    pub victim: Ipv4Addr,
    pub attacker: MacAddr,
}

/// The capture file plus what the generator knows about it.
pub struct Capture {
    pub pcapng: Vec<u8>,
    pub frames: u64,
    /// First timestamp of the scan phase, and the frames before it.
    pub scan_start_ns: u64,
    pub lan_frames: u64,
    pub tagged: u64,
    pub runts: u64,
    pub jumbos: u64,
    pub plants: Vec<Plant>,
}

fn station_mac(i: usize) -> MacAddr {
    MacAddr::new([0x02, 0x42, 0, 0, (i >> 8) as u8, i as u8])
}

fn station_ip(i: usize) -> Ipv4Addr {
    Ipv4Addr::from_u32(SERVER_IP.to_u32() + 9 + i as u32)
}

fn station_vlan(i: usize) -> Option<u16> {
    i.is_multiple_of(4).then_some(TAGGED_VID)
}

fn udp(src: Ipv4Addr, dst: Ipv4Addr, sport: u16, dport: u16, payload: Vec<u8>) -> Vec<u8> {
    let dgram = UdpDatagram::new(sport, dport, payload).encode(src, dst);
    Ipv4Packet::new(src, dst, IpProtocol::Udp, dgram).encode()
}

struct Gen {
    rng: SimRng,
    writer: PcapngWriter,
    interface: u32,
    now: u64,
    cap: Capture,
}

impl Gen {
    fn emit(
        &mut self,
        dst: MacAddr,
        src: MacAddr,
        vlan: Option<u16>,
        ty: EtherType,
        payload: Vec<u8>,
    ) {
        let mut frame = EthernetFrame::new(dst, src, ty, payload);
        if let Some(vid) = vlan {
            frame = frame.with_vlan(vid);
            self.cap.tagged += 1;
        }
        self.raw(&frame.encode());
    }

    fn raw(&mut self, bytes: &[u8]) {
        self.writer.add_packet(self.interface, self.now, bytes, "");
        self.cap.frames += 1;
        // Frames of one exchange follow each other by 10 µs.
        self.now += 10_000;
    }

    fn arp(&mut self, dst: MacAddr, src: MacAddr, vlan: Option<u16>, arp: ArpPacket) {
        self.emit(dst, src, vlan, EtherType::ARP, arp.encode());
    }

    fn dhcp(&mut self, client: usize, server_says: bool, msg: &DhcpMessage) {
        let (mac, vlan) = (station_mac(client), station_vlan(client));
        let body = msg.encode();
        if server_says {
            let ip = udp(SERVER_IP, station_ip(client), DHCP_SERVER_PORT, DHCP_CLIENT_PORT, body);
            self.emit(mac, SERVER_MAC, vlan, EtherType::Ipv4, ip);
        } else {
            let ip = udp(
                Ipv4Addr::UNSPECIFIED,
                Ipv4Addr::BROADCAST,
                DHCP_CLIENT_PORT,
                DHCP_SERVER_PORT,
                body,
            );
            self.emit(MacAddr::BROADCAST, mac, vlan, EtherType::Ipv4, ip);
        }
    }

    /// A full DISCOVER/OFFER/REQUEST/ACK exchange for `client`.
    fn lease(&mut self, client: usize) {
        let (mac, ip) = (station_mac(client), station_ip(client));
        let xid = self.rng.next_u32();
        let discover = DhcpMessage::discover(xid, mac);
        self.dhcp(client, false, &discover);
        let offer = DhcpMessage::reply(
            DhcpMessageType::Offer,
            &discover,
            ip,
            SERVER_IP,
            3600,
            MASK,
            SERVER_IP,
        );
        self.dhcp(client, true, &offer);
        self.renew(client, xid);
    }

    /// REQUEST/ACK for the lease `client` already holds.
    fn renew(&mut self, client: usize, xid: u32) {
        let request = DhcpMessage::request(xid, station_mac(client), station_ip(client), SERVER_IP);
        self.dhcp(client, false, &request);
        let ack = DhcpMessage::reply(
            DhcpMessageType::Ack,
            &request,
            station_ip(client),
            SERVER_IP,
            3600,
            MASK,
            SERVER_IP,
        );
        self.dhcp(client, true, &ack);
    }

    /// A station in the same VLAN as `a` (never `a` itself).
    fn peer_of(&mut self, a: usize) -> usize {
        loop {
            let b = self.rng.gen_range(STATIONS as u64) as usize;
            if b != a && station_vlan(b) == station_vlan(a) {
                return b;
            }
        }
    }

    /// One background exchange, chosen by the traffic mix.
    fn background(&mut self) {
        let a = self.rng.gen_range(STATIONS as u64) as usize;
        let (mac, ip, vlan) = (station_mac(a), station_ip(a), station_vlan(a));
        match self.rng.gen_range(100) {
            0..=39 => {
                let b = self.peer_of(a);
                let request = ArpPacket::request(mac, ip, station_ip(b));
                self.arp(MacAddr::BROADCAST, mac, vlan, request);
                let reply = ArpPacket::reply_to(&request, station_mac(b));
                self.arp(mac, station_mac(b), vlan, reply);
            }
            40..=49 => self.arp(
                MacAddr::BROADCAST,
                mac,
                vlan,
                ArpPacket::gratuitous(ArpOp::Request, mac, ip),
            ),
            50..=95 => {
                // One data frame in a hundred is a jumbo.
                let len = if self.rng.gen_range(100) == 0 {
                    self.cap.jumbos += 1;
                    4_000
                } else {
                    64 + self.rng.gen_range(1_300) as usize
                };
                let payload = vec![0xA5; len];
                if self.rng.gen_bool(0.5) {
                    self.emit(
                        SERVER_MAC,
                        mac,
                        vlan,
                        EtherType::Ipv4,
                        udp(ip, SERVER_IP, 40_000, 443, payload),
                    );
                } else {
                    self.emit(
                        mac,
                        SERVER_MAC,
                        vlan,
                        EtherType::Ipv4,
                        udp(SERVER_IP, ip, 443, 40_000, payload),
                    );
                }
            }
            96..=97 => {
                let xid = self.rng.next_u32();
                self.renew(a, xid);
            }
            _ => {
                // A runt: too short to hold an Ethernet header.
                self.cap.runts += 1;
                let runt: Vec<u8> = (0..10).map(|_| self.rng.next_u32() as u8).collect();
                self.raw(&runt);
            }
        }
    }

    /// Advances the clock by an exponential gap with mean `1/rate`.
    fn gap(&mut self, rate: u64) {
        self.now += self.rng.gen_exp_nanos(NS / rate);
    }
}

/// Builds the capture for `seed`.
pub fn generate(seed: u64) -> Capture {
    let mut writer = PcapngWriter::new("arpshield-perfbench");
    let interface = writer.add_interface("mirror0");
    let empty = Capture {
        pcapng: Vec::new(),
        frames: 0,
        scan_start_ns: 0,
        lan_frames: 0,
        tagged: 0,
        runts: 0,
        jumbos: 0,
        plants: Vec::new(),
    };
    let mut g = Gen { rng: SimRng::new(seed), writer, interface, now: NS, cap: empty };

    for client in 0..STATIONS {
        g.lease(client);
        g.gap(LAN_RATE);
    }
    let lan_end = NS * (1 + LAN_SECS);
    let plant_every = (lan_end - g.now) / (PLANTS as u64 + 1);
    let mut next_plant = g.now + plant_every;
    while g.now < lan_end {
        if g.now >= next_plant && g.cap.plants.len() < PLANTS {
            next_plant += plant_every;
            // Distinct victims keep each claim outside the passive
            // monitor's per-(ip, mac) alert throttle; every third
            // station puts victims on both VLANs.
            let victim = 1 + 3 * g.cap.plants.len();
            let attacker = g.peer_of(victim);
            let (vmac, vip, vlan) = (station_mac(victim), station_ip(victim), station_vlan(victim));
            // The victim announces itself first, so every monitor holds
            // the true binding when the forged one arrives.
            g.arp(MacAddr::BROADCAST, vmac, vlan, ArpPacket::gratuitous(ArpOp::Request, vmac, vip));
            let amac = station_mac(attacker);
            g.cap.plants.push(Plant { ts_ns: g.now, victim: vip, attacker: amac });
            g.arp(MacAddr::BROADCAST, amac, vlan, ArpPacket::gratuitous(ArpOp::Reply, amac, vip));
        }
        g.background();
        g.gap(LAN_RATE);
    }

    g.cap.scan_start_ns = g.now;
    g.cap.lan_frames = g.cap.frames;
    let scan_end = g.now + NS * SCAN_SECS;
    let scanner = 2;
    let (smac, sip) = (station_mac(scanner), station_ip(scanner));
    let mut target = Ipv4Addr::new(10, 2, 0, 0).to_u32();
    while g.now < scan_end {
        if g.rng.gen_range(LAN_RATE + SCAN_RATE) < SCAN_RATE {
            target += 1;
            let request = ArpPacket::request(smac, sip, Ipv4Addr::from_u32(target));
            g.arp(MacAddr::BROADCAST, smac, station_vlan(scanner), request);
        } else {
            g.background();
        }
        g.gap(LAN_RATE + SCAN_RATE);
    }

    let Gen { writer, mut cap, .. } = g;
    cap.pcapng = writer.finish();
    cap
}

//! S-ARP: authenticated ARP with signed replies and an Authoritative Key
//! Distributor (AKD).
//!
//! Deployment shape (mirroring Bruschi et al.):
//!
//! * every host gets a keypair, enrolled with the AKD out of band;
//! * every host knows the AKD's address and public key statically (the
//!   bootstrap that breaks the resolve-the-AKD circularity);
//! * ARP *requests* go out unchanged, but replies travel as signed
//!   [`EtherType::SArp`] frames: the 28-byte ARP body, an 8-byte
//!   timestamp, and a 32-byte Schnorr signature;
//! * receivers verify with the claimed IP's public key, fetched from the
//!   AKD over UDP (and cached); only verified bindings enter the cache;
//! * plain ARP replies are rejected outright — which is also why S-ARP
//!   requires universal deployment on the segment, the interoperability
//!   cost the analysis charges it.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Duration;

use arpshield_crypto::{Akd, KeyPair, PublicKey, Signature, SIGNATURE_LEN};
use arpshield_host::apps::App;
use arpshield_host::{ArpVerdict, FrameVerdict, HostApi, HostHook};
use arpshield_netsim::{eth_frame, Frame};
use arpshield_packet::{
    ArpOp, ArpPacket, EtherType, EthernetView, Ipv4Addr, MacAddr, ARP_WIRE_LEN,
};

use crate::alert::{Alert, AlertKind, AlertLog};
use crate::work;

const SCHEME: &str = "sarp";
/// UDP port the AKD listens on.
pub const AKD_PORT: u16 = 9612;
/// Client-side source port for key requests.
const CLIENT_PORT: u16 = 9613;

const TIMER_SEND_SIGNED: u32 = 1;
const TIMER_FINISH_VERIFY: u32 = 2;

const MSG_LOOKUP: u8 = 0x01;
const MSG_KEY: u8 = 0x02;
const MSG_UNKNOWN: u8 = 0x03;

fn signed_reply_message(arp_body: &[u8], ts: u64) -> Vec<u8> {
    let mut m = Vec::with_capacity(arp_body.len() + 8);
    m.extend_from_slice(arp_body);
    m.extend_from_slice(&ts.to_be_bytes());
    m
}

/// S-ARP host agent configuration.
#[derive(Debug)]
pub struct SArpConfig {
    /// This host's signing keypair.
    pub keypair: KeyPair,
    /// The AKD's address.
    pub akd_ip: Ipv4Addr,
    /// The AKD's hardware address (statically provisioned, installed as a
    /// static cache entry at start).
    pub akd_mac: MacAddr,
    /// The AKD's public key (statically provisioned; AKD responses are
    /// signed with it).
    pub akd_key: PublicKey,
    /// Maximum acceptable age of a signed reply (replay window).
    pub max_age: Duration,
    /// On the AKD host itself, direct access to the registry (skips the
    /// network round trip to ourselves).
    pub local_akd: Option<Rc<RefCell<Akd>>>,
    /// Simulated CPU time per work unit. Signing and verification are
    /// deferred by `work × this` so the signature cost shows up in
    /// resolution *latency*, not just in the work ledger. One
    /// microsecond per unit calibrates a ~600 µs sign / ~900 µs verify,
    /// the right order of magnitude for era-appropriate DSA on
    /// commodity hosts.
    pub unit_cost: Duration,
    /// AKD lookups re-issued when a key fetch goes unanswered — a lost
    /// datagram otherwise parks the claims behind it forever. 0 (the
    /// default on perfect wires) disables the retry timer entirely.
    pub key_fetch_retries: u32,
    /// How long to wait for an AKD response before re-requesting.
    pub key_fetch_timeout: Duration,
}

impl SArpConfig {
    /// Enables AKD key-fetch retries (for lossy links).
    pub fn with_key_fetch_retries(mut self, retries: u32, timeout: Duration) -> Self {
        self.key_fetch_retries = retries;
        self.key_fetch_timeout = timeout;
        self
    }
}

/// Default simulated CPU cost of one work unit.
pub const DEFAULT_UNIT_COST: Duration = Duration::from_micros(1);

/// The per-host S-ARP agent.
#[derive(Debug)]
pub struct SArpHook {
    config: SArpConfig,
    log: AlertLog,
    key_cache: HashMap<Ipv4Addr, PublicKey>,
    /// Signed claims parked while their key is fetched.
    pending: HashMap<Ipv4Addr, Vec<Vec<u8>>>,
    /// Key-fetch retries still available per outstanding lookup.
    key_retries: HashMap<Ipv4Addr, u32>,
    /// Signed replies waiting out their signing delay.
    outbox: std::collections::VecDeque<Frame>,
    /// Verified bindings waiting out their verification delay.
    verify_queue: std::collections::VecDeque<(Ipv4Addr, MacAddr, bool)>,
    /// Signed replies emitted.
    pub signed_replies_sent: u64,
    /// Claims verified and installed.
    pub verified: u64,
    /// Claims rejected (bad signature / stale timestamp).
    pub rejected: u64,
    /// Plain legacy replies dropped.
    pub legacy_dropped: u64,
    /// AKD round trips initiated.
    pub key_fetches: u64,
    /// Key fetches abandoned after every retry went unanswered (their
    /// parked claims were dropped).
    pub key_fetch_timeouts: u64,
}

impl SArpHook {
    /// Creates the agent, reporting into `log`.
    pub fn new(config: SArpConfig, log: AlertLog) -> Self {
        SArpHook {
            config,
            log,
            key_cache: HashMap::new(),
            pending: HashMap::new(),
            key_retries: HashMap::new(),
            outbox: std::collections::VecDeque::new(),
            verify_queue: std::collections::VecDeque::new(),
            signed_replies_sent: 0,
            verified: 0,
            rejected: 0,
            legacy_dropped: 0,
            key_fetches: 0,
            key_fetch_timeouts: 0,
        }
    }

    fn alert(&self, api: &HostApi<'_, '_>, kind: AlertKind, ip: Ipv4Addr, mac: MacAddr) {
        self.log.raise(Alert {
            at: api.now(),
            scheme: SCHEME,
            kind,
            subject_ip: Some(ip),
            observed_mac: Some(mac),
            expected_mac: None,
        });
    }

    fn send_signed_reply(&mut self, api: &mut HostApi<'_, '_>, request: &ArpPacket) {
        let my_mac = api.mac();
        let reply = ArpPacket::reply_to(request, my_mac);
        let body = reply.encode();
        let ts = api.now().as_nanos();
        let message = signed_reply_message(&body, ts);
        api.add_work(work::SIGN);
        let sig = self.config.keypair.sign(&message);
        let mut payload = message;
        payload.extend_from_slice(&sig.to_bytes());
        let frame = eth_frame(request.sender_mac, my_mac, EtherType::SArp, &payload[..]);
        // The signature costs CPU time: emit after the signing delay.
        self.outbox.push_back(frame);
        api.schedule(self.config.unit_cost * work::SIGN as u32, TIMER_SEND_SIGNED);
        self.signed_replies_sent += 1;
    }

    fn lookup_key(&mut self, api: &mut HostApi<'_, '_>, ip: Ipv4Addr) -> Option<PublicKey> {
        if let Some(key) = self.key_cache.get(&ip) {
            return Some(*key);
        }
        if let Some(akd) = &self.config.local_akd {
            api.add_work(work::KEY_LOOKUP);
            if let Ok(key) = akd.borrow_mut().lookup(u32::from(ip.to_u32())) {
                self.key_cache.insert(ip, key);
                return Some(key);
            }
            return None;
        }
        None
    }

    fn request_key(&mut self, api: &mut HostApi<'_, '_>, ip: Ipv4Addr) {
        self.key_fetches += 1;
        let mut payload = vec![MSG_LOOKUP];
        payload.extend_from_slice(&ip.octets());
        api.send_udp(self.config.akd_ip, CLIENT_PORT, AKD_PORT, payload);
    }

    fn verify_claim(&mut self, api: &mut HostApi<'_, '_>, key: PublicKey, payload: &[u8]) {
        let body = &payload[..ARP_WIRE_LEN];
        let Ok(arp) = ArpPacket::parse(body) else {
            return;
        };
        let ts = u64::from_be_bytes(payload[ARP_WIRE_LEN..ARP_WIRE_LEN + 8].try_into().unwrap());
        let now = api.now().as_nanos();
        let age = now.saturating_sub(ts);
        if age > self.config.max_age.as_nanos() as u64 {
            self.rejected += 1;
            self.alert(api, AlertKind::SignatureInvalid, arp.sender_ip, arp.sender_mac);
            return;
        }
        let message = &payload[..ARP_WIRE_LEN + 8];
        let sig_bytes = &payload[ARP_WIRE_LEN + 8..ARP_WIRE_LEN + 8 + SIGNATURE_LEN];
        api.add_work(work::VERIFY);
        let ok = Signature::from_bytes(sig_bytes).and_then(|sig| key.verify(message, &sig)).is_ok();
        // Verification costs CPU time: the outcome lands after the delay.
        self.verify_queue.push_back((arp.sender_ip, arp.sender_mac, ok));
        api.schedule(self.config.unit_cost * work::VERIFY as u32, TIMER_FINISH_VERIFY);
    }

    fn finish_verify(&mut self, api: &mut HostApi<'_, '_>) {
        if let Some((ip, mac, ok)) = self.verify_queue.pop_front() {
            if ok {
                self.verified += 1;
                api.install_verified_binding(ip, mac);
            } else {
                self.rejected += 1;
                self.alert(api, AlertKind::SignatureInvalid, ip, mac);
            }
        }
    }

    fn handle_sarp_frame(&mut self, api: &mut HostApi<'_, '_>, eth: &EthernetView<'_>) {
        let Some(claim) = eth.payload().get(..ARP_WIRE_LEN + 8 + SIGNATURE_LEN) else {
            return;
        };
        let Ok(arp) = ArpPacket::parse(&claim[..ARP_WIRE_LEN]) else {
            return;
        };
        match self.lookup_key(api, arp.sender_ip) {
            Some(key) => self.verify_claim(api, key, claim),
            None if self.config.local_akd.is_some() => {
                // We *are* the AKD and the principal is unknown: reject.
                self.rejected += 1;
                self.alert(api, AlertKind::SignatureInvalid, arp.sender_ip, arp.sender_mac);
            }
            None => {
                let queue = self.pending.entry(arp.sender_ip).or_default();
                if queue.len() < 8 {
                    queue.push(claim.to_vec());
                }
                self.request_key(api, arp.sender_ip);
                // Arm the loss-recovery timer once per outstanding fetch.
                if self.config.key_fetch_retries > 0
                    && !self.key_retries.contains_key(&arp.sender_ip)
                {
                    self.key_retries.insert(arp.sender_ip, self.config.key_fetch_retries);
                    api.schedule(self.config.key_fetch_timeout, arp.sender_ip.to_u32());
                }
            }
        }
    }

    fn handle_akd_response(&mut self, api: &mut HostApi<'_, '_>, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        match data[0] {
            MSG_KEY if data.len() >= 1 + 4 + 16 + 8 + SIGNATURE_LEN => {
                let message = &data[..1 + 4 + 16 + 8];
                let sig_bytes = &data[1 + 4 + 16 + 8..1 + 4 + 16 + 8 + SIGNATURE_LEN];
                api.add_work(work::VERIFY);
                let authentic = Signature::from_bytes(sig_bytes)
                    .and_then(|sig| self.config.akd_key.verify(message, &sig))
                    .is_ok();
                if !authentic {
                    return; // forged AKD response
                }
                let ip = Ipv4Addr::new(data[1], data[2], data[3], data[4]);
                let Ok(key) = PublicKey::from_bytes(&data[5..21]) else {
                    return;
                };
                self.key_cache.insert(ip, key);
                self.key_retries.remove(&ip);
                if let Some(claims) = self.pending.remove(&ip) {
                    for claim in claims {
                        self.verify_claim(api, key, &claim);
                    }
                }
            }
            MSG_UNKNOWN if data.len() >= 5 => {
                let ip = Ipv4Addr::new(data[1], data[2], data[3], data[4]);
                // Unenrolled principal: drop any parked claims for it.
                self.key_retries.remove(&ip);
                if self.pending.remove(&ip).is_some() {
                    self.rejected += 1;
                }
            }
            _ => {}
        }
    }
}

impl HostHook for SArpHook {
    fn name(&self) -> &str {
        SCHEME
    }

    fn on_start(&mut self, api: &mut HostApi<'_, '_>) {
        // The AKD binding is provisioned statically at enrolment.
        api.install_static_binding(self.config.akd_ip, self.config.akd_mac);
    }

    fn on_arp_rx(&mut self, api: &mut HostApi<'_, '_>, arp: &ArpPacket) -> ArpVerdict {
        api.add_work(work::INSPECT);
        match arp.op {
            ArpOp::Request => {
                if arp.is_probe() {
                    // RFC 5227 probes carry no binding; harmless, and
                    // answering them plainly keeps duplicate-address
                    // detection working in mixed deployments.
                    return ArpVerdict::Continue;
                }
                if Some(arp.target_ip) == api.ip() {
                    self.send_signed_reply(api, arp);
                }
                // The request's own sender binding is unauthenticated:
                // suppress normal learning/auto-reply.
                ArpVerdict::Drop
            }
            ArpOp::Reply => {
                // Plain replies are forbidden on an S-ARP segment.
                self.legacy_dropped += 1;
                self.alert(api, AlertKind::UnsignedReply, arp.sender_ip, arp.sender_mac);
                ArpVerdict::Drop
            }
        }
    }

    fn on_timer(&mut self, api: &mut HostApi<'_, '_>, payload: u32) {
        match payload {
            TIMER_SEND_SIGNED => {
                if let Some(frame) = self.outbox.pop_front() {
                    api.send_frame(frame);
                }
            }
            TIMER_FINISH_VERIFY => self.finish_verify(api),
            // Any other payload is an IPv4 address whose key fetch timed
            // out (the address space cannot collide with the two small
            // timer ids on real subnets; a stale timer for a completed
            // fetch simply finds nothing outstanding and is ignored).
            ip_raw => {
                let ip = Ipv4Addr::from_u32(ip_raw);
                if !self.pending.contains_key(&ip) {
                    self.key_retries.remove(&ip);
                    return;
                }
                match self.key_retries.get_mut(&ip) {
                    Some(left) if *left > 0 => {
                        *left -= 1;
                        self.request_key(api, ip);
                        api.schedule(self.config.key_fetch_timeout, ip_raw);
                    }
                    Some(_) => {
                        // Out of retries: give up on the fetch and the
                        // claims parked behind it.
                        self.key_retries.remove(&ip);
                        self.pending.remove(&ip);
                        self.key_fetch_timeouts += 1;
                    }
                    None => {}
                }
            }
        }
    }

    fn on_frame_rx(&mut self, api: &mut HostApi<'_, '_>, eth: &EthernetView<'_>) -> FrameVerdict {
        match eth.ethertype() {
            EtherType::SArp => {
                self.handle_sarp_frame(api, eth);
                FrameVerdict::Consumed
            }
            EtherType::Ipv4 => {
                // Peel AKD responses out of the UDP stream ourselves; all
                // other IPv4 traffic flows to the normal stack.
                let Ok(pkt) = arpshield_packet::Ipv4Packet::parse(eth.payload()) else {
                    return FrameVerdict::Continue;
                };
                if pkt.protocol != arpshield_packet::IpProtocol::Udp {
                    return FrameVerdict::Continue;
                }
                let Ok(dgram) =
                    arpshield_packet::UdpDatagram::parse(&pkt.payload, pkt.src, pkt.dst)
                else {
                    return FrameVerdict::Continue;
                };
                if dgram.src_port == AKD_PORT && dgram.dst_port == CLIENT_PORT {
                    self.handle_akd_response(api, &dgram.payload);
                    return FrameVerdict::Consumed;
                }
                FrameVerdict::Continue
            }
            _ => FrameVerdict::Continue,
        }
    }
}

/// The AKD service, run as an [`App`] on the key-distributor host.
#[derive(Debug)]
pub struct AkdApp {
    akd: Rc<RefCell<Akd>>,
    keypair: KeyPair,
    log: AlertLog,
    /// Lookups answered.
    pub served: u64,
}

impl AkdApp {
    /// Creates the service around a shared registry, signing responses
    /// with the AKD keypair.
    pub fn new(akd: Rc<RefCell<Akd>>, keypair: KeyPair, log: AlertLog) -> Self {
        AkdApp { akd, keypair, log, served: 0 }
    }
}

impl App for AkdApp {
    fn name(&self) -> &str {
        "akd"
    }

    fn on_udp(
        &mut self,
        api: &mut HostApi<'_, '_>,
        src: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        payload: &[u8],
    ) {
        if dst_port != AKD_PORT || payload.len() < 5 || payload[0] != MSG_LOOKUP {
            return;
        }
        self.log.add_work(SCHEME, work::KEY_LOOKUP);
        let ip = Ipv4Addr::new(payload[1], payload[2], payload[3], payload[4]);
        let response = match self.akd.borrow_mut().lookup(u32::from(ip.to_u32())) {
            Ok(key) => {
                let mut msg = vec![MSG_KEY];
                msg.extend_from_slice(&ip.octets());
                msg.extend_from_slice(&key.to_bytes());
                msg.extend_from_slice(&api.now().as_nanos().to_be_bytes());
                api.add_work(work::SIGN);
                let sig = self.keypair.sign(&msg);
                msg.extend_from_slice(&sig.to_bytes());
                msg
            }
            Err(_) => {
                let mut msg = vec![MSG_UNKNOWN];
                msg.extend_from_slice(&ip.octets());
                msg
            }
        };
        self.served += 1;
        api.send_udp(src, AKD_PORT, src_port, response);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signed_message_layout() {
        let arp = ArpPacket::request(
            MacAddr::from_index(1),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
        );
        let body = arp.encode();
        let m = signed_reply_message(&body, 0x1122_3344_5566_7788);
        assert_eq!(m.len(), ARP_WIRE_LEN + 8);
        assert_eq!(&m[..ARP_WIRE_LEN], &body[..]);
        assert_eq!(&m[ARP_WIRE_LEN..], &0x1122_3344_5566_7788u64.to_be_bytes());
    }

    #[test]
    fn signature_binds_body_and_time() {
        let kp = KeyPair::from_seed(1);
        let arp = ArpPacket::request(
            MacAddr::from_index(1),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
        );
        let reply = ArpPacket::reply_to(&arp, MacAddr::from_index(2));
        let m1 = signed_reply_message(&reply.encode(), 1000);
        let sig = kp.sign(&m1);
        assert!(kp.public_key().verify(&m1, &sig).is_ok());
        // Different timestamp -> different message -> signature fails.
        let m2 = signed_reply_message(&reply.encode(), 2000);
        assert!(kp.public_key().verify(&m2, &sig).is_err());
    }

    // Network behaviour (signed resolution end-to-end, forged replies
    // failing, AKD round trips) is exercised in `tests/schemes.rs`.
}

//! TARP: Ticket-based Address Resolution Protocol (Lootah, Enck &
//! McDaniel).
//!
//! Where S-ARP makes every host a signer, TARP concentrates signing in a
//! Local Ticketing Agent (LTA): at provisioning time the LTA issues each
//! host a *ticket* — a signature over `(ip, mac, expiry)`. Hosts attach
//! their ticket to ARP replies; receivers verify one signature against
//! the LTA's (statically known) public key and need no per-host keys, no
//! online key distributor, and no signing at resolution time. That makes
//! TARP strictly cheaper than S-ARP on the wire and on the CPU — the
//! trade-off is ticket lifetime: a binding cannot be revoked before its
//! ticket expires, which is why TARP and fast DHCP churn coexist poorly.

use std::time::Duration;

use arpshield_crypto::{KeyPair, PublicKey, Signature, SIGNATURE_LEN};
use arpshield_host::{ArpVerdict, FrameVerdict, HostApi, HostHook};
use arpshield_netsim::{eth_frame, Frame, SimTime};
use arpshield_packet::{
    ArpOp, ArpPacket, EtherType, EthernetView, Ipv4Addr, MacAddr, ARP_WIRE_LEN,
};

use crate::alert::{Alert, AlertKind, AlertLog};
use crate::work;

const SCHEME: &str = "tarp";

/// On-wire length of a ticket: ip(4) + mac(6) + expiry(8) + signature.
pub const TICKET_LEN: usize = 4 + 6 + 8 + SIGNATURE_LEN;

/// A ticket: the LTA's signature over one `(ip, mac, expiry)` binding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ticket {
    /// The bound protocol address.
    pub ip: Ipv4Addr,
    /// The bound hardware address.
    pub mac: MacAddr,
    /// Expiry instant (simulation clock).
    pub expires: SimTime,
    /// The LTA's signature over the three fields above.
    pub signature: Signature,
}

impl Ticket {
    fn message(ip: Ipv4Addr, mac: MacAddr, expires: SimTime) -> Vec<u8> {
        let mut m = Vec::with_capacity(18);
        m.extend_from_slice(&ip.octets());
        m.extend_from_slice(mac.as_bytes());
        m.extend_from_slice(&expires.as_nanos().to_be_bytes());
        m
    }

    /// Issues a ticket, signed by the LTA keypair. This is the
    /// provisioning-time operation; it never happens on the wire.
    pub fn issue(lta: &KeyPair, ip: Ipv4Addr, mac: MacAddr, expires: SimTime) -> Ticket {
        let signature = lta.sign(&Self::message(ip, mac, expires));
        Ticket { ip, mac, expires, signature }
    }

    /// Verifies the ticket against the LTA public key and checks expiry.
    pub fn verify(&self, lta_key: &PublicKey, now: SimTime) -> bool {
        now < self.expires
            && lta_key
                .verify(&Self::message(self.ip, self.mac, self.expires), &self.signature)
                .is_ok()
    }

    /// Serializes to [`TICKET_LEN`] bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(TICKET_LEN);
        out.extend_from_slice(&self.ip.octets());
        out.extend_from_slice(self.mac.as_bytes());
        out.extend_from_slice(&self.expires.as_nanos().to_be_bytes());
        out.extend_from_slice(&self.signature.to_bytes());
        out
    }

    /// Parses from bytes; `None` on truncation or malformed signature.
    pub fn from_bytes(bytes: &[u8]) -> Option<Ticket> {
        if bytes.len() < TICKET_LEN {
            return None;
        }
        let ip = Ipv4Addr::parse(&bytes[0..4]).ok()?;
        let mac = MacAddr::parse(&bytes[4..10]).ok()?;
        let expires = SimTime::from_nanos(u64::from_be_bytes(bytes[10..18].try_into().ok()?));
        let signature = Signature::from_bytes(&bytes[18..18 + SIGNATURE_LEN]).ok()?;
        Some(Ticket { ip, mac, expires, signature })
    }
}

/// TARP host agent configuration.
#[derive(Debug, Clone)]
pub struct TarpConfig {
    /// This host's own ticket, issued at provisioning.
    pub ticket: Ticket,
    /// The LTA's public key (statically provisioned everywhere).
    pub lta_key: PublicKey,
    /// Simulated CPU time per work unit (see the S-ARP agent).
    pub unit_cost: Duration,
}

/// The per-host TARP agent: attach our ticket to replies, verify
/// everyone else's, reject the unticketed.
#[derive(Debug)]
pub struct TarpHook {
    config: TarpConfig,
    log: AlertLog,
    outbox: std::collections::VecDeque<Frame>,
    verify_queue: std::collections::VecDeque<(Ipv4Addr, MacAddr, bool)>,
    /// Ticketed replies sent.
    pub replies_sent: u64,
    /// Claims verified and installed.
    pub verified: u64,
    /// Claims rejected.
    pub rejected: u64,
}

const TIMER_SEND: u32 = 1;
const TIMER_VERIFY: u32 = 2;

impl TarpHook {
    /// Creates the agent.
    pub fn new(config: TarpConfig, log: AlertLog) -> Self {
        TarpHook {
            config,
            log,
            outbox: std::collections::VecDeque::new(),
            verify_queue: std::collections::VecDeque::new(),
            replies_sent: 0,
            verified: 0,
            rejected: 0,
        }
    }

    fn alert(&self, at: SimTime, kind: AlertKind, ip: Ipv4Addr, mac: MacAddr) {
        self.log.raise(Alert {
            at,
            scheme: SCHEME,
            kind,
            subject_ip: Some(ip),
            observed_mac: Some(mac),
            expected_mac: None,
        });
    }
}

impl HostHook for TarpHook {
    fn name(&self) -> &str {
        SCHEME
    }

    fn on_arp_rx(&mut self, api: &mut HostApi<'_, '_>, arp: &ArpPacket) -> ArpVerdict {
        api.add_work(work::INSPECT);
        match arp.op {
            ArpOp::Request => {
                if arp.is_probe() {
                    return ArpVerdict::Continue;
                }
                if Some(arp.target_ip) == api.ip() {
                    // Reply with our ticket attached. Attaching costs
                    // nothing: the signature was made at provisioning.
                    let my_mac = api.mac();
                    let reply = ArpPacket::reply_to(arp, my_mac);
                    let mut payload = reply.encode();
                    payload.extend_from_slice(&self.config.ticket.to_bytes());
                    let frame = eth_frame(arp.sender_mac, my_mac, EtherType::Tarp, &payload[..]);
                    self.outbox.push_back(frame);
                    // Only header assembly; one inspection unit of delay.
                    api.schedule(self.config.unit_cost, TIMER_SEND);
                    self.replies_sent += 1;
                }
                ArpVerdict::Drop
            }
            ArpOp::Reply => {
                // Unticketed replies are forbidden on a TARP segment.
                self.rejected += 1;
                self.alert(api.now(), AlertKind::UnsignedReply, arp.sender_ip, arp.sender_mac);
                ArpVerdict::Drop
            }
        }
    }

    fn on_frame_rx(&mut self, api: &mut HostApi<'_, '_>, eth: &EthernetView<'_>) -> FrameVerdict {
        if eth.ethertype() != EtherType::Tarp {
            return FrameVerdict::Continue;
        }
        let payload = eth.payload();
        if payload.len() < ARP_WIRE_LEN + TICKET_LEN {
            return FrameVerdict::Consumed;
        }
        let Ok(arp) = ArpPacket::parse(&payload[..ARP_WIRE_LEN]) else {
            return FrameVerdict::Consumed;
        };
        let Some(ticket) = Ticket::from_bytes(&payload[ARP_WIRE_LEN..]) else {
            self.rejected += 1;
            self.alert(api.now(), AlertKind::SignatureInvalid, arp.sender_ip, arp.sender_mac);
            return FrameVerdict::Consumed;
        };
        api.add_work(work::VERIFY);
        // The ticket must verify AND name exactly the claimed binding.
        let ok = ticket.verify(&self.config.lta_key, api.now())
            && ticket.ip == arp.sender_ip
            && ticket.mac == arp.sender_mac;
        self.verify_queue.push_back((arp.sender_ip, arp.sender_mac, ok));
        api.schedule(self.config.unit_cost * work::VERIFY as u32, TIMER_VERIFY);
        FrameVerdict::Consumed
    }

    fn on_timer(&mut self, api: &mut HostApi<'_, '_>, payload: u32) {
        match payload {
            TIMER_SEND => {
                if let Some(frame) = self.outbox.pop_front() {
                    api.send_frame(frame);
                }
            }
            TIMER_VERIFY => {
                if let Some((ip, mac, ok)) = self.verify_queue.pop_front() {
                    if ok {
                        self.verified += 1;
                        api.install_verified_binding(ip, mac);
                    } else {
                        self.rejected += 1;
                        self.alert(api.now(), AlertKind::SignatureInvalid, ip, mac);
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticket_roundtrip_and_verify() {
        let lta = KeyPair::from_seed(1);
        let t = Ticket::issue(
            &lta,
            Ipv4Addr::new(10, 0, 0, 1),
            MacAddr::from_index(1),
            SimTime::from_secs(3600),
        );
        let parsed = Ticket::from_bytes(&t.to_bytes()).unwrap();
        assert_eq!(parsed, t);
        assert!(parsed.verify(&lta.public_key(), SimTime::from_secs(10)));
    }

    #[test]
    fn expired_ticket_rejected() {
        let lta = KeyPair::from_seed(1);
        let t = Ticket::issue(
            &lta,
            Ipv4Addr::new(10, 0, 0, 1),
            MacAddr::from_index(1),
            SimTime::from_secs(100),
        );
        assert!(t.verify(&lta.public_key(), SimTime::from_secs(99)));
        assert!(!t.verify(&lta.public_key(), SimTime::from_secs(100)));
    }

    #[test]
    fn forged_ticket_rejected() {
        let lta = KeyPair::from_seed(1);
        let mallory = KeyPair::from_seed(666);
        let forged = Ticket::issue(
            &mallory,
            Ipv4Addr::new(10, 0, 0, 1),
            MacAddr::from_index(66),
            SimTime::from_secs(3600),
        );
        assert!(!forged.verify(&lta.public_key(), SimTime::from_secs(1)));
    }

    #[test]
    fn tampered_binding_rejected() {
        let lta = KeyPair::from_seed(1);
        let t = Ticket::issue(
            &lta,
            Ipv4Addr::new(10, 0, 0, 1),
            MacAddr::from_index(1),
            SimTime::from_secs(3600),
        );
        let mut stolen = t;
        stolen.mac = MacAddr::from_index(66); // rebind to the attacker
        assert!(!stolen.verify(&lta.public_key(), SimTime::from_secs(1)));
    }

    #[test]
    fn truncated_bytes_rejected() {
        assert!(Ticket::from_bytes(&[0u8; TICKET_LEN - 1]).is_none());
    }
}

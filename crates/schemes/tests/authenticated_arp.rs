//! Adversarial tests for the authenticated-ARP schemes: what their
//! cryptography does and does not buy.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use arpshield_crypto::{Akd, KeyPair};
use arpshield_host::apps::PingApp;
use arpshield_host::{ArpPolicy, Host, HostConfig, HostHandle};
use arpshield_netsim::{
    Device, DeviceCtx, DeviceId, PortId, SimTime, Simulator, Switch, SwitchConfig,
};
use arpshield_packet::{
    ArpOp, ArpPacket, EtherType, EthernetFrame, EthernetView, Ipv4Addr, Ipv4Cidr, MacAddr,
};
use arpshield_schemes::{
    sarp, tarp, AlertKind, AlertLog, SArpConfig, SArpHook, TarpConfig, TarpHook, Ticket,
};

fn cidr() -> Ipv4Cidr {
    Ipv4Cidr::new(Ipv4Addr::new(10, 0, 0, 0), 24)
}

fn ip(n: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, n)
}

fn mac(n: u32) -> MacAddr {
    MacAddr::from_index(n)
}

/// Records every S-ARP frame it sees, then replays them all after a
/// delay — the replay attack S-ARP's timestamps exist to stop.
struct SArpReplayer {
    captured: Vec<Vec<u8>>,
    replay_at: Duration,
    replayed: bool,
}

impl Device for SArpReplayer {
    fn name(&self) -> &str {
        "sarp-replayer"
    }
    fn port_count(&self) -> usize {
        1
    }
    fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
        ctx.schedule_in(self.replay_at, 1);
    }
    fn on_frame(&mut self, _ctx: &mut DeviceCtx<'_>, _port: PortId, frame: &[u8]) {
        if let Ok(eth) = EthernetView::parse_strict(frame) {
            if eth.ethertype() == EtherType::SArp && !self.replayed {
                self.captured.push(frame.to_vec());
            }
        }
    }
    fn on_timer(&mut self, ctx: &mut DeviceCtx<'_>, _token: u64) {
        self.replayed = true;
        for mut frame in self.captured.drain(..) {
            // Re-address the replay to the broadcast so the victim sees it.
            frame[..6].copy_from_slice(MacAddr::BROADCAST.as_bytes());
            ctx.send(PortId(0), frame);
        }
    }
}

struct Net {
    sim: Simulator,
    switch: DeviceId,
    next_port: u16,
}

impl Net {
    fn new(seed: u64) -> Self {
        let mut sim = Simulator::new(seed);
        let (sw, _) = Switch::new(
            "sw",
            SwitchConfig { ports: 16, mirror_to: Some(PortId(15)), ..Default::default() },
        );
        let switch = sim.add_device(Box::new(sw));
        Net { sim, switch, next_port: 0 }
    }

    fn attach(&mut self, device: Box<dyn Device>) -> DeviceId {
        let id = self.sim.add_device(device);
        let port = self.next_port;
        self.next_port += 1;
        self.sim
            .connect(id, PortId(0), self.switch, PortId(port), Duration::from_micros(5))
            .unwrap();
        id
    }

    fn attach_at(&mut self, device: Box<dyn Device>, port: u16) -> DeviceId {
        let id = self.sim.add_device(device);
        self.sim
            .connect(id, PortId(0), self.switch, PortId(port), Duration::from_micros(5))
            .unwrap();
        id
    }
}

fn sarp_host(
    net: &mut Net,
    name: &str,
    host_ip: Ipv4Addr,
    host_mac: MacAddr,
    registry: &Rc<RefCell<Akd>>,
    akd_keypair: &KeyPair,
    local: bool,
    alerts: &AlertLog,
) -> (HostHandle, bool) {
    let (mut host, handle) = Host::new(
        HostConfig::static_ip(name, host_mac, host_ip, cidr()).with_policy(ArpPolicy::StaticOnly),
    );
    host.add_hook(Box::new(SArpHook::new(
        SArpConfig {
            keypair: KeyPair::from_seed(u64::from(host_ip.to_u32())),
            akd_ip: ip(9),
            akd_mac: mac(109),
            akd_key: akd_keypair.public_key(),
            max_age: Duration::from_secs(5),
            local_akd: local.then(|| Rc::clone(registry)),
            unit_cost: sarp::DEFAULT_UNIT_COST,
            key_fetch_retries: 0,
            key_fetch_timeout: std::time::Duration::from_millis(200),
        },
        alerts.clone(),
    )));
    if local {
        host.add_app(Box::new(arpshield_schemes::AkdApp::new(
            Rc::clone(registry),
            akd_keypair.clone(),
            alerts.clone(),
        )));
    }
    let is_ping_host = name == "victim";
    if is_ping_host {
        let (ping, _) = PingApp::new(ip(1), Duration::from_millis(300));
        host.add_app(Box::new(ping));
    }
    net.attach(Box::new(host));
    (handle, is_ping_host)
}

#[test]
fn sarp_rejects_stale_replayed_replies() {
    let mut net = Net::new(31);
    let alerts = AlertLog::new();
    let registry = Rc::new(RefCell::new(Akd::new()));
    let akd_keypair = KeyPair::from_seed(9000);
    for n in [9u8, 1, 2] {
        registry.borrow_mut().register(
            u32::from(ip(n).to_u32()),
            KeyPair::from_seed(u64::from(ip(n).to_u32())).public_key(),
        );
    }
    sarp_host(&mut net, "akd", ip(9), mac(109), &registry, &akd_keypair, true, &alerts);
    sarp_host(&mut net, "gw", ip(1), mac(100), &registry, &akd_keypair, false, &alerts);
    let (victim, _) =
        sarp_host(&mut net, "victim", ip(2), mac(2), &registry, &akd_keypair, false, &alerts);

    // The replayer sniffs from the mirror port and replays every signed
    // reply 8 s later — beyond the 5 s freshness window.
    net.attach_at(
        Box::new(SArpReplayer {
            captured: Vec::new(),
            replay_at: Duration::from_secs(8),
            replayed: false,
        }),
        15,
    );

    net.sim.run_until(SimTime::from_secs(12));
    // The replays must be rejected as stale…
    assert!(
        alerts.alerts().iter().any(|a| a.kind == AlertKind::SignatureInvalid),
        "stale replays must be rejected: {:?}",
        alerts.alerts()
    );
    // …and the victim's cache still holds the truth.
    assert_eq!(victim.cache.borrow().lookup(net.sim.now(), ip(1)), Some(mac(100)));
}

/// The weakness TARP trades its cheapness for: a ticket stays valid
/// until it expires. An attacker that legitimately held an IP (an old
/// DHCP lease) keeps a working ticket for it, and can re-claim the IP
/// after it was reassigned — cryptography verifies, reality disagrees.
#[test]
fn tarp_stale_ticket_replays_successfully_until_expiry() {
    let lta = KeyPair::from_seed(0x17A);
    let mut net = Net::new(32);
    let alerts = AlertLog::new();

    let make_tarp_host = |name: &str, hip: Ipv4Addr, hmac: MacAddr, expires: SimTime| {
        let (mut host, handle) = Host::new(
            HostConfig::static_ip(name, hmac, hip, cidr()).with_policy(ArpPolicy::StaticOnly),
        );
        host.add_hook(Box::new(TarpHook::new(
            TarpConfig {
                ticket: Ticket::issue(&lta, hip, hmac, expires),
                lta_key: lta.public_key(),
                unit_cost: sarp::DEFAULT_UNIT_COST,
            },
            alerts.clone(),
        )));
        (host, handle)
    };

    // The gateway holds 10.0.0.1 *now*; its ticket is fresh.
    let (gw, _gw_h) = make_tarp_host("gw", ip(1), mac(100), SimTime::from_secs(3600));
    net.attach(Box::new(gw));
    // The victim pings the gateway.
    let (mut victim, victim_h) = make_tarp_host("victim", ip(2), mac(2), SimTime::from_secs(3600));
    let (ping, _) = PingApp::new(ip(1), Duration::from_millis(300));
    victim.add_app(Box::new(ping));
    net.attach(Box::new(victim));

    // The attacker previously leased 10.0.0.1 (say, before the router
    // was renumbered) and still holds an unexpired ticket binding
    // 10.0.0.1 to ITS OWN MAC. It replays a TARP reply built from it.
    struct StaleTicketAttacker {
        frame: Vec<u8>,
    }
    impl Device for StaleTicketAttacker {
        fn name(&self) -> &str {
            "stale-ticket-attacker"
        }
        fn port_count(&self) -> usize {
            1
        }
        fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
            ctx.schedule_in(Duration::from_secs(3), 1);
        }
        fn on_frame(&mut self, _: &mut DeviceCtx<'_>, _: PortId, _: &[u8]) {}
        fn on_timer(&mut self, ctx: &mut DeviceCtx<'_>, _token: u64) {
            ctx.send(PortId(0), self.frame.clone());
            ctx.schedule_in(Duration::from_secs(2), 1);
        }
    }
    let stale_ticket = Ticket::issue(&lta, ip(1), mac(66), SimTime::from_secs(120));
    let forged_reply = ArpPacket {
        op: ArpOp::Reply,
        sender_mac: mac(66),
        sender_ip: ip(1),
        target_mac: mac(2),
        target_ip: ip(2),
    };
    let mut payload = forged_reply.encode();
    payload.extend_from_slice(&stale_ticket.to_bytes());
    let frame = EthernetFrame::new(mac(2), mac(66), EtherType::Tarp, payload).encode();
    net.attach(Box::new(StaleTicketAttacker { frame }));

    net.sim.run_until(SimTime::from_secs(10));
    // The stale-but-valid ticket verifies: the victim IS poisoned. This
    // is TARP's documented revocation-lag weakness, reproduced.
    assert_eq!(
        victim_h.cache.borrow().lookup(net.sim.now(), ip(1)),
        Some(mac(66)),
        "an unexpired stale ticket must (regrettably) verify"
    );

    // After the stale ticket's expiry the same replay is rejected.
    net.sim.run_until(SimTime::from_secs(130));
    victim_h.cache.borrow_mut().remove(ip(1));
    net.sim.run_until(SimTime::from_secs(140));
    assert_ne!(
        victim_h.cache.borrow().lookup(net.sim.now(), ip(1)),
        Some(mac(66)),
        "expired tickets must stop verifying"
    );
    assert!(alerts.alerts().iter().any(|a| a.kind == AlertKind::SignatureInvalid));
    let _ = tarp::TICKET_LEN;
}

/// A lost AKD datagram must not strand resolution forever: with
/// key-fetch retries armed, the hook re-requests the key until the AKD
/// link returns; without them, the parked claims wait for a signed
/// reply that (with a single-shot resolver) never comes again.
#[test]
fn sarp_key_fetch_retries_recover_from_akd_outage() {
    use arpshield_host::RetryPolicy;
    use arpshield_netsim::{FlapSchedule, LinkProfile};

    /// Sends a single UDP datagram shortly after start — one resolution
    /// attempt, so recovery can only come from the scheme's own retries.
    struct OneShot;
    impl arpshield_host::apps::App for OneShot {
        fn name(&self) -> &str {
            "oneshot"
        }
        fn on_start(&mut self, api: &mut arpshield_host::HostApi<'_, '_>) {
            api.schedule(Duration::from_millis(100), 0);
        }
        fn on_timer(&mut self, api: &mut arpshield_host::HostApi<'_, '_>, _payload: u32) {
            api.send_udp(ip(1), 4000, 4001, vec![0xAB]);
        }
    }

    let run = |key_fetch_retries: u32| -> (HostHandle, SimTime, Net) {
        let mut net = Net::new(33);
        let alerts = AlertLog::new();
        let registry = Rc::new(RefCell::new(Akd::new()));
        let akd_keypair = KeyPair::from_seed(9000);
        for n in [9u8, 1, 2] {
            registry.borrow_mut().register(
                u32::from(ip(n).to_u32()),
                KeyPair::from_seed(u64::from(ip(n).to_u32())).public_key(),
            );
        }
        let sarp_config = |host_ip: Ipv4Addr, local: bool| SArpConfig {
            keypair: KeyPair::from_seed(u64::from(host_ip.to_u32())),
            akd_ip: ip(9),
            akd_mac: mac(109),
            akd_key: akd_keypair.public_key(),
            max_age: Duration::from_secs(5),
            local_akd: local.then(|| Rc::clone(&registry)),
            unit_cost: sarp::DEFAULT_UNIT_COST,
            key_fetch_retries,
            key_fetch_timeout: Duration::from_millis(200),
        };

        // The AKD's link is dark for the first second, then stays up.
        let (mut akd, _) = Host::new(
            HostConfig::static_ip("akd", mac(109), ip(9), cidr())
                .with_policy(ArpPolicy::StaticOnly),
        );
        akd.add_hook(Box::new(SArpHook::new(sarp_config(ip(9), true), alerts.clone())));
        akd.add_app(Box::new(arpshield_schemes::AkdApp::new(
            Rc::clone(&registry),
            akd_keypair.clone(),
            alerts.clone(),
        )));
        let akd_id = net.sim.add_device(Box::new(akd));
        let port = net.next_port;
        net.next_port += 1;
        net.sim
            .connect_impaired(
                akd_id,
                PortId(0),
                net.switch,
                PortId(port),
                Duration::from_micros(5),
                LinkProfile::default().with_flap(FlapSchedule {
                    offset: Duration::ZERO,
                    down_for: Duration::from_secs(1),
                    period: Duration::from_secs(3600),
                }),
            )
            .unwrap();

        let (mut gw, _) = Host::new(
            HostConfig::static_ip("gw", mac(100), ip(1), cidr()).with_policy(ArpPolicy::StaticOnly),
        );
        gw.add_hook(Box::new(SArpHook::new(sarp_config(ip(1), false), alerts.clone())));
        net.attach(Box::new(gw));

        // Single-shot resolver: one ARP request, no retransmissions, so
        // the only signed reply (and hence the only chance to fetch the
        // gateway's key) lands inside the outage window.
        let (mut victim, handle) = Host::new(
            HostConfig::static_ip("victim", mac(2), ip(2), cidr())
                .with_policy(ArpPolicy::StaticOnly)
                .with_resolver_retry(RetryPolicy::fixed(Duration::from_secs(1), 0)),
        );
        victim.add_hook(Box::new(SArpHook::new(sarp_config(ip(2), false), alerts.clone())));
        victim.add_app(Box::new(OneShot));
        net.attach(Box::new(victim));

        net.sim.run_until(SimTime::from_secs(12));
        let now = net.sim.now();
        (handle, now, net)
    };

    let (stranded, now, _net) = run(0);
    assert_eq!(
        stranded.cache.borrow().lookup(now, ip(1)),
        None,
        "without retries the lost key fetch strands the claim"
    );

    let (recovered, now, _net) = run(10);
    assert_eq!(
        recovered.cache.borrow().lookup(now, ip(1)),
        Some(mac(100)),
        "retried key fetch must verify the parked claim after the outage"
    );
    assert!(recovered.stats.borrow().ipv4_sent > 0);
}

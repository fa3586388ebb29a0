//! Hook points through which host-resident defence schemes participate in
//! the stack, and the [`HostApi`] facade they (and applications) use.

use std::time::Duration;

use arpshield_netsim::{eth_frame, DeviceCtx, Frame, PortId};
use arpshield_packet::{
    ArpPacket, EtherType, EthernetView, IcmpMessage, Ipv4Addr, Ipv4Cidr, MacAddr, UdpDatagram,
};

use crate::arp::EntryOrigin;
use crate::stack::{tokens, HostCore};

/// Hook decision about an incoming ARP packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArpVerdict {
    /// Let normal stack processing continue (other hooks, then policy).
    Continue,
    /// Suppress the packet entirely: no cache write, no auto-reply.
    Drop,
}

/// Hook decision about an arbitrary incoming frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameVerdict {
    /// Let normal stack processing continue.
    Continue,
    /// The hook consumed the frame (e.g. an S-ARP signed reply).
    Consumed,
}

/// A host-resident agent: kernel ARP hardening, the S-ARP daemon, etc.
///
/// Hooks run *before* the host's own ARP processing, in installation
/// order. A hook that returns [`ArpVerdict::Drop`] short-circuits the
/// rest.
pub trait HostHook {
    /// Name for diagnostics.
    fn name(&self) -> &str;

    /// Called once at simulation start.
    fn on_start(&mut self, api: &mut HostApi<'_, '_>) {
        let _ = api;
    }

    /// Called for every received ARP packet before normal processing.
    fn on_arp_rx(&mut self, api: &mut HostApi<'_, '_>, arp: &ArpPacket) -> ArpVerdict {
        let _ = (api, arp);
        ArpVerdict::Continue
    }

    /// Called for every received frame of *any* ethertype (before ARP/IP
    /// dispatch). Lets schemes define their own wire formats.
    fn on_frame_rx(&mut self, api: &mut HostApi<'_, '_>, eth: &EthernetView<'_>) -> FrameVerdict {
        let _ = (api, eth);
        FrameVerdict::Continue
    }

    /// Called when a timer scheduled via [`HostApi::schedule`] fires.
    fn on_timer(&mut self, api: &mut HostApi<'_, '_>, payload: u32) {
        let _ = (api, payload);
    }
}

/// Which subsystem a [`HostApi`] is currently serving; determines how its
/// timers are routed back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TimerClass {
    App(u16),
    Hook(u16),
    DhcpClient,
    DhcpServer,
}

/// The facade through which hooks and applications drive the host.
///
/// It wraps the host core and the simulator context for the duration of
/// one callback.
#[derive(Debug)]
pub struct HostApi<'a, 'b> {
    pub(crate) core: &'a mut HostCore,
    pub(crate) ctx: &'a mut DeviceCtx<'b>,
    pub(crate) class: TimerClass,
}

impl HostApi<'_, '_> {
    /// Current simulation time.
    pub fn now(&self) -> arpshield_netsim::SimTime {
        self.ctx.now()
    }

    /// This host's MAC address.
    pub fn mac(&self) -> MacAddr {
        self.core.iface.borrow().mac()
    }

    /// This host's IP, if configured.
    pub fn ip(&self) -> Option<Ipv4Addr> {
        self.core.iface.borrow().ip()
    }

    /// This host's subnet, if configured.
    pub fn subnet(&self) -> Option<Ipv4Cidr> {
        self.core.iface.borrow().subnet()
    }

    /// Host name.
    pub fn host_name(&self) -> &str {
        &self.core.name
    }

    /// A deterministic random draw.
    pub fn rand_u64(&mut self) -> u64 {
        self.ctx.rng().next_u64()
    }

    /// Sends a raw Ethernet frame (built with [`arpshield_netsim::eth_frame`]).
    pub fn send_frame(&mut self, frame: Frame) {
        self.ctx.send(PortId(0), frame);
    }

    /// Broadcasts an ARP request for `target_ip` from this host.
    pub fn send_arp_request(&mut self, target_ip: Ipv4Addr) {
        self.core.send_arp_request(self.ctx, target_ip);
    }

    /// Sends an ARP probe (RFC 5227 style: zero sender IP) for
    /// `target_ip`. Probes never pollute caches, which is why active
    /// verification schemes use them.
    pub fn send_arp_probe(&mut self, target_ip: Ipv4Addr) {
        let mac = self.mac();
        let probe = ArpPacket::request(mac, Ipv4Addr::UNSPECIFIED, target_ip);
        self.ctx.send(PortId(0), eth_frame(MacAddr::BROADCAST, mac, EtherType::ARP, &probe));
        self.core.stats.borrow_mut().arp_requests_sent += 1;
    }

    /// Sends a unicast ICMP echo request to `dst` (resolving it first if
    /// needed).
    pub fn send_ping(&mut self, dst: Ipv4Addr, identifier: u16, sequence: u16) {
        let msg = IcmpMessage::echo_request(identifier, sequence, vec![0x61; 16]);
        self.core.send_ipv4(self.ctx, dst, arpshield_packet::IpProtocol::Icmp, msg.encode());
    }

    /// Sends a UDP datagram to `dst` (resolving it first if needed).
    pub fn send_udp(&mut self, dst: Ipv4Addr, src_port: u16, dst_port: u16, payload: Vec<u8>) {
        let src_ip = self.ip().unwrap_or(Ipv4Addr::UNSPECIFIED);
        let dgram = UdpDatagram::new(src_port, dst_port, payload).encode(src_ip, dst);
        self.core.send_ipv4(self.ctx, dst, arpshield_packet::IpProtocol::Udp, dgram);
    }

    /// Schedules a callback to this hook/app after `delay`, with an opaque
    /// payload.
    pub fn schedule(&mut self, delay: Duration, payload: u32) {
        let token = match self.class {
            TimerClass::App(i) => tokens::app(i, payload),
            TimerClass::Hook(i) => tokens::hook(i, payload),
            TimerClass::DhcpClient => tokens::encode(tokens::CLASS_DHCP_CLIENT, 0, payload),
            TimerClass::DhcpServer => tokens::encode(tokens::CLASS_DHCP_SERVER, 0, payload),
        };
        self.ctx.schedule_in(delay, token);
    }

    /// Looks up a live cache binding.
    pub fn cache_lookup(&self, ip: Ipv4Addr) -> Option<MacAddr> {
        self.core.cache.borrow().lookup(self.ctx.now(), ip)
    }

    /// Installs a *verified* binding (used by S-ARP / probing schemes
    /// after authentication) and flushes any packets queued behind it.
    pub fn install_verified_binding(&mut self, ip: Ipv4Addr, mac: MacAddr) {
        let now = self.ctx.now();
        self.core.cache.borrow_mut().insert_dynamic(now, ip, mac, EntryOrigin::Verified);
        self.core.stats.borrow_mut().cache_writes += 1;
        self.core.flush_pending(self.ctx, ip, mac);
    }

    /// Installs a static binding.
    pub fn install_static_binding(&mut self, ip: Ipv4Addr, mac: MacAddr) {
        let now = self.ctx.now();
        self.core.cache.borrow_mut().insert_static(now, ip, mac);
    }

    /// Removes a binding.
    pub fn remove_binding(&mut self, ip: Ipv4Addr) {
        self.core.cache.borrow_mut().remove(ip);
    }

    /// True when this host has an outstanding ARP request for `ip`.
    pub fn is_resolving(&self, ip: Ipv4Addr) -> bool {
        self.core.resolver.is_outstanding(ip)
    }

    /// Registers an outstanding-resolution marker for `ip` without
    /// queueing traffic behind it, so a subsequent reply reads as
    /// solicited. Probing hooks use this before emitting their own
    /// requests. Returns `false` when a resolution is already in flight.
    pub fn register_probe_resolution(&mut self, ip: Ipv4Addr) -> bool {
        let now = self.ctx.now();
        self.core.resolver.register_probe(now, ip)
    }

    /// Number of resolutions currently in flight on this host.
    pub fn resolutions_in_flight(&self) -> usize {
        self.core.resolver.outstanding()
    }

    /// Charges abstract work units to this host (the CPU-cost proxy used
    /// by the evaluation: e.g. one unit per inspected packet, hundreds
    /// per signature operation).
    pub fn add_work(&mut self, units: u64) {
        self.core.stats.borrow_mut().work_units += units;
    }

    /// Counts a hook-level drop in the host stats.
    pub fn count_hook_drop(&mut self) {
        self.core.stats.borrow_mut().hook_drops += 1;
    }
}

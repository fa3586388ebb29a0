//! In-place wire emission: the TX half of the zero-copy path.
//!
//! Decoding already has borrowed views ([`EthernetView`]); this module adds
//! the mirror image for encoding. A [`WireEmit`] value knows its exact
//! on-wire length and can serialize itself into a caller-provided
//! `&mut [u8]` — typically a recycled frame-pool buffer — so a TX site never
//! materializes an intermediate `Vec<u8>` per packet. The legacy
//! `encode() -> Vec<u8>` methods remain as thin shims that allocate a fresh
//! buffer and call [`WireEmit::emit`] into it.
//!
//! Two styles are provided:
//!
//! - **Mutable views** ([`EthernetViewMut`], [`ArpViewMut`], [`Ipv4ViewMut`],
//!   [`UdpViewMut`], [`IcmpViewMut`], [`DhcpViewMut`]) for incremental
//!   field-by-field writing into a buffer, ethox-style. Checksummed
//!   protocols expose an explicit `fill_checksum` that must be called last.
//! - **Bound emitters** ([`EthernetEmit`], [`Ipv4Emit`], [`UdpEmit`],
//!   [`TcpEmit`]) that pair header fields with a borrowed payload
//!   implementing [`WireEmit`], so nested encodings (DHCP in UDP in IPv4 in
//!   Ethernet) compose into a single pass over one buffer.
//!
//! All writers produce bytes identical to the legacy owned encoders; the
//! property suite pins this per protocol.
//!
//! [`EthernetView`]: crate::EthernetView

use crate::arp::{ArpOp, ArpPacket, ARP_WIRE_LEN};
use crate::checksum::internet_checksum;
use crate::dhcp::{DhcpMessage, DhcpOp, DhcpOption, DHCP_FIXED_LEN, DHCP_MAGIC_COOKIE};
use crate::ether::{
    EtherType, EthernetFrame, ETHERNET_HEADER_LEN, ETHERNET_MIN_PAYLOAD, ETHERNET_VLAN_TAG_LEN,
};
use crate::icmp::{IcmpMessage, IcmpType};
use crate::ipv4::{IpProtocol, Ipv4Addr, Ipv4Packet, IPV4_HEADER_LEN};
use crate::mac::MacAddr;
use crate::tcp::{tcp_pseudo_header, TcpFlags, TcpSegment, TCP_HEADER_LEN};
use crate::udp::{udp_pseudo_header, UdpDatagram, UDP_HEADER_LEN};

/// A value with an exact on-wire length that can serialize itself into a
/// caller-provided buffer.
///
/// `emit` writes exactly [`wire_len`](Self::wire_len) bytes starting at
/// `buf[0]` and returns that count; callers hand it a slice at least that
/// long (frame-pool buffers are sized exactly). Implementations overwrite
/// every byte they claim — including zero padding — so a dirty buffer never
/// leaks through.
pub trait WireEmit {
    /// Exact number of bytes `emit` will write.
    fn wire_len(&self) -> usize;

    /// Serializes into the front of `buf`, returning the bytes written
    /// (always equal to [`wire_len`](Self::wire_len)).
    ///
    /// # Panics
    ///
    /// Panics if `buf` is shorter than [`wire_len`](Self::wire_len).
    fn emit(&self, buf: &mut [u8]) -> usize;
}

/// Raw bytes emit as themselves; this is what lets an already-serialized
/// payload (or an opaque one, like a signature blob) slot into the nested
/// emitters.
impl WireEmit for [u8] {
    fn wire_len(&self) -> usize {
        self.len()
    }

    fn emit(&self, buf: &mut [u8]) -> usize {
        buf[..self.len()].copy_from_slice(self);
        self.len()
    }
}

impl<T: WireEmit + ?Sized> WireEmit for &T {
    fn wire_len(&self) -> usize {
        (**self).wire_len()
    }

    fn emit(&self, buf: &mut [u8]) -> usize {
        (**self).emit(buf)
    }
}

/// Shared shim for the legacy `encode() -> Vec<u8>` methods: allocate an
/// exactly-sized zeroed buffer and emit into it.
pub(crate) fn emit_to_vec<T: WireEmit + ?Sized>(value: &T) -> Vec<u8> {
    let mut buf = vec![0u8; value.wire_len()];
    let written = value.emit(&mut buf);
    debug_assert_eq!(written, buf.len(), "emit must fill its stated wire_len");
    buf
}

// ---------------------------------------------------------------------------
// Ethernet
// ---------------------------------------------------------------------------

/// A mutable view over an Ethernet II frame being written in place.
///
/// Field setters write directly into the borrowed buffer. VLAN tags shift
/// where the ethertype lives, so the write order is: addresses in any order,
/// then tags outermost-first via [`push_vlan`](Self::push_vlan) /
/// [`push_tag`](Self::push_tag), then [`set_ethertype`](Self::set_ethertype),
/// then the payload through [`payload_mut`](Self::payload_mut).
pub struct EthernetViewMut<'a> {
    buf: &'a mut [u8],
    tag_len: usize,
}

impl<'a> EthernetViewMut<'a> {
    /// Wraps `buf`, which must hold at least the 14-byte header.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is shorter than [`ETHERNET_HEADER_LEN`].
    pub fn new(buf: &'a mut [u8]) -> Self {
        assert!(
            buf.len() >= ETHERNET_HEADER_LEN,
            "ethernet view needs at least {ETHERNET_HEADER_LEN} bytes, got {}",
            buf.len()
        );
        EthernetViewMut { buf, tag_len: 0 }
    }

    /// Writes the destination hardware address.
    pub fn set_dst(&mut self, dst: MacAddr) {
        self.buf[0..6].copy_from_slice(dst.as_bytes());
    }

    /// Writes the source hardware address.
    pub fn set_src(&mut self, src: MacAddr) {
        self.buf[6..12].copy_from_slice(src.as_bytes());
    }

    /// Appends an 802.1Q customer tag (TPID `0x8100`) with the low 12 bits
    /// of `vid`, growing the header by four bytes. Call before
    /// [`set_ethertype`](Self::set_ethertype); stack outermost-first for
    /// QinQ.
    pub fn push_vlan(&mut self, vid: u16) {
        self.push_tag(EtherType::Vlan, vid);
    }

    /// Appends a tag with an explicit TPID — [`EtherType::QinQ`] for an
    /// 802.1ad service tag — enabling full QinQ stacks. The RX parser
    /// unwraps such stacks and reports the outermost VID.
    ///
    /// # Panics
    ///
    /// Panics if `tpid` is not a VLAN tag TPID or the buffer cannot hold the
    /// enlarged header.
    pub fn push_tag(&mut self, tpid: EtherType, vid: u16) {
        assert!(tpid.is_vlan_tag(), "tag TPID must be 802.1Q or 802.1ad, got {tpid}");
        let at = 12 + self.tag_len;
        assert!(
            self.buf.len() >= at + ETHERNET_VLAN_TAG_LEN + 2,
            "buffer too short for another VLAN tag"
        );
        self.buf[at..at + 2].copy_from_slice(&tpid.to_u16().to_be_bytes());
        self.buf[at + 2..at + 4].copy_from_slice(&(vid & 0x0FFF).to_be_bytes());
        self.tag_len += ETHERNET_VLAN_TAG_LEN;
    }

    /// Writes the payload ethertype after any pushed tags.
    pub fn set_ethertype(&mut self, ethertype: EtherType) {
        let at = 12 + self.tag_len;
        self.buf[at..at + 2].copy_from_slice(&ethertype.to_u16().to_be_bytes());
    }

    /// Header length including any pushed tags.
    pub fn header_len(&self) -> usize {
        ETHERNET_HEADER_LEN + self.tag_len
    }

    /// The payload region after the header and tags; its length is whatever
    /// the caller sized the buffer for (padding included).
    pub fn payload_mut(&mut self) -> &mut [u8] {
        let at = self.header_len();
        &mut self.buf[at..]
    }
}

/// Ethernet header fields bound to a borrowed payload: the composable
/// emitter behind [`EthernetFrame::encode`] and the netsim frame builder.
///
/// Emission zero-pads the payload to the 46-byte minimum and writes a
/// single 802.1Q tag when `vlan` is set, exactly like the owned encoder.
pub struct EthernetEmit<'a, P: WireEmit + ?Sized> {
    /// Destination hardware address.
    pub dst: MacAddr,
    /// Source hardware address.
    pub src: MacAddr,
    /// Payload protocol (the innermost ethertype when a tag is present).
    pub ethertype: EtherType,
    /// Optional 802.1Q VLAN id (low 12 bits are kept).
    pub vlan: Option<u16>,
    /// Borrowed payload to emit after the header.
    pub payload: &'a P,
}

impl<'a, P: WireEmit + ?Sized> EthernetEmit<'a, P> {
    /// Creates an untagged frame emitter.
    pub fn new(dst: MacAddr, src: MacAddr, ethertype: EtherType, payload: &'a P) -> Self {
        EthernetEmit { dst, src, ethertype, vlan: None, payload }
    }
}

impl<P: WireEmit + ?Sized> WireEmit for EthernetEmit<'_, P> {
    fn wire_len(&self) -> usize {
        let tag_len = if self.vlan.is_some() { ETHERNET_VLAN_TAG_LEN } else { 0 };
        ETHERNET_HEADER_LEN + tag_len + self.payload.wire_len().max(ETHERNET_MIN_PAYLOAD)
    }

    fn emit(&self, buf: &mut [u8]) -> usize {
        let total = self.wire_len();
        let mut view = EthernetViewMut::new(&mut buf[..total]);
        view.set_dst(self.dst);
        view.set_src(self.src);
        if let Some(vid) = self.vlan {
            view.push_vlan(vid);
        }
        view.set_ethertype(self.ethertype);
        let payload_len = self.payload.wire_len();
        let body = view.payload_mut();
        self.payload.emit(&mut body[..payload_len]);
        // Zero the min-payload padding explicitly: the buffer may be dirty.
        body[payload_len..].fill(0);
        total
    }
}

impl WireEmit for EthernetFrame {
    fn wire_len(&self) -> usize {
        EthernetFrame::wire_len(self)
    }

    fn emit(&self, buf: &mut [u8]) -> usize {
        EthernetEmit {
            dst: self.dst,
            src: self.src,
            ethertype: self.ethertype,
            vlan: self.vlan,
            payload: &self.payload[..],
        }
        .emit(buf)
    }
}

// ---------------------------------------------------------------------------
// ARP
// ---------------------------------------------------------------------------

/// A mutable view over the 28-byte ARP wire form.
///
/// Construction writes the fixed Ethernet/IPv4 type and length fields; the
/// setters fill in the claim.
pub struct ArpViewMut<'a> {
    buf: &'a mut [u8],
}

impl<'a> ArpViewMut<'a> {
    /// Wraps `buf` and writes the constant htype/ptype/hlen/plen prefix.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is shorter than [`ARP_WIRE_LEN`].
    pub fn new(buf: &'a mut [u8]) -> Self {
        assert!(
            buf.len() >= ARP_WIRE_LEN,
            "arp view needs {ARP_WIRE_LEN} bytes, got {}",
            buf.len()
        );
        buf[0..2].copy_from_slice(&1u16.to_be_bytes()); // htype: Ethernet
        buf[2..4].copy_from_slice(&0x0800u16.to_be_bytes()); // ptype: IPv4
        buf[4] = 6; // hlen
        buf[5] = 4; // plen
        ArpViewMut { buf }
    }

    /// Writes the operation code.
    pub fn set_op(&mut self, op: ArpOp) {
        self.buf[6..8].copy_from_slice(&op.to_u16().to_be_bytes());
    }

    /// Writes the sender hardware and protocol addresses — the claim.
    pub fn set_sender(&mut self, mac: MacAddr, ip: Ipv4Addr) {
        self.buf[8..14].copy_from_slice(mac.as_bytes());
        self.buf[14..18].copy_from_slice(&ip.octets());
    }

    /// Writes the target hardware and protocol addresses.
    pub fn set_target(&mut self, mac: MacAddr, ip: Ipv4Addr) {
        self.buf[18..24].copy_from_slice(mac.as_bytes());
        self.buf[24..28].copy_from_slice(&ip.octets());
    }
}

impl WireEmit for ArpPacket {
    fn wire_len(&self) -> usize {
        ARP_WIRE_LEN
    }

    fn emit(&self, buf: &mut [u8]) -> usize {
        let mut view = ArpViewMut::new(buf);
        view.set_op(self.op);
        view.set_sender(self.sender_mac, self.sender_ip);
        view.set_target(self.target_mac, self.target_ip);
        ARP_WIRE_LEN
    }
}

// ---------------------------------------------------------------------------
// IPv4
// ---------------------------------------------------------------------------

/// A mutable view over an IPv4 header (no options) plus payload.
///
/// The total length is taken from the wrapped buffer, which must be sized
/// exactly. Call [`fill_checksum`](Self::fill_checksum) after the last
/// header field write.
pub struct Ipv4ViewMut<'a> {
    buf: &'a mut [u8],
}

impl<'a> Ipv4ViewMut<'a> {
    /// Wraps an exactly-sized buffer and writes version/IHL, zeroed
    /// DSCP/flags/fragment fields, the total length, and the defaults the
    /// owned builder uses (TTL 64, identification 0).
    ///
    /// # Panics
    ///
    /// Panics if `buf` is shorter than [`IPV4_HEADER_LEN`] or longer than a
    /// 16-bit total length can describe.
    pub fn new(buf: &'a mut [u8]) -> Self {
        assert!(
            buf.len() >= IPV4_HEADER_LEN,
            "ipv4 view needs at least {IPV4_HEADER_LEN} bytes, got {}",
            buf.len()
        );
        assert!(buf.len() <= usize::from(u16::MAX), "ipv4 total length overflows 16 bits");
        buf[0] = 0x45; // version 4, IHL 5
        buf[1] = 0; // DSCP/ECN
        let total_len = buf.len() as u16;
        buf[2..4].copy_from_slice(&total_len.to_be_bytes());
        buf[4..6].copy_from_slice(&[0, 0]); // identification default
        buf[6..8].copy_from_slice(&[0, 0]); // flags + fragment offset
        buf[8] = 64; // default TTL
        buf[10..12].copy_from_slice(&[0, 0]); // checksum placeholder
        Ipv4ViewMut { buf }
    }

    /// Writes the identification field.
    pub fn set_identification(&mut self, id: u16) {
        self.buf[4..6].copy_from_slice(&id.to_be_bytes());
    }

    /// Writes the time-to-live.
    pub fn set_ttl(&mut self, ttl: u8) {
        self.buf[8] = ttl;
    }

    /// Writes the payload protocol number.
    pub fn set_protocol(&mut self, protocol: IpProtocol) {
        self.buf[9] = protocol.to_u8();
    }

    /// Writes the source address.
    pub fn set_src(&mut self, src: Ipv4Addr) {
        self.buf[12..16].copy_from_slice(&src.octets());
    }

    /// Writes the destination address.
    pub fn set_dst(&mut self, dst: Ipv4Addr) {
        self.buf[16..20].copy_from_slice(&dst.octets());
    }

    /// The payload region after the 20-byte header.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        &mut self.buf[IPV4_HEADER_LEN..]
    }

    /// Computes and patches the header checksum. Must be the last header
    /// write.
    pub fn fill_checksum(&mut self) {
        self.buf[10..12].copy_from_slice(&[0, 0]);
        let ck = internet_checksum(&self.buf[..IPV4_HEADER_LEN]);
        self.buf[10..12].copy_from_slice(&ck.to_be_bytes());
    }
}

/// IPv4 header fields bound to a borrowed payload emitter, so transport
/// payloads nest without intermediate buffers.
pub struct Ipv4Emit<'a, P: WireEmit + ?Sized> {
    /// Time to live.
    pub ttl: u8,
    /// Payload protocol.
    pub protocol: IpProtocol,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Identification field.
    pub identification: u16,
    /// Borrowed payload to emit after the header.
    pub payload: &'a P,
}

impl<'a, P: WireEmit + ?Sized> Ipv4Emit<'a, P> {
    /// Creates an emitter with the same defaults as [`Ipv4Packet::new`]
    /// (TTL 64, identification 0).
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, protocol: IpProtocol, payload: &'a P) -> Self {
        Ipv4Emit { ttl: 64, protocol, src, dst, identification: 0, payload }
    }
}

impl<P: WireEmit + ?Sized> WireEmit for Ipv4Emit<'_, P> {
    fn wire_len(&self) -> usize {
        IPV4_HEADER_LEN + self.payload.wire_len()
    }

    fn emit(&self, buf: &mut [u8]) -> usize {
        let total = self.wire_len();
        let mut view = Ipv4ViewMut::new(&mut buf[..total]);
        view.set_identification(self.identification);
        view.set_ttl(self.ttl);
        view.set_protocol(self.protocol);
        view.set_src(self.src);
        view.set_dst(self.dst);
        view.fill_checksum();
        self.payload.emit(view.payload_mut());
        total
    }
}

impl WireEmit for Ipv4Packet {
    fn wire_len(&self) -> usize {
        IPV4_HEADER_LEN + self.payload.len()
    }

    fn emit(&self, buf: &mut [u8]) -> usize {
        Ipv4Emit {
            ttl: self.ttl,
            protocol: self.protocol,
            src: self.src,
            dst: self.dst,
            identification: self.identification,
            payload: &self.payload[..],
        }
        .emit(buf)
    }
}

// ---------------------------------------------------------------------------
// UDP
// ---------------------------------------------------------------------------

/// A mutable view over a UDP datagram. The length field is taken from the
/// wrapped buffer; [`fill_checksum`](Self::fill_checksum) (which needs the
/// enclosing addresses for the pseudo-header) must come after the last
/// payload write.
pub struct UdpViewMut<'a> {
    buf: &'a mut [u8],
}

impl<'a> UdpViewMut<'a> {
    /// Wraps an exactly-sized buffer and writes the length field and a
    /// zeroed checksum placeholder.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is shorter than [`UDP_HEADER_LEN`] or longer than a
    /// 16-bit length can describe.
    pub fn new(buf: &'a mut [u8]) -> Self {
        assert!(
            buf.len() >= UDP_HEADER_LEN,
            "udp view needs at least {UDP_HEADER_LEN} bytes, got {}",
            buf.len()
        );
        assert!(buf.len() <= usize::from(u16::MAX), "udp length overflows 16 bits");
        let len = buf.len() as u16;
        buf[4..6].copy_from_slice(&len.to_be_bytes());
        buf[6..8].copy_from_slice(&[0, 0]); // checksum placeholder
        UdpViewMut { buf }
    }

    /// Writes the source port.
    pub fn set_src_port(&mut self, port: u16) {
        self.buf[0..2].copy_from_slice(&port.to_be_bytes());
    }

    /// Writes the destination port.
    pub fn set_dst_port(&mut self, port: u16) {
        self.buf[2..4].copy_from_slice(&port.to_be_bytes());
    }

    /// The payload region after the 8-byte header.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        &mut self.buf[UDP_HEADER_LEN..]
    }

    /// Computes and patches the pseudo-header checksum (RFC 768: an
    /// all-zero result is transmitted as `0xffff`). Must be the last write.
    pub fn fill_checksum(&mut self, src: Ipv4Addr, dst: Ipv4Addr) {
        self.buf[6..8].copy_from_slice(&[0, 0]);
        let mut ck = udp_pseudo_header(src, dst, self.buf.len() as u16);
        ck.add_bytes(self.buf);
        let mut sum = ck.finish();
        if sum == 0 {
            sum = 0xffff;
        }
        self.buf[6..8].copy_from_slice(&sum.to_be_bytes());
    }
}

/// UDP header fields bound to the enclosing addresses (the checksum covers
/// the IPv4 pseudo-header) and a borrowed payload emitter.
pub struct UdpEmit<'a, P: WireEmit + ?Sized> {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Enclosing source address, for the pseudo-header.
    pub src: Ipv4Addr,
    /// Enclosing destination address, for the pseudo-header.
    pub dst: Ipv4Addr,
    /// Borrowed payload to emit after the header.
    pub payload: &'a P,
}

impl<'a, P: WireEmit + ?Sized> UdpEmit<'a, P> {
    /// Creates an emitter.
    pub fn new(src_port: u16, dst_port: u16, src: Ipv4Addr, dst: Ipv4Addr, payload: &'a P) -> Self {
        UdpEmit { src_port, dst_port, src, dst, payload }
    }
}

impl<P: WireEmit + ?Sized> WireEmit for UdpEmit<'_, P> {
    fn wire_len(&self) -> usize {
        UDP_HEADER_LEN + self.payload.wire_len()
    }

    fn emit(&self, buf: &mut [u8]) -> usize {
        let total = self.wire_len();
        let mut view = UdpViewMut::new(&mut buf[..total]);
        view.set_src_port(self.src_port);
        view.set_dst_port(self.dst_port);
        self.payload.emit(view.payload_mut());
        view.fill_checksum(self.src, self.dst);
        total
    }
}

impl UdpDatagram {
    /// Binds the datagram to its enclosing addresses as a [`WireEmit`]
    /// value, the in-place counterpart of [`UdpDatagram::encode`].
    pub fn emitter(&self, src: Ipv4Addr, dst: Ipv4Addr) -> UdpEmit<'_, [u8]> {
        UdpEmit::new(self.src_port, self.dst_port, src, dst, &self.payload[..])
    }
}

// ---------------------------------------------------------------------------
// ICMP
// ---------------------------------------------------------------------------

/// A mutable view over an ICMP echo message.
/// [`fill_checksum`](Self::fill_checksum) must come after the last write.
pub struct IcmpViewMut<'a> {
    buf: &'a mut [u8],
}

impl<'a> IcmpViewMut<'a> {
    /// Wraps an exactly-sized buffer and writes the zero code byte and a
    /// zeroed checksum placeholder.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is shorter than the 8-byte echo header.
    pub fn new(buf: &'a mut [u8]) -> Self {
        assert!(buf.len() >= 8, "icmp view needs at least 8 bytes, got {}", buf.len());
        buf[1] = 0; // code
        buf[2..4].copy_from_slice(&[0, 0]); // checksum placeholder
        IcmpViewMut { buf }
    }

    /// Writes the message type.
    pub fn set_type(&mut self, icmp_type: IcmpType) {
        self.buf[0] = icmp_type.to_u8();
    }

    /// Writes the session identifier.
    pub fn set_identifier(&mut self, identifier: u16) {
        self.buf[4..6].copy_from_slice(&identifier.to_be_bytes());
    }

    /// Writes the sequence number.
    pub fn set_sequence(&mut self, sequence: u16) {
        self.buf[6..8].copy_from_slice(&sequence.to_be_bytes());
    }

    /// The echo payload region after the 8-byte header.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        &mut self.buf[8..]
    }

    /// Computes and patches the checksum. Must be the last write.
    pub fn fill_checksum(&mut self) {
        self.buf[2..4].copy_from_slice(&[0, 0]);
        let ck = internet_checksum(self.buf);
        self.buf[2..4].copy_from_slice(&ck.to_be_bytes());
    }
}

impl WireEmit for IcmpMessage {
    fn wire_len(&self) -> usize {
        8 + self.payload.len()
    }

    fn emit(&self, buf: &mut [u8]) -> usize {
        let total = self.wire_len();
        let mut view = IcmpViewMut::new(&mut buf[..total]);
        view.set_type(self.icmp_type);
        view.set_identifier(self.identifier);
        view.set_sequence(self.sequence);
        view.payload_mut().copy_from_slice(&self.payload);
        view.fill_checksum();
        total
    }
}

// ---------------------------------------------------------------------------
// TCP
// ---------------------------------------------------------------------------

/// TCP header fields bound to the enclosing addresses and a borrowed
/// payload emitter. There is no incremental view — nothing in the
/// simulator builds TCP field-by-field — but the emitter keeps the
/// probe-TX path allocation-free like the other protocols.
pub struct TcpEmit<'a, P: WireEmit + ?Sized> {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgement number.
    pub ack: u32,
    /// Header flags.
    pub flags: TcpFlags,
    /// Advertised receive window.
    pub window: u16,
    /// Enclosing source address, for the pseudo-header.
    pub src: Ipv4Addr,
    /// Enclosing destination address, for the pseudo-header.
    pub dst: Ipv4Addr,
    /// Borrowed payload to emit after the header.
    pub payload: &'a P,
}

impl<P: WireEmit + ?Sized> WireEmit for TcpEmit<'_, P> {
    fn wire_len(&self) -> usize {
        TCP_HEADER_LEN + self.payload.wire_len()
    }

    fn emit(&self, buf: &mut [u8]) -> usize {
        let total = self.wire_len();
        let buf = &mut buf[..total];
        buf[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        buf[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        buf[4..8].copy_from_slice(&self.seq.to_be_bytes());
        buf[8..12].copy_from_slice(&self.ack.to_be_bytes());
        buf[12] = ((TCP_HEADER_LEN / 4) as u8) << 4;
        buf[13] = self.flags.bits();
        buf[14..16].copy_from_slice(&self.window.to_be_bytes());
        buf[16..18].copy_from_slice(&[0, 0]); // checksum placeholder
        buf[18..20].copy_from_slice(&[0, 0]); // urgent pointer
        self.payload.emit(&mut buf[TCP_HEADER_LEN..]);
        let mut ck = tcp_pseudo_header(self.src, self.dst, total as u16);
        ck.add_bytes(buf);
        let sum = ck.finish();
        buf[16..18].copy_from_slice(&sum.to_be_bytes());
        total
    }
}

impl TcpSegment {
    /// Binds the segment to its enclosing addresses as a [`WireEmit`]
    /// value, the in-place counterpart of [`TcpSegment::encode`].
    pub fn emitter(&self, src: Ipv4Addr, dst: Ipv4Addr) -> TcpEmit<'_, [u8]> {
        TcpEmit {
            src_port: self.src_port,
            dst_port: self.dst_port,
            seq: self.seq,
            ack: self.ack,
            flags: self.flags,
            window: self.window,
            src,
            dst,
            payload: &self.payload[..],
        }
    }
}

// ---------------------------------------------------------------------------
// DHCP
// ---------------------------------------------------------------------------

/// A mutable view over a DHCP message: fixed BOOTP area setters plus an
/// append-only options cursor.
///
/// Construction writes every constant region (htype/hlen/hops, secs, the
/// broadcast flag, giaddr, chaddr padding, sname, file, magic cookie), so a
/// dirty buffer cannot leak through the large zero fields.
pub struct DhcpViewMut<'a> {
    buf: &'a mut [u8],
}

impl<'a> DhcpViewMut<'a> {
    /// Wraps `buf`, which must hold the fixed BOOTP area, the magic cookie,
    /// and at least the end-marker byte.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is shorter than `DHCP_FIXED_LEN + 5`.
    pub fn new(buf: &'a mut [u8]) -> Self {
        assert!(
            buf.len() >= DHCP_FIXED_LEN + 4 + 1,
            "dhcp view needs at least {} bytes, got {}",
            DHCP_FIXED_LEN + 5,
            buf.len()
        );
        buf[1] = 1; // htype Ethernet
        buf[2] = 6; // hlen
        buf[3] = 0; // hops
        buf[8..10].copy_from_slice(&[0, 0]); // secs
        buf[10..12].copy_from_slice(&[0x80, 0]); // flags: broadcast
        buf[24..28].fill(0); // giaddr
        buf[34..44].fill(0); // chaddr padding
        buf[44..108].fill(0); // sname
        buf[108..DHCP_FIXED_LEN].fill(0); // file
        buf[DHCP_FIXED_LEN..DHCP_FIXED_LEN + 4].copy_from_slice(&DHCP_MAGIC_COOKIE);
        DhcpViewMut { buf }
    }

    /// Writes the BOOTP op.
    pub fn set_op(&mut self, op: DhcpOp) {
        self.buf[0] = op.to_u8();
    }

    /// Writes the transaction identifier.
    pub fn set_xid(&mut self, xid: u32) {
        self.buf[4..8].copy_from_slice(&xid.to_be_bytes());
    }

    /// Writes the client's current address.
    pub fn set_ciaddr(&mut self, addr: Ipv4Addr) {
        self.buf[12..16].copy_from_slice(&addr.octets());
    }

    /// Writes the address the server assigns.
    pub fn set_yiaddr(&mut self, addr: Ipv4Addr) {
        self.buf[16..20].copy_from_slice(&addr.octets());
    }

    /// Writes the next-server address.
    pub fn set_siaddr(&mut self, addr: Ipv4Addr) {
        self.buf[20..24].copy_from_slice(&addr.octets());
    }

    /// Writes the client hardware address.
    pub fn set_chaddr(&mut self, chaddr: MacAddr) {
        self.buf[28..34].copy_from_slice(chaddr.as_bytes());
    }

    /// Starts the options area after the magic cookie. Consumes the view:
    /// options are the last thing written.
    pub fn options(self) -> DhcpOptionsWriter<'a> {
        DhcpOptionsWriter { buf: self.buf, at: DHCP_FIXED_LEN + 4 }
    }
}

/// Append-only cursor over a DHCP options area.
pub struct DhcpOptionsWriter<'a> {
    buf: &'a mut [u8],
    at: usize,
}

impl DhcpOptionsWriter<'_> {
    /// Appends one option.
    ///
    /// # Panics
    ///
    /// Panics if the buffer cannot hold the option plus the end marker.
    pub fn push(&mut self, option: &DhcpOption) {
        self.at += option.emit_at(self.buf, self.at);
        assert!(self.at < self.buf.len(), "dhcp options overflow the buffer");
    }

    /// Writes the end marker and returns the total message length.
    pub fn finish(self) -> usize {
        self.buf[self.at] = 255;
        self.at + 1
    }
}

impl WireEmit for DhcpMessage {
    fn wire_len(&self) -> usize {
        DHCP_FIXED_LEN + 4 + self.options.iter().map(DhcpOption::encoded_len).sum::<usize>() + 1
    }

    fn emit(&self, buf: &mut [u8]) -> usize {
        let total = self.wire_len();
        let mut view = DhcpViewMut::new(&mut buf[..total]);
        view.set_op(self.op);
        view.set_xid(self.xid);
        view.set_ciaddr(self.ciaddr);
        view.set_yiaddr(self.yiaddr);
        view.set_siaddr(self.siaddr);
        view.set_chaddr(self.chaddr);
        let mut options = view.options();
        for option in &self.options {
            options.push(option);
        }
        options.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The owned builder can only express a single 802.1Q tag; the view
    /// writer stacks arbitrary tags. Golden bytes mirror the hand-spliced
    /// QinQ fixture the RX parser is tested against: 802.1ad service tag
    /// outermost, 802.1Q customer tag inside, then the real ethertype.
    #[test]
    fn qinq_stack_written_in_place_matches_golden_bytes() {
        let mut buf = vec![0u8; ETHERNET_HEADER_LEN + 2 * ETHERNET_VLAN_TAG_LEN + 46];
        let mut view = EthernetViewMut::new(&mut buf);
        view.set_dst(MacAddr::BROADCAST);
        view.set_src(MacAddr::from_index(7));
        view.push_tag(EtherType::QinQ, 0xFFE);
        view.push_vlan(2);
        view.set_ethertype(EtherType::ARP);
        assert_eq!(view.header_len(), ETHERNET_HEADER_LEN + 2 * ETHERNET_VLAN_TAG_LEN);
        assert_eq!(view.payload_mut().len(), 46);

        let mut golden = Vec::new();
        golden.extend_from_slice(MacAddr::BROADCAST.as_bytes());
        golden.extend_from_slice(MacAddr::from_index(7).as_bytes());
        golden.extend_from_slice(&[0x88, 0xa8, 0x0F, 0xFE]); // S-tag, VID 0xFFE
        golden.extend_from_slice(&[0x81, 0x00, 0x00, 0x02]); // C-tag, VID 2
        golden.extend_from_slice(&[0x08, 0x06]);
        golden.extend_from_slice(&[0u8; 46]);
        assert_eq!(buf, golden);

        // And the RX side unwraps the stack to the outermost VID.
        let parsed = crate::EthernetView::parse_strict(&buf).unwrap();
        assert_eq!(parsed.vlan(), Some(0xFFE));
        assert_eq!(parsed.ethertype(), EtherType::ARP);
    }

    /// `push_vlan` and the owned single-tag encoder agree byte for byte.
    #[test]
    fn single_vlan_tag_matches_owned_encoder() {
        let owned = EthernetFrame::new(
            MacAddr::from_index(1),
            MacAddr::from_index(2),
            EtherType::ARP,
            vec![0xaa; 46],
        )
        .with_vlan(0x123);
        let golden = owned.encode();

        let mut buf = vec![0u8; golden.len()];
        let mut view = EthernetViewMut::new(&mut buf);
        view.set_dst(MacAddr::from_index(1));
        view.set_src(MacAddr::from_index(2));
        view.push_vlan(0x123);
        view.set_ethertype(EtherType::ARP);
        view.payload_mut().fill(0xaa);
        assert_eq!(buf, golden);
    }

    #[test]
    #[should_panic(expected = "tag TPID must be 802.1Q or 802.1ad")]
    fn push_tag_rejects_non_tag_tpid() {
        let mut buf = vec![0u8; 64];
        EthernetViewMut::new(&mut buf).push_tag(EtherType::ARP, 1);
    }
}

//! Ethernet II framing.

use std::fmt;

use crate::error::ParseError;
use crate::mac::MacAddr;

/// Length of the Ethernet II header (destination, source, ethertype).
pub const ETHERNET_HEADER_LEN: usize = 14;
/// Minimum payload length; shorter payloads are zero-padded on the wire.
pub const ETHERNET_MIN_PAYLOAD: usize = 46;
/// Maximum standard payload length (no jumbo frames).
pub const ETHERNET_MAX_PAYLOAD: usize = 1500;
/// Length of one 802.1Q/802.1ad tag (TPID + TCI).
pub const ETHERNET_VLAN_TAG_LEN: usize = 4;

/// The EtherType field of an Ethernet II frame.
///
/// Unknown values are preserved rather than rejected so monitors can count
/// traffic they do not understand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EtherType {
    /// IPv4, `0x0800`.
    Ipv4,
    /// ARP, `0x0806`.
    ARP,
    /// S-ARP, the signed ARP variant deployed by the S-ARP scheme. Real
    /// S-ARP extends the ARP payload; we give it a distinct ethertype in the
    /// experimental space (`0x88b5`, IEEE 802 local experimental 1) so that
    /// legacy hosts visibly drop it, matching the paper's interoperability
    /// discussion.
    SArp,
    /// TARP, the ticket-based authenticated ARP variant (IEEE 802 local
    /// experimental 2, `0x88b6`).
    Tarp,
    /// 802.1Q VLAN tag (`0x8100`). Parsers treat this as a tag to unwrap,
    /// not a payload protocol; it only appears as a frame's `ethertype`
    /// when the tag itself is truncated.
    Vlan,
    /// 802.1ad provider (QinQ) tag (`0x88a8`), unwrapped like [`Vlan`].
    ///
    /// [`Vlan`]: EtherType::Vlan
    QinQ,
    /// Any other value, carried through verbatim.
    Other(u16),
}

impl EtherType {
    /// Returns the 16-bit wire value.
    pub const fn to_u16(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::ARP => 0x0806,
            EtherType::SArp => 0x88b5,
            EtherType::Tarp => 0x88b6,
            EtherType::Vlan => 0x8100,
            EtherType::QinQ => 0x88a8,
            EtherType::Other(v) => v,
        }
    }

    /// Builds an `EtherType` from the 16-bit wire value.
    pub const fn from_u16(value: u16) -> Self {
        match value {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::ARP,
            0x88b5 => EtherType::SArp,
            0x88b6 => EtherType::Tarp,
            0x8100 => EtherType::Vlan,
            0x88a8 => EtherType::QinQ,
            other => EtherType::Other(other),
        }
    }

    /// True for the two tag TPIDs (802.1Q and 802.1ad) that wrap another
    /// ethertype rather than carrying a payload protocol themselves.
    pub const fn is_vlan_tag(self) -> bool {
        matches!(self, EtherType::Vlan | EtherType::QinQ)
    }
}

impl fmt::Display for EtherType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EtherType::Ipv4 => write!(f, "IPv4"),
            EtherType::ARP => write!(f, "ARP"),
            EtherType::SArp => write!(f, "S-ARP"),
            EtherType::Tarp => write!(f, "TARP"),
            EtherType::Vlan => write!(f, "802.1Q"),
            EtherType::QinQ => write!(f, "802.1ad"),
            EtherType::Other(v) => write!(f, "0x{v:04x}"),
        }
    }
}

impl From<u16> for EtherType {
    fn from(value: u16) -> Self {
        EtherType::from_u16(value)
    }
}

impl From<EtherType> for u16 {
    fn from(value: EtherType) -> Self {
        value.to_u16()
    }
}

/// An Ethernet II frame: header plus owned payload, for building frames.
///
/// It is used only to construct frames for transmission; every receiver
/// parses through the borrowed [`EthernetView`]. The preamble and FCS are physical-layer
/// artifacts a host NIC never hands to software, so they are not modelled;
/// padding of short payloads *is* applied by [`EthernetFrame::encode`]
/// because receivers genuinely see it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EthernetFrame {
    /// Destination hardware address.
    pub dst: MacAddr,
    /// Source hardware address.
    pub src: MacAddr,
    /// Payload protocol (the innermost ethertype when tags are present).
    pub ethertype: EtherType,
    /// Outermost 802.1Q/802.1ad VLAN id, when the frame was tagged.
    pub vlan: Option<u16>,
    /// Payload bytes (unpadded).
    pub payload: Vec<u8>,
}

impl EthernetFrame {
    /// Creates an untagged frame.
    pub fn new(dst: MacAddr, src: MacAddr, ethertype: EtherType, payload: Vec<u8>) -> Self {
        EthernetFrame { dst, src, ethertype, vlan: None, payload }
    }

    /// Tags the frame with an 802.1Q VLAN id (low 12 bits are kept).
    #[must_use]
    pub fn with_vlan(mut self, vid: u16) -> Self {
        self.vlan = Some(vid & 0x0FFF);
        self
    }

    /// Serializes the frame, zero-padding the payload to the 46-byte minimum
    /// and emitting a single 802.1Q tag when [`vlan`](Self::vlan) is set.
    ///
    /// A shim over the in-place [`WireEmit`](crate::WireEmit) writer; TX
    /// hot paths emit directly into pool buffers instead.
    pub fn encode(&self) -> Vec<u8> {
        crate::wire::emit_to_vec(self)
    }

    /// Total on-wire length after padding.
    pub fn wire_len(&self) -> usize {
        let tag_len = if self.vlan.is_some() { ETHERNET_VLAN_TAG_LEN } else { 0 };
        ETHERNET_HEADER_LEN + tag_len + self.payload.len().max(ETHERNET_MIN_PAYLOAD)
    }
}

/// A borrowed, zero-copy view of an Ethernet II frame: the one receive-side
/// representation.
///
/// The view validates the framing (including 802.1Q/802.1ad tag
/// unwrapping) while borrowing everything from the input buffer, so hosts,
/// switches and detectors parse frames without touching the allocator.
#[derive(Debug, Clone, Copy)]
pub struct EthernetView<'a> {
    buf: &'a [u8],
    payload_at: usize,
    ethertype: EtherType,
    vlan: Option<u16>,
}

impl<'a> EthernetView<'a> {
    /// Parses a frame in lenient mode: VLAN tags are unwrapped, jumbo
    /// payloads are accepted.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::Truncated`] when `buf` is shorter than the
    /// 14-byte header or ends inside a VLAN tag.
    pub fn parse(buf: &'a [u8]) -> Result<Self, ParseError> {
        if buf.len() < ETHERNET_HEADER_LEN {
            return Err(ParseError::Truncated {
                what: "ethernet",
                needed: ETHERNET_HEADER_LEN,
                got: buf.len(),
            });
        }
        // Walk the (possibly QinQ-stacked) tags: each one replaces the
        // ethertype at `at` with a TCI + inner ethertype 4 bytes later.
        let mut at = ETHERNET_HEADER_LEN - 2;
        let mut raw = u16::from_be_bytes([buf[at], buf[at + 1]]);
        let mut vlan = None;
        while EtherType::from_u16(raw).is_vlan_tag() {
            if buf.len() < at + 2 + ETHERNET_VLAN_TAG_LEN {
                return Err(ParseError::Truncated {
                    what: "ethernet.vlan",
                    needed: at + 2 + ETHERNET_VLAN_TAG_LEN,
                    got: buf.len(),
                });
            }
            let tci = u16::from_be_bytes([buf[at + 2], buf[at + 3]]);
            vlan.get_or_insert(tci & 0x0FFF);
            at += ETHERNET_VLAN_TAG_LEN;
            raw = u16::from_be_bytes([buf[at], buf[at + 1]]);
        }
        Ok(EthernetView { buf, payload_at: at + 2, ethertype: EtherType::from_u16(raw), vlan })
    }

    /// Parses a frame, additionally rejecting payloads over the standard
    /// MTU (no jumbo frames), as a host NIC does.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::Truncated`] on a short buffer and
    /// [`ParseError::InvalidField`] when the payload exceeds
    /// [`ETHERNET_MAX_PAYLOAD`].
    pub fn parse_strict(buf: &'a [u8]) -> Result<Self, ParseError> {
        let view = Self::parse(buf)?;
        if view.payload().len() > ETHERNET_MAX_PAYLOAD {
            return Err(ParseError::InvalidField {
                what: "ethernet",
                field: "payload_len",
                value: view.payload().len() as u64,
            });
        }
        Ok(view)
    }

    /// Destination hardware address.
    pub fn dst(&self) -> MacAddr {
        MacAddr::new(self.buf[0..6].try_into().expect("6 bytes"))
    }

    /// Source hardware address.
    pub fn src(&self) -> MacAddr {
        MacAddr::new(self.buf[6..12].try_into().expect("6 bytes"))
    }

    /// Payload protocol (the innermost ethertype when tags are present).
    pub fn ethertype(&self) -> EtherType {
        self.ethertype
    }

    /// Outermost VLAN id, when the frame was tagged.
    pub fn vlan(&self) -> Option<u16> {
        self.vlan
    }

    /// Payload bytes after the header and any tags, padding included.
    pub fn payload(&self) -> &'a [u8] {
        &self.buf[self.payload_at..]
    }

    /// Header length including any tags.
    pub fn header_len(&self) -> usize {
        self.payload_at
    }

    /// True when addressed to the broadcast address.
    pub fn is_broadcast(&self) -> bool {
        self.buf[0..6] == [0xFF; 6]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EthernetFrame {
        EthernetFrame::new(
            MacAddr::from_index(1),
            MacAddr::from_index(2),
            EtherType::Ipv4,
            vec![0xaa; 64],
        )
    }

    #[test]
    fn encode_parse_roundtrip() {
        let frame = sample();
        let bytes = frame.encode();
        let view = EthernetView::parse_strict(&bytes).unwrap();
        assert_eq!(view.dst(), frame.dst);
        assert_eq!(view.src(), frame.src);
        assert_eq!(view.ethertype(), frame.ethertype);
        assert_eq!(view.vlan(), None);
        assert_eq!(view.payload(), &frame.payload[..]);
        assert_eq!(view.header_len(), ETHERNET_HEADER_LEN);
    }

    #[test]
    fn short_payload_is_padded() {
        let frame = EthernetFrame::new(
            MacAddr::BROADCAST,
            MacAddr::from_index(1),
            EtherType::ARP,
            vec![1, 2, 3],
        );
        let bytes = frame.encode();
        assert_eq!(bytes.len(), ETHERNET_HEADER_LEN + ETHERNET_MIN_PAYLOAD);
        assert_eq!(&bytes[ETHERNET_HEADER_LEN..ETHERNET_HEADER_LEN + 3], &[1, 2, 3]);
        assert!(bytes[ETHERNET_HEADER_LEN + 3..].iter().all(|&b| b == 0));
        // The parsed payload includes padding, as on a real NIC.
        let view = EthernetView::parse_strict(&bytes).unwrap();
        assert_eq!(view.payload().len(), ETHERNET_MIN_PAYLOAD);
    }

    #[test]
    fn rejects_truncated_header() {
        assert!(matches!(
            EthernetView::parse_strict(&[0u8; 13]),
            Err(ParseError::Truncated { what: "ethernet", .. })
        ));
    }

    #[test]
    fn rejects_oversized_payload() {
        let frame =
            EthernetFrame::new(MacAddr::ZERO, MacAddr::ZERO, EtherType::Ipv4, vec![0; 2000]);
        assert!(EthernetView::parse_strict(&frame.encode()).is_err());
    }

    #[test]
    fn ethertype_u16_roundtrip() {
        for v in [0x0800u16, 0x0806, 0x88b5, 0x88b6, 0x8100, 0x88a8, 0x1234] {
            assert_eq!(EtherType::from_u16(v).to_u16(), v);
        }
        assert_eq!(EtherType::from_u16(0x0806), EtherType::ARP);
        assert_eq!(EtherType::from_u16(0x0800), EtherType::Ipv4);
        assert_eq!(EtherType::from_u16(0x8100), EtherType::Vlan);
        assert_eq!(EtherType::from_u16(0x88a8), EtherType::QinQ);
        assert!(EtherType::Vlan.is_vlan_tag() && EtherType::QinQ.is_vlan_tag());
        assert!(!EtherType::ARP.is_vlan_tag());
    }

    #[test]
    fn vlan_tag_roundtrips_and_matches_golden_bytes() {
        let frame = EthernetFrame::new(
            MacAddr::from_index(1),
            MacAddr::from_index(2),
            EtherType::ARP,
            vec![0xaa; 46],
        )
        .with_vlan(0x123);
        let bytes = frame.encode();
        assert_eq!(bytes.len(), ETHERNET_HEADER_LEN + ETHERNET_VLAN_TAG_LEN + 46);
        assert_eq!(frame.wire_len(), bytes.len());
        // 802.1Q TPID then TCI, then the real ethertype.
        assert_eq!(&bytes[12..14], &[0x81, 0x00]);
        assert_eq!(&bytes[14..16], &[0x01, 0x23]);
        assert_eq!(&bytes[16..18], &[0x08, 0x06]);
        let view = EthernetView::parse_strict(&bytes).unwrap();
        assert_eq!(view.vlan(), Some(0x123));
        assert_eq!(view.ethertype(), EtherType::ARP);
        assert_eq!(view.header_len(), ETHERNET_HEADER_LEN + ETHERNET_VLAN_TAG_LEN);
        assert_eq!(view.payload(), &frame.payload[..]);
    }

    #[test]
    fn qinq_stacks_unwrap_to_outermost_vid() {
        // Hand-spliced 802.1ad outer + 802.1Q inner tag: the outer service
        // tag's VID wins, both tags are skipped.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MacAddr::BROADCAST.as_bytes());
        bytes.extend_from_slice(MacAddr::from_index(7).as_bytes());
        bytes.extend_from_slice(&[0x88, 0xa8, 0x0F, 0xFE]); // S-tag, VID 0xFFE
        bytes.extend_from_slice(&[0x81, 0x00, 0x00, 0x02]); // C-tag, VID 2
        bytes.extend_from_slice(&[0x08, 0x06]);
        bytes.extend_from_slice(&[0u8; 46]);
        let view = EthernetView::parse_strict(&bytes).unwrap();
        assert_eq!(view.vlan(), Some(0xFFE));
        assert_eq!(view.ethertype(), EtherType::ARP);
        assert_eq!(view.payload().len(), 46);
    }

    #[test]
    fn truncated_vlan_tag_is_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&[0u8; 12]);
        bytes.extend_from_slice(&[0x81, 0x00, 0x00]); // tag cut mid-TCI
        assert!(matches!(
            EthernetView::parse_strict(&bytes),
            Err(ParseError::Truncated { what: "ethernet.vlan", .. })
        ));
    }

    #[test]
    fn lenient_parse_accepts_jumbo_payloads() {
        let frame =
            EthernetFrame::new(MacAddr::ZERO, MacAddr::ZERO, EtherType::Ipv4, vec![0x55; 4000]);
        let bytes = frame.encode();
        assert!(EthernetView::parse_strict(&bytes).is_err(), "strict parse rejects jumbos");
        let view = EthernetView::parse(&bytes).unwrap();
        assert_eq!(view.payload().len(), 4000);
    }

    #[test]
    fn broadcast_detection() {
        let mut frame = sample();
        assert!(!EthernetView::parse(&frame.encode()).unwrap().is_broadcast());
        frame.dst = MacAddr::BROADCAST;
        assert!(EthernetView::parse(&frame.encode()).unwrap().is_broadcast());
    }

    #[test]
    fn wire_len_accounts_for_padding() {
        let small = EthernetFrame::new(MacAddr::ZERO, MacAddr::ZERO, EtherType::ARP, vec![0; 10]);
        assert_eq!(small.wire_len(), 60);
        let big = EthernetFrame::new(MacAddr::ZERO, MacAddr::ZERO, EtherType::Ipv4, vec![0; 1000]);
        assert_eq!(big.wire_len(), 1014);
    }
}

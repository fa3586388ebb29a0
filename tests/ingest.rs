//! Streaming capture ingest, end to end:
//!
//! 1. **Real-world frames don't break the pipeline**: VLAN-tagged ARP
//!    is inspected through the tag, jumbo and runt frames are counted
//!    and skipped, a truncated tail keeps every complete packet, and
//!    multi-section files restart interface numbering per section.
//! 2. **Streaming is faithful and total**: the constant-memory reader
//!    returns exactly the packets the writer was given, on arbitrary
//!    captures, and never panics on mutated or random bytes.
//! 3. **Re-ingest reproduces a live run**: feeding a monitor's recorded
//!    vantage back through a standalone detector yields the identical
//!    alert list and verdict counters the live simulation produced.

use std::sync::Arc;

use arpshield::analysis::scenario::{AttackScenario, ScenarioConfig};
use arpshield::attacks::PoisonVariant;
use arpshield::netsim::SimTime;
use arpshield::packet::{ArpOp, ArpPacket, EtherType, EthernetFrame, Ipv4Addr, MacAddr};
use arpshield::schemes::{Detector, SchemeKind};
use arpshield::trace::pcapng::{PcapngStream, PcapngWriter};
use arpshield::trace::{install, TraceCollector, Tracer};
use arpshield_testkit::prelude::*;

fn gratuitous(mac: MacAddr, ip: Ipv4Addr) -> EthernetFrame {
    let arp = ArpPacket::gratuitous(ArpOp::Reply, mac, ip);
    EthernetFrame::new(MacAddr::BROADCAST, mac, EtherType::ARP, arp.encode())
}

/// Streams `capture` through a fresh detector of `kind`, feeding every
/// packet regardless of interface.
fn ingest_all(capture: &[u8], kind: SchemeKind) -> (Detector, Vec<String>) {
    let mut stream = PcapngStream::new(capture);
    let mut detector = Detector::new(kind).expect("supported scheme");
    while let Some(pkt) = stream.next_packet().expect("fixture must stream") {
        detector.observe(SimTime::from_nanos(pkt.ts_ns), pkt.bytes);
    }
    detector.finish();
    (detector, stream.warnings().to_vec())
}

#[test]
fn vlan_tagged_capture_detects_a_flip_through_the_tag() {
    let ip = Ipv4Addr::new(10, 0, 0, 7);
    let mut writer = PcapngWriter::new("fixture");
    let wire = writer.add_interface("wire");
    writer.add_packet(
        wire,
        1_000,
        &gratuitous(MacAddr::from_index(1), ip).with_vlan(42).encode(),
        "",
    );
    writer.add_packet(
        wire,
        2_000,
        &gratuitous(MacAddr::from_index(66), ip).with_vlan(42).encode(),
        "",
    );
    let (detector, warnings) = ingest_all(&writer.finish(), SchemeKind::Passive);
    assert!(warnings.is_empty());
    let stats = detector.stats();
    assert_eq!(stats.frames, 2);
    assert_eq!(stats.vlan_tagged, 2);
    assert_eq!(stats.arp, 2, "tagged ARP must be classified as ARP, not Other");
    let alerts = detector.alerts();
    assert_eq!(alerts.len(), 1, "the flip is visible through the 802.1Q tag");
    assert_eq!(alerts[0].subject_ip, Some(ip));
}

#[test]
fn jumbo_and_runt_frames_are_counted_not_fatal() {
    let ip = Ipv4Addr::new(10, 0, 0, 8);
    let mut writer = PcapngWriter::new("fixture");
    let wire = writer.add_interface("wire");
    // A jumbo-payload ARP-carrying frame, a runt, then a normal flip:
    // the detector must survive the weird ones and still judge the
    // normal ones.
    let mut jumbo = gratuitous(MacAddr::from_index(1), ip);
    jumbo.payload.resize(4000, 0);
    writer.add_packet(wire, 1_000, &jumbo.encode(), "");
    writer.add_packet(wire, 2_000, &[0xDE, 0xAD, 0xBE], "");
    writer.add_packet(wire, 3_000, &gratuitous(MacAddr::from_index(66), ip).encode(), "");
    let (detector, warnings) = ingest_all(&writer.finish(), SchemeKind::Passive);
    assert!(warnings.is_empty());
    let stats = detector.stats();
    assert_eq!(stats.frames, 3);
    assert_eq!(stats.jumbo, 1);
    assert_eq!(stats.unparseable, 1);
    assert_eq!(detector.alerts().len(), 1, "the flip after the weird frames is still caught");
}

#[test]
fn truncated_capture_keeps_complete_packets_and_warns() {
    let ip = Ipv4Addr::new(10, 0, 0, 9);
    let mut writer = PcapngWriter::new("fixture");
    let wire = writer.add_interface("wire");
    writer.add_packet(wire, 1_000, &gratuitous(MacAddr::from_index(1), ip).encode(), "");
    writer.add_packet(wire, 2_000, &gratuitous(MacAddr::from_index(66), ip).encode(), "");
    let full = writer.finish();
    // Cut mid-way through the final block, as a capture interrupted by
    // a crash or a full disk would be.
    let cut = &full[..full.len() - 7];
    let (detector, warnings) = ingest_all(cut, SchemeKind::Passive);
    assert_eq!(warnings.len(), 1, "the cut surfaces as a warning: {warnings:?}");
    assert!(warnings[0].contains("truncated"), "{warnings:?}");
    assert_eq!(detector.stats().frames, 1, "the complete packet before the cut is kept");
}

#[test]
fn multi_section_capture_restarts_interface_numbering() {
    let ip = Ipv4Addr::new(10, 0, 0, 10);
    let mut first = PcapngWriter::new("day-one");
    let a = first.add_interface("alpha");
    first.add_packet(a, 1_000, &gratuitous(MacAddr::from_index(1), ip).encode(), "");
    let mut second = PcapngWriter::new("day-two");
    let b = second.add_interface("beta");
    // Local interface 0 again — in section two it must resolve to the
    // global "beta", not back to "alpha".
    second.add_packet(b, 2_000, &gratuitous(MacAddr::from_index(66), ip).encode(), "");
    let mut joined = first.finish();
    joined.extend_from_slice(&second.finish());

    let mut stream = PcapngStream::new(joined.as_slice());
    let mut seen = Vec::new();
    while let Some(pkt) = stream.next_packet().expect("concatenation must stream") {
        seen.push(pkt.interface);
    }
    assert_eq!(stream.interfaces(), ["alpha", "beta"]);
    assert_eq!(seen, [0, 1]);
    assert_eq!(stream.stats().sections, 2);

    // Both sections' frames reach a detector: the flip spans the files.
    let (detector, _) = ingest_all(&joined, SchemeKind::Passive);
    assert_eq!(detector.stats().frames, 2);
    assert_eq!(detector.alerts().len(), 1);
}

/// Byte offsets of every length field in a well-formed capture: each
/// block's leading and trailing total length, and each Enhanced Packet
/// Block's captured length.
fn length_field_offsets(capture: &[u8]) -> Vec<usize> {
    let word = |at: usize| u32::from_le_bytes(capture[at..at + 4].try_into().unwrap()) as usize;
    let mut offsets = Vec::new();
    let mut at = 0;
    while at < capture.len() {
        let total = word(at + 4);
        offsets.extend([at + 4, at + total - 4]);
        if word(at) == 6 {
            // Enhanced Packet Block: type, length, interface, 2× timestamp.
            offsets.push(at + 20);
        }
        at += total;
    }
    offsets
}

/// Drains `input` through the streaming reader, failing the property if
/// it yields more packets than `len / 32` (the smallest Enhanced Packet
/// Block is 32 bytes), or if it ends in `Ok(None)` and then resumes.
fn drain_hostile(input: &[u8]) -> arpshield_testkit::prop::TestCaseResult {
    let bound = input.len() / 32;
    let mut stream = PcapngStream::new(input);
    let mut packets = 0;
    loop {
        match stream.next_packet() {
            Ok(Some(_)) => {
                packets += 1;
                prop_assert!(packets <= bound, "{packets} packets from {} bytes", input.len());
            }
            Ok(None) => {
                prop_assert!(
                    matches!(stream.next_packet(), Ok(None)),
                    "an ended stream stays ended"
                );
                return Ok(());
            }
            Err(_) => return Ok(()),
        }
    }
}

properties! {
    /// The streaming reader returns exactly what the writer was given
    /// — the whole buffer, packet for packet — on arbitrary captures.
    #[test]
    fn streaming_reader_agrees_with_whole_buffer_parse(
        packets in collection::vec(
            (any::<bool>(), any::<u32>(), collection::vec(any::<u8>(), 0..120),
             collection::vec(any::<u8>(), 0..16)),
            0..24),
    ) {
        let mut writer = PcapngWriter::new("property");
        let a = writer.add_interface("a");
        let b = writer.add_interface("b");
        let mut given = Vec::new();
        for (second, ts, bytes, comment) in &packets {
            let comment: String =
                comment.iter().map(|c| char::from(b'a' + c % 26)).collect();
            writer.add_packet(if *second { b } else { a }, u64::from(*ts), bytes, &comment);
            given.push((usize::from(*second), u64::from(*ts), bytes.clone(), comment));
        }
        let capture = writer.finish();
        let mut stream = PcapngStream::new(capture.as_slice());
        let mut streamed = Vec::new();
        while let Some(pkt) = stream.next_packet().unwrap() {
            streamed.push((pkt.interface, pkt.ts_ns, pkt.bytes.to_vec(), pkt.comment.to_string()));
        }
        prop_assert_eq!(stream.interfaces(), ["a", "b"]);
        prop_assert!(stream.warnings().is_empty());
        prop_assert_eq!(streamed, given);
    }

    /// Hostile captures cannot panic the reader: valid writer output
    /// with flipped bytes, spliced length fields and a truncated tail,
    /// and pure random bytes, each end in `Ok(None)` or `Err` within
    /// the packet bound.
    #[test]
    fn streaming_reader_survives_hostile_captures(
        packets in collection::vec(collection::vec(any::<u8>(), 0..80), 0..12),
        flips in collection::vec((any::<u32>(), any::<u8>()), 0..6),
        splices in collection::vec((any::<u32>(), any::<u32>()), 0..3),
        cut in any::<u32>(),
        noise in collection::vec(any::<u8>(), 0..512),
    ) {
        let mut writer = PcapngWriter::new("fuzz");
        let a = writer.add_interface("a");
        let b = writer.add_interface("b");
        for (i, bytes) in packets.iter().enumerate() {
            writer.add_packet(if i % 2 == 0 { a } else { b }, i as u64, bytes, "id=1");
        }
        let mut capture = writer.finish();
        let lengths = length_field_offsets(&capture);
        for (pick, value) in &splices {
            let at = lengths[*pick as usize % lengths.len()];
            capture[at..at + 4].copy_from_slice(&value.to_le_bytes());
        }
        for (pick, mask) in &flips {
            let at = *pick as usize % capture.len();
            capture[at] ^= mask;
        }
        capture.truncate(cut as usize % (capture.len() + 1));
        drain_hostile(&capture)?;
        drain_hostile(&noise)?;
    }
}

#[test]
fn reingesting_a_live_capture_reproduces_passive_verdicts() {
    // Live run: passive monitor watching a gratuitous-reply poisoning,
    // with the flight recorder sized so nothing is evicted.
    let collector = Arc::new(TraceCollector::with_capture(1 << 20));
    let live_alerts = {
        let _guard = install(collector.clone());
        let run = AttackScenario::poisoning(
            ScenarioConfig::new(31).with_hosts(3).with_scheme(SchemeKind::Passive),
            PoisonVariant::GratuitousReply,
        )
        .run();
        run.lan.alerts.alerts()
    };
    assert!(!live_alerts.is_empty(), "the live run must detect the forgery");
    let manifest = collector.manifest("live");
    let capture = manifest.to_pcapng();

    // Re-ingest from the passive monitor's vantage point: exactly the
    // frames the live simulation delivered to it, at the times it
    // received them.
    let reingest_collector = Arc::new(TraceCollector::new());
    let detector_alerts = {
        let _guard = install(reingest_collector.clone());
        let mut detector =
            Detector::with_tracer(SchemeKind::Passive, Tracer::for_current_run("reingest"))
                .expect("passive is supported");
        let mut stream = PcapngStream::new(capture.as_slice());
        while let Some(pkt) = stream.next_packet().expect("own captures must stream") {
            let dst = pkt
                .comment
                .split_whitespace()
                .find_map(|token| token.strip_prefix("dst="))
                .unwrap_or_default();
            if !dst.contains("passive-monitor") {
                continue;
            }
            detector.observe(SimTime::from_nanos(pkt.ts_ns), pkt.bytes);
        }
        detector.finish();
        detector.alerts()
    };

    assert_eq!(
        detector_alerts, live_alerts,
        "re-ingesting the monitor's vantage must reproduce the live alerts exactly"
    );

    // The verdict counters agree too, manifest to manifest.
    let verdict_sum = |csv: &str, label_marker: &str| -> u64 {
        csv.lines()
            .filter(|line| line.contains(label_marker) && line.contains(",scheme.verdict."))
            .filter_map(|line| line.rsplit(',').next()?.parse::<u64>().ok())
            .sum()
    };
    let live_csv = manifest.to_counters_csv();
    let reingest_csv = reingest_collector.manifest("reingest").to_counters_csv();
    let live_verdicts = verdict_sum(&live_csv, "scheme=passive");
    assert!(live_verdicts > 0);
    assert_eq!(verdict_sum(&reingest_csv, "reingest"), live_verdicts);
}

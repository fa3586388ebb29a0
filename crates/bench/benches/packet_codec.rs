//! Throughput of the wire-format codecs every monitor runs per packet.

use arpshield_testkit::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use arpshield_packet::{
    ArpPacket, DhcpMessage, EtherType, EthernetEmit, EthernetFrame, EthernetView, IpProtocol,
    Ipv4Addr, Ipv4Emit, Ipv4Packet, MacAddr, UdpDatagram, UdpEmit, WireEmit,
};

fn arp_frame_bytes() -> Vec<u8> {
    let arp = ArpPacket::request(
        MacAddr::from_index(1),
        Ipv4Addr::new(10, 0, 0, 1),
        Ipv4Addr::new(10, 0, 0, 2),
    );
    EthernetFrame::new(MacAddr::BROADCAST, MacAddr::from_index(1), EtherType::ARP, arp.encode())
        .encode()
}

fn udp_frame_bytes() -> Vec<u8> {
    let dgram = UdpDatagram::new(40_000, 7, vec![0xab; 256])
        .encode(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
    let pkt = Ipv4Packet::new(
        Ipv4Addr::new(10, 0, 0, 1),
        Ipv4Addr::new(10, 0, 0, 2),
        IpProtocol::Udp,
        dgram,
    );
    EthernetFrame::new(
        MacAddr::from_index(2),
        MacAddr::from_index(1),
        EtherType::Ipv4,
        pkt.encode(),
    )
    .encode()
}

fn bench_codecs(c: &mut Criterion) {
    let mut group = c.benchmark_group("packet_codec");

    let arp_bytes = arp_frame_bytes();
    group.throughput(Throughput::Bytes(arp_bytes.len() as u64));
    group.bench_function("parse_eth_arp", |b| {
        b.iter(|| {
            let eth = EthernetView::parse_strict(black_box(&arp_bytes)).unwrap();
            ArpPacket::parse(eth.payload()).unwrap()
        })
    });
    group.bench_function("encode_eth_arp", |b| b.iter(|| black_box(arp_frame_bytes())));

    let udp_bytes = udp_frame_bytes();
    group.throughput(Throughput::Bytes(udp_bytes.len() as u64));
    group.bench_function("parse_eth_ipv4_udp", |b| {
        b.iter(|| {
            let eth = EthernetView::parse_strict(black_box(&udp_bytes)).unwrap();
            let pkt = Ipv4Packet::parse(eth.payload()).unwrap();
            UdpDatagram::parse(&pkt.payload, pkt.src, pkt.dst).unwrap()
        })
    });

    let dhcp = DhcpMessage::discover(7, MacAddr::from_index(9)).encode();
    group.throughput(Throughput::Bytes(dhcp.len() as u64));
    group.bench_function("parse_dhcp_discover", |b| {
        b.iter(|| DhcpMessage::parse(black_box(&dhcp)).unwrap())
    });

    group.finish();
}

/// Head-to-head of the two encode paths: the legacy owned builders
/// (`encode()` → fresh `Vec` per layer) against the in-place emitters
/// writing one pass into a caller-provided buffer — the gap these two
/// measure is exactly what the zero-copy TX redesign removes per frame.
fn bench_encode_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("packet_encode");

    let arp = ArpPacket::request(
        MacAddr::from_index(1),
        Ipv4Addr::new(10, 0, 0, 1),
        Ipv4Addr::new(10, 0, 0, 2),
    );
    let arp_emit =
        EthernetEmit::new(MacAddr::BROADCAST, MacAddr::from_index(1), EtherType::ARP, &arp);
    let arp_len = arp_emit.wire_len();
    group.throughput(Throughput::Bytes(arp_len as u64));
    group.bench_function("eth_arp/owned", |b| {
        b.iter(|| {
            EthernetFrame::new(
                MacAddr::BROADCAST,
                MacAddr::from_index(1),
                EtherType::ARP,
                black_box(&arp).encode(),
            )
            .encode()
        })
    });
    let mut buf = vec![0u8; arp_len];
    group.bench_function("eth_arp/in_place", |b| {
        b.iter(|| black_box(&arp_emit).emit(black_box(&mut buf)))
    });

    let src = Ipv4Addr::new(10, 0, 0, 1);
    let dst = Ipv4Addr::new(10, 0, 0, 2);
    let payload = [0xab_u8; 256];
    let udp_emit = UdpEmit::new(40_000, 7, src, dst, payload.as_slice());
    let ip_emit = Ipv4Emit::new(src, dst, IpProtocol::Udp, &udp_emit);
    let frame_emit = EthernetEmit::new(
        MacAddr::from_index(2),
        MacAddr::from_index(1),
        EtherType::Ipv4,
        &ip_emit,
    );
    let udp_len = frame_emit.wire_len();
    group.throughput(Throughput::Bytes(udp_len as u64));
    group.bench_function("eth_ipv4_udp/owned", |b| {
        b.iter(|| {
            let dgram = UdpDatagram::new(40_000, 7, black_box(&payload).to_vec()).encode(src, dst);
            let pkt = Ipv4Packet::new(src, dst, IpProtocol::Udp, dgram);
            EthernetFrame::new(
                MacAddr::from_index(2),
                MacAddr::from_index(1),
                EtherType::Ipv4,
                pkt.encode(),
            )
            .encode()
        })
    });
    let mut buf = vec![0u8; udp_len];
    group.bench_function("eth_ipv4_udp/in_place", |b| {
        b.iter(|| black_box(&frame_emit).emit(black_box(&mut buf)))
    });

    let dhcp = DhcpMessage::discover(7, MacAddr::from_index(9));
    let dhcp_len = dhcp.wire_len();
    group.throughput(Throughput::Bytes(dhcp_len as u64));
    group.bench_function("dhcp_discover/owned", |b| b.iter(|| black_box(&dhcp).encode()));
    let mut buf = vec![0u8; dhcp_len];
    group.bench_function("dhcp_discover/in_place", |b| {
        b.iter(|| black_box(&dhcp).emit(black_box(&mut buf)))
    });

    group.finish();
}

criterion_group!(benches, bench_codecs, bench_encode_paths);
criterion_main!(benches);

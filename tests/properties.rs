//! Property-based tests over the workspace's foundational invariants:
//! codec round-trips on arbitrary inputs, parser totality on garbage,
//! crypto soundness, and data-structure invariants.
//!
//! Runs under the in-tree `arpshield-testkit` runner: every case derives
//! deterministically from a fixed base seed (`TESTKIT_SEED` replays a
//! failure, `TESTKIT_CASES` adjusts depth), and failing inputs are
//! greedily shrunk before being reported.

use arpshield_testkit::prelude::*;

use arpshield::crypto::{KeyPair, Signature};
use arpshield::netsim::{CamTable, PortId, SimTime};
use arpshield::packet::{
    ArpOp, ArpPacket, DhcpMessage, EtherType, EthernetFrame, EthernetView, IcmpMessage, IpProtocol,
    Ipv4Addr, Ipv4Cidr, Ipv4Packet, MacAddr, TcpFlags, TcpSegment, UdpDatagram,
};
use std::time::Duration;

fn arb_mac() -> impl Strategy<Value = MacAddr> {
    any::<[u8; 6]>().prop_map(MacAddr::new)
}

fn arb_ip() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from_u32)
}

properties! {
    #[test]
    fn ethernet_roundtrip(dst in arb_mac(), src in arb_mac(), ethertype in any::<u16>(),
                          vid in any::<u16>(),
                          payload in collection::vec(any::<u8>(), 0..1500)) {
        // Tag TPIDs (0x8100/0x88a8) are unwrapped by the parser, not
        // carried as a payload protocol; steer them to plain values.
        let ethertype = if EtherType::from_u16(ethertype).is_vlan_tag() {
            EtherType::ARP
        } else {
            EtherType::from_u16(ethertype)
        };
        let mut frame = EthernetFrame::new(dst, src, ethertype, payload.clone());
        if vid % 2 == 0 {
            frame = frame.with_vlan(vid);
        }
        let bytes = frame.encode();
        let parsed = EthernetView::parse_strict(&bytes).unwrap();
        prop_assert_eq!(parsed.dst(), dst);
        prop_assert_eq!(parsed.src(), src);
        prop_assert_eq!(parsed.ethertype(), ethertype);
        prop_assert_eq!(parsed.vlan(), frame.vlan);
        // Padding may extend short payloads; the prefix must survive.
        prop_assert_eq!(&parsed.payload()[..payload.len()], &payload[..]);
        prop_assert!(parsed.payload().len() >= 46 || payload.len() >= 46);
    }

    #[test]
    fn arp_roundtrip(op in prop_oneof![Just(ArpOp::Request), Just(ArpOp::Reply)],
                     smac in arb_mac(), sip in arb_ip(), tmac in arb_mac(), tip in arb_ip()) {
        let pkt = ArpPacket { op, sender_mac: smac, sender_ip: sip, target_mac: tmac, target_ip: tip };
        prop_assert_eq!(ArpPacket::parse(&pkt.encode()).unwrap(), pkt);
    }

    #[test]
    fn ipv4_roundtrip(src in arb_ip(), dst in arb_ip(), ttl in any::<u8>(), ident in any::<u16>(),
                      proto in any::<u8>(), payload in collection::vec(any::<u8>(), 0..600)) {
        let mut pkt = Ipv4Packet::new(src, dst, IpProtocol::from_u8(proto), payload);
        pkt.ttl = ttl;
        pkt.identification = ident;
        prop_assert_eq!(Ipv4Packet::parse(&pkt.encode()).unwrap(), pkt);
    }

    #[test]
    fn udp_roundtrip(src in arb_ip(), dst in arb_ip(), sp in any::<u16>(), dp in any::<u16>(),
                     payload in collection::vec(any::<u8>(), 0..600)) {
        let dgram = UdpDatagram::new(sp, dp, payload);
        prop_assert_eq!(UdpDatagram::parse(&dgram.encode(src, dst), src, dst).unwrap(), dgram);
    }

    #[test]
    fn tcp_roundtrip(src in arb_ip(), dst in arb_ip(), sp in any::<u16>(), dp in any::<u16>(),
                     seq in any::<u32>(), ack in any::<u32>(), flags in 0u8..0x40, window in any::<u16>(),
                     payload in collection::vec(any::<u8>(), 0..400)) {
        let seg = TcpSegment {
            src_port: sp, dst_port: dp, seq, ack,
            flags: TcpFlags::from_bits(flags), window, payload,
        };
        prop_assert_eq!(TcpSegment::parse(&seg.encode(src, dst), src, dst).unwrap(), seg);
    }

    #[test]
    fn icmp_roundtrip(ident in any::<u16>(), seq in any::<u16>(),
                      payload in collection::vec(any::<u8>(), 0..400)) {
        let msg = IcmpMessage::echo_request(ident, seq, payload);
        prop_assert_eq!(IcmpMessage::parse(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn dhcp_roundtrip(xid in any::<u32>(), chaddr in arb_mac(), requested in arb_ip(), server in arb_ip()) {
        for msg in [
            DhcpMessage::discover(xid, chaddr),
            DhcpMessage::request(xid, chaddr, requested, server),
            DhcpMessage::release(xid, chaddr, requested, server),
        ] {
            prop_assert_eq!(DhcpMessage::parse(&msg.encode()).unwrap(), msg);
        }
    }

    /// Every parser is total: arbitrary bytes never panic, they parse or
    /// return an error. (Detection schemes feed attacker-controlled bytes
    /// straight in.)
    #[test]
    fn parsers_are_total_on_garbage(bytes in collection::vec(any::<u8>(), 0..200)) {
        let _ = EthernetView::parse_strict(&bytes);
        let _ = ArpPacket::parse(&bytes);
        let _ = Ipv4Packet::parse(&bytes);
        let _ = IcmpMessage::parse(&bytes);
        let _ = DhcpMessage::parse(&bytes);
        let _ = UdpDatagram::parse(&bytes, Ipv4Addr::UNSPECIFIED, Ipv4Addr::BROADCAST);
        let _ = TcpSegment::parse(&bytes, Ipv4Addr::UNSPECIFIED, Ipv4Addr::BROADCAST);
        let _ = Signature::from_bytes(&bytes);
    }

    /// Single-bit corruption of a checksummed packet is always caught.
    #[test]
    fn ipv4_header_bitflips_detected(bit in 0usize..(20 * 8)) {
        let pkt = Ipv4Packet::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            IpProtocol::Udp,
            vec![1, 2, 3],
        );
        let mut bytes = pkt.encode();
        bytes[bit / 8] ^= 1 << (bit % 8);
        // Either the checksum fires or another structural check does; a
        // silently different-but-accepted header is only possible when the
        // flip hits... nothing: every header bit is covered by the
        // checksum, so any flip must be rejected.
        prop_assert!(Ipv4Packet::parse(&bytes).is_err(), "bit {} undetected", bit);
    }

    #[test]
    fn signatures_bind_message_and_key(seed1 in any::<u64>(), seed2 in any::<u64>(),
                                       msg1 in collection::vec(any::<u8>(), 1..64),
                                       msg2 in collection::vec(any::<u8>(), 1..64)) {
        let kp1 = KeyPair::from_seed(seed1);
        let sig = kp1.sign(&msg1);
        prop_assert!(kp1.public_key().verify(&msg1, &sig).is_ok());
        if msg1 != msg2 {
            prop_assert!(kp1.public_key().verify(&msg2, &sig).is_err());
        }
        if seed1 != seed2 {
            let kp2 = KeyPair::from_seed(seed2);
            prop_assert!(kp2.public_key().verify(&msg1, &sig).is_err());
        }
    }

    /// Signatures survive their wire round-trip: `to_bytes`/`from_bytes`
    /// is lossless and the reparsed signature still verifies.
    #[test]
    fn signature_wire_roundtrip(seed in any::<u64>(), msg in collection::vec(any::<u8>(), 1..64)) {
        let kp = KeyPair::from_seed(seed);
        let sig = kp.sign(&msg);
        let parsed = Signature::from_bytes(&sig.to_bytes()).unwrap();
        prop_assert_eq!(parsed.to_bytes(), sig.to_bytes());
        prop_assert!(kp.public_key().verify(&msg, &parsed).is_ok());
    }

    /// CAM capacity is an invariant under arbitrary learn/sweep schedules.
    #[test]
    fn cam_never_exceeds_capacity(ops in collection::vec((any::<u32>(), 0u16..8, any::<bool>()), 1..200),
                                  capacity in 1usize..64) {
        let mut cam = CamTable::new(capacity, Duration::from_secs(60));
        let mut t = 0u64;
        for (mac, port, sweep) in ops {
            t += 1;
            if sweep {
                cam.sweep(SimTime::from_secs(t));
            } else {
                cam.learn(SimTime::from_secs(t), MacAddr::from_index(mac % 100), PortId(port));
            }
            prop_assert!(cam.occupancy() <= capacity);
        }
    }

    /// A station moving between ports: the CAM always reports the port of
    /// the *latest* learn, and re-learning an existing MAC never grows
    /// the table (the mechanism a switch relies on when hosts roam — and
    /// the one MAC flooding abuses).
    #[test]
    fn cam_learn_move_tracks_latest_port(mac_idx in any::<u32>(),
                                         moves in collection::vec(0u16..8, 1..50)) {
        let mac = MacAddr::from_index(mac_idx % 1000);
        let mut cam = CamTable::new(16, Duration::from_secs(60));
        for (i, port) in moves.iter().enumerate() {
            cam.learn(SimTime::from_secs(i as u64), mac, PortId(*port));
            prop_assert_eq!(cam.lookup(mac), Some(PortId(*port)));
            prop_assert_eq!(cam.occupancy(), 1);
        }
    }

    /// CIDR membership is consistent with host enumeration.
    #[test]
    fn cidr_hosts_are_members(base in arb_ip(), prefix in 8u8..=30, n in 1u32..64) {
        let net = Ipv4Cidr::new(base, prefix);
        if let Some(host) = net.host(n) {
            prop_assert!(net.contains(host));
            prop_assert_ne!(host, net.network());
            prop_assert_ne!(host, net.broadcast());
        }
    }

    /// MAC text form round-trips for arbitrary addresses.
    #[test]
    fn mac_display_roundtrip(mac in arb_mac()) {
        let text = mac.to_string();
        prop_assert_eq!(text.parse::<MacAddr>().unwrap(), mac);
    }
}

// --- crypto field and ticket properties ---

properties! {
    /// The fast Mersenne multiply agrees with the generic shift-add
    /// multiply on arbitrary field elements.
    #[test]
    fn field_mul_matches_reference(a in any::<u128>(), b in any::<u128>()) {
        use arpshield::crypto::field::{mul, mulmod, P};
        let a = a % P;
        let b = b % P;
        prop_assert_eq!(mul(a, b), mulmod(a, b, P));
    }

    /// Exponentiation laws hold: g^(a+b) = g^a · g^b (mod p).
    #[test]
    fn field_pow_is_homomorphic(a in 0u128..1u128 << 64, b in 0u128..1u128 << 64) {
        use arpshield::crypto::field::{mul, pow};
        let g = 3u128;
        prop_assert_eq!(pow(g, a + b), mul(pow(g, a), pow(g, b)));
    }

    /// An impairment profile with `loss_prob = 0` (and every other knob
    /// inert) must replay the exact frame schedule of a perfect wire for
    /// any seed — the impaired delivery path may not perturb timing,
    /// ordering, or byte counts when it has nothing to do.
    #[test]
    fn inert_impairment_is_byte_identical(seed in any::<u64>(), latency_us in 1u64..50) {
        use arpshield::netsim::{
            Device, DeviceCtx, FlapSchedule, LinkProfile, PortId, SimTime, Simulator,
        };
        use arpshield::trace::{install, TraceCollector, Tracer};
        use std::sync::Arc;

        /// Bounces a counter frame back and forth a fixed number of hops.
        struct Bouncer {
            serve: bool,
        }
        impl Device for Bouncer {
            fn name(&self) -> &str {
                "bouncer"
            }
            fn port_count(&self) -> usize {
                1
            }
            fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
                if self.serve {
                    ctx.send(PortId(0), vec![0]);
                }
            }
            fn on_frame(&mut self, ctx: &mut DeviceCtx<'_>, _port: PortId, frame: &[u8]) {
                if frame[0] < 40 {
                    ctx.send(PortId(0), vec![frame[0] + 1]);
                }
            }
        }

        let fingerprint = |profile: Option<LinkProfile>| -> Vec<(u64, usize)> {
            let mut sim = Simulator::new(seed);
            let a = sim.add_device(Box::new(Bouncer { serve: true }));
            let b = sim.add_device(Box::new(Bouncer { serve: false }));
            let latency = Duration::from_micros(latency_us);
            match profile {
                Some(p) => sim.connect_impaired(a, PortId(0), b, PortId(0), latency, p).unwrap(),
                None => sim.connect(a, PortId(0), b, PortId(0), latency).unwrap(),
            }
            let collector = Arc::new(TraceCollector::with_capture(usize::MAX));
            let _guard = install(collector.clone());
            sim.set_tracer(Tracer::for_current_run("bounce"));
            sim.run_until(SimTime::from_secs(1));
            // Releasing the run's tracer flushes its captured frames.
            sim.set_tracer(Tracer::disabled());
            collector.manifest("bounce").runs[0]
                .frames
                .iter()
                .map(|f| (f.at_ns, f.bytes.len()))
                .collect()
        };

        // A profile that is *not* `is_perfect()` (the flap forces the
        // impaired delivery path) but whose draws can never fire: the
        // outage starts long after the run ends.
        let inert = LinkProfile::default().with_loss(0.0).with_dup(0.0).with_flap(FlapSchedule {
            offset: Duration::from_secs(3600),
            down_for: Duration::from_secs(1),
            period: Duration::from_secs(7200),
        });
        prop_assert_eq!(fingerprint(Some(inert)), fingerprint(None));
    }

    /// TARP tickets round-trip and never verify under the wrong key or
    /// after expiry.
    #[test]
    fn tarp_ticket_properties(seed in any::<u64>(), ip in any::<u32>(), mac in any::<[u8; 6]>(),
                              expiry_s in 1u64..1_000_000) {
        use arpshield::crypto::KeyPair;
        use arpshield::netsim::SimTime;
        use arpshield::schemes::Ticket;
        let lta = KeyPair::from_seed(seed);
        let ticket = Ticket::issue(
            &lta,
            Ipv4Addr::from_u32(ip),
            MacAddr::new(mac),
            SimTime::from_secs(expiry_s),
        );
        let parsed = Ticket::from_bytes(&ticket.to_bytes()).unwrap();
        prop_assert_eq!(parsed, ticket);
        prop_assert!(ticket.verify(&lta.public_key(), SimTime::from_secs(expiry_s - 1)));
        prop_assert!(!ticket.verify(&lta.public_key(), SimTime::from_secs(expiry_s)));
        let other = KeyPair::from_seed(seed.wrapping_add(1));
        prop_assert!(!ticket.verify(&other.public_key(), SimTime::ZERO));
    }

    /// The empirical CDF is a valid distribution function for any sample
    /// set: sorted x, monotone y, ending at exactly 1.
    #[test]
    fn series_cdf_is_valid(samples in collection::vec(0.0f64..1e9, 1..200)) {
        use arpshield::analysis::Series;
        let s = Series::cdf("p", "x", samples.clone());
        let pts = s.points();
        prop_assert_eq!(pts.len(), samples.len());
        for w in pts.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            prop_assert!(w[0].1 <= w[1].1);
        }
        prop_assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    /// ARP cache: static entries survive any sequence of dynamic writes.
    #[test]
    fn static_entries_are_immovable(writes in collection::vec((any::<u32>(), any::<u32>()), 0..100)) {
        use arpshield::host::{ArpCache, EntryOrigin};
        use arpshield::netsim::SimTime;
        let protected_ip = Ipv4Addr::new(10, 0, 0, 1);
        let protected_mac = MacAddr::from_index(1);
        let mut cache = ArpCache::new(std::time::Duration::from_secs(60));
        cache.insert_static(SimTime::ZERO, protected_ip, protected_mac);
        for (i, (ip, mac)) in writes.iter().enumerate() {
            cache.insert_dynamic(
                SimTime::from_secs(i as u64),
                Ipv4Addr::from_u32(*ip),
                MacAddr::from_index(*mac),
                EntryOrigin::UnsolicitedReply,
            );
        }
        prop_assert_eq!(
            cache.lookup(SimTime::from_secs(1_000_000), protected_ip),
            Some(protected_mac)
        );
    }
}

/// Fan-out devices (hub repeat, switch flood) forward *shared* frame
/// buffers instead of per-copy clones; these properties pin down that
/// the optimisation is invisible on the wire — every delivered copy is
/// byte-equal to the frame the sender emitted, exactly as the old
/// clone-per-copy substrate behaved.
mod frame_sharing {
    use super::*;
    use arpshield::netsim::{Device, DeviceCtx, Hub, Simulator, Switch, SwitchConfig};
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::time::Duration;

    /// Emits one fixed frame at start-up.
    struct Sender {
        bytes: Vec<u8>,
    }

    impl Device for Sender {
        fn name(&self) -> &str {
            "sender"
        }
        fn port_count(&self) -> usize {
            1
        }
        fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
            ctx.send(PortId(0), self.bytes.clone());
        }
        fn on_frame(&mut self, _: &mut DeviceCtx<'_>, _: PortId, _: &[u8]) {}
    }

    /// Records every delivered frame's bytes.
    struct Sink {
        got: Rc<RefCell<Vec<Vec<u8>>>>,
    }

    impl Device for Sink {
        fn name(&self) -> &str {
            "sink"
        }
        fn port_count(&self) -> usize {
            1
        }
        fn on_frame(&mut self, _: &mut DeviceCtx<'_>, _: PortId, frame: &[u8]) {
            self.got.borrow_mut().push(frame.to_vec());
        }
    }

    /// Wires `ports - 1` sinks to a fan-out device, fires one frame into
    /// port 0, and returns what every sink saw.
    fn deliver(
        device: Box<dyn Device>,
        ports: usize,
        bytes: Vec<u8>,
    ) -> Vec<Rc<RefCell<Vec<Vec<u8>>>>> {
        let mut sim = Simulator::new(1);
        let fanout = sim.add_device(device);
        let src = sim.add_device(Box::new(Sender { bytes }));
        sim.connect(src, PortId(0), fanout, PortId(0), Duration::from_micros(1)).unwrap();
        let mut sinks = Vec::new();
        for p in 1..ports as u16 {
            let got = Rc::new(RefCell::new(Vec::new()));
            let sink = sim.add_device(Box::new(Sink { got: Rc::clone(&got) }));
            sim.connect(sink, PortId(0), fanout, PortId(p), Duration::from_micros(1)).unwrap();
            sinks.push(got);
        }
        sim.run_until(SimTime::from_secs(1));
        sinks
    }

    properties! {
        #[test]
        fn hub_repeat_is_byte_identical(payload in collection::vec(any::<u8>(), 1..600),
                                        ports in 2usize..9) {
            let sinks = deliver(Box::new(Hub::new("hub", ports)), ports, payload.clone());
            for got in &sinks {
                let got = got.borrow();
                prop_assert_eq!(got.as_slice(), std::slice::from_ref(&payload));
            }
        }

        #[test]
        fn switch_flood_is_byte_identical(inner in collection::vec(any::<u8>(), 0..600),
                                          src_idx in 1u32..1000, ports in 2usize..9) {
            let encoded = EthernetFrame::new(
                MacAddr::BROADCAST,
                MacAddr::from_index(src_idx),
                EtherType::Other(0x1234),
                inner,
            )
            .encode();
            let (sw, _) = Switch::new("sw", SwitchConfig { ports, ..Default::default() });
            let sinks = deliver(Box::new(sw), ports, encoded.clone());
            for got in &sinks {
                let got = got.borrow();
                prop_assert_eq!(got.as_slice(), std::slice::from_ref(&encoded));
            }
        }
    }
}

/// The trace layer's aggregation invariants: bucketing is monotone and
/// total, merging is associative/commutative (so worker interleaving
/// cannot change a manifest), and CSV escaping round-trips any field.
mod trace_invariants {
    use super::*;
    use arpshield::trace::{bucket_of, bucket_range, csv_escape, Histogram, BUCKETS};

    /// Minimal CSV field unquoter (the inverse of `csv_escape`).
    fn csv_unescape(field: &str) -> String {
        match field.strip_prefix('"').and_then(|f| f.strip_suffix('"')) {
            Some(inner) => inner.replace("\"\"", "\""),
            None => field.to_string(),
        }
    }

    properties! {
        #[test]
        fn histogram_bucketing_is_monotone_and_total(a in any::<u64>(), b in any::<u64>()) {
            let (lo, hi) = (a.min(b), a.max(b));
            prop_assert!(bucket_of(lo) <= bucket_of(hi), "bucketing must be monotone");
            prop_assert!(bucket_of(hi) < BUCKETS, "every u64 lands in a bucket");
            let (lo_bound, hi_bound) = bucket_range(bucket_of(a));
            prop_assert!(lo_bound <= a && a <= hi_bound, "value lies in its bucket's range");
        }

        #[test]
        fn histogram_merge_is_associative_and_commutative(
            xs in collection::vec(any::<u64>(), 0..40),
            ys in collection::vec(any::<u64>(), 0..40),
            zs in collection::vec(any::<u64>(), 0..40),
        ) {
            let hist = |vals: &[u64]| {
                let mut h = Histogram::new();
                for &v in vals {
                    h.record(v);
                }
                h
            };
            let (x, y, z) = (hist(&xs), hist(&ys), hist(&zs));

            // (x + y) + z == x + (y + z): worker scheduling order is moot.
            let mut left = x.clone();
            left.merge(&y);
            left.merge(&z);
            let mut right_tail = y.clone();
            right_tail.merge(&z);
            let mut right = x.clone();
            right.merge(&right_tail);
            prop_assert_eq!(&left, &right);

            // x + y == y + x.
            let mut xy = x.clone();
            xy.merge(&y);
            let mut yx = y.clone();
            yx.merge(&x);
            prop_assert_eq!(&xy, &yx);

            // Merging equals recording the concatenation directly.
            let mut all = xs.clone();
            all.extend(&ys);
            all.extend(&zs);
            prop_assert_eq!(&left, &hist(&all));
        }

        /// The 65-bin histogram's quantile bounds always bracket the
        /// exact sample quantile (nearest-rank definition), and the
        /// exported p50/p90/p99 estimate is the bracket's upper bound.
        #[test]
        fn histogram_quantiles_bracket_exact(samples in collection::vec(any::<u64>(), 1..400)) {
            let mut h = Histogram::new();
            for &v in &samples {
                h.record(v);
            }
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            for q in [0.5, 0.9, 0.99] {
                let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
                let exact = sorted[rank - 1];
                let (lo, hi) = h.quantile_bounds(q).unwrap();
                prop_assert!(
                    lo <= exact && exact <= hi,
                    "q={} exact={} outside bounds [{}, {}]", q, exact, lo, hi
                );
                prop_assert_eq!(h.quantile_estimate(q), Some(hi));
            }
        }

        #[test]
        fn counter_total_merge_is_order_independent(
            counts in collection::vec((0u8..4, 0u64..1_000_000), 0..30),
        ) {
            // Counter merge is per-name addition; any grouping of the
            // per-run deltas must produce the same totals.
            use std::collections::BTreeMap;
            let names = ["a", "b", "c", "d"];
            let mut forward: BTreeMap<&str, u64> = BTreeMap::new();
            for &(which, n) in &counts {
                *forward.entry(names[which as usize]).or_insert(0) += n;
            }
            let mut backward: BTreeMap<&str, u64> = BTreeMap::new();
            for &(which, n) in counts.iter().rev() {
                *backward.entry(names[which as usize]).or_insert(0) += n;
            }
            prop_assert_eq!(forward, backward);
        }

        #[test]
        fn csv_escape_roundtrips_any_field(field in collection::vec(any::<u8>(), 0..80)) {
            let field: String = field.into_iter().map(|b| b as char).collect();
            let escaped = csv_escape(&field);
            // An escaped field never leaks a bare separator or newline.
            if escaped == field {
                prop_assert!(!field.contains([',', '\n', '\r', '"']));
            } else {
                prop_assert!(escaped.starts_with('"') && escaped.ends_with('"'));
            }
            prop_assert_eq!(csv_unescape(&escaped), field);
        }
    }
}

/// The wheel scheduler and the recycling frame pool are the structures
/// the 100k-host scale-up rests on; these properties pin the contracts
/// the rest of the workspace assumes of them.
mod scheduler_and_pool {
    use arpshield_testkit::prelude::*;

    properties! {
        /// The timing wheel is observationally a *stable* min-heap on
        /// `(timestamp, insertion order)`: any interleaving of pushes
        /// and pops replays exactly the sequence a seq-tagged
        /// `BinaryHeap` reference produces — including timestamp ties
        /// and entries past the ~68.7 s wheel horizon.
        #[test]
        fn timing_wheel_matches_heap_order(
            ops in collection::vec((any::<u64>(), any::<u8>()), 1..200),
        ) {
            use arpshield::netsim::{SimTime, TimingWheel};
            use std::cmp::Reverse;
            use std::collections::BinaryHeap;

            let mut wheel: TimingWheel<usize> = TimingWheel::new();
            let mut heap: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
            let mut clock = 0u64;
            let mut seq = 0u64;
            for (i, &(raw, kind)) in ops.iter().enumerate() {
                if kind % 4 == 0 {
                    let got = wheel.pop().map(|(at, item)| (at.as_nanos(), item));
                    let want = heap.pop().map(|Reverse((at, _, item))| (at, item));
                    prop_assert_eq!(got, want);
                    if let Some((at, _)) = got {
                        clock = at;
                    }
                } else {
                    // Spread delays across wheel levels: frequent ties,
                    // mid-horizon scatter, and horizon-crossing jumps
                    // that exercise the calendar fallback.
                    let delay = match kind % 4 {
                        1 => raw % 4,
                        2 => raw % 10_000_000_000,
                        _ => raw % 200_000_000_000_000,
                    };
                    let at = clock.saturating_add(delay);
                    wheel.push(SimTime::from_nanos(at), i);
                    heap.push(Reverse((at, seq, i)));
                    seq += 1;
                }
            }
            loop {
                let got = wheel.pop().map(|(at, item)| (at.as_nanos(), item));
                let want = heap.pop().map(|Reverse((at, _, item))| (at, item));
                prop_assert_eq!(got, want);
                if got.is_none() {
                    break;
                }
            }
        }

        /// A recycled frame buffer is byte-identical to its new
        /// payload: nothing a previous frame left in the allocation
        /// ever leaks through, and a buffer still shared by a live
        /// clone is never handed to a new frame.
        #[test]
        fn frame_recycling_never_leaks_stale_bytes(
            poison in collection::vec(any::<u8>(), 0..2000),
            payload in collection::vec(any::<u8>(), 0..2000),
        ) {
            use arpshield::netsim::Frame;

            let dirty = Frame::from(poison.clone());
            prop_assert_eq!(dirty.as_slice(), &poison[..]);
            drop(dirty);
            let fresh = Frame::from(payload.clone());
            prop_assert_eq!(fresh.len(), payload.len());
            prop_assert_eq!(fresh.as_slice(), &payload[..]);
            // A live clone pins the buffer: dropping one handle must
            // not recycle it out from under the survivor.
            let keep = fresh.clone();
            drop(fresh);
            let churn = Frame::from(poison);
            prop_assert_eq!(keep.as_slice(), &payload[..]);
            prop_assert!(churn.len() <= 2000);
        }
    }
}

/// Byte-identity of the in-place wire writers against independent
/// reference encoders.
///
/// The legacy `encode()` methods are now thin shims over the mutable
/// view writers, so comparing `encode()` to itself would prove nothing.
/// Each reference encoder below re-implements the original Vec-building
/// serialization (including an independent ones'-complement checksum)
/// from the wire-format spec; any drift the redesign introduced into
/// header layout, padding, or checksums shows up here as a shrunk
/// counterexample.
mod wire_emit_identity {
    use super::*;
    use arpshield::netsim::{eth_frame, Frame};
    use arpshield::packet::{DhcpMessageType, DhcpOp, DhcpOption};

    /// Independent RFC 1071 checksum over a contiguous byte string (odd
    /// trailing byte zero-padded).
    fn ref_checksum(bytes: &[u8]) -> u16 {
        let mut sum: u32 = 0;
        for chunk in bytes.chunks(2) {
            let word = if chunk.len() == 2 {
                u16::from_be_bytes([chunk[0], chunk[1]])
            } else {
                u16::from_be_bytes([chunk[0], 0])
            };
            sum += u32::from(word);
        }
        while sum >> 16 != 0 {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        !(sum as u16)
    }

    fn pseudo_header(src: Ipv4Addr, dst: Ipv4Addr, protocol: u8, len: u16) -> Vec<u8> {
        let mut out = Vec::with_capacity(12);
        out.extend_from_slice(&src.octets());
        out.extend_from_slice(&dst.octets());
        out.push(0);
        out.push(protocol);
        out.extend_from_slice(&len.to_be_bytes());
        out
    }

    fn ref_ethernet(f: &EthernetFrame) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(f.dst.as_bytes());
        out.extend_from_slice(f.src.as_bytes());
        if let Some(vid) = f.vlan {
            out.extend_from_slice(&0x8100u16.to_be_bytes());
            out.extend_from_slice(&(vid & 0x0FFF).to_be_bytes());
        }
        out.extend_from_slice(&f.ethertype.to_u16().to_be_bytes());
        out.extend_from_slice(&f.payload);
        for _ in f.payload.len()..46 {
            out.push(0);
        }
        out
    }

    fn ref_arp(p: &ArpPacket) -> Vec<u8> {
        let mut out = vec![0, 1, 8, 0, 6, 4]; // htype 1, ptype 0x0800, hlen, plen
        out.extend_from_slice(&p.op.to_u16().to_be_bytes());
        out.extend_from_slice(p.sender_mac.as_bytes());
        out.extend_from_slice(&p.sender_ip.octets());
        out.extend_from_slice(p.target_mac.as_bytes());
        out.extend_from_slice(&p.target_ip.octets());
        out
    }

    fn ref_ipv4(p: &Ipv4Packet) -> Vec<u8> {
        let total = 20 + p.payload.len();
        let mut h = vec![0u8; 20];
        h[0] = 0x45;
        h[2..4].copy_from_slice(&(total as u16).to_be_bytes());
        h[4..6].copy_from_slice(&p.identification.to_be_bytes());
        h[8] = p.ttl;
        h[9] = p.protocol.to_u8();
        h[12..16].copy_from_slice(&p.src.octets());
        h[16..20].copy_from_slice(&p.dst.octets());
        let ck = ref_checksum(&h);
        h[10..12].copy_from_slice(&ck.to_be_bytes());
        h.extend_from_slice(&p.payload);
        h
    }

    fn ref_udp(d: &UdpDatagram, src: Ipv4Addr, dst: Ipv4Addr) -> Vec<u8> {
        let len = (8 + d.payload.len()) as u16;
        let mut out = Vec::new();
        out.extend_from_slice(&d.src_port.to_be_bytes());
        out.extend_from_slice(&d.dst_port.to_be_bytes());
        out.extend_from_slice(&len.to_be_bytes());
        out.extend_from_slice(&[0, 0]);
        out.extend_from_slice(&d.payload);
        let mut covered = pseudo_header(src, dst, 17, len);
        covered.extend_from_slice(&out);
        let mut ck = ref_checksum(&covered);
        if ck == 0 {
            ck = 0xffff;
        }
        out[6..8].copy_from_slice(&ck.to_be_bytes());
        out
    }

    fn ref_icmp(m: &IcmpMessage) -> Vec<u8> {
        let mut out = vec![m.icmp_type.to_u8(), 0, 0, 0];
        out.extend_from_slice(&m.identifier.to_be_bytes());
        out.extend_from_slice(&m.sequence.to_be_bytes());
        out.extend_from_slice(&m.payload);
        let ck = ref_checksum(&out);
        out[2..4].copy_from_slice(&ck.to_be_bytes());
        out
    }

    fn ref_tcp(s: &TcpSegment, src: Ipv4Addr, dst: Ipv4Addr) -> Vec<u8> {
        let total = (20 + s.payload.len()) as u16;
        let mut out = vec![0u8; 20];
        out[0..2].copy_from_slice(&s.src_port.to_be_bytes());
        out[2..4].copy_from_slice(&s.dst_port.to_be_bytes());
        out[4..8].copy_from_slice(&s.seq.to_be_bytes());
        out[8..12].copy_from_slice(&s.ack.to_be_bytes());
        out[12] = 5 << 4;
        out[13] = s.flags.bits();
        out[14..16].copy_from_slice(&s.window.to_be_bytes());
        out.extend_from_slice(&s.payload);
        let mut covered = pseudo_header(src, dst, 6, total);
        covered.extend_from_slice(&out);
        let ck = ref_checksum(&covered);
        out[16..18].copy_from_slice(&ck.to_be_bytes());
        out
    }

    fn ref_dhcp(m: &DhcpMessage) -> Vec<u8> {
        let mut out = vec![0u8; 236];
        out[0] = m.op.to_u8();
        out[1] = 1; // htype: ethernet
        out[2] = 6; // hlen
        out[4..8].copy_from_slice(&m.xid.to_be_bytes());
        out[10] = 0x80; // broadcast flag
        out[12..16].copy_from_slice(&m.ciaddr.octets());
        out[16..20].copy_from_slice(&m.yiaddr.octets());
        out[20..24].copy_from_slice(&m.siaddr.octets());
        out[28..34].copy_from_slice(m.chaddr.as_bytes());
        out.extend_from_slice(&[99, 130, 83, 99]);
        for opt in &m.options {
            match opt {
                DhcpOption::SubnetMask(a) => push_addr_opt(&mut out, 1, *a),
                DhcpOption::Router(a) => push_addr_opt(&mut out, 3, *a),
                DhcpOption::DnsServer(a) => push_addr_opt(&mut out, 6, *a),
                DhcpOption::RequestedIp(a) => push_addr_opt(&mut out, 50, *a),
                DhcpOption::LeaseTime(t) => {
                    out.extend_from_slice(&[51, 4]);
                    out.extend_from_slice(&t.to_be_bytes());
                }
                DhcpOption::MessageType(t) => out.extend_from_slice(&[53, 1, t.to_u8()]),
                DhcpOption::ServerId(a) => push_addr_opt(&mut out, 54, *a),
                DhcpOption::Other(code, data) => {
                    out.push(*code);
                    out.push(data.len() as u8);
                    out.extend_from_slice(data);
                }
            }
        }
        out.push(255);
        out
    }

    fn push_addr_opt(out: &mut Vec<u8>, code: u8, addr: Ipv4Addr) {
        out.push(code);
        out.push(4);
        out.extend_from_slice(&addr.octets());
    }

    fn arb_dhcp_option() -> impl Strategy<Value = DhcpOption> {
        prop_oneof![
            arb_ip().prop_map(DhcpOption::SubnetMask),
            arb_ip().prop_map(DhcpOption::Router),
            arb_ip().prop_map(DhcpOption::DnsServer),
            arb_ip().prop_map(DhcpOption::RequestedIp),
            any::<u32>().prop_map(DhcpOption::LeaseTime),
            prop_oneof![
                Just(DhcpMessageType::Discover),
                Just(DhcpMessageType::Offer),
                Just(DhcpMessageType::Request),
                Just(DhcpMessageType::Ack),
                Just(DhcpMessageType::Nak),
                Just(DhcpMessageType::Release),
            ]
            .prop_map(DhcpOption::MessageType),
            arb_ip().prop_map(DhcpOption::ServerId),
            (1u8..=254, collection::vec(any::<u8>(), 0..40))
                .prop_map(|(code, data)| DhcpOption::Other(code, data)),
        ]
    }

    properties! {
        #[test]
        fn ethernet_emit_matches_reference(dst in arb_mac(), src in arb_mac(),
                                           ethertype in any::<u16>(), vid in any::<u16>(),
                                           payload in collection::vec(any::<u8>(), 0..1500)) {
            let ethertype = if EtherType::from_u16(ethertype).is_vlan_tag() {
                EtherType::ARP
            } else {
                EtherType::from_u16(ethertype)
            };
            let mut frame = EthernetFrame::new(dst, src, ethertype, payload);
            if vid % 2 == 0 {
                frame = frame.with_vlan(vid);
            }
            prop_assert_eq!(frame.encode(), ref_ethernet(&frame));
        }

        #[test]
        fn arp_emit_matches_reference(op in prop_oneof![Just(ArpOp::Request), Just(ArpOp::Reply)],
                                      smac in arb_mac(), sip in arb_ip(),
                                      tmac in arb_mac(), tip in arb_ip()) {
            let pkt = ArpPacket {
                op, sender_mac: smac, sender_ip: sip, target_mac: tmac, target_ip: tip,
            };
            prop_assert_eq!(pkt.encode(), ref_arp(&pkt));
        }

        #[test]
        fn ipv4_emit_matches_reference(src in arb_ip(), dst in arb_ip(), ttl in any::<u8>(),
                                       ident in any::<u16>(), proto in any::<u8>(),
                                       payload in collection::vec(any::<u8>(), 0..600)) {
            let mut pkt = Ipv4Packet::new(src, dst, IpProtocol::from_u8(proto), payload);
            pkt.ttl = ttl;
            pkt.identification = ident;
            prop_assert_eq!(pkt.encode(), ref_ipv4(&pkt));
        }

        #[test]
        fn udp_emit_matches_reference(src in arb_ip(), dst in arb_ip(), sp in any::<u16>(),
                                      dp in any::<u16>(),
                                      payload in collection::vec(any::<u8>(), 0..600)) {
            let dgram = UdpDatagram::new(sp, dp, payload);
            prop_assert_eq!(dgram.encode(src, dst), ref_udp(&dgram, src, dst));
        }

        #[test]
        fn icmp_emit_matches_reference(ident in any::<u16>(), seq in any::<u16>(),
                                       payload in collection::vec(any::<u8>(), 0..200)) {
            let req = IcmpMessage::echo_request(ident, seq, payload);
            prop_assert_eq!(req.encode(), ref_icmp(&req));
            let rep = IcmpMessage::reply_to(&req);
            prop_assert_eq!(rep.encode(), ref_icmp(&rep));
        }

        #[test]
        fn tcp_emit_matches_reference(src in arb_ip(), dst in arb_ip(), sp in any::<u16>(),
                                      dp in any::<u16>(), seq in any::<u32>(), ack in any::<u32>(),
                                      flags in any::<u8>(), window in any::<u16>(),
                                      payload in collection::vec(any::<u8>(), 0..200)) {
            let seg = TcpSegment {
                src_port: sp, dst_port: dp, seq, ack,
                flags: TcpFlags::from_bits(flags), window, payload,
            };
            prop_assert_eq!(seg.encode(src, dst), ref_tcp(&seg, src, dst));
        }

        #[test]
        fn dhcp_emit_matches_reference(op in prop_oneof![Just(DhcpOp::BootRequest),
                                                         Just(DhcpOp::BootReply)],
                                       xid in any::<u32>(), ci in arb_ip(), yi in arb_ip(),
                                       si in arb_ip(), chaddr in arb_mac(),
                                       options in collection::vec(arb_dhcp_option(), 0..8)) {
            let msg = DhcpMessage {
                op, xid, ciaddr: ci, yiaddr: yi, siaddr: si, chaddr, options,
            };
            prop_assert_eq!(msg.encode(), ref_dhcp(&msg));
        }

        /// The pooled TX constructor hands out recycled buffers; whatever a
        /// previous tenant wrote must never show through, and the closure's
        /// bytes must come back exactly.
        #[test]
        fn frame_build_never_exposes_stale_bytes(poison in collection::vec(1u8..=255, 1..1500),
                                                 len in 0usize..1500, fill in any::<u8>(),
                                                 written in 0usize..1500) {
            let written = written.min(len);
            let tenant = Frame::from(poison);
            drop(tenant); // recycled: the next build reuses this buffer
            let frame = Frame::build(len, |buf| {
                buf[..written].fill(fill);
                buf.len()
            });
            prop_assert_eq!(frame.len(), len);
            prop_assert!(frame[..written].iter().all(|&b| b == fill));
            // Everything the closure did not touch reads back as zero —
            // the pre-zeroing that doubles as Ethernet padding.
            prop_assert!(frame[written..].iter().all(|&b| b == 0));
        }

        /// The netsim TX one-liner produces exactly the bytes of the owned
        /// builder it replaced.
        #[test]
        fn eth_frame_matches_owned_encoder(dst in arb_mac(), src in arb_mac(),
                                           ethertype in any::<u16>(),
                                           payload in collection::vec(any::<u8>(), 0..600)) {
            let ethertype = if EtherType::from_u16(ethertype).is_vlan_tag() {
                EtherType::ARP
            } else {
                EtherType::from_u16(ethertype)
            };
            let owned =
                EthernetFrame::new(dst, src, ethertype, payload.clone()).encode();
            let pooled = eth_frame(dst, src, ethertype, &payload[..]);
            prop_assert_eq!(pooled.as_slice(), &owned[..]);
        }

        /// Streaming a byte string through `Checksum::add_bytes` in
        /// arbitrary chunks — odd-length ones included — folds to the
        /// same sum as one whole-buffer call. The incremental checksum
        /// must carry a dangling odd byte *across* calls, not pad each
        /// chunk independently.
        #[test]
        fn checksum_chunking_is_split_invariant(bytes in collection::vec(any::<u8>(), 0..300),
                                                cuts in collection::vec(any::<u16>(), 0..12)) {
            use arpshield::packet::Checksum;

            let mut whole = Checksum::new();
            whole.add_bytes(&bytes);

            // Random split points, sorted and clamped into range; runs
            // of equal cuts feed empty slices through the stream too.
            let mut splits: Vec<usize> =
                cuts.iter().map(|&c| c as usize % (bytes.len() + 1)).collect();
            splits.sort_unstable();
            let mut chunked = Checksum::new();
            let mut start = 0;
            for cut in splits {
                chunked.add_bytes(&bytes[start..cut]);
                start = cut;
            }
            chunked.add_bytes(&bytes[start..]);
            prop_assert_eq!(chunked.finish(), whole.finish());
        }
    }
}

/// VLAN flood-domain isolation on the switch: a broadcast classified
/// into one VLAN is delivered to every other member port of that VLAN
/// and to *no* port outside it, for arbitrary access-port VID layouts.
mod vlan_isolation {
    use super::*;
    use arpshield::netsim::{
        Device, DeviceCtx, PortVlan, Simulator, Switch, SwitchConfig, VlanSet,
    };
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::time::Duration;

    /// Sends one broadcast at start-up, records everything delivered.
    struct Station {
        emit: Option<Vec<u8>>,
        got: Rc<RefCell<Vec<Vec<u8>>>>,
    }

    impl Device for Station {
        fn name(&self) -> &str {
            "station"
        }
        fn port_count(&self) -> usize {
            1
        }
        fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
            if let Some(bytes) = self.emit.take() {
                ctx.send(PortId(0), bytes);
            }
        }
        fn on_frame(&mut self, _: &mut DeviceCtx<'_>, _: PortId, frame: &[u8]) {
            self.got.borrow_mut().push(frame.to_vec());
        }
    }

    properties! {
        /// Ports are assigned to VID 10 or VID 20 by an arbitrary mask
        /// (one trunk carrying only VID 10 rides along); a broadcast
        /// from a VID-10 access port reaches exactly the other VID-10
        /// members — never an access port on VID 20.
        #[test]
        fn broadcasts_never_cross_vlans(mask in any::<u8>(), src_idx in any::<u8>(),
                                        payload in collection::vec(any::<u8>(), 0..200)) {
            let ports = 8usize;
            let vids: Vec<u16> =
                (0..ports).map(|p| if mask & (1 << p) != 0 { 10 } else { 20 }).collect();
            // The sender sits on some VID-10 access port; force one to exist.
            let mut vids = vids;
            vids[src_idx as usize % ports] = 10;
            let src_port = src_idx as usize % ports;

            let mut vlans: Vec<PortVlan> =
                vids.iter().map(|&pvid| PortVlan::Access { pvid }).collect();
            vlans.push(PortVlan::Trunk { allowed: VlanSet::Only(vec![10]) });
            let (sw, _) = Switch::new(
                "sw",
                SwitchConfig { ports: ports + 1, vlans: Some(vlans), ..Default::default() },
            );

            let mut sim = Simulator::new(1);
            let sw = sim.add_device(Box::new(sw));
            let frame = EthernetFrame::new(
                MacAddr::BROADCAST,
                MacAddr::from_index(99),
                EtherType::Other(0x1234),
                payload,
            )
            .encode();
            let mut sinks = Vec::new();
            for p in 0..=ports {
                let got = Rc::new(RefCell::new(Vec::new()));
                let emit = (p == src_port).then(|| frame.clone());
                let station = sim.add_device(Box::new(Station { emit, got: Rc::clone(&got) }));
                sim.connect(station, PortId(0), sw, PortId(p as u16), Duration::from_micros(1))
                    .unwrap();
                sinks.push(got);
            }
            sim.run_until(SimTime::from_secs(1));

            for (p, got) in sinks.iter().enumerate() {
                let got = got.borrow();
                if p == src_port {
                    prop_assert!(got.is_empty(), "sender port {} heard its own flood", p);
                } else if p == ports {
                    // The trunk carries VID 10, so the copy arrives tagged.
                    prop_assert_eq!(got.len(), 1);
                    let parsed = EthernetView::parse_strict(&got[0]).unwrap();
                    prop_assert_eq!(parsed.vlan(), Some(10));
                } else if vids[p] == 10 {
                    prop_assert_eq!(got.len(), 1);
                    // Access egress is untagged: the sender's bytes verbatim.
                    prop_assert_eq!(&got[0][..], &frame[..]);
                } else {
                    prop_assert!(got.is_empty(), "VID-20 access port {} leaked a frame", p);
                }
            }
        }
    }
}

/// Adversary-controlled frames must never panic a host: arbitrary bytes,
/// and well-formed ARP/IPv4/UDP headers around random bodies, fed to a
/// static host and to a DHCP client, each carrying every host-resident
/// scheme hook in turn.
mod hostile_host_input {
    use super::*;
    use arpshield::crypto::Akd;
    use arpshield::host::dhcp::DhcpClientConfig;
    use arpshield::host::{Host, HostConfig, HostHook};
    use arpshield::netsim::StandaloneDriver;
    use arpshield::packet::{DHCP_CLIENT_PORT, DHCP_SERVER_PORT};
    use arpshield::schemes::sarp::AKD_PORT;
    use arpshield::schemes::{
        AlertLog, AnticapHook, AntidoteHook, SArpConfig, SArpHook, TarpConfig, TarpHook, Ticket,
    };
    use std::cell::RefCell;
    use std::rc::Rc;

    /// The S-ARP agent's key-request port, where AKD responses land.
    const SARP_CLIENT_PORT: u16 = 9613;

    fn ip(n: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, n)
    }

    /// `shape` picks the framing, `addrs` steers MACs and IPs toward the
    /// hosts, `word` fills ethertypes, opcodes and ports.
    fn hostile_frame((shape, addrs, word, body): &(u8, u8, u16, Vec<u8>)) -> Vec<u8> {
        let macs = [MacAddr::from_index(1), MacAddr::from_index(2), MacAddr::BROADCAST];
        let any_ip = Ipv4Addr::from_u32(u32::from(*word));
        let ips = [ip(1), ip(66), ip(254), Ipv4Addr::UNSPECIFIED, Ipv4Addr::BROADCAST, any_ip];
        let (dst, src) = (macs[usize::from(addrs % 3)], MacAddr::from_index(66));
        let (sip, tip) = (ips[usize::from(addrs >> 2) % 6], ips[usize::from(addrs >> 5) % 6]);
        let eth = |ethertype, payload| EthernetFrame::new(dst, src, ethertype, payload).encode();
        let ethertypes = [EtherType::ARP, EtherType::SArp, EtherType::Tarp, EtherType::Ipv4];
        match shape % 6 {
            0 => body.clone(),
            1 => eth(
                *ethertypes.get(usize::from(word % 5)).unwrap_or(&EtherType::Other(*word)),
                body.clone(),
            ),
            2 | 3 => {
                let op = if word & 0x100 == 0 { ArpOp::Request } else { ArpOp::Reply };
                let arp = ArpPacket {
                    op,
                    sender_mac: src,
                    sender_ip: sip,
                    target_mac: dst,
                    target_ip: tip,
                };
                let mut payload = arp.encode();
                payload.extend_from_slice(body);
                eth(ethertypes[usize::from(word % 3)], payload)
            }
            4 => eth(
                EtherType::Ipv4,
                Ipv4Packet::new(sip, tip, IpProtocol::from_u8(*word as u8), body.clone()).encode(),
            ),
            _ => {
                let (sp, dp) = [
                    (AKD_PORT, SARP_CLIENT_PORT),
                    (DHCP_SERVER_PORT, DHCP_CLIENT_PORT),
                    (DHCP_CLIENT_PORT, DHCP_SERVER_PORT),
                    (*word, word.rotate_left(4)),
                ][usize::from(word % 4)];
                let udp = UdpDatagram::new(sp, dp, body.clone()).encode(sip, tip);
                eth(EtherType::Ipv4, Ipv4Packet::new(sip, tip, IpProtocol::Udp, udp).encode())
            }
        }
    }

    /// A fresh hook of scheme `kind` for the host at `addr`/`mac`. The
    /// static host's S-ARP agent answers key lookups from a local AKD
    /// registry; the DHCP client's fetches them over the wire.
    fn hook(kind: usize, addr: Ipv4Addr, mac: MacAddr) -> Box<dyn HostHook> {
        let log = AlertLog::new();
        match kind {
            0 => {
                let mut akd = Akd::new();
                for n in [1, 66] {
                    akd.register(ip(n).to_u32(), KeyPair::from_seed(u64::from(n)).public_key());
                }
                let config = SArpConfig {
                    keypair: KeyPair::from_seed(u64::from(addr.octets()[3])),
                    akd_ip: ip(254),
                    akd_mac: MacAddr::from_index(254),
                    akd_key: KeyPair::from_seed(254).public_key(),
                    max_age: Duration::from_secs(1),
                    local_akd: (addr == ip(1)).then(|| Rc::new(RefCell::new(akd))),
                    unit_cost: Duration::from_micros(1),
                    key_fetch_retries: 2,
                    key_fetch_timeout: Duration::from_millis(50),
                };
                Box::new(SArpHook::new(config, log))
            }
            1 => {
                let lta = KeyPair::from_seed(77);
                let ticket = Ticket::issue(&lta, addr, mac, SimTime::from_secs(60));
                let unit_cost = Duration::from_micros(1);
                Box::new(TarpHook::new(
                    TarpConfig { ticket, lta_key: lta.public_key(), unit_cost },
                    log,
                ))
            }
            2 => Box::new(AnticapHook::new(log)),
            _ => Box::new(AntidoteHook::new(log).with_probe_retries(1)),
        }
    }

    properties! {
        #[test]
        fn hosts_and_hooks_survive_hostile_frames(
            specs in collection::vec(
                (any::<u8>(), any::<u8>(), any::<u16>(), collection::vec(any::<u8>(), 0..1600)),
                1..12,
            ),
        ) {
            let frames: Vec<Vec<u8>> = specs.iter().map(hostile_frame).collect();
            for kind in 0..4 {
                let subnet = Ipv4Cidr::new(ip(0), 24);
                let (mac1, mac2) = (MacAddr::from_index(1), MacAddr::from_index(2));
                let hosts = [
                    (HostConfig::static_ip("victim", mac1, ip(1), subnet), ip(1)),
                    (HostConfig::dhcp("client", mac2, DhcpClientConfig::default()), ip(2)),
                ];
                for (config, addr) in hosts {
                    let mac = config.mac;
                    let (mut host, _) = Host::new(config);
                    host.add_hook(hook(kind, addr, mac));
                    let mut runner = StandaloneDriver::new(3);
                    runner.start(&mut host);
                    for (i, frame) in frames.iter().enumerate() {
                        let at = SimTime::from_micros(100 * (i as u64 + 1));
                        runner.deliver(&mut host, at, PortId(0), frame);
                    }
                    runner.advance_to(&mut host, SimTime::from_secs(2));
                }
            }
        }
    }
}

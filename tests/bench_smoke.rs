//! Smoke-tests the bench pipeline end to end: a 1-iteration run of the
//! in-tree harness must produce a `results/bench/*.json` artifact that
//! parses and carries the statistics the perf trajectory consumes.

use arpshield::packet::{ArpPacket, EtherType, EthernetFrame, EthernetView, Ipv4Addr, MacAddr};
use arpshield_testkit::{json, BenchConfig, Criterion, Throughput};

#[test]
fn one_iteration_bench_run_emits_parseable_json() {
    let frame = EthernetFrame::new(
        MacAddr::BROADCAST,
        MacAddr::from_index(1),
        EtherType::ARP,
        ArpPacket::request(
            MacAddr::from_index(1),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
        )
        .encode(),
    )
    .encode();

    // Exactly what `TESTKIT_BENCH_SMOKE=1 cargo bench` does per bench:
    // 1 iteration, 1 sample, no warmup.
    let mut criterion = Criterion::with_config(BenchConfig::smoke());
    {
        let mut group = criterion.benchmark_group("smoke");
        group.throughput(Throughput::Bytes(frame.len() as u64));
        group.bench_function("parse_eth_arp", |b| {
            b.iter(|| {
                let eth = EthernetView::parse_strict(&frame).unwrap();
                ArpPacket::parse(eth.payload()).unwrap()
            })
        });
        group.finish();
    }

    let path = criterion.write_summary("smoke").expect("summary must be writable");
    assert!(path.ends_with("results/bench/smoke.json"), "unexpected path {path:?}");

    let text = std::fs::read_to_string(&path).expect("artifact must exist");
    let doc = json::parse(&text).expect("artifact must be valid JSON");
    assert_eq!(doc.get("schema").and_then(|s| s.as_str()), Some("arpshield-bench-v1"));

    let results = doc.get("results").and_then(|r| r.as_arr()).expect("results array");
    assert_eq!(results.len(), 1);
    let record = &results[0];
    assert_eq!(record.get("group").and_then(|v| v.as_str()), Some("smoke"));
    assert_eq!(record.get("id").and_then(|v| v.as_str()), Some("parse_eth_arp"));
    assert_eq!(record.get("iters_per_sample").and_then(|v| v.as_num()), Some(1.0));
    for key in ["mean_ns", "median_ns", "min_ns", "max_ns", "stddev_ns"] {
        let value = record.get(key).and_then(|v| v.as_num());
        assert!(value.is_some_and(|v| v >= 0.0), "{key} missing or negative: {value:?}");
    }
    let throughput = record.get("throughput").expect("throughput annotation");
    assert_eq!(throughput.get("kind").and_then(|v| v.as_str()), Some("bytes"));
    assert!(throughput.get("per_sec").and_then(|v| v.as_num()).unwrap() > 0.0);
}

//! The flight recorder's promises, pinned end to end:
//!
//! 1. **Capture is inert**: arming the frame ring changes neither the
//!    experiment CSVs nor the simulation itself, and the exported
//!    pcapng + index are byte-identical at any `ARPSHIELD_THREADS`.
//! 2. **Verdicts carry provenance**: every `scheme.verdict.*` event in
//!    a captured attack run cites at least one frame, every cited
//!    frame survives ring eviction (pinning), and the pcapng streams
//!    back with one interface per run.
//! 3. **Capture off means nothing recorded**: sections hold no frames
//!    and manifests don't even mention them.

use std::sync::Arc;

use arpshield::analysis::experiment::t2_susceptibility;
use arpshield::analysis::scenario::{AttackScenario, ScenarioConfig};
use arpshield::attacks::PoisonVariant;
use arpshield::schemes::SchemeKind;
use arpshield::trace::pcapng::PcapngStream;
use arpshield::trace::{install, TraceCollector};

#[test]
fn capture_is_inert_and_thread_count_independent() {
    let plain = t2_susceptibility(21).to_csv();

    let captured = |threads: &str| {
        std::env::set_var("ARPSHIELD_THREADS", threads);
        let collector = Arc::new(TraceCollector::with_capture(512));
        let csv = {
            let _guard = install(collector.clone());
            t2_susceptibility(21).to_csv()
        };
        std::env::remove_var("ARPSHIELD_THREADS");
        let manifest = collector.manifest("t2");
        (csv, manifest.to_pcapng(), manifest.to_capture_index())
    };
    let (csv_seq, pcap_seq, index_seq) = captured("1");
    let (csv_par, pcap_par, index_par) = captured("4");

    assert_eq!(plain, csv_seq, "arming the flight recorder must not change the experiment");
    assert_eq!(csv_seq, csv_par, "the experiment itself is thread-count independent");
    assert_eq!(pcap_seq, pcap_par, "pcapng export is byte-identical at any thread count");
    assert_eq!(index_seq, index_par, "capture index is byte-identical at any thread count");
    assert!(!pcap_seq.is_empty());
}

#[test]
fn attack_capture_pins_verdict_provenance() {
    let collector = Arc::new(TraceCollector::with_capture(64));
    {
        let _guard = install(collector.clone());
        let run = AttackScenario::poisoning(
            ScenarioConfig::new(31).with_hosts(3).with_scheme(SchemeKind::Passive),
            PoisonVariant::GratuitousReply,
        )
        .run();
        assert!(!run.lan.alerts.is_empty(), "passive scheme must detect the forgery");
    }
    let manifest = collector.manifest("attack-capture");
    assert_eq!(manifest.runs.len(), 1);
    let run = &manifest.runs[0];

    // A 64-frame ring on a 12-second poisoning run must wrap: eviction
    // is exercised, yet every frame a verdict cites is still here.
    assert!(run.frames_evicted > 0, "ring must have wrapped (capacity 64)");
    assert!(!run.frames.is_empty());
    let ids: std::collections::HashSet<u64> = run.frames.iter().map(|f| f.id).collect();
    let verdicts: Vec<_> =
        run.events.iter().filter(|e| e.category.starts_with("scheme.verdict")).collect();
    assert!(!verdicts.is_empty(), "the attack run must log verdicts");
    for verdict in &verdicts {
        assert!(
            !verdict.frames.is_empty(),
            "every verdict must cite its provenance frames: {verdict:?}"
        );
        for id in &verdict.frames {
            assert!(ids.contains(id), "cited frame #{id} must survive eviction");
            let frame = run.frames.iter().find(|f| f.id == *id).unwrap();
            assert!(frame.pinned, "cited frame #{id} must be pinned");
        }
    }

    // The export streams back with one named interface per run and
    // every packet's octets intact.
    let pcap = manifest.to_pcapng();
    let mut stream = PcapngStream::new(pcap.as_slice());
    let mut frames = run.frames.iter();
    while let Some(packet) = stream.next_packet().expect("export must stream back") {
        let frame = frames.next().expect("no more packets than recorded frames");
        assert_eq!(packet.interface, 0);
        assert_eq!(packet.ts_ns, frame.at_ns);
        assert_eq!(packet.bytes, frame.bytes, "octets survive the pcapng round-trip");
        assert!(packet.comment.contains(&format!("id={}", frame.id)));
    }
    assert!(frames.next().is_none(), "every recorded frame is exported");
    assert!(stream.warnings().is_empty());
    assert_eq!(stream.interfaces(), std::slice::from_ref(&run.label));

    let index = manifest.to_capture_index();
    assert!(index.contains("\"arpshield-capture/1\""));
    assert!(index.contains("\"scheme.verdict\""));
    assert!(index.contains("kind=binding_changed"));
}

#[test]
fn capture_off_records_no_frames() {
    let collector = Arc::new(TraceCollector::new());
    {
        let _guard = install(collector.clone());
        AttackScenario::poisoning(
            ScenarioConfig::new(31).with_hosts(3).with_scheme(SchemeKind::Passive),
            PoisonVariant::GratuitousReply,
        )
        .run();
    }
    let manifest = collector.manifest("no-capture");
    for run in &manifest.runs {
        assert!(run.frames.is_empty(), "no capture requested, no frames recorded");
        assert_eq!(run.frames_evicted, 0);
        assert!(!run.body.contains("\"frames\":"), "trace-only manifests must not mention frames");
    }
    assert!(!manifest.to_json().contains("\"frames\":"));
}

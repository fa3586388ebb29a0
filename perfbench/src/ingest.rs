//! `ingest`: the synthetic mirror-port capture streamed through
//! `PcapngStream` into all six default standalone detectors, frame by
//! frame, as `reproduce ingest` does.
//!
//! This is the only workload for `trace::pcapng` and the standalone
//! `schemes`. Its scan phase makes detector state grow instead of
//! serving lookups into stable state, so the traced run splits each
//! detector's time by phase: a per-frame cost that grows with state
//! shows as a scan/lan gap.

use std::time::Instant;

use arpshield_netsim::SimTime;
use arpshield_schemes::{AlertKind, Detector};
use arpshield_trace::pcapng::PcapngStream;

use crate::capture::{self, Capture};
use crate::report::{self, median, Outputs, Report, TRACED};
use crate::{alloc, calib, RunConfig};

/// Detector constructions timed per pass; `setup_s` is their median.
const SETUP_REPEATS: usize = 32;

/// Busy-time buckets of a traced pass: the pcapng reader, then one per
/// (phase, detector), then the detectors' end-of-capture `finish`. A
/// span covers one call into a layer and nothing around it, so the
/// benchmark's own glue (the frame copy, the phase branch) stays
/// outside every bucket and shows as coverage below 1.
struct Spans {
    on: bool,
    busy_ns: Vec<u64>,
}

impl Spans {
    fn start(&self) -> Option<Instant> {
        self.on.then(Instant::now)
    }

    fn stop(&mut self, bucket: usize, start: Option<Instant>) {
        if let Some(t0) = start {
            self.busy_ns[bucket] += t0.elapsed().as_nanos() as u64;
        }
    }
}

struct Pass {
    /// Median detector construction and the whole stream, each as (raw,
    /// calibrated) seconds.
    setup: (f64, f64),
    wall: (f64, f64),
    busy_ns: Vec<u64>,
    lan_frames: u64,
    scan_frames: u64,
    packets: u64,
    bytes: u64,
    allocs: u64,
    /// Per detector, in `Detector::supported()` order.
    alerts: Vec<u64>,
    timers: Vec<u64>,
    probes: Vec<u64>,
    outputs: Outputs,
}

fn open(cap: &Capture) -> (Vec<Detector>, PcapngStream<&[u8]>) {
    let detectors = Detector::supported()
        .into_iter()
        .map(|kind| Detector::new(kind).expect("every supported kind constructs"))
        .collect();
    (detectors, PcapngStream::new(cap.pcapng.as_slice()))
}

fn pass(cap: &Capture, traced: bool, report: &mut Report) -> Pass {
    let mut clock = calib::Clock::start();
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut opened = None;
    for _ in 0..SETUP_REPEATS {
        drop(opened.take());
        let t0 = Instant::now();
        opened = Some(std::hint::black_box(open(cap)));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let (raw, calibrated) = clock.lap();
    let setup = (median(&setups), median(&setups) * calibrated / raw);
    let (mut detectors, mut stream) = opened.expect("at least one construction");
    let n = detectors.len();
    let finish_bucket = 1 + 2 * n;

    let allocs_before = alloc::count();
    let mut frame = Vec::new();
    let (mut lan_frames, mut scan_frames) = (0, 0);
    let mut spans = Spans { on: traced, busy_ns: vec![0; finish_bucket + 1] };
    loop {
        let t0 = spans.start();
        let next = stream.next_packet();
        spans.stop(0, t0);
        let ts_ns = match next {
            Ok(Some(pkt)) => {
                frame.clear();
                frame.extend_from_slice(pkt.bytes);
                pkt.ts_ns
            }
            Ok(None) => break,
            Err(e) => {
                report.check("pcapng.stream", false, e);
                break;
            }
        };
        let phase = if ts_ns < cap.scan_start_ns {
            lan_frames += 1;
            0
        } else {
            scan_frames += 1;
            n
        };
        let at = SimTime::from_nanos(ts_ns);
        for (i, detector) in detectors.iter_mut().enumerate() {
            let t0 = spans.start();
            detector.observe(at, &frame);
            spans.stop(1 + phase + i, t0);
        }
        clock.tick();
    }
    let t0 = spans.start();
    for detector in &mut detectors {
        detector.finish();
    }
    spans.stop(finish_bucket, t0);
    let wall = clock.lap();
    let allocs = alloc::count() - allocs_before;

    let stats = stream.stats();
    report.check("pcapng.warnings", stream.warnings().is_empty(), stream.warnings().join("; "));
    report.check_eq("pcapng.packets", stats.packets, cap.frames);
    let mut outputs = Outputs::new();
    outputs.insert("capture.digest".into(), format!("{:016x}", report::fnv1a(&cap.pcapng)));
    outputs.insert("pcapng.bytes".into(), stats.bytes.to_string());
    if traced {
        outputs.insert(format!("{TRACED}alloc.per_pass"), allocs.to_string());
    }
    let (mut alerts, mut timers, mut probes) = (Vec::new(), Vec::new(), Vec::new());
    for detector in &detectors {
        let kind = detector.kind().label();
        let s = detector.stats();
        let raised = detector.alerts();
        report.check_eq(&format!("{kind}.frames"), s.frames, cap.frames);
        report.check_eq(&format!("{kind}.unparseable"), s.unparseable, cap.runts);
        report.check_eq(&format!("{kind}.vlan_tagged"), s.vlan_tagged, cap.tagged);
        report.check_eq(&format!("{kind}.jumbo"), s.jumbo, cap.jumbos);
        if matches!(kind, "passive" | "dai") {
            // Ground truth: each planted claim raises an alert naming
            // the victim's IP and the attacker's MAC at the claim's time.
            let missed = cap
                .plants
                .iter()
                .filter(|p| {
                    !raised.iter().any(|a| {
                        a.at.as_nanos() == p.ts_ns
                            && a.subject_ip == Some(p.victim)
                            && a.observed_mac == Some(p.attacker)
                    })
                })
                .count();
            report.check_eq(&format!("{kind}.plants_missed"), missed, 0);
        }
        if kind == "dai" {
            // Every station holds a snooped lease, so only the planted
            // claims violate it.
            let violations = raised.iter().filter(|a| a.kind == AlertKind::DaiViolation).count();
            report.check_eq("dai.violations", violations, cap.plants.len());
        }
        let histogram: Vec<String> =
            detector.verdict_histogram().iter().map(|(k, v)| format!("{k}={v}")).collect();
        outputs.insert(format!("{kind}.alerts"), raised.len().to_string());
        outputs.insert(format!("{kind}.verdicts"), histogram.join(","));
        outputs.insert(format!("{kind}.timers_fired"), s.timers_fired.to_string());
        outputs.insert(format!("{kind}.probes"), s.probes_emitted.to_string());
        outputs.insert(format!("{kind}.denied"), s.denied.to_string());
        alerts.push(raised.len() as u64);
        timers.push(s.timers_fired);
        probes.push(s.probes_emitted);
    }
    Pass {
        setup,
        wall,
        busy_ns: spans.busy_ns,
        lan_frames,
        scan_frames,
        packets: stats.packets,
        bytes: stats.bytes,
        allocs,
        alerts,
        timers,
        probes,
        outputs,
    }
}

pub fn run(cfg: &RunConfig) -> Report {
    let mut report = Report::new("ingest");
    let expected = report::recorded(include_str!("../expected/ingest.tsv"), cfg.seed);
    let cap = capture::generate(cfg.seed);
    if cfg.record {
        report::print_record(cfg.seed, |traced| pass(&cap, traced, &mut report).outputs);
        return report;
    }
    report.extra("capture.frames", cap.frames as f64, "count");
    report.extra("capture.plants", cap.plants.len() as f64, "count");
    let lan_secs = cap.scan_start_ns as f64 / 1e9 - 1.0;
    report.extra("capture.lan_frames_per_s", cap.lan_frames as f64 / lan_secs, "1/s");

    let budget = cfg.budget(cfg.trace);
    let plain = report::repeat(budget, 3, || report::isolated(|| pass(&cap, false, &mut report)));
    let traced = if cfg.trace {
        alloc::set_counting(true);
        let traced =
            report::repeat(budget, 3, || report::isolated(|| pass(&cap, true, &mut report)));
        alloc::set_counting(false);
        traced
    } else {
        Vec::new()
    };
    let passes: Vec<&Pass> = plain.iter().chain(&traced).collect();
    let outputs =
        |passes: &[Pass]| -> Vec<Outputs> { passes.iter().map(|p| p.outputs.clone()).collect() };
    report.check_passes(&outputs(&plain), &outputs(&traced), expected.as_ref());

    report.timing("setup_s", &passes.iter().map(|p| p.setup).collect::<Vec<_>>());
    let wall_s = report.timing("wall_s", &plain.iter().map(|p| p.wall).collect::<Vec<_>>());
    report.metric("frames_per_s", cap.frames as f64 / wall_s, "1/s");

    if cfg.trace {
        let traced_wall = median(&traced.iter().map(|p| p.wall.1).collect::<Vec<_>>());
        report.metric("trace.overhead", traced_wall / wall_s, "ratio");
        let coverage: Vec<f64> =
            traced.iter().map(|p| p.busy_ns.iter().sum::<u64>() as f64 / 1e9 / p.wall.0).collect();
        crate::check_coverage(&mut report, median(&coverage));
        let t = &traced[0];
        let per = |bucket: usize, frames: u64| {
            median(&traced.iter().map(|p| p.busy_ns[bucket] as f64).collect::<Vec<_>>())
                / frames.max(1) as f64
        };
        report.metric("pcapng.ns_per_packet", per(0, t.packets), "ns");
        report.metric("pcapng.packets", t.packets as f64, "count");
        report.metric("pcapng.bytes", t.bytes as f64, "B");
        let kinds = Detector::supported();
        for (i, kind) in kinds.iter().enumerate() {
            let kind = kind.label();
            report.metric(
                format!("detector.{kind}.lan.ns_per_frame"),
                per(1 + i, t.lan_frames),
                "ns",
            );
            let scan = per(1 + kinds.len() + i, t.scan_frames);
            report.metric(format!("detector.{kind}.scan.ns_per_frame"), scan, "ns");
            report.metric(format!("detector.{kind}.alerts"), t.alerts[i] as f64, "count");
            report.metric(format!("detector.{kind}.timers_fired"), t.timers[i] as f64, "count");
            report.metric(format!("detector.{kind}.probes"), t.probes[i] as f64, "count");
        }
        report.metric("alloc.per_frame", t.allocs as f64 / t.packets as f64, "count");
        report.metric("alloc.per_pass", t.allocs as f64, "count");
    }
    report.metric("peak_rss_mb", report::peak_rss_mb(), "MB");
    report
}

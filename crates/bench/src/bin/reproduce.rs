//! Regenerates every table and figure of the evaluation.
//!
//! ```text
//! reproduce                   # run everything
//! reproduce t3 f1             # run a subset by id
//! reproduce --out DIR         # also write CSVs (default: results/)
//! reproduce t6s --defend      # also run the DAI-defended scale sweep (id t6sd)
//! reproduce --trace t2        # additionally write results/trace/t2.{json,csv,hist.csv}
//! reproduce --capture t2      # additionally write results/capture/t2.{pcapng,index.json}
//! reproduce --profile t6s     # additionally write results/profile/t6s.{json,csv}
//! reproduce validate-trace P… # check trace manifests (files and/or directories) and exit
//! reproduce inspect FILE      # decode a .pcapng capture into a forensic timeline
//! reproduce ingest FILE…      # stream captures through the schemes as online detectors
//! reproduce profile-report F  # render a profile JSON as a self-time table
//! ```
//!
//! `--trace` installs a per-experiment trace collector around each
//! experiment, so every simulated run flushes its sim-time-stamped
//! counters, histograms, and events into one manifest per experiment
//! id under `<out>/trace/`. `--capture` additionally arms the flight
//! recorder: every wire frame lands in a bounded per-run ring
//! (capacity via `ARPSHIELD_RECORD_FRAMES`), exported as a standard
//! pcapng (openable in Wireshark) plus a JSON index tying scheme
//! verdicts to the frames that triggered them. The experiment CSVs
//! themselves are byte-identical with and without either flag.
//!
//! `--profile` wraps each experiment in the span-scoped wall-clock
//! profiler from `crates/trace`: hierarchical self/total times and
//! call counts for the simulator, switch, scheme, and pool hot paths,
//! plus sampled runtime gauges. Wall-clock data is quarantined to the
//! `<out>/profile/` sidecars and stderr — the experiment CSVs stay
//! byte-identical with and without `--profile` at any thread count.
//!
//! `inspect` joins a capture with its `.index.json` sidecar into a
//! per-run timeline interleaving frames, cache/CAM mutations, and
//! scheme verdicts; `--host S`, `--mac S`, and `--verdict S` narrow it.
//!
//! `ingest` streams pcapng files (arpshield's own or foreign ones) in
//! constant memory through any monitor-class scheme running standalone.
//! `--scheme K` picks detectors (default: all supported), `--vantage S`
//! replays only frames a live run delivered to device `S` — from a
//! monitor's vantage point this reproduces the live run's verdict
//! counters byte-for-byte — and `--capture` re-records the ingested
//! frames with the new detectors' alert provenance.

use std::collections::HashMap;
use std::fs;
use std::io::{BufReader, Read};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use arpshield_core::experiment::{
    f1_detection_latency, f2_overhead, f3_resolution_latency, f4_poisoned_time, f5_passive_scale,
    f6_flood_dynamics, f6_starvation_dynamics, t2_susceptibility, t3_coverage, t4_false_positives,
    t5_cost, t5_resilience, t6_dos_coverage, t6_scale, t6_scale_defended, T6S_SIZES,
};
use arpshield_core::{taxonomy, Series, Table};
use arpshield_netsim::SimTime;
use arpshield_packet::{ArpOp, ArpPacket, EtherType, EthernetView};
use arpshield_schemes::{Detector, SchemeKind};
use arpshield_trace::pcapng::PcapngStream;
use arpshield_trace::{profile, Heartbeat, ProfileCollector, TraceCollector, Tracer};

const SEED: u64 = 20070625; // the venue's year, as a nod

struct Output {
    out_dir: PathBuf,
    trace: bool,
    /// Flight-recorder ring capacity; `Some` arms `--capture`.
    capture: Option<usize>,
    profile: bool,
}

impl Output {
    /// Runs one experiment under the requested telemetry: `--trace`/
    /// `--capture` manifests land in `<out>/trace/` and `<out>/capture/`,
    /// `--profile` span/gauge reports in `<out>/profile/<id>.{json,csv}`.
    fn traced<T>(&self, id: &str, f: impl FnOnce() -> T) -> T {
        if !self.profile {
            return self.trace_collected(id, f);
        }
        // The profiler wraps the trace collector so worker threads see
        // both. No root span opens here: the per-job spans inside each
        // experiment are the tree roots, so profile paths are identical
        // whether jobs run inline (ARPSHIELD_THREADS=1) or on workers.
        let collector = Arc::new(arpshield_trace::ProfileCollector::new());
        let started = Instant::now();
        let result = {
            let _guard = arpshield_trace::profile::install(collector.clone());
            self.trace_collected(id, f)
        };
        let wall_ns = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let report = collector.report(id, wall_ns);
        self.write_artifacts(
            "profile",
            &[
                (format!("{id}.json"), report.to_json().into_bytes()),
                (format!("{id}.csv"), report.to_csv().into_bytes()),
            ],
        );
        result
    }

    /// Runs one experiment, optionally under a fresh trace collector
    /// whose manifest lands in `<out>/trace/<id>.{json,csv,hist.csv}`
    /// and whose capture lands in `<out>/capture/<id>.{pcapng,index.json}`.
    fn trace_collected<T>(&self, id: &str, f: impl FnOnce() -> T) -> T {
        if !self.trace && self.capture.is_none() {
            return f();
        }
        let collector = Arc::new(match self.capture {
            Some(capacity) => TraceCollector::with_capture(capacity),
            None => TraceCollector::new(),
        });
        let result = {
            let _guard = arpshield_trace::install(collector.clone());
            f()
        };
        let manifest = collector.manifest(id);
        if self.trace {
            self.write_artifacts(
                "trace",
                &[
                    (format!("{id}.json"), manifest.to_json().into_bytes()),
                    (format!("{id}.csv"), manifest.to_counters_csv().into_bytes()),
                    (format!("{id}.hist.csv"), manifest.to_histograms_csv().into_bytes()),
                ],
            );
        }
        if self.capture.is_some() {
            self.write_artifacts(
                "capture",
                &[
                    (format!("{id}.pcapng"), manifest.to_pcapng()),
                    (format!("{id}.index.json"), manifest.to_capture_index().into_bytes()),
                ],
            );
        }
        result
    }

    fn write_artifacts(&self, subdir: &str, files: &[(String, Vec<u8>)]) {
        let dir = self.out_dir.join(subdir);
        if let Err(e) = fs::create_dir_all(&dir) {
            eprintln!("warning: could not create {}: {e}", dir.display());
            return;
        }
        for (name, body) in files {
            let path = dir.join(name);
            if let Err(e) = fs::write(&path, body) {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
        }
    }

    fn table(&self, id: &str, make: impl FnOnce() -> Table) {
        let table = self.traced(id, make);
        println!("{}", table.render());
        let path = self.out_dir.join(format!("{id}.csv"));
        if let Err(e) = fs::write(&path, table.to_csv()) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }

    fn series(&self, id: &str, make: impl FnOnce() -> Vec<Series>) {
        let series = self.traced(id, make);
        for (i, s) in series.iter().enumerate() {
            println!("{}", s.render());
            let path = self.out_dir.join(format!("{id}_{i}.csv"));
            if let Err(e) = fs::write(&path, s.to_csv()) {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
        }
    }
}

/// Checks that `path` holds a well-formed `arpshield-trace/1` manifest.
///
/// Returns a human-readable error naming the first violated invariant.
fn validate_trace_manifest(path: &str) -> Result<String, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = arpshield_testkit::json::parse(&text).map_err(|e| format!("invalid JSON: {e}"))?;
    let schema = doc
        .get("schema")
        .and_then(|v| v.as_str())
        .ok_or("missing string field `schema`".to_string())?;
    if schema != "arpshield-trace/1" {
        return Err(format!("unknown schema {schema:?}"));
    }
    doc.get("experiment")
        .and_then(|v| v.as_str())
        .ok_or("missing string field `experiment`".to_string())?;
    let unit = doc
        .get("time_unit")
        .and_then(|v| v.as_str())
        .ok_or("missing string field `time_unit`".to_string())?;
    if unit != "ns" {
        return Err(format!("unexpected time_unit {unit:?}"));
    }
    doc.get("totals").ok_or("missing field `totals`".to_string())?;
    doc.get("warnings")
        .and_then(|v| v.as_arr())
        .ok_or("missing array field `warnings`".to_string())?;
    let runs =
        doc.get("runs").and_then(|v| v.as_arr()).ok_or("missing array field `runs`".to_string())?;
    for (i, run) in runs.iter().enumerate() {
        run.get("label")
            .and_then(|v| v.as_str())
            .ok_or(format!("run {i}: missing string field `label`"))?;
        run.get("counters").ok_or(format!("run {i}: missing field `counters`"))?;
        let events = run
            .get("events")
            .and_then(|v| v.as_arr())
            .ok_or(format!("run {i}: missing array field `events`"))?;
        for (j, event) in events.iter().enumerate() {
            event
                .get("at_ns")
                .and_then(|v| v.as_num())
                .ok_or(format!("run {i} event {j}: missing numeric field `at_ns`"))?;
        }
    }
    Ok(format!("{path}: valid arpshield-trace/1 manifest with {} run(s)", runs.len()))
}

/// Expands a mix of file and directory arguments into the sorted list
/// of manifest files to validate: directories contribute every
/// `*.json` beneath them (recursively), explicit files pass through.
fn collect_manifest_paths(arg: &Path, found: &mut Vec<PathBuf>) -> Result<(), String> {
    if !arg.is_dir() {
        found.push(arg.to_path_buf());
        return Ok(());
    }
    let entries = fs::read_dir(arg).map_err(|e| format!("cannot read {}: {e}", arg.display()))?;
    let mut children: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    children.sort();
    for child in children {
        if child.is_dir() {
            collect_manifest_paths(&child, found)?;
        } else if child.extension().is_some_and(|ext| ext == "json") {
            found.push(child);
        }
    }
    Ok(())
}

fn run_validate_trace(paths: &[String]) -> i32 {
    let mut files = Vec::new();
    for arg in paths {
        if let Err(e) = collect_manifest_paths(Path::new(arg), &mut files) {
            eprintln!("error: {e}");
            return 1;
        }
    }
    if files.is_empty() {
        eprintln!("error: no manifest files found under the given paths");
        return 1;
    }
    let mut failed = 0usize;
    for file in &files {
        match validate_trace_manifest(&file.display().to_string()) {
            Ok(report) => println!("{report}"),
            Err(e) => {
                eprintln!("error: {}: {e}", file.display());
                failed += 1;
            }
        }
    }
    if failed > 0 {
        eprintln!("{failed} of {} manifest(s) failed validation", files.len());
        1
    } else {
        0
    }
}

// ---------------------------------------------------------------------
// `profile-report`: render a profile JSON as a self-time table.
// ---------------------------------------------------------------------

/// Loads an `arpshield-profile/1` report and prints its spans sorted by
/// self time (where the wall clock actually went), then the sampled
/// runtime gauges. Returns a human-readable error for malformed input.
fn run_profile_report(path: &str) -> Result<(), String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc =
        arpshield_testkit::json::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    let schema = doc
        .get("schema")
        .and_then(|v| v.as_str())
        .ok_or_else(|| format!("{path}: missing string field `schema`"))?;
    if schema != arpshield_trace::PROFILE_SCHEMA {
        return Err(format!(
            "{path}: unknown schema {schema:?} (expected {:?})",
            arpshield_trace::PROFILE_SCHEMA
        ));
    }
    let experiment = doc.get("experiment").and_then(|v| v.as_str()).unwrap_or("?").to_string();
    let wall_ns = doc.get("wall_ns").and_then(|v| v.as_num()).unwrap_or(0.0);
    let self_total_ns = doc.get("self_total_ns").and_then(|v| v.as_num()).unwrap_or(0.0);
    let spans = doc
        .get("spans")
        .and_then(|v| v.as_arr())
        .ok_or_else(|| format!("{path}: missing array field `spans`"))?;

    struct Row {
        path: String,
        count: u64,
        total_ns: f64,
        self_ns: f64,
    }
    let mut rows = Vec::new();
    for (i, span) in spans.iter().enumerate() {
        rows.push(Row {
            path: span
                .get("path")
                .and_then(|v| v.as_str())
                .ok_or_else(|| format!("{path}: span {i}: missing string field `path`"))?
                .to_string(),
            count: span.get("count").and_then(|v| v.as_num()).unwrap_or(0.0) as u64,
            total_ns: span.get("total_ns").and_then(|v| v.as_num()).unwrap_or(0.0),
            self_ns: span.get("self_ns").and_then(|v| v.as_num()).unwrap_or(0.0),
        });
    }
    rows.sort_by(|a, b| b.self_ns.total_cmp(&a.self_ns).then_with(|| a.path.cmp(&b.path)));

    let wall_s = wall_ns / 1e9;
    let coverage = if wall_ns > 0.0 { 100.0 * self_total_ns / wall_ns } else { 0.0 };
    println!("profile: {experiment} ({schema})");
    println!(
        "wall {wall_s:.3}s; {} span path(s) accounting {:.3}s self time ({coverage:.1}% coverage)\n",
        rows.len(),
        self_total_ns / 1e9,
    );
    let path_width = rows.iter().map(|r| r.path.len()).chain(["span".len()].into_iter()).max();
    let path_width = path_width.unwrap_or(4);
    println!(
        "{:<path_width$}  {:>12}  {:>12}  {:>12}  {:>7}",
        "span", "count", "total_ms", "self_ms", "self_%"
    );
    for row in &rows {
        let pct = if wall_ns > 0.0 { 100.0 * row.self_ns / wall_ns } else { 0.0 };
        println!(
            "{:<path_width$}  {:>12}  {:>12.3}  {:>12.3}  {:>6.1}%",
            row.path,
            row.count,
            row.total_ns / 1e6,
            row.self_ns / 1e6,
            pct,
        );
    }
    let gauges = doc.get("gauges").and_then(|v| v.as_arr()).unwrap_or_default();
    if !gauges.is_empty() {
        println!();
        println!(
            "{:<path_width$}  {:>12}  {:>12}  {:>12}  {:>12}",
            "gauge", "samples", "min", "max", "mean"
        );
        for gauge in gauges {
            let name = gauge.get("name").and_then(|v| v.as_str()).unwrap_or("?");
            let samples = gauge.get("samples").and_then(|v| v.as_num()).unwrap_or(0.0);
            let min = gauge.get("min").and_then(|v| v.as_num()).unwrap_or(0.0);
            let max = gauge.get("max").and_then(|v| v.as_num()).unwrap_or(0.0);
            let sum = gauge.get("sum").and_then(|v| v.as_num()).unwrap_or(0.0);
            let mean = if samples > 0.0 { sum / samples } else { 0.0 };
            println!(
                "{name:<path_width$}  {:>12}  {:>12}  {:>12}  {mean:>12.1}",
                samples as u64, min as u64, max as u64,
            );
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// `inspect`: the forensic timeline.
// ---------------------------------------------------------------------

/// One frame row, reassembled from a pcapng packet and its comment.
struct FrameLine {
    id: u64,
    at_ns: u64,
    kind: String,
    src: String,
    dst: String,
    len: usize,
    pinned: bool,
    decoded: String,
}

/// One event row from the capture index.
struct EventLine {
    at_ns: u64,
    category: String,
    actor: String,
    detail: String,
    frames: Vec<u64>,
}

/// Splits a writer comment (`id=N kind=K src=S dst=D [pinned]`) into
/// its fields; tolerates foreign captures with free-form comments.
fn parse_frame_comment(comment: &str) -> (Option<u64>, String, String, String, bool) {
    let mut id = None;
    let mut kind = String::new();
    let mut src = String::new();
    let mut dst = String::new();
    let mut pinned = false;
    for token in comment.split_whitespace() {
        match token.split_once('=') {
            Some(("id", v)) => id = v.parse().ok(),
            Some(("kind", v)) => kind = v.to_string(),
            Some(("src", v)) => src = v.to_string(),
            Some(("dst", v)) => dst = v.to_string(),
            _ => pinned |= token == "pinned",
        }
    }
    (id, kind, src, dst, pinned)
}

/// One-line protocol decode of a captured frame, via `crates/packet`.
fn decode_frame(bytes: &[u8]) -> String {
    let Ok(eth) = EthernetView::parse_strict(bytes) else {
        return "unparseable ethernet frame".to_string();
    };
    match eth.ethertype() {
        EtherType::ARP => match ArpPacket::parse(eth.payload()) {
            Ok(arp) => {
                if arp.is_probe() {
                    format!("ARP probe who-has {} (from {})", arp.target_ip, arp.sender_mac)
                } else if arp.is_gratuitous() {
                    format!("gratuitous ARP {} is-at {}", arp.sender_ip, arp.sender_mac)
                } else if arp.op == ArpOp::Request {
                    format!("ARP who-has {} tell {}", arp.target_ip, arp.sender_ip)
                } else {
                    format!("ARP {} is-at {} (to {})", arp.sender_ip, arp.sender_mac, arp.target_ip)
                }
            }
            Err(_) => format!("malformed ARP from {}", eth.src()),
        },
        // Authenticated variants carry scheme-specific payloads behind
        // the plain header; name the protocol and the endpoints.
        other => format!("{other} {} -> {}", eth.src(), eth.dst()),
    }
}

fn fmt_ts(at_ns: u64) -> String {
    format!("{}.{:09}", at_ns / 1_000_000_000, at_ns % 1_000_000_000)
}

struct InspectFilter {
    host: Option<String>,
    mac: Option<String>,
    verdict: Option<String>,
}

impl InspectFilter {
    fn frame_matches(&self, f: &FrameLine) -> bool {
        let host_ok = self
            .host
            .as_ref()
            .map(|h| f.src.contains(h.as_str()) || f.dst.contains(h.as_str()))
            .unwrap_or(true);
        let mac_ok = self.mac.as_ref().map(|m| f.decoded.contains(m.as_str())).unwrap_or(true);
        host_ok && mac_ok
    }

    fn event_matches(&self, e: &EventLine) -> bool {
        let host_ok = self
            .host
            .as_ref()
            .map(|h| e.actor.contains(h.as_str()) || e.detail.contains(h.as_str()))
            .unwrap_or(true);
        let mac_ok = self.mac.as_ref().map(|m| e.detail.contains(m.as_str())).unwrap_or(true);
        let verdict_ok = self
            .verdict
            .as_ref()
            .map(|v| e.category.starts_with("scheme.verdict") && e.detail.contains(v.as_str()))
            .unwrap_or(true);
        host_ok && mac_ok && verdict_ok
    }
}

/// Loads the `.index.json` sidecar next to `path`, returning per-label
/// events and eviction counts. A capture without its index still
/// inspects (frames only), so hand-copied pcapng files work.
#[allow(clippy::type_complexity)]
fn load_index(
    path: &str,
) -> Result<(HashMap<String, Vec<EventLine>>, HashMap<String, u64>), String> {
    let sidecar = match path.strip_suffix(".pcapng") {
        Some(stem) => format!("{stem}.index.json"),
        None => format!("{path}.index.json"),
    };
    let mut events_by_label = HashMap::new();
    let mut evicted_by_label = HashMap::new();
    let Ok(text) = fs::read_to_string(&sidecar) else {
        eprintln!("note: no index sidecar at {sidecar}; timeline will show frames only");
        return Ok((events_by_label, evicted_by_label));
    };
    let doc = arpshield_testkit::json::parse(&text)
        .map_err(|e| format!("{sidecar}: invalid JSON: {e}"))?;
    let schema = doc.get("schema").and_then(|v| v.as_str()).unwrap_or_default();
    if schema != "arpshield-capture/1" {
        return Err(format!("{sidecar}: unknown schema {schema:?}"));
    }
    for run in doc.get("runs").and_then(|v| v.as_arr()).unwrap_or_default() {
        let Some(label) = run.get("label").and_then(|v| v.as_str()) else {
            continue;
        };
        let evicted = run.get("frames_evicted").and_then(|v| v.as_num()).unwrap_or(0.0) as u64;
        evicted_by_label.insert(label.to_string(), evicted);
        let mut events = Vec::new();
        for ev in run.get("events").and_then(|v| v.as_arr()).unwrap_or_default() {
            events.push(EventLine {
                at_ns: ev.get("at_ns").and_then(|v| v.as_num()).unwrap_or(0.0) as u64,
                category: ev
                    .get("category")
                    .and_then(|v| v.as_str())
                    .unwrap_or_default()
                    .to_string(),
                actor: ev.get("actor").and_then(|v| v.as_str()).unwrap_or_default().to_string(),
                detail: ev.get("detail").and_then(|v| v.as_str()).unwrap_or_default().to_string(),
                frames: ev
                    .get("frames")
                    .and_then(|v| v.as_arr())
                    .unwrap_or_default()
                    .iter()
                    .filter_map(|id| id.as_num())
                    .map(|id| id as u64)
                    .collect(),
            });
        }
        events_by_label.insert(label.to_string(), events);
    }
    Ok((events_by_label, evicted_by_label))
}

fn run_inspect(args: &[String]) -> Result<(), String> {
    let mut path = None;
    let mut filter = InspectFilter { host: None, mac: None, verdict: None };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut flag_value =
            |name: &str| it.next().map(|v| v.to_string()).ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--host" => filter.host = Some(flag_value("--host")?),
            "--mac" => filter.mac = Some(flag_value("--mac")?),
            "--verdict" => filter.verdict = Some(flag_value("--verdict")?),
            other if path.is_none() => path = Some(other.to_string()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let path = path.ok_or("usage: reproduce inspect FILE [--host S] [--mac S] [--verdict S]")?;
    let file = fs::File::open(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut stream = PcapngStream::new(BufReader::new(file));
    let mut frames_by_run: Vec<Vec<FrameLine>> = Vec::new();
    let mut seq = 0u64;
    while let Some(pkt) = stream.next_packet().map_err(|e| format!("{path}: {e}"))? {
        seq += 1;
        let (id, kind, src, dst, pinned) = parse_frame_comment(pkt.comment);
        if frames_by_run.len() <= pkt.interface {
            frames_by_run.resize_with(pkt.interface + 1, Vec::new);
        }
        frames_by_run[pkt.interface].push(FrameLine {
            id: id.unwrap_or(seq),
            at_ns: pkt.ts_ns,
            kind,
            src,
            dst,
            len: pkt.bytes.len(),
            pinned,
            decoded: decode_frame(pkt.bytes),
        });
    }
    // A forensic timeline with its tail missing would silently drop the
    // events that matter most, so unlike `ingest` a cut capture is fatal.
    if !stream.warnings().is_empty() {
        return Err(format!(
            "{path}: capture truncated at offset {}; inspect needs a complete capture",
            stream.stats().bytes
        ));
    }
    let interfaces = stream.interfaces();
    frames_by_run.resize_with(interfaces.len(), Vec::new);
    let (events_by_label, evicted_by_label) = load_index(&path)?;

    let (mut frames_shown, mut frames_total) = (0usize, 0usize);
    let (mut events_shown, mut events_total) = (0usize, 0usize);
    for (run, label) in interfaces.iter().enumerate() {
        let frames = &frames_by_run[run];
        let events = events_by_label.get(label).map(Vec::as_slice).unwrap_or_default();
        frames_total += frames.len();
        events_total += events.len();

        // With --verdict, frames appear only as verdict provenance.
        let cited: Option<std::collections::HashSet<u64>> = filter.verdict.as_ref().map(|_| {
            events
                .iter()
                .filter(|e| filter.event_matches(e))
                .flat_map(|e| e.frames.iter().copied())
                .collect()
        });
        let visible_frames: Vec<&FrameLine> = frames
            .iter()
            .filter(|f| cited.as_ref().map(|set| set.contains(&f.id)).unwrap_or(true))
            .filter(|f| filter.frame_matches(f))
            .collect();
        let visible_events: Vec<&EventLine> =
            events.iter().filter(|e| filter.event_matches(e)).collect();
        if visible_frames.is_empty() && visible_events.is_empty() {
            continue;
        }

        let evicted = evicted_by_label.get(label).copied().unwrap_or(0);
        println!(
            "== run: {label} ({} frame(s) captured, {evicted} evicted, {} event(s)) ==",
            frames.len(),
            events.len(),
        );
        // Merge-sort frames and events into one timeline: by sim time,
        // frames before events at the same instant (an event at t was
        // caused by a frame dispatched at t), then record order.
        enum Entry<'a> {
            Frame(&'a FrameLine),
            Event(&'a EventLine),
        }
        let mut timeline: Vec<(u64, u8, u64, Entry<'_>)> = Vec::new();
        for f in &visible_frames {
            timeline.push((f.at_ns, 0, f.id, Entry::Frame(f)));
        }
        for (seq, e) in visible_events.iter().enumerate() {
            timeline.push((e.at_ns, 1, seq as u64, Entry::Event(e)));
        }
        timeline.sort_by_key(|(at, class, seq, _)| (*at, *class, *seq));
        for (_, _, _, entry) in &timeline {
            match entry {
                Entry::Frame(f) => {
                    frames_shown += 1;
                    println!(
                        "  {}  #{:<5} {:<14} {} -> {}  {}B  {}{}",
                        fmt_ts(f.at_ns),
                        f.id,
                        f.kind,
                        f.src,
                        f.dst,
                        f.len,
                        f.decoded,
                        if f.pinned { "  [pinned]" } else { "" },
                    );
                }
                Entry::Event(e) => {
                    events_shown += 1;
                    let refs = if e.frames.is_empty() {
                        String::new()
                    } else {
                        let ids: Vec<String> = e.frames.iter().map(|id| format!("#{id}")).collect();
                        format!("  <= frames {}", ids.join(" "))
                    };
                    println!(
                        "  {}  * {:<22} {:<16} {}{}",
                        fmt_ts(e.at_ns),
                        e.category,
                        e.actor,
                        e.detail,
                        refs,
                    );
                }
            }
        }
        println!();
    }
    println!(
        "{} run(s); showing {frames_shown}/{frames_total} frame(s), \
         {events_shown}/{events_total} event(s)",
        interfaces.len(),
    );
    Ok(())
}

// ---------------------------------------------------------------------
// `ingest`: streaming capture replay through standalone detectors.
// ---------------------------------------------------------------------

const INGEST_USAGE: &str = "usage: reproduce ingest FILE... [--stdin] [--scheme K]... \
     [--vantage S] [--out DIR] [--capture] [--profile]";

struct IngestOptions {
    sources: Vec<String>,
    stdin: bool,
    schemes: Vec<SchemeKind>,
    vantage: Option<String>,
    out_dir: PathBuf,
    capture: bool,
    profile: bool,
}

fn parse_ingest_args(args: &[String]) -> Result<IngestOptions, String> {
    let mut opts = IngestOptions {
        sources: Vec::new(),
        stdin: false,
        schemes: Vec::new(),
        vantage: None,
        out_dir: PathBuf::from("results"),
        capture: false,
        profile: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut flag_value =
            |name: &str| it.next().map(|v| v.to_string()).ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--stdin" => opts.stdin = true,
            "--capture" => opts.capture = true,
            "--profile" => opts.profile = true,
            "--vantage" => opts.vantage = Some(flag_value("--vantage")?),
            "--out" => opts.out_dir = PathBuf::from(flag_value("--out")?),
            "--scheme" => {
                let label = flag_value("--scheme")?;
                let kind = SchemeKind::from_label(&label)
                    .ok_or_else(|| format!("unknown scheme {label:?}"))?;
                if !Detector::is_supported(kind) {
                    return Err(format!(
                        "scheme '{label}' cannot run as a standalone detector; supported: {}",
                        supported_labels().join(", ")
                    ));
                }
                opts.schemes.push(kind);
            }
            other if !other.starts_with('-') => opts.sources.push(other.to_string()),
            other => return Err(format!("unexpected argument {other:?}\n{INGEST_USAGE}")),
        }
    }
    if opts.sources.is_empty() && !opts.stdin {
        return Err(INGEST_USAGE.to_string());
    }
    if opts.schemes.is_empty() {
        opts.schemes = Detector::supported();
    }
    Ok(opts)
}

fn supported_labels() -> Vec<&'static str> {
    Detector::supported().iter().map(|k| k.label()).collect()
}

/// Streams one pcapng source through a detector per (capture run ×
/// scheme), printing per-run verdicts and whole-source throughput.
/// Detectors are created lazily on the first frame that passes the
/// vantage filter, so capture runs that never touched the requested
/// vantage point contribute no runs to the manifest.
fn ingest_source(
    name: &str,
    input: &mut dyn Read,
    opts: &IngestOptions,
) -> Result<(u64, u64), String> {
    let stem = Path::new(name)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| name.to_string());
    let started = Instant::now();
    let mut hb = Heartbeat::new(format!("ingest {stem}"));
    let mut stream = PcapngStream::new(input);
    let mut detectors: HashMap<(usize, usize), Detector> = HashMap::new();
    let mut filtered = 0u64;
    let mut pulled = 0u64;
    // Reused scratch so the per-frame copy out of the stream's block
    // buffer never allocates in steady state.
    let mut frame = Vec::new();
    let mut comment = String::new();
    loop {
        // The interval check is decimated to every HEARTBEAT_EVERY
        // packets so a million-packet stream never pays a clock read
        // per frame; a slow trickle still heartbeats at each batch.
        const HEARTBEAT_EVERY: u64 = 4096;
        if pulled % HEARTBEAT_EVERY == 0 && pulled > 0 {
            let stats = stream.stats();
            hb.tick(|hb| {
                let wall_s = hb.elapsed().as_secs_f64().max(1e-9);
                format!(
                    "packets={} bytes={} packets_per_wall_s={:.0} mb_per_wall_s={:.1}",
                    stats.packets,
                    stats.bytes,
                    stats.packets as f64 / wall_s,
                    stats.bytes as f64 / wall_s / 1e6,
                )
            });
        }
        let next = {
            let _s = profile::span("ingest.read");
            stream.next_packet()
        };
        let (interface, ts_ns) = match next {
            Err(e) => return Err(format!("{name}: {e}")),
            Ok(None) => break,
            Ok(Some(pkt)) => {
                frame.clear();
                frame.extend_from_slice(pkt.bytes);
                comment.clear();
                comment.push_str(pkt.comment);
                (pkt.interface, pkt.ts_ns)
            }
        };
        pulled += 1;
        let (_, _, src, dst, _) = parse_frame_comment(&comment);
        if let Some(vantage) = &opts.vantage {
            // Foreign captures have no arpshield comments; everything
            // they hold is "what the detector saw".
            if !comment.is_empty() && !dst.contains(vantage.as_str()) {
                filtered += 1;
                continue;
            }
        }
        let at = SimTime::from_nanos(ts_ns);
        let run_label = stream
            .interfaces()
            .get(interface)
            .filter(|l| !l.is_empty())
            .cloned()
            .unwrap_or_else(|| format!("if{interface}"));
        for (index, kind) in opts.schemes.iter().enumerate() {
            let detector = detectors.entry((interface, index)).or_insert_with(|| {
                Detector::with_tracer(
                    *kind,
                    Tracer::for_current_run(format!(
                        "ingest={stem} detector={kind} run={run_label}"
                    )),
                )
                .expect("scheme support validated at argument parse")
            });
            let (src, dst) = if comment.is_empty() {
                ("wire", "detector")
            } else {
                (src.as_str(), dst.as_str())
            };
            detector.observe_from(at, &frame, src, dst);
        }
    }
    for warning in stream.warnings() {
        eprintln!("warning: {name}: {warning}");
        if let Some(collector) = arpshield_trace::current() {
            collector.warn(format!("{name}: {warning}"));
        }
    }
    let stats = stream.stats();
    let mut runs: Vec<_> = detectors.into_iter().collect();
    runs.sort_by_key(|((interface, scheme), _)| (*interface, *scheme));
    println!(
        "== ingest: {name} ({} section(s), {} block(s), {} packet(s), {} unknown block(s)) ==",
        stats.sections, stats.blocks, stats.packets, stats.unknown_blocks
    );
    if filtered > 0 {
        let vantage = opts.vantage.as_deref().unwrap_or_default();
        println!(
            "  vantage '{vantage}': {filtered} frame(s) recorded at other vantage points skipped"
        );
    }
    for ((interface, _), detector) in &mut runs {
        detector.finish();
        let ingest = detector.stats();
        let label = stream
            .interfaces()
            .get(*interface)
            .filter(|l| !l.is_empty())
            .cloned()
            .unwrap_or_else(|| format!("if{interface}"));
        let verdicts = detector
            .verdict_histogram()
            .into_iter()
            .map(|(kind, n)| format!("{kind}={n}"))
            .collect::<Vec<_>>()
            .join(" ");
        println!(
            "  run {label}  detector={}  frames={} arp={} vlan={} jumbo={} unparseable={} \
             denied={} probes={}  alerts={}{}",
            detector.kind(),
            ingest.frames,
            ingest.arp,
            ingest.vlan_tagged,
            ingest.jumbo,
            ingest.unparseable,
            ingest.denied,
            ingest.probes_emitted,
            detector.alerts().len(),
            if verdicts.is_empty() { String::new() } else { format!("  [{verdicts}]") },
        );
    }
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    println!(
        "  {} packet(s), {} byte(s) in {:.3}s: {:.0} frames/s, {:.1} MB/s\n",
        stats.packets,
        stats.bytes,
        elapsed,
        stats.packets as f64 / elapsed,
        stats.bytes as f64 / elapsed / 1e6,
    );
    hb.done(&format!(
        "packets={} bytes={} packets_per_wall_s={:.0}",
        stats.packets,
        stats.bytes,
        stats.packets as f64 / elapsed,
    ));
    // Dropping the detectors flushes their run sections into the
    // installed collector, making them visible to `manifest`.
    drop(runs);
    Ok((stats.packets, filtered))
}

fn run_ingest(args: &[String]) -> Result<(), String> {
    let opts = parse_ingest_args(args)?;
    let collector = Arc::new(if opts.capture {
        let (capacity, warning) = arpshield_trace::ring_capacity_from_env();
        if let Some(w) = warning {
            eprintln!("warning: {w}");
        }
        TraceCollector::with_capture(capacity)
    } else {
        TraceCollector::new()
    });
    let _guard = arpshield_trace::install(collector.clone());
    println!(
        "arpshield capture ingest: scheme(s) [{}] as online detector(s)\n",
        opts.schemes.iter().map(|k| k.label()).collect::<Vec<_>>().join(", ")
    );
    let profiler = opts.profile.then(|| Arc::new(ProfileCollector::new()));
    let profile_started = Instant::now();
    let (mut packets, mut filtered) = (0u64, 0u64);
    {
        let _profile_guard = profiler.clone().map(profile::install);
        for source in &opts.sources {
            let file = fs::File::open(source).map_err(|e| format!("cannot open {source}: {e}"))?;
            let mut reader = BufReader::new(file);
            let (p, f) = ingest_source(source, &mut reader, &opts)?;
            packets += p;
            filtered += f;
        }
        if opts.stdin {
            let stdin = std::io::stdin();
            let mut reader = stdin.lock();
            let (p, f) = ingest_source("stdin", &mut reader, &opts)?;
            packets += p;
            filtered += f;
        }
    }
    let manifest = collector.manifest("ingest");
    let out = Output {
        out_dir: opts.out_dir.clone(),
        trace: true,
        capture: opts.capture.then_some(0),
        profile: opts.profile,
    };
    if let Some(profiler) = &profiler {
        let wall_ns = profile_started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let report = profiler.report("ingest", wall_ns);
        out.write_artifacts(
            "profile",
            &[
                ("ingest.json".to_string(), report.to_json().into_bytes()),
                ("ingest.csv".to_string(), report.to_csv().into_bytes()),
            ],
        );
    }
    out.write_artifacts(
        "trace",
        &[
            ("ingest.json".to_string(), manifest.to_json().into_bytes()),
            ("ingest.csv".to_string(), manifest.to_counters_csv().into_bytes()),
            ("ingest.hist.csv".to_string(), manifest.to_histograms_csv().into_bytes()),
        ],
    );
    if opts.capture {
        out.write_artifacts(
            "capture",
            &[
                ("ingest.pcapng".to_string(), manifest.to_pcapng()),
                ("ingest.index.json".to_string(), manifest.to_capture_index().into_bytes()),
            ],
        );
    }
    println!(
        "{} packet(s) ingested ({filtered} filtered by vantage); manifest: {}",
        packets,
        out.out_dir.join("trace").join("ingest.json").display(),
    );
    Ok(())
}

/// Host counts for the T6S scalability sweep. `ARPSHIELD_T6S_HOSTS`
/// (comma-separated) overrides the published 1k–100k grid so CI can
/// smoke the experiment at small sizes; an overridden grid needs
/// `--out`, so it never replaces the committed full-grid CSVs.
fn t6s_sizes() -> Vec<usize> {
    let (sizes, warning) = arpshield_trace::env_knob::knob("ARPSHIELD_T6S_HOSTS").parse_list_or(
        T6S_SIZES.to_vec(),
        "a comma-separated list of positive host counts",
        |n: &usize| *n >= 1,
    );
    arpshield_trace::env_knob::report(warning);
    sizes
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();

    if args.first().map(String::as_str) == Some("validate-trace") {
        if args.len() < 2 {
            eprintln!("usage: reproduce validate-trace FILE_OR_DIR...");
            std::process::exit(2);
        }
        std::process::exit(run_validate_trace(&args[1..]));
    }

    if args.first().map(String::as_str) == Some("inspect") {
        match run_inspect(&args[1..]) {
            Ok(()) => return,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(if e.starts_with("usage:") { 2 } else { 1 });
            }
        }
    }

    if args.first().map(String::as_str) == Some("ingest") {
        match run_ingest(&args[1..]) {
            Ok(()) => return,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(if e.starts_with("usage:") { 2 } else { 1 });
            }
        }
    }

    if args.first().map(String::as_str) == Some("profile-report") {
        let Some(path) = args.get(1) else {
            eprintln!("usage: reproduce profile-report FILE");
            std::process::exit(2);
        };
        match run_profile_report(path) {
            Ok(()) => return,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }

    let mut out_dir = None;
    if let Some(pos) = args.iter().position(|a| a == "--out") {
        args.remove(pos);
        if pos < args.len() {
            out_dir = Some(PathBuf::from(args.remove(pos)));
        }
    }
    let mut trace = false;
    if let Some(pos) = args.iter().position(|a| a == "--trace") {
        args.remove(pos);
        trace = true;
    }
    let mut defend = false;
    if let Some(pos) = args.iter().position(|a| a == "--defend") {
        args.remove(pos);
        defend = true;
    }
    let mut capture = None;
    if let Some(pos) = args.iter().position(|a| a == "--capture") {
        args.remove(pos);
        let (capacity, warning) = arpshield_trace::ring_capacity_from_env();
        if let Some(w) = warning {
            eprintln!("warning: {w}");
        }
        capture = Some(capacity);
    }
    let mut profile_flag = false;
    if let Some(pos) = args.iter().position(|a| a == "--profile") {
        args.remove(pos);
        profile_flag = true;
    }
    let selected: Vec<String> = args.iter().map(|a| a.to_lowercase()).collect();
    let want = |id: &str| selected.is_empty() || selected.iter().any(|s| s == id);
    let t6s_grid = (want("t6s") || selected.iter().any(|s| s == "t6sd")).then(t6s_sizes);
    // The committed results/t6s*.csv and t6sd*.csv hold the full grid;
    // a partial sweep must not land on top of them.
    if out_dir.is_none() && t6s_grid.as_ref().is_some_and(|grid| grid != T6S_SIZES) {
        eprintln!(
            "error: ARPSHIELD_T6S_HOSTS overrides the T6S grid; pass --out DIR so the partial \
             sweep does not overwrite results/t6s*.csv and results/t6sd*.csv"
        );
        std::process::exit(2);
    }
    let t6s_grid = t6s_grid.unwrap_or_default();
    let out_dir = out_dir.unwrap_or_else(|| PathBuf::from("results"));
    fs::create_dir_all(&out_dir).ok();
    let out = Output { out_dir, trace, capture, profile: profile_flag };

    println!("arpshield reproduction harness (seed {SEED})");
    println!(
        "every experiment is deterministic; CSVs land in {}/; \
         independent runs fan out over {} worker thread(s) \
         (ARPSHIELD_THREADS overrides; output is identical at any count)\n",
        out.out_dir.display(),
        arpshield_core::parallel::thread_count(),
    );
    let started = Instant::now();

    if want("t1") {
        out.table("t1", || taxonomy::table());
    }
    if want("t2") {
        out.table("t2", || t2_susceptibility(SEED));
    }
    if want("t3") {
        out.table("t3", || t3_coverage(SEED));
    }
    if want("t4") {
        out.table("t4", || t4_false_positives(SEED));
    }
    if want("t5") {
        out.table("t5", || t5_cost(SEED));
    }
    if want("t5r") {
        out.table("t5r", || t5_resilience(SEED));
    }
    if want("t6") {
        out.table("t6", || t6_dos_coverage(SEED));
    }
    if want("t6s") {
        out.series("t6s", || t6_scale(SEED, &t6s_grid));
    }
    // The defended scale sweep rides behind `t6s --defend` (or its own
    // `t6sd` id) so the default full run — and its committed CSVs —
    // keep the published undefended shape.
    if selected.iter().any(|s| s == "t6sd") || (want("t6s") && defend) {
        out.series("t6sd", || t6_scale_defended(SEED, &t6s_grid));
    }
    if want("f1") {
        out.series("f1", || f1_detection_latency(SEED, 30));
    }
    if want("f2") {
        out.series("f2", || f2_overhead(SEED, &[5, 10, 20, 40, 80]));
    }
    if want("f3") {
        out.table("f3", || f3_resolution_latency(SEED));
    }
    if want("f4") {
        out.table("f4", || f4_poisoned_time(SEED));
    }
    if want("f5") {
        out.series("f5", || f5_passive_scale(SEED, &[5, 10, 20, 40, 80]));
    }
    if want("f6") {
        out.series("f6a", || f6_flood_dynamics(SEED));
        out.series("f6b", || vec![f6_starvation_dynamics(SEED)]);
    }

    println!("done in {:.1}s", started.elapsed().as_secs_f64());
}

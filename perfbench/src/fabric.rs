//! `fabric` and `fabric_dai`: one 100k-host point of the two-tier scale
//! fabric, built with `scenario::scale::build` and driven with
//! `Simulator::run_until` to `config.duration` in fixed sim-time chunks.
//!
//! `fabric` is the open flat fabric (~11M frames): it loads the timing
//! wheel, unicast forwarding, flood fan-out and the frame pool. The
//! `fabric_dai` variant is the VLAN fabric with 8 spoofers and DAI on
//! the root and every leaf (~3M frames): 802.1Q classify/retag, a
//! per-VLAN CAM, contained floods, and an inspector on every untrusted
//! ingress. A switch change that trades inspection for flooding shows
//! on one and not the other.
//!
//! Every pass builds a fresh fabric: the build is `setup_s`, the run is
//! `wall_s`.

use std::time::{Duration, Instant};

use arpshield_core::scenario::scale::{build, ScaleConfig, ScaleLan};
use arpshield_netsim::{pool_stats, SimTime, SwitchHandle};

use crate::report::{self, median, percentile, Outputs, Report, TRACED};
use crate::{alloc, calib, RunConfig};

const HOSTS: usize = 100_000;
const SPOOFERS: usize = 8;
/// Sim-time chunks per run. With 200 chunks the 95th percentile has
/// ten samples beyond it, the highest percentile that does.
const CHUNKS: u32 = 200;

struct Pass {
    /// Build and run time, each as (raw, calibrated) seconds.
    setup: (f64, f64),
    run: (f64, f64),
    chunk_ms: Vec<f64>,
    queue_max: usize,
    frames: u64,
    events: u64,
    pool_hits: u64,
    pool_misses: u64,
    allocs: u64,
    flooded: u64,
    forwarded: u64,
    cam: usize,
    dropped_vlan: u64,
    dropped_inspector: u64,
    denied: u64,
    dai_work: u64,
    outputs: Outputs,
}

fn config(seed: u64, dai: bool) -> ScaleConfig {
    let config = ScaleConfig::new(seed, HOSTS);
    if dai {
        config.with_spoofers(SPOOFERS).with_dai()
    } else {
        config
    }
}

fn switches(lan: &ScaleLan) -> impl Iterator<Item = &SwitchHandle> {
    std::iter::once(&lan.root).chain(&lan.leaves)
}

fn pass(seed: u64, dai: bool, traced: bool) -> Pass {
    let config = config(seed, dai);
    let mut clock = calib::Clock::start();
    let mut lan = build(config);
    let setup = clock.lap();

    let pool_before = pool_stats();
    let allocs_before = alloc::count();
    let end = SimTime::ZERO + config.duration;
    let chunk = (config.duration / CHUNKS).max(Duration::from_nanos(1));
    let mut chunk_ms = Vec::with_capacity(CHUNKS as usize);
    let mut queue_max = 0;
    let mut next = SimTime::ZERO;
    while next < end {
        next = (next + chunk).min(end);
        let c0 = Instant::now();
        lan.sim.run_until(next);
        chunk_ms.push(c0.elapsed().as_secs_f64() * 1e3);
        queue_max = queue_max.max(lan.sim.queue_depth());
        clock.tick();
    }
    let run = clock.lap();
    let allocs = alloc::count() - allocs_before;
    let pool = pool_stats();

    let wire = lan.sim.wire_stats();
    let stat = |f: fn(&arpshield_netsim::SwitchStats) -> u64| -> u64 {
        switches(&lan).map(|s| f(&s.stats.borrow())).sum()
    };
    let root_cam = lan.root.cam.borrow().occupancy();
    let denied = lan.inspector_drops();
    let dai_work = lan.alerts.as_ref().map_or(0, |log| log.work_of("dai"));
    let mut outputs = Outputs::new();
    outputs.insert("wire.frames".into(), wire.frames.to_string());
    outputs.insert("wire.bytes".into(), wire.bytes.to_string());
    outputs.insert("wire.timers".into(), wire.timers.to_string());
    outputs.insert("wire.dropped_no_link".into(), wire.dropped_no_link.to_string());
    outputs.insert("root.cam.occupancy".into(), root_cam.to_string());
    let pool_hits = pool.recycled - pool_before.recycled;
    let pool_misses = pool.fresh - pool_before.fresh;
    let flooded = stat(|s| s.flooded);
    let forwarded = stat(|s| s.forwarded);
    let cam: usize = switches(&lan).map(|s| s.cam.borrow().occupancy()).sum();
    outputs.insert("pool.hits".into(), pool_hits.to_string());
    outputs.insert("pool.misses".into(), pool_misses.to_string());
    outputs.insert("sim.queue_max".into(), queue_max.to_string());
    outputs.insert("switch.flooded".into(), flooded.to_string());
    outputs.insert("switch.forwarded".into(), forwarded.to_string());
    outputs.insert("switch.cam".into(), cam.to_string());
    if traced {
        outputs.insert(format!("{TRACED}alloc.per_pass"), allocs.to_string());
    }
    if dai {
        outputs.insert("dai.denied".into(), denied.to_string());
        outputs.insert("dai.work_units".into(), dai_work.to_string());
        let logged = lan.alerts.as_ref().map_or(0, |log| log.len());
        outputs.insert("dai.alerts".into(), logged.to_string());
    }
    Pass {
        setup,
        run,
        chunk_ms,
        queue_max,
        frames: wire.frames,
        events: wire.frames + wire.timers,
        pool_hits,
        pool_misses,
        allocs,
        flooded,
        forwarded,
        cam,
        dropped_vlan: stat(|s| s.dropped_vlan),
        dropped_inspector: stat(|s| s.dropped_inspector),
        denied,
        dai_work,
        outputs,
    }
}

pub fn run(cfg: &RunConfig, dai: bool) -> Report {
    let name = if dai { "fabric_dai" } else { "fabric" };
    let mut report = Report::new(name);
    let table = if dai {
        include_str!("../expected/fabric_dai.tsv")
    } else {
        include_str!("../expected/fabric.tsv")
    };
    let expected = report::recorded(table, cfg.seed);
    if cfg.record {
        report::print_record(cfg.seed, |traced| pass(cfg.seed, dai, traced).outputs);
        return report;
    }

    let budget = cfg.budget(cfg.trace);
    let plain = report::repeat(budget, 3, || report::isolated(|| pass(cfg.seed, dai, false)));
    let traced = if cfg.trace {
        alloc::set_counting(true);
        let traced = report::repeat(budget, 3, || report::isolated(|| pass(cfg.seed, dai, true)));
        alloc::set_counting(false);
        traced
    } else {
        Vec::new()
    };
    let passes: Vec<&Pass> = plain.iter().chain(&traced).collect();

    let outputs =
        |passes: &[Pass]| -> Vec<Outputs> { passes.iter().map(|p| p.outputs.clone()).collect() };
    report.check_passes(&outputs(&plain), &outputs(&traced), expected.as_ref());
    for p in &passes {
        report.check_eq("wire.dropped_no_link", p.outputs["wire.dropped_no_link"].as_str(), "0");
        // Every station speaks within the run, so the root learns all.
        report.check(
            "root.cam.all_stations",
            p.outputs["root.cam.occupancy"].parse::<usize>().unwrap_or(0) >= HOSTS,
            "root CAM misses stations",
        );
        if dai {
            // 8 spoofers forge once per simulated second for 10 s; each
            // forgery dies at its leaf, none reaches the root inspector.
            report.check_eq("dai.denied", p.denied, SPOOFERS as u64 * 10);
            report.check_eq(
                "dai.alerts",
                p.outputs["dai.alerts"].as_str(),
                p.denied.to_string().as_str(),
            );
        } else {
            report.check_eq("switch.dropped_vlan", p.dropped_vlan, 0);
            report.check_eq("switch.dropped_inspector", p.dropped_inspector, 0);
        }
    }

    report.timing("setup_s", &passes.iter().map(|p| p.setup).collect::<Vec<_>>());
    let wall_s = report.timing("wall_s", &plain.iter().map(|p| p.run).collect::<Vec<_>>());
    let frames = plain[0].frames as f64;
    let events = plain[0].events as f64;
    report.metric("frames_per_s", frames / wall_s, "1/s");
    report.extra("events_per_s", events / wall_s, "1/s");

    if cfg.trace {
        let traced_wall = median(&traced.iter().map(|p| p.run.0).collect::<Vec<_>>());
        let traced_calibrated = median(&traced.iter().map(|p| p.run.1).collect::<Vec<_>>());
        let t = &traced[0];
        report.metric("trace.overhead", traced_calibrated / wall_s, "ratio");
        let coverage: Vec<f64> =
            traced.iter().map(|p| p.chunk_ms.iter().sum::<f64>() / 1e3 / p.run.0).collect();
        crate::check_coverage(&mut report, median(&coverage));
        report.metric("sim.ns_per_event", traced_wall * 1e9 / t.events as f64, "ns");
        report.metric("sim.events_per_s", t.events as f64 / traced_wall, "1/s");
        report.metric("sim.events", t.events as f64, "count");
        report.metric("sim.frames", t.frames as f64, "count");
        let wire = |key: &str| t.outputs[key].parse::<f64>().unwrap_or(0.0);
        report.metric("sim.timers", wire("wire.timers"), "count");
        report.metric("sim.bytes", wire("wire.bytes"), "B");
        let per_pass =
            |q: f64| median(&traced.iter().map(|p| percentile(&p.chunk_ms, q)).collect::<Vec<_>>());
        report.metric("sim.chunk_ms.p50", per_pass(50.0), "ms");
        report.metric("sim.chunk_ms.p95", per_pass(95.0), "ms");
        report.metric("sim.queue_depth.max", t.queue_max as f64, "count");
        let acquires = (t.pool_hits + t.pool_misses).max(1);
        report.metric("pool.hit_rate", t.pool_hits as f64 / acquires as f64, "ratio");
        report.metric("pool.misses", t.pool_misses as f64, "count");
        report.metric("alloc.per_event", t.allocs as f64 / t.events as f64, "count");
        report.metric("alloc.per_pass", t.allocs as f64, "count");
        let switched = (t.forwarded + t.flooded).max(1);
        report.metric("switch.flood_share", t.flooded as f64 / switched as f64, "ratio");
        report.metric("switch.frames", (t.forwarded + t.flooded) as f64, "count");
        report.metric("switch.cam.occupancy", t.cam as f64, "count");
        report.metric("switch.dropped_vlan", t.dropped_vlan as f64, "count");
        report.metric("switch.dropped_inspector", t.dropped_inspector as f64, "count");
        if dai {
            report.metric("dai.denied", t.denied as f64, "count");
            report.metric("dai.work_units", t.dai_work as f64, "count");
            report.metric("dai.work_per_frame", t.dai_work as f64 / t.frames as f64, "count");
        }
    }
    report.metric("peak_rss_mb", report::peak_rss_mb(), "MB");
    report
}

//! The discrete-event simulation engine.

use std::time::Duration;

use arpshield_trace::profile;
use arpshield_trace::{FrameKind, Tracer};

use crate::device::{Action, Device, DeviceCtx, DeviceId, PortId};
use crate::error::NetsimError;
use crate::frame::Frame;
use crate::impair::{self, LinkProfile};
use crate::rng::SimRng;
use crate::time::SimTime;
use crate::wheel::TimingWheel;

/// Aggregate counters over everything that crossed the wire.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WireStats {
    /// Frames delivered over links.
    pub frames: u64,
    /// Bytes delivered over links.
    pub bytes: u64,
    /// Frames sent out of unconnected ports (dropped).
    pub dropped_no_link: u64,
    /// Timer events dispatched.
    pub timers: u64,
    /// Frames dropped by impaired-link loss draws.
    pub dropped_lost: u64,
    /// Frames dropped because a flapping link was down.
    pub dropped_link_down: u64,
    /// Extra frame copies injected by duplication draws.
    pub duplicated: u64,
}

/// Domain separation between the impairment hash and the event RNG, so
/// `Simulator::new(seed)` feeds them unrelated key material.
const IMPAIR_SEED_SALT: u64 = 0x1A7E_0F1C_5EED_11D0;

#[derive(Debug, Clone)]
struct Endpoint {
    peer: DeviceId,
    peer_port: PortId,
    latency: Duration,
    /// Impairment profile for this direction of the link.
    profile: LinkProfile,
    /// Stable identity of this direction, for keyed impairment draws.
    key: u64,
    /// Frames sent into this direction so far — the per-event index the
    /// impairment draws are keyed on.
    sent: u64,
}

#[derive(Debug, Clone)]
enum EventKind {
    Deliver {
        dst: DeviceId,
        port: PortId,
        bytes: Frame,
        src: DeviceId,
        src_port: PortId,
        /// True for impairment-injected duplicate copies, so the
        /// flight recorder can label them distinctly.
        dup: bool,
    },
    Timer {
        dst: DeviceId,
        token: u64,
    },
}

/// A deterministic single-segment network simulator.
///
/// Add devices, connect their ports with latencied links, and run. Events
/// with equal timestamps are dispatched in insertion order, so a run is a
/// pure function of its seed and topology.
#[derive(Debug)]
pub struct Simulator {
    now: SimTime,
    started: bool,
    devices: Vec<Box<dyn Device>>,
    /// Index-addressed link arena: device `d`'s ports occupy slots
    /// `port_base[d] .. port_base[d + 1]`. The dispatch hot path
    /// resolves a send with one add and one array index instead of a
    /// hash lookup per frame, and the single contiguous slab is what
    /// lets per-link state shard cleanly once simulations span threads.
    links: Vec<Option<Endpoint>>,
    /// Cumulative port offsets into `links`, one entry per device plus
    /// a trailing sentinel, so `port_base.len() == devices.len() + 1`.
    port_base: Vec<u32>,
    /// The event core: a hierarchical timing wheel preserving the
    /// `(timestamp, insertion)` dispatch order the heap gave.
    queue: TimingWheel<EventKind>,
    rng: SimRng,
    impair_seed: u64,
    default_profile: LinkProfile,
    stats: WireStats,
    /// Reusable actions buffer, drained after every dispatch. Devices
    /// cannot re-enter the simulator, so one scratch vector serves all
    /// callbacks without per-event allocation.
    scratch: Vec<Action>,
    /// Observability sink for impairment outcomes. Disabled by default;
    /// the perfect-link fast path never consults it. Declared last so
    /// the hot dispatch fields above keep their relative positions.
    run_tracer: Tracer,
}

impl std::fmt::Debug for dyn Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Device({})", self.name())
    }
}

impl Simulator {
    /// Creates an empty simulation seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Simulator {
            now: SimTime::ZERO,
            started: false,
            devices: Vec::new(),
            links: Vec::new(),
            port_base: vec![0],
            queue: TimingWheel::new(),
            rng: SimRng::new(seed),
            impair_seed: seed ^ IMPAIR_SEED_SALT,
            default_profile: LinkProfile::PERFECT,
            run_tracer: Tracer::disabled(),
            stats: WireStats::default(),
            scratch: Vec::new(),
        }
    }

    /// Sets the impairment profile applied to every link connected from
    /// now on. Links already connected keep the profile they were
    /// created with; call before wiring the topology to impair a whole
    /// segment.
    pub fn set_default_impairment(&mut self, profile: LinkProfile) {
        self.default_profile = profile;
    }

    /// The profile new links are connected with.
    pub fn default_impairment(&self) -> LinkProfile {
        self.default_profile
    }

    /// Attaches a device and returns its id.
    pub fn add_device(&mut self, device: Box<dyn Device>) -> DeviceId {
        let id = DeviceId(self.devices.len());
        let next = self.links.len() + device.port_count();
        self.links.resize_with(next, || None);
        self.port_base.push(next as u32);
        self.devices.push(device);
        id
    }

    /// Connects two device ports with a full-duplex link of the given
    /// one-way latency.
    ///
    /// # Errors
    ///
    /// Returns a [`NetsimError`] if either endpoint is unknown, the port is
    /// out of range or already linked, or the two endpoints are the same
    /// device.
    pub fn connect(
        &mut self,
        a: DeviceId,
        a_port: PortId,
        b: DeviceId,
        b_port: PortId,
        latency: Duration,
    ) -> Result<(), NetsimError> {
        let profile = self.default_profile;
        self.connect_impaired(a, a_port, b, b_port, latency, profile)
    }

    /// Like [`connect`](Simulator::connect), but with an explicit
    /// impairment profile instead of the simulator default.
    ///
    /// # Errors
    ///
    /// Same conditions as [`connect`](Simulator::connect).
    pub fn connect_impaired(
        &mut self,
        a: DeviceId,
        a_port: PortId,
        b: DeviceId,
        b_port: PortId,
        latency: Duration,
        profile: LinkProfile,
    ) -> Result<(), NetsimError> {
        if a == b {
            return Err(NetsimError::SelfLink(a));
        }
        for (dev, port) in [(a, a_port), (b, b_port)] {
            if dev.0 + 1 >= self.port_base.len() {
                return Err(NetsimError::UnknownDevice(dev));
            }
            let base = self.port_base[dev.0] as usize;
            let count = self.port_base[dev.0 + 1] as usize - base;
            if usize::from(port.0) >= count {
                return Err(NetsimError::BadPort { device: dev, port, count });
            }
            if self.links[base + usize::from(port.0)].is_some() {
                return Err(NetsimError::PortInUse { device: dev, port });
            }
        }
        // Each direction gets a stable key derived from its sending
        // endpoint — topology, not insertion order — so impairment draws
        // survive any change in how links happen to be wired up.
        let key = |dev: DeviceId, port: PortId| ((dev.0 as u64) << 16) | u64::from(port.0);
        self.links[self.port_base[a.0] as usize + usize::from(a_port.0)] = Some(Endpoint {
            peer: b,
            peer_port: b_port,
            latency,
            profile,
            key: key(a, a_port),
            sent: 0,
        });
        self.links[self.port_base[b.0] as usize + usize::from(b_port.0)] = Some(Endpoint {
            peer: a,
            peer_port: a_port,
            latency,
            profile,
            key: key(b, b_port),
            sent: 0,
        });
        Ok(())
    }

    /// Routes wire-level impairment outcomes (loss, outage drops,
    /// duplication) into `tracer`, and every delivered or dropped frame
    /// into its flight recorder when the collector captures frames.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.run_tracer = tracer;
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Aggregate wire statistics.
    pub fn wire_stats(&self) -> WireStats {
        self.stats
    }

    /// Pending events across the timing wheel, ready batch, and
    /// calendar fallback — the `wheel.occupancy` gauge source.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Pending events parked in the wheel's calendar fallback — the
    /// `wheel.fallback_depth` gauge source.
    pub fn queue_fallback_depth(&self) -> usize {
        self.queue.fallback_len()
    }

    /// Immutable access to a device, for post-run inspection.
    pub fn device(&self, id: DeviceId) -> Option<&dyn Device> {
        self.devices.get(id.0).map(|d| d.as_ref())
    }

    /// Number of devices.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    fn push_event(&mut self, at: SimTime, kind: EventKind) {
        self.queue.push(at, kind);
    }

    fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.devices.len() {
            let mut actions = std::mem::take(&mut self.scratch);
            let id = DeviceId(i);
            {
                let mut ctx = DeviceCtx::new(self.now, id, &mut actions, &mut self.rng, None);
                self.devices[i].on_start(&mut ctx);
            }
            self.apply_actions(id, &mut actions);
            self.scratch = actions;
        }
    }

    fn apply_actions(&mut self, from: DeviceId, actions: &mut Vec<Action>) {
        for action in actions.drain(..) {
            match action {
                Action::Send { port, bytes } => match {
                    let slot = self.port_base[from.0] as usize + usize::from(port.0);
                    let limit = self.port_base[from.0 + 1] as usize;
                    if slot < limit {
                        self.links[slot].as_mut()
                    } else {
                        None
                    }
                } {
                    Some(ep) => {
                        let (peer, peer_port, latency, profile, key) =
                            (ep.peer, ep.peer_port, ep.latency, ep.profile, ep.key);
                        let index = ep.sent;
                        ep.sent += 1;
                        if profile.is_perfect() {
                            let at = self.now + latency;
                            self.push_event(
                                at,
                                EventKind::Deliver {
                                    dst: peer,
                                    port: peer_port,
                                    bytes,
                                    src: from,
                                    src_port: port,
                                    dup: false,
                                },
                            );
                            continue;
                        }
                        let fate = impair::fate(&profile, self.impair_seed, key, index, self.now);
                        if fate.lost {
                            let flap_down =
                                profile.flap.map(|f| f.is_down(self.now)).unwrap_or(false);
                            let (category, kind) = if flap_down {
                                self.stats.dropped_link_down += 1;
                                ("wire.drop.link_down", FrameKind::DroppedLinkDown)
                            } else {
                                self.stats.dropped_lost += 1;
                                ("wire.drop.lost", FrameKind::DroppedLost)
                            };
                            self.run_tracer.count(category, 1);
                            // Capture the doomed octets, and cite both
                            // them and (when the send happened inside a
                            // delivery) the frame that caused the send.
                            let cause = self.run_tracer.current_frame();
                            let dropped = self.run_tracer.record_frame(
                                self.now.as_nanos(),
                                kind,
                                &bytes,
                                || {
                                    (
                                        format!("{}:{}", self.devices[from.0].name(), port.0),
                                        format!("{}:{}", self.devices[peer.0].name(), peer_port.0),
                                    )
                                },
                            );
                            self.run_tracer.event_frames(self.now.as_nanos(), category, || {
                                (
                                    self.devices[from.0].name().to_string(),
                                    format!("port={} frame_index={index}", port.0),
                                    dropped.into_iter().chain(cause).collect(),
                                )
                            });
                            continue;
                        }
                        let at = self.now + latency + fate.extra_delay;
                        // The duplicate trails the original by one more
                        // propagation delay, sharing its buffer.
                        let dup = fate.duplicated.then(|| (at + latency, bytes.clone()));
                        self.push_event(
                            at,
                            EventKind::Deliver {
                                dst: peer,
                                port: peer_port,
                                bytes,
                                src: from,
                                src_port: port,
                                dup: false,
                            },
                        );
                        if let Some((dup_at, copy)) = dup {
                            self.stats.duplicated += 1;
                            self.run_tracer.count("wire.duplicated", 1);
                            self.push_event(
                                dup_at,
                                EventKind::Deliver {
                                    dst: peer,
                                    port: peer_port,
                                    bytes: copy,
                                    src: from,
                                    src_port: port,
                                    dup: true,
                                },
                            );
                        }
                    }
                    None => self.stats.dropped_no_link += 1,
                },
                Action::Schedule { delay, token } => {
                    let at = self.now + delay;
                    self.push_event(at, EventKind::Timer { dst: from, token });
                }
            }
        }
    }

    /// Dispatches the next event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.start();
        let Some((at, kind)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(at >= self.now, "event queue went backwards");
        self.now = at;
        match kind {
            EventKind::Deliver { dst, port, bytes, src, src_port, dup } => {
                let _s = profile::span("sim.deliver");
                self.stats.frames += 1;
                self.stats.bytes += bytes.len() as u64;
                let kind = if dup { FrameKind::DuplicateDelivered } else { FrameKind::Delivered };
                let frame_id =
                    self.run_tracer.record_frame(self.now.as_nanos(), kind, &bytes, || {
                        (
                            format!("{}:{}", self.devices[src.0].name(), src_port.0),
                            format!("{}:{}", self.devices[dst.0].name(), port.0),
                        )
                    });
                // While this frame is dispatched — including the sends
                // it triggers — every traced event cites it.
                self.run_tracer.set_current_frame(frame_id);
                let mut actions = std::mem::take(&mut self.scratch);
                {
                    let mut ctx =
                        DeviceCtx::new(self.now, dst, &mut actions, &mut self.rng, Some(&bytes));
                    self.devices[dst.0].on_frame(&mut ctx, port, &bytes);
                }
                self.apply_actions(dst, &mut actions);
                self.run_tracer.set_current_frame(None);
                self.scratch = actions;
            }
            EventKind::Timer { dst, token } => {
                let _s = profile::span("sim.timer");
                self.stats.timers += 1;
                let mut actions = std::mem::take(&mut self.scratch);
                {
                    let mut ctx = DeviceCtx::new(self.now, dst, &mut actions, &mut self.rng, None);
                    self.devices[dst.0].on_timer(&mut ctx, token);
                }
                self.apply_actions(dst, &mut actions);
                self.scratch = actions;
            }
        }
        true
    }

    /// Runs until the queue drains or the clock reaches `deadline`,
    /// whichever comes first. Events scheduled beyond the deadline stay
    /// queued; the clock is advanced to exactly `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.start();
        loop {
            match self.queue.next_at() {
                Some(at) if at <= deadline => {
                    self.step();
                }
                _ => break,
            }
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Runs for `duration` past the current clock.
    pub fn run_for(&mut self, duration: Duration) {
        let deadline = self.now + duration;
        self.run_until(deadline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::impair::FlapSchedule;
    use arpshield_trace::{RecordedFrame, TraceCollector};
    use std::sync::Arc;

    /// Runs `sim` to `deadline` under a flight recorder that keeps every
    /// frame, and returns what it captured.
    fn record_run(sim: &mut Simulator, deadline: SimTime) -> Vec<RecordedFrame> {
        let collector = Arc::new(TraceCollector::with_capture(usize::MAX));
        let _guard = arpshield_trace::install(collector.clone());
        sim.set_tracer(Tracer::for_current_run("run"));
        sim.run_until(deadline);
        // Releasing the run's tracer flushes its section.
        sim.set_tracer(Tracer::disabled());
        collector.manifest("sim").runs.remove(0).frames
    }

    /// Echoes every received frame back out the same port after 1 ms, up to
    /// a bounce budget encoded in the first byte.
    struct Echo {
        received: Vec<(SimTime, Vec<u8>)>,
    }

    impl Echo {
        fn new() -> Self {
            Echo { received: Vec::new() }
        }
    }

    impl Device for Echo {
        fn name(&self) -> &str {
            "echo"
        }
        fn port_count(&self) -> usize {
            1
        }
        fn on_frame(&mut self, ctx: &mut DeviceCtx<'_>, port: PortId, frame: &[u8]) {
            self.received.push((ctx.now(), frame.to_vec()));
            if frame[0] > 0 {
                let mut next = frame.to_vec();
                next[0] -= 1;
                ctx.send(port, next);
            }
        }
    }

    struct Kickoff {
        budget: u8,
    }

    impl Device for Kickoff {
        fn name(&self) -> &str {
            "kickoff"
        }
        fn port_count(&self) -> usize {
            1
        }
        fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
            ctx.send(PortId(0), vec![self.budget]);
        }
        fn on_frame(&mut self, ctx: &mut DeviceCtx<'_>, port: PortId, frame: &[u8]) {
            if frame[0] > 0 {
                let mut next = frame.to_vec();
                next[0] -= 1;
                ctx.send(port, next);
            }
        }
    }

    #[test]
    fn frames_bounce_with_latency() {
        let mut sim = Simulator::new(1);
        let k = sim.add_device(Box::new(Kickoff { budget: 4 }));
        let e = sim.add_device(Box::new(Echo::new()));
        sim.connect(k, PortId(0), e, PortId(0), Duration::from_millis(1)).unwrap();
        sim.run_until(SimTime::from_secs(1));
        // budget 4: k->e, e->k, k->e, e->k, k->e = frames at 1,2,3,4,5 ms.
        assert_eq!(sim.wire_stats().frames, 5);
        assert_eq!(sim.now(), SimTime::from_secs(1));
    }

    #[test]
    fn deadline_pauses_without_losing_events() {
        let mut sim = Simulator::new(1);
        let k = sim.add_device(Box::new(Kickoff { budget: 200 }));
        let e = sim.add_device(Box::new(Echo::new()));
        sim.connect(k, PortId(0), e, PortId(0), Duration::from_millis(10)).unwrap();
        sim.run_until(SimTime::from_millis(35));
        let mid = sim.wire_stats().frames;
        assert_eq!(mid, 3);
        sim.run_until(SimTime::from_millis(75));
        assert_eq!(sim.wire_stats().frames, 7);
    }

    #[test]
    fn unconnected_port_drops_and_counts() {
        let mut sim = Simulator::new(1);
        let _ = sim.add_device(Box::new(Kickoff { budget: 1 }));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.wire_stats().frames, 0);
        assert_eq!(sim.wire_stats().dropped_no_link, 1);
    }

    #[test]
    fn connect_validates_topology() {
        let mut sim = Simulator::new(1);
        let a = sim.add_device(Box::new(Echo::new()));
        let b = sim.add_device(Box::new(Echo::new()));
        assert_eq!(
            sim.connect(a, PortId(0), a, PortId(0), Duration::ZERO),
            Err(NetsimError::SelfLink(a))
        );
        assert!(matches!(
            sim.connect(a, PortId(1), b, PortId(0), Duration::ZERO),
            Err(NetsimError::BadPort { .. })
        ));
        assert!(matches!(
            sim.connect(DeviceId(9), PortId(0), b, PortId(0), Duration::ZERO),
            Err(NetsimError::UnknownDevice(DeviceId(9)))
        ));
        sim.connect(a, PortId(0), b, PortId(0), Duration::ZERO).unwrap();
        let c = sim.add_device(Box::new(Echo::new()));
        assert!(matches!(
            sim.connect(a, PortId(0), c, PortId(0), Duration::ZERO),
            Err(NetsimError::PortInUse { .. })
        ));
    }

    #[test]
    fn trace_captures_frames() {
        let mut sim = Simulator::new(1);
        let k = sim.add_device(Box::new(Kickoff { budget: 2 }));
        let e = sim.add_device(Box::new(Echo::new()));
        sim.connect(k, PortId(0), e, PortId(0), Duration::from_millis(1)).unwrap();
        let frames = record_run(&mut sim, SimTime::from_secs(1));
        assert_eq!(frames.len(), 3);
        assert_eq!(frames.iter().filter(|f| f.src == "kickoff:0").count(), 2);
        assert_eq!(frames[0].at_ns, SimTime::from_millis(1).as_nanos(), "stamped at delivery");
    }

    #[test]
    fn identical_seeds_replay_identically() {
        let run = |seed| {
            let mut sim = Simulator::new(seed);
            let k = sim.add_device(Box::new(Kickoff { budget: 50 }));
            let e = sim.add_device(Box::new(Echo::new()));
            sim.connect(k, PortId(0), e, PortId(0), Duration::from_micros(137)).unwrap();
            sim.run_until(SimTime::from_secs(1));
            (sim.wire_stats(), sim.now())
        };
        assert_eq!(run(99), run(99));
    }

    #[test]
    fn lossy_link_drops_and_counts() {
        let run = |loss: f64| {
            let mut sim = Simulator::new(7);
            sim.set_default_impairment(LinkProfile::lossy(loss));
            let k = sim.add_device(Box::new(Kickoff { budget: 200 }));
            let e = sim.add_device(Box::new(Echo::new()));
            sim.connect(k, PortId(0), e, PortId(0), Duration::from_millis(1)).unwrap();
            sim.run_until(SimTime::from_secs(1));
            sim.wire_stats()
        };
        let perfect = run(0.0);
        assert_eq!(perfect.dropped_lost, 0);
        let lossy = run(0.5);
        assert!(lossy.dropped_lost >= 1, "a 50% link must lose something");
        // Each bounce needs the previous delivery, so losses shorten the
        // chain: strictly fewer frames than the perfect wire.
        assert!(lossy.frames < perfect.frames);
    }

    #[test]
    fn duplicating_link_delivers_copies() {
        let mut sim = Simulator::new(7);
        sim.set_default_impairment(LinkProfile::PERFECT.with_dup(1.0));
        let k = sim.add_device(Box::new(Kickoff { budget: 0 }));
        let e = sim.add_device(Box::new(Echo::new()));
        sim.connect(k, PortId(0), e, PortId(0), Duration::from_millis(1)).unwrap();
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.wire_stats().duplicated, 1);
        assert_eq!(sim.wire_stats().frames, 2, "one send, two deliveries");
    }

    #[test]
    fn flapping_link_goes_dark_on_schedule() {
        let mut sim = Simulator::new(7);
        sim.set_default_impairment(LinkProfile::PERFECT.with_flap(FlapSchedule {
            offset: Duration::from_millis(50),
            down_for: Duration::from_millis(1000),
            period: Duration::from_millis(2000),
        }));
        let k = sim.add_device(Box::new(Kickoff { budget: 200 }));
        let e = sim.add_device(Box::new(Echo::new()));
        sim.connect(k, PortId(0), e, PortId(0), Duration::from_millis(10)).unwrap();
        sim.run_until(SimTime::from_secs(1));
        // The bounce chain dies at the first outage and nothing restarts it.
        let stats = sim.wire_stats();
        assert_eq!(stats.dropped_link_down, 1);
        assert!(stats.frames <= 6, "chain must stop at the 50 ms outage");
    }

    #[test]
    fn jitter_delays_but_never_reorders_a_single_flow_run() {
        let mut sim = Simulator::new(7);
        sim.set_default_impairment(LinkProfile::PERFECT.with_jitter(Duration::from_micros(500)));
        let k = sim.add_device(Box::new(Kickoff { budget: 20 }));
        let e = sim.add_device(Box::new(Echo::new()));
        sim.connect(k, PortId(0), e, PortId(0), Duration::from_millis(1)).unwrap();
        sim.run_until(SimTime::from_secs(1));
        // All 21 frames still get through; they just take longer.
        assert_eq!(sim.wire_stats().frames, 21);
        assert_eq!(sim.wire_stats().dropped_lost, 0);
    }

    /// The crux of the determinism contract: a profile whose draws can
    /// never fire (loss 0, dup 0, jitter 0, flap that never goes down)
    /// exercises the impaired delivery path yet must replay the exact
    /// event schedule of an untouched wire.
    #[test]
    fn inert_profile_is_byte_identical_to_perfect_wire() {
        let run = |profile: Option<LinkProfile>| {
            let mut sim = Simulator::new(99);
            if let Some(p) = profile {
                sim.set_default_impairment(p);
            }
            let k = sim.add_device(Box::new(Kickoff { budget: 50 }));
            let e = sim.add_device(Box::new(Echo::new()));
            sim.connect(k, PortId(0), e, PortId(0), Duration::from_micros(137)).unwrap();
            let schedule: Vec<(u64, usize)> = record_run(&mut sim, SimTime::from_secs(1))
                .iter()
                .map(|f| (f.at_ns, f.bytes.len()))
                .collect();
            (sim.wire_stats(), schedule)
        };
        let inert = LinkProfile::PERFECT.with_flap(FlapSchedule {
            offset: Duration::from_secs(3600),
            down_for: Duration::from_secs(1),
            period: Duration::from_secs(7200),
        });
        assert!(!inert.is_perfect(), "must exercise the impaired path");
        assert_eq!(run(None), run(Some(inert)));
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerDev {
            fired: Vec<u64>,
        }
        impl Device for TimerDev {
            fn name(&self) -> &str {
                "timers"
            }
            fn port_count(&self) -> usize {
                0
            }
            fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
                ctx.schedule_in(Duration::from_millis(30), 3);
                ctx.schedule_in(Duration::from_millis(10), 1);
                ctx.schedule_in(Duration::from_millis(20), 2);
                // Equal timestamps dispatch in insertion order.
                ctx.schedule_in(Duration::from_millis(10), 10);
            }
            fn on_frame(&mut self, _: &mut DeviceCtx<'_>, _: PortId, _: &[u8]) {}
            fn on_timer(&mut self, _: &mut DeviceCtx<'_>, token: u64) {
                self.fired.push(token);
            }
        }
        let mut sim = Simulator::new(1);
        sim.add_device(Box::new(TimerDev { fired: Vec::new() }));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.wire_stats().timers, 4);
    }
}

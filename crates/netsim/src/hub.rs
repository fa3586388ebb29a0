//! A dumb repeating hub.

use arpshield_trace::Tracer;

use crate::device::{Device, DeviceCtx, PortId};

/// A multiport repeater: every ingress frame is copied to every other port.
///
/// Hubs make eavesdropping trivial — any attached station sees all traffic
/// — which is why the paper's threat model centres on *switched* segments
/// where the attacker must poison ARP caches to see third-party frames.
/// The hub exists here as the degenerate baseline topology.
#[derive(Debug)]
pub struct Hub {
    name: String,
    ports: usize,
    /// Frames repeated (each ingress frame counts once regardless of copies).
    pub frames_repeated: u64,
    tracer: Tracer,
}

impl Hub {
    /// Creates a hub with `ports` ports.
    ///
    /// # Panics
    ///
    /// Panics if `ports` is zero.
    pub fn new(name: impl Into<String>, ports: usize) -> Self {
        assert!(ports > 0, "a hub needs at least one port");
        Hub { name: name.into(), ports, frames_repeated: 0, tracer: Tracer::disabled() }
    }

    /// Routes the hub's repeat counter into `tracer`. Per-frame events
    /// are left to the simulator's flight recorder — a mirror hub
    /// repeats every LAN frame and would drown the event log.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }
}

impl Device for Hub {
    fn name(&self) -> &str {
        &self.name
    }

    fn port_count(&self) -> usize {
        self.ports
    }

    fn on_frame(&mut self, ctx: &mut DeviceCtx<'_>, port: PortId, _frame: &[u8]) {
        self.frames_repeated += 1;
        self.tracer.count("hub.repeated", 1);
        // Repeat the shared buffer: one allocation total regardless of
        // how many egress copies the repeat fans out to.
        let shared = ctx.incoming_frame().expect("on_frame always carries a frame");
        for p in 0..self.ports as u16 {
            if p != port.0 {
                ctx.send(PortId(p), shared.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;
    use crate::time::SimTime;
    use std::cell::Cell;
    use std::rc::Rc;
    use std::time::Duration;

    struct Sink {
        got: Rc<Cell<u64>>,
    }
    impl Device for Sink {
        fn name(&self) -> &str {
            "sink"
        }
        fn port_count(&self) -> usize {
            1
        }
        fn on_frame(&mut self, _: &mut DeviceCtx<'_>, _: PortId, _: &[u8]) {
            self.got.set(self.got.get() + 1);
        }
    }

    struct Once;
    impl Device for Once {
        fn name(&self) -> &str {
            "once"
        }
        fn port_count(&self) -> usize {
            1
        }
        fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
            ctx.send(PortId(0), vec![0; 60]);
        }
        fn on_frame(&mut self, _: &mut DeviceCtx<'_>, _: PortId, _: &[u8]) {}
    }

    #[test]
    fn repeats_to_all_other_ports() {
        let mut sim = Simulator::new(1);
        let hub = sim.add_device(Box::new(Hub::new("hub", 4)));
        let src = sim.add_device(Box::new(Once));
        sim.connect(src, PortId(0), hub, PortId(0), Duration::from_micros(1)).unwrap();
        let sinks: Vec<_> = (1..4u16)
            .map(|p| {
                let got = Rc::new(Cell::new(0));
                let s = sim.add_device(Box::new(Sink { got: Rc::clone(&got) }));
                sim.connect(s, PortId(0), hub, PortId(p), Duration::from_micros(1)).unwrap();
                got
            })
            .collect();
        sim.run_until(SimTime::from_secs(1));
        for got in &sinks {
            assert_eq!(got.get(), 1);
        }
        // 1 ingress + 3 egress copies delivered: nothing is echoed back
        // to the source port.
        assert_eq!(sim.wire_stats().frames, 4);
    }

    #[test]
    #[should_panic(expected = "at least one port")]
    fn zero_ports_rejected() {
        let _ = Hub::new("bad", 0);
    }
}

//! Engine-level regression tests for the network-wake protocol used by the
//! runtime (`schedule_net_wake`): a wake-up event snapshots
//! [`FlowNet::version`] at scheduling time and returns early when the net
//! has been re-versioned since. A stale wake that ignored the stamp — or a
//! duplicate wake for the same flow generation — must never harvest the
//! same flow twice or harvest it at a superseded completion time.

use grouter_sim::{
    EventWorld, FlowId, FlowNet, FlowOptions, LinkId, Scheduler, SimTime, Simulation,
};

const GB: f64 = 1e9;

struct World {
    net: FlowNet,
    /// Every flow id ever reported complete, in harvest order. Duplicates
    /// here mean a double-complete.
    completed: Vec<FlowId>,
    stale_wakes_dropped: usize,
}

enum Ev {
    /// The wake, exactly as in the runtime's event enum; the version stamp
    /// rides in the event value.
    NetWake { version: u64 },
    /// Start a 1 GB flow on the link, then rearm the wake.
    StartFlow(LinkId),
    /// Cancel the flow, then rearm the wake.
    CancelFlow(FlowId),
}

impl EventWorld for World {
    type Event = Ev;
    fn dispatch(&mut self, s: &mut Scheduler<Self>, ev: Ev) {
        match ev {
            Ev::NetWake { version } => {
                if self.net.version() != version {
                    self.stale_wakes_dropped += 1;
                    return;
                }
                let done = self.net.advance_to(s.now());
                self.completed.extend(done);
            }
            Ev::StartFlow(link) => {
                self.net
                    .start_flow(s.now(), vec![link], GB, FlowOptions::default())
                    .unwrap();
            }
            Ev::CancelFlow(flow) => self.net.cancel_flow(s.now(), flow).unwrap(),
        }
        schedule_net_wake(self, s);
    }
}

/// Mirror of the runtime's `schedule_net_wake`: one pending wake per
/// version; on fire, drop if stale, otherwise harvest and rearm.
fn schedule_net_wake(w: &mut World, s: &mut Scheduler<World>) {
    let Some(at) = w.net.next_completion() else {
        return;
    };
    let version = w.net.version();
    s.schedule_at(at, Ev::NetWake { version });
}

#[test]
fn stale_wake_does_not_double_complete() {
    let mut sim = Simulation::new(World {
        net: FlowNet::new(),
        completed: Vec::new(),
        stale_wakes_dropped: 0,
    });
    let link = sim.world.net.add_link("pcie", 10.0 * GB);

    // Flow A: 1 GB at 10 GB/s → wake armed for t = 100 ms, version v_a.
    let a = sim
        .world
        .net
        .start_flow(SimTime::ZERO, vec![link], GB, FlowOptions::default())
        .unwrap();
    schedule_net_wake(&mut sim.world, &mut sim.sched);

    // At t = 50 ms a second flow arrives on the same link: rates halve,
    // A's completion moves to 150 ms and the version bumps, so the wake
    // already queued for 100 ms is stale. The handler re-arms a fresh one.
    sim.sched
        .schedule_at(SimTime(50_000_000), Ev::StartFlow(link));

    sim.run();

    // Both flows complete exactly once, and the 100 ms wake was dropped.
    assert_eq!(
        sim.world.completed.len(),
        2,
        "completions: {:?}",
        sim.world.completed
    );
    let a_count = sim.world.completed.iter().filter(|&&f| f == a).count();
    assert_eq!(a_count, 1, "flow A completed {a_count} times");
    assert!(
        sim.world.stale_wakes_dropped >= 1,
        "stale wake was not dropped"
    );
    assert_eq!(sim.world.net.num_flows(), 0);
    // A finished at 150 ms (not the stale 100 ms estimate); B's last
    // 0.5 GB then runs at full rate and finishes at 200 ms.
    assert_eq!(sim.world.completed[0], a, "A should complete first");
    assert!(
        (sim.now().as_millis_f64() - 200.0).abs() < 0.01,
        "now {}",
        sim.now()
    );
}

#[test]
fn duplicate_wake_for_same_generation_completes_once() {
    // Two wake events armed for the *same* flow generation (same version,
    // same instant — e.g. redundant rearming after an unrelated event).
    // The first harvests the flow and re-versions the net; the second must
    // observe the stamp mismatch and do nothing.
    let mut sim = Simulation::new(World {
        net: FlowNet::new(),
        completed: Vec::new(),
        stale_wakes_dropped: 0,
    });
    let link = sim.world.net.add_link("nvlink", 10.0 * GB);
    let f = sim
        .world
        .net
        .start_flow(SimTime::ZERO, vec![link], GB, FlowOptions::default())
        .unwrap();
    schedule_net_wake(&mut sim.world, &mut sim.sched);
    schedule_net_wake(&mut sim.world, &mut sim.sched); // duplicate, same version

    sim.run();

    assert_eq!(sim.world.completed, vec![f], "flow double-completed");
    assert_eq!(sim.world.stale_wakes_dropped, 1);
    assert_eq!(sim.world.net.num_flows(), 0);
}

#[test]
fn wake_after_cancel_is_dropped() {
    // The flow the wake was armed for is cancelled before the wake fires;
    // the version guard must drop the wake instead of harvesting a
    // different generation of the net.
    let mut sim = Simulation::new(World {
        net: FlowNet::new(),
        completed: Vec::new(),
        stale_wakes_dropped: 0,
    });
    let link = sim.world.net.add_link("nic", 10.0 * GB);
    let f = sim
        .world
        .net
        .start_flow(SimTime::ZERO, vec![link], GB, FlowOptions::default())
        .unwrap();
    schedule_net_wake(&mut sim.world, &mut sim.sched);
    sim.sched
        .schedule_at(SimTime(10_000_000), Ev::CancelFlow(f));

    sim.run();

    assert!(
        sim.world.completed.is_empty(),
        "cancelled flow completed: {:?}",
        sim.world.completed
    );
    assert_eq!(sim.world.stale_wakes_dropped, 1);
}

//! Property-based tests of simulator invariants.

use proptest::prelude::*;
use wsn_sim::geometry::{Point, Region};
use wsn_sim::prelude::*;

#[derive(Default)]
struct Flood {
    seen: bool,
    relayed: bool,
}

impl Application for Flood {
    type Message = Vec<u8>;

    fn on_start(&mut self, ctx: &mut Context<'_, Vec<u8>>) {
        if ctx.id() == NodeId::new(0) {
            self.seen = true;
            self.relayed = true;
            ctx.broadcast(vec![0; 4]);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Vec<u8>>, _from: NodeId, msg: &Vec<u8>) {
        self.seen = true;
        if !self.relayed {
            self.relayed = true;
            ctx.broadcast(msg.clone());
        }
    }
}

fn arb_positions(max_n: usize) -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((0.0f64..300.0, 0.0f64..300.0), 2..max_n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A flood over a lossless, jitter-free-but-CSMA'd network reaches
    /// exactly the nodes connected to node 0 in the unit-disk graph.
    #[test]
    fn flood_reaches_exactly_the_connected_component(
        positions in arb_positions(40),
        seed in 0u64..1_000,
    ) {
        let pts: Vec<Point> = positions.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let dep = Deployment::from_positions(pts, Region::new(300.0, 300.0), 60.0);
        let hops = dep.hop_counts_from(NodeId::new(0));
        // paper_default MAC: random jitter desynchronises the relays so
        // collisions cannot permanently censor a component (retries come
        // from redundant neighbours).
        let mut sim = Simulator::new(dep, SimConfig::paper_default(), seed, |_| Flood::default());
        sim.run_to_quiescence(SimTime::from_secs(600));
        for (id, app) in sim.apps() {
            let reachable = hops[id.index()].is_some();
            if !reachable {
                prop_assert!(!app.seen, "{id} unreachable but saw the flood");
            }
        }
        // Node 0's own component: every member heard the flood unless a
        // collision swallowed every copy. With jittered CSMA and multiple
        // relays this is possible only in tiny degenerate graphs, so we
        // assert a weaker but still sharp invariant: the flood reached at
        // least the direct neighbours of node 0.
        for &nb in sim.deployment().neighbors(NodeId::new(0)) {
            prop_assert!(sim.app(nb).seen, "direct neighbour {nb} missed flood");
        }
    }

    /// Conservation: every transmission is accounted at every neighbour
    /// exactly once — received, overheard, or lost with one of the five
    /// reception causes, where a duplicated reception counts once (its
    /// extra copy is `engine.channel_duplicated`). Checked on the plain channel and
    /// again under crashes, outages, Gilbert–Elliott loss, corruption,
    /// gray-zone loss, reordering and duplication. Both runs record at
    /// `ObsLevel::Full` with a short MAC retry limit, so sender-side MAC
    /// drops occur and must equal the engine's `engine.mac_drops`
    /// counter.
    #[test]
    fn reception_accounting_is_conservative(
        positions in arb_positions(30),
        seed in 0u64..1_000,
        (faults, ge_rate, corrupt, reorder) in (
            prop::collection::vec((1u32..30, 0u64..20, 1u64..20, any::<bool>()), 0..6),
            0.0f64..0.3,
            0.0f64..0.1,
            0.0f64..0.2,
        ),
        (gray, duplicate, max_attempts) in (0.0f64..0.5, 0.0f64..0.2, 1u32..=3),
    ) {
        let pts: Vec<Point> = positions.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let n = pts.len() as u32;
        let mut fault_plan = FaultPlan::none();
        for &(node, start, len, crash) in &faults {
            // Node 0 is immortal; start 0 takes a node down before `on_start`.
            let node = NodeId::new(1 + node % (n - 1));
            let from = SimTime::ZERO + SimDuration::from_millis(2 * start);
            if crash {
                fault_plan.crash(node, from).expect("valid crash");
            } else {
                let until = from + SimDuration::from_millis(len);
                fault_plan.outage(node, from, until).expect("valid outage");
            }
        }
        let channel_plan = ChannelPlan::bursty(ge_rate, 0.5)
            .and_then(|p| p.with_corruption(corrupt))
            .and_then(|p| p.with_gray_zone(2.0, gray))
            .and_then(|p| p.with_reordering(reorder, SimDuration::from_millis(2)))
            .and_then(|p| p.with_duplication(duplicate))
            .expect("valid channel plan");
        for impaired in [false, true] {
            let dep = Deployment::from_positions(pts.clone(), Region::new(300.0, 300.0), 70.0);
            let degree0: Vec<usize> = dep.node_ids().map(|i| dep.degree(i)).collect();
            let config = SimConfig {
                mac: MacConfig {
                    max_attempts,
                    ..MacConfig::paper_default()
                },
                obs_level: ObsLevel::Full,
                ..SimConfig::paper_default()
            };
            let mut sim = Simulator::new(dep, config, seed, |_| Flood::default());
            if impaired {
                sim.set_fault_plan(fault_plan.clone());
                sim.set_channel_plan(channel_plan.clone());
            }
            sim.run_to_quiescence(SimTime::from_secs(600));
            let m = sim.metrics();
            // Each transmitted frame should appear at each neighbour
            // exactly once, in some bucket.
            let expected_receptions: u64 = m
                .iter()
                .map(|(id, nm)| nm.frames_sent * degree0[id.index()] as u64)
                .sum();
            let delivered: u64 = m
                .iter()
                .map(|(_, nm)| nm.frames_received + nm.frames_overheard)
                .sum();
            let duplicated = sim.obs().counter("engine.channel_duplicated");
            // `MacDrop` is a sender-side drop: the frame never went on air.
            let lost: u64 = LossCause::ALL
                .into_iter()
                .filter(|&c| c != LossCause::MacDrop)
                .map(|c| m.total_lost(c))
                .sum();
            prop_assert_eq!(expected_receptions, delivered - duplicated + lost);
            prop_assert_eq!(
                sim.obs().counter("engine.mac_drops"),
                m.total_lost(LossCause::MacDrop)
            );
        }
    }

    /// The flat-grid adjacency build equals brute-force O(N²) adjacency
    /// on arbitrary deployments: random positions, non-square regions and
    /// ranges from nearly-degenerate-small through larger than the whole
    /// region (one grid cell: the 3×3 scan must still see everything).
    #[test]
    fn grid_adjacency_matches_bruteforce(
        positions in prop::collection::vec((0.0f64..280.0, 0.0f64..160.0), 0..80),
        range_sel in 0usize..4,
    ) {
        let range = [0.5, 22.0, 65.0, 500.0][range_sel];
        let pts: Vec<Point> = positions.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let dep = Deployment::from_positions(pts.clone(), Region::new(280.0, 160.0), range);
        for (i, a) in pts.iter().enumerate() {
            let mut expect: Vec<NodeId> = pts
                .iter()
                .enumerate()
                .filter(|&(j, b)| i != j && a.distance_to(*b) <= range)
                .map(|(j, _)| NodeId::new(j as u32))
                .collect();
            expect.sort_unstable();
            prop_assert_eq!(dep.neighbors(NodeId::new(i as u32)), expect.as_slice());
        }
    }

    /// Determinism: identical seeds give identical event counts and
    /// byte totals.
    #[test]
    fn determinism(positions in arb_positions(20), seed in 0u64..50) {
        let pts: Vec<Point> = positions.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let run = || {
            let dep = Deployment::from_positions(
                pts.clone(), Region::new(300.0, 300.0), 60.0);
            let mut sim =
                Simulator::new(dep, SimConfig::paper_default(), seed, |_| Flood::default());
            sim.run_to_quiescence(SimTime::from_secs(600));
            (sim.events_processed(), sim.metrics().total_bytes_sent())
        };
        prop_assert_eq!(run(), run());
    }
}

#[test]
fn zero_node_deployment_is_well_formed() {
    let dep = Deployment::from_positions(Vec::new(), Region::new(100.0, 100.0), 50.0);
    assert!(dep.is_empty());
    assert_eq!(dep.average_degree(), 0.0);
    assert!(dep.is_connected());
}

#[test]
fn range_larger_than_region_is_a_clique() {
    // Degenerate `range > region`: every pair is in range, the grid is a
    // single cell, and each node must list all the others.
    let pts = vec![
        Point::new(0.0, 0.0),
        Point::new(99.0, 3.0),
        Point::new(40.0, 60.0),
        Point::new(99.0, 60.0),
    ];
    let dep = Deployment::from_positions(pts, Region::new(100.0, 60.0), 1_000.0);
    for a in dep.node_ids() {
        assert_eq!(dep.degree(a), 3, "{a} should neighbor every other node");
    }
}

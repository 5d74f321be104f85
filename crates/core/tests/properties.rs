//! Property-based tests of end-to-end protocol invariants on random
//! topologies, workloads and seeds.

use agg::AggFunction;
use icpda::{IcpdaConfig, IcpdaRun};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wsn_sim::geometry::Region;
use wsn_sim::prelude::*;

fn network(n: usize, seed: u64) -> Deployment {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Deployment::uniform_random_with_central_bs(n, Region::new(250.0, 250.0), 50.0, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Honest rounds are always accepted and never over-count: the
    /// collected aggregate is a sum over a *subset* of real readings.
    #[test]
    fn honest_rounds_never_overcount(
        n in 40usize..120,
        dep_seed in 0u64..500,
        run_seed in 0u64..500,
        readings in prop::collection::vec(0u64..1_000, 120),
    ) {
        let dep = network(n, dep_seed);
        let mut readings = readings[..n].to_vec();
        readings[0] = 0;
        let truth: u64 = readings[1..].iter().sum();
        let out = IcpdaRun::new(
            dep,
            IcpdaConfig::paper_default(AggFunction::Sum),
            readings,
            run_seed,
        )
        .run();
        prop_assert!(out.accepted, "honest round rejected");
        prop_assert!(out.alarms.is_empty());
        prop_assert!(out.value <= truth as f64 + 0.5,
            "over-count: {} > {}", out.value, truth);
        prop_assert!(out.value >= 0.0);
    }

    /// COUNT and the participant counter agree, and both are bounded by
    /// the network size.
    #[test]
    fn count_equals_participants(
        n in 40usize..120,
        dep_seed in 0u64..500,
        run_seed in 0u64..500,
    ) {
        let dep = network(n, dep_seed);
        let out = IcpdaRun::new(
            dep,
            IcpdaConfig::paper_default(AggFunction::Count),
            agg::readings::count_readings(n),
            run_seed,
        )
        .run();
        prop_assert_eq!(out.value, f64::from(out.participants));
        prop_assert!((out.participants as usize) < n);
        prop_assert_eq!(out.included as u32, out.participants);
    }

    /// Every sharing node's roster is well-formed: contains the node,
    /// respects the configured size bounds, and the node count in any
    /// cluster never exceeds the roster.
    #[test]
    fn rosters_are_well_formed(
        n in 40usize..120,
        dep_seed in 0u64..500,
        run_seed in 0u64..500,
    ) {
        let config = IcpdaConfig::paper_default(AggFunction::Count);
        let dep = network(n, dep_seed);
        let out = IcpdaRun::new(
            dep,
            config,
            agg::readings::count_readings(n),
            run_seed,
        )
        .run();
        for (node, roster) in &out.rosters {
            prop_assert!(roster.contains(*node));
            prop_assert!(roster.len() >= config.min_cluster_size);
            prop_assert!(roster.len() <= config.max_cluster_size);
            prop_assert!(roster.contains(roster.head()));
        }
        // Roles partition the nodes the query flood reached: all non-BS
        // nodes except unreachable pockets (and at most a handful whose
        // every query copy collided).
        let dep = network(n, dep_seed);
        let reachable = dep
            .hop_counts_from(NodeId::new(0))
            .iter()
            .filter(|h| h.is_some())
            .count()
            - 1; // minus the BS itself
        let decided = out.heads + out.members + out.orphans;
        prop_assert!(decided < n);
        prop_assert!(
            decided + 5 >= reachable,
            "flood reached only {decided} of {reachable} reachable nodes"
        );
    }

    /// The whole pipeline is a pure function of (deployment seed,
    /// run seed, readings).
    #[test]
    fn end_to_end_determinism(
        n in 40usize..90,
        dep_seed in 0u64..200,
        run_seed in 0u64..200,
    ) {
        let run = || {
            IcpdaRun::new(
                network(n, dep_seed),
                IcpdaConfig::paper_default(AggFunction::Sum),
                agg::readings::count_readings(n),
                run_seed,
            )
            .run()
        };
        let (a, b) = (run(), run());
        prop_assert_eq!(a.value.to_bits(), b.value.to_bits());
        prop_assert_eq!(a.total_bytes, b.total_bytes);
        prop_assert_eq!(a.cluster_sizes, b.cluster_sizes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Under a lossy channel the protocol still never over-counts, never
    /// false-alarms, and stays within bounds.
    #[test]
    fn lossy_channel_preserves_soundness(
        n in 40usize..100,
        dep_seed in 0u64..200,
        run_seed in 0u64..200,
        loss_pct in 0u32..15,
    ) {
        let dep = network(n, dep_seed);
        let channel = ChannelPlan::none()
            .with_iid_loss(f64::from(loss_pct) / 100.0)
            .unwrap();
        let out = IcpdaRun::new(
            dep,
            IcpdaConfig::paper_default(AggFunction::Count),
            agg::readings::count_readings(n),
            run_seed,
        )
        .with_channel_plan(channel)
        .run();
        prop_assert!(out.accepted, "benign loss must never look like pollution");
        prop_assert!(out.value <= (n - 1) as f64 + 0.5);
    }
}

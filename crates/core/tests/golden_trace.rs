//! Golden-trace regression: the engine's observable behaviour — every
//! trace entry, every metrics counter, the virtual clock — is pinned to
//! committed fixtures: the paper default with its full trace, and a
//! churn run over a lossy channel with its trace folded into a digest.
//! Any engine refactor (payload sharing, batched delivery, trace levels,
//! timer bookkeeping) must reproduce these files byte-for-byte; a diff
//! here means the "same seed ⇒ identical trace" invariant broke, not
//! that a fixture needs a casual refresh.
//!
//! To re-bless after an *intentional* behaviour change (one that
//! DESIGN.md §6 sanctions), run:
//!
//! ```text
//! ICPDA_BLESS=1 cargo test -p icpda --test golden_trace
//! ```
//!
//! (append a test name to re-bless one fixture only)
//!
//! and commit the regenerated fixture together with the change that
//! justifies it.

use agg::AggFunction;
use icpda::{IcpdaConfig, IcpdaNode};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::fmt::Write as _;
use std::path::PathBuf;
use wsn_sim::geometry::Region;
use wsn_sim::prelude::*;
use wsn_sim::topology::Deployment;

/// Network size for the fixtures: the evaluation sweep's smallest point —
/// dense enough to form many clusters and exercise collisions,
/// overhearing and multi-hop relays, small enough to keep the committed
/// fixtures reviewable.
const N: usize = 200;
const SEED: u64 = 42;

/// Which pinned run to render.
#[derive(Clone, Copy)]
enum Scenario {
    /// The paper default: no crash recovery, an empty channel plan. Every trace line is stored.
    PaperDefault,
    /// The branches the paper default never reaches: crash recovery
    /// under random churn, distance-dependent loss, and a channel plan
    /// with Gilbert–Elliott loss, corruption, reordering and duplication.
    /// The trace is stored as a line count plus an FNV-1a digest.
    Churn,
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// 64-bit FNV-1a, folded over the rendered trace lines.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Runs one full iCPDA round of `scenario` with tracing on and renders
/// every observable into a deterministic text document.
fn render_run(scenario: Scenario) -> String {
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    let dep =
        Deployment::uniform_random_with_central_bs(N, Region::paper_default(), 50.0, &mut rng);
    let mut config = IcpdaConfig::paper_default(AggFunction::Count);
    let readings = agg::readings::count_readings(N);
    let mut sim_config = SimConfig::paper_default();
    // Room for the full round: the assertion below proves nothing was
    // evicted, so the fixture is the *complete* event record.
    sim_config.trace_capacity = 1 << 20;
    if let Scenario::Churn = scenario {
        config.crash_recovery = true;
    }
    let mut sim = Simulator::new(dep, sim_config, SEED, |id| {
        IcpdaNode::new(config, id == NodeId::new(0), readings[id.index()])
    });
    if let Scenario::Churn = scenario {
        let horizon = config.schedule.decision_time();
        sim.set_fault_plan(FaultPlan::random_churn(N, 0.1, horizon, SEED).expect("valid churn"));
        let channel = ChannelPlan::bursty(0.1, 0.8)
            .and_then(|p| p.with_corruption(0.02))
            .and_then(|p| p.with_reordering(0.05, SimDuration::from_millis(20)))
            .and_then(|p| p.with_duplication(0.05))
            .and_then(|p| p.with_gray_zone(2.0, 0.3))
            .expect("valid channel plan");
        sim.set_channel_plan(channel);
    }
    let deadline = SimTime::ZERO + config.schedule.decision_time() + SimDuration::from_secs(1);
    sim.run_until(deadline);
    assert_eq!(sim.trace().evicted(), 0, "fixture must hold the full trace");

    let mut out = String::new();
    match scenario {
        Scenario::PaperDefault => {
            let _ = writeln!(out, "# golden trace: n={N} seed={SEED} one round");
        }
        Scenario::Churn => {
            let _ = writeln!(
                out,
                "# golden churn run: n={N} seed={SEED} one round, crash recovery, \
                 distance-dependent loss, bursty/corrupting/reordering/duplicating channel"
            );
        }
    }
    let _ = writeln!(out, "now_ns={}", sim.now().as_nanos());
    let _ = writeln!(out, "events_processed={}", sim.events_processed());
    let (mut lines, mut digest) = (0u64, 0xCBF2_9CE4_8422_2325u64);
    let mut line = String::new();
    for entry in sim.trace().iter() {
        line.clear();
        let _ = writeln!(line, "{} {:?}", entry.time.as_nanos(), entry.kind);
        match scenario {
            Scenario::PaperDefault => out.push_str(&line),
            Scenario::Churn => {
                lines += 1;
                digest = fnv1a(digest, line.as_bytes());
            }
        }
    }
    if let Scenario::Churn = scenario {
        let _ = writeln!(out, "trace lines={lines} fnv1a={digest:016x}");
    }
    let m = sim.metrics();
    let _ = writeln!(
        out,
        "totals frames={} bytes={} energy_uj={}",
        m.total_frames_sent(),
        m.total_bytes_sent(),
        // Integer microjoules: full-precision floats would make the
        // fixture brittle against benign float formatting.
        (m.total_energy_mj() * 1000.0).round() as i64,
    );
    for (id, nm) in m.iter() {
        let _ = write!(
            out,
            "node {} tx={}/{} rx={}/{} oh={} lost={},{},{},{}",
            id.as_u32(),
            nm.frames_sent,
            nm.bytes_sent,
            nm.frames_received,
            nm.bytes_received,
            nm.frames_overheard,
            nm.lost_collision,
            nm.lost_stochastic,
            nm.lost_half_duplex,
            nm.lost_receiver_down,
        );
        if let Scenario::Churn = scenario {
            let _ = write!(out, ",{}", nm.lost_corrupt);
        }
        let _ = writeln!(out, " drops={}", nm.mac_drops);
    }
    for (name, value) in m.user_counters() {
        let _ = writeln!(out, "counter {name}={value}");
    }
    out
}

/// Compares `rendered` with the committed fixture `name`, or rewrites the
/// fixture under `ICPDA_BLESS`.
fn check_fixture(rendered: &str, name: &str) {
    let path = golden_path(name);
    if std::env::var_os("ICPDA_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, rendered).expect("write golden fixture");
        eprintln!("blessed {} ({} bytes)", path.display(), rendered.len());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); run with ICPDA_BLESS=1 to generate it",
            path.display()
        )
    });
    if rendered != golden {
        // Locate the first divergent line so the failure is actionable
        // without diffing megabytes by hand.
        let mismatch = rendered
            .lines()
            .zip(golden.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b);
        match mismatch {
            Some((i, (got, want))) => panic!(
                "{name} diverged at line {}:\n  got:  {got}\n  want: {want}\n\
                 (ICPDA_BLESS=1 re-blesses after an intentional change)",
                i + 1
            ),
            None => panic!(
                "{name} length changed: got {} lines, want {} lines",
                rendered.lines().count(),
                golden.lines().count()
            ),
        }
    }
}

#[test]
fn engine_reproduces_the_blessed_trace() {
    check_fixture(&render_run(Scenario::PaperDefault), "trace_n200_seed42.txt");
}

/// Pins the crash-recovery, lossy-channel branches, including the
/// known crash-recovery defect documented in `perfbench/README.md`:
/// this fixture records today's behaviour, not the correct one.
#[test]
fn engine_reproduces_the_blessed_churn_run() {
    check_fixture(&render_run(Scenario::Churn), "churn_n200_seed42.txt");
}

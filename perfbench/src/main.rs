//! The repository benchmark's measuring program.
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0
//! perfbench --workload W --seed N --seconds S --trace 1 --scratch DIR
//! perfbench --workload W --seed N --bless
//! ```
//!
//! A closed loop on one thread: iteration `i` builds the inputs seeded
//! `N + i`, runs one `IcpdaRun` session on them and checks its
//! decisions, until `S` seconds have passed. `--trace 0` reports the
//! end-to-end metrics of that loop. `--trace 1` runs the loop for half
//! the time, then replays its first sessions through the traced run of
//! [`traced`] for the other half and reports the per-layer split; it
//! refuses to report when the traced sessions differ from the untraced
//! ones. Either way, the session on the committed reference seed is run
//! and compared first. The last line of standard output is one JSON
//! record; `perfbench/run.py` turns it into the benchmark's result.
//! `--bless` prints the reference entry for seed `N` instead.

#![forbid(unsafe_code)]

mod micro;
mod traced;
mod workload;

use icpda_obs::json::{self, Json};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{SessionFacts, Workload, FAILURE_REASONS};
use wsn_sim::prelude::*;

/// Simulated outcomes of each workload's reference seed, written by
/// `run.py bless`.
const REFERENCE: &str = include_str!("../reference.json");

/// Host-time of `f` in seconds, with its value.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64())
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
    /// Where the traced run's self-test may write files.
    scratch: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds) = (None, None, 10.0);
    let (mut trace, mut bless, mut scratch) = (false, false, None);
    while let Some(flag) = args.next() {
        if flag == "--bless" {
            bless = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    bad(&format!("expected one of {}", names.join(", ")))
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| bad("expected seconds in (0, 600]"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                };
            }
            "--scratch" => scratch = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        bless,
        scratch,
    })
}

/// One untraced session of the timed loop.
struct Session {
    seed: u64,
    setup_s: f64,
    run_s: f64,
    facts: SessionFacts,
    eligible: Vec<u32>,
    flags: Vec<[bool; 4]>,
    /// Kept only for the sessions a traced run replays: holding them
    /// for every session would grow the process with the loop length and
    /// show up in `peak_rss_mb`.
    user_counters: Vec<(&'static str, u64)>,
    cluster_sizes: Vec<usize>,
}

/// Builds, runs and checks the session seeded `seed`; `detail` keeps its
/// counters and cluster sizes.
fn session(w: Workload, seed: u64, detail: bool) -> Session {
    let (setup, setup_s) = timed(|| workload::setup(w, seed));
    let eligible = setup.eligible_per_round();
    let final_start = setup.round_start(setup.config.rounds - 1);
    let run = setup.into_run();
    let (outcome, run_s) = timed(|| run.run());
    let facts = SessionFacts::of(&outcome, final_start);
    let flags = workload::check(&facts, &eligible);
    Session {
        seed,
        setup_s,
        run_s,
        facts,
        eligible,
        flags,
        user_counters: if detail {
            outcome.user_counters
        } else {
            Vec::new()
        },
        cluster_sizes: if detail {
            outcome.cluster_sizes
        } else {
            Vec::new()
        },
    }
}

/// Whether a loop that has run `done` sessions since `start` may start
/// another within `budget`: it must be expected to end in time, at the
/// mean session length so far, so a run does not overshoot its seconds.
fn fits(start: Instant, done: usize, budget: Duration) -> bool {
    let elapsed = start.elapsed();
    done == 0 || elapsed + elapsed / done as u32 <= budget
}

/// The closed loop: sessions seeded `seed, seed + 1, ...` for `budget`,
/// and at least `min` of them. Returns the sessions and the loop's host
/// seconds.
fn closed_loop(
    w: Workload,
    seed: u64,
    budget: Duration,
    min: usize,
    detail: bool,
) -> (Vec<Session>, f64) {
    let start = Instant::now();
    let mut sessions = Vec::new();
    while sessions.len() < min || fits(start, sessions.len(), budget) {
        sessions.push(session(w, seed + sessions.len() as u64, detail));
    }
    (sessions, start.elapsed().as_secs_f64())
}

fn reference_entry(facts: &SessionFacts, seed: u64) -> Json {
    let num = |x: u64| Json::Num(x as f64);
    let decisions = facts
        .decisions
        .iter()
        .map(|d| {
            Json::Obj(vec![
                (
                    "value_bits".into(),
                    Json::Str(format!("{:016x}", d.value_bits)),
                ),
                ("participants".into(), num(u64::from(d.participants))),
                ("accepted".into(), Json::Bool(d.accepted)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("seed".into(), num(seed)),
        ("frames".into(), num(facts.frames)),
        ("bytes".into(), num(facts.bytes)),
        ("latency_ns".into(), num(facts.latency_ns)),
        ("decisions".into(), Json::Arr(decisions)),
    ])
}

/// The committed reference of `w`: its seed and entry.
fn reference(w: Workload) -> Result<(u64, Json), String> {
    let doc = json::parse(REFERENCE).map_err(|e| format!("reference.json: {e}"))?;
    let entry = doc
        .get(w.name())
        .cloned()
        .ok_or_else(|| format!("reference.json has no entry for {}", w.name()))?;
    let seed = entry
        .get("seed")
        .and_then(Json::as_f64)
        .ok_or("reference.json: entry without a seed")?;
    Ok((seed as u64, entry))
}

/// Runs the reference session and flags every decision whose simulated
/// outcome differs from the committed one; a session-level difference
/// (frames, bytes, latency) flags the final decision.
fn reference_session(w: Workload) -> Result<Session, String> {
    let (seed, expected) = reference(w)?;
    let mut s = session(w, seed, false);
    let actual = reference_entry(&s.facts, seed);
    let decisions = |e: &Json| {
        e.get("decisions")
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
    };
    let (want, got) = (
        decisions(&expected).unwrap_or_default(),
        decisions(&actual).unwrap_or_default(),
    );
    let session_differs = ["frames", "bytes", "latency_ns"]
        .iter()
        .any(|k| expected.get(k) != actual.get(k));
    let last = s.flags.len() - 1;
    for (round, flags) in s.flags.iter_mut().enumerate() {
        flags[3] = want.get(round) != got.get(round)
            || (round == last && (session_differs || want.len() != got.len()));
    }
    Ok(s)
}

/// Counts attempted and failed decisions and failures per reason.
fn tally<'a>(sessions: impl IntoIterator<Item = &'a Session>) -> (u64, u64, [u64; 4]) {
    let (mut attempted, mut failed, mut per_reason) = (0, 0, [0u64; 4]);
    for flags in sessions.into_iter().flat_map(|s| &s.flags) {
        attempted += 1;
        failed += u64::from(flags.iter().any(|&f| f));
        for (n, &f) in per_reason.iter_mut().zip(flags) {
            *n += u64::from(f);
        }
    }
    (attempted, failed, per_reason)
}

/// Metrics in output order, `(name, value, unit)`.
type Metrics = Vec<(String, f64, &'static str)>;

fn push(m: &mut Metrics, name: impl Into<String>, value: f64, unit: &'static str) {
    m.push((name.into(), value, unit));
}

/// The end-to-end metrics of an untraced loop.
fn end_to_end(
    w: Workload,
    sessions: &[Session],
    loop_s: f64,
    info: &mut Vec<(String, Json)>,
) -> Metrics {
    let decisions: usize = sessions.iter().map(|s| s.flags.len()).sum();
    let run_s: Vec<f64> = sessions.iter().map(|s| s.run_s).collect();
    let setup_s: Vec<f64> = sessions.iter().map(|s| s.setup_s).collect();
    info.push(("run_s_samples".into(), Json::Num(run_s.len() as f64)));
    info.push((
        "run_s".into(),
        Json::Arr(run_s.iter().map(|&x| Json::Num(x)).collect()),
    ));
    // The p90 is reported only where at least ten samples lie beyond it.
    if run_s.len() >= 100 {
        info.push(("run_s_p90".into(), Json::Num(micro::quantile(&run_s, 0.9))));
    }
    let window = &sessions[..w.sim_window().min(sessions.len())];
    let (mut covered, mut eligible, mut bytes, mut rounds, mut latency_ns) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for s in window {
        for (round, flags) in s.flags.iter().enumerate() {
            let d = s.facts.decisions.get(round);
            if let Some(d) = d.filter(|d| d.accepted && !flags.iter().any(|&f| f)) {
                covered += u64::from(d.participants);
            }
            eligible += u64::from(s.eligible[round]);
        }
        bytes += s.facts.bytes;
        rounds += s.flags.len() as u64;
        latency_ns += s.facts.latency_ns;
    }
    let rss_mb = wsn_sim::profile::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0);
    let mut m = Metrics::new();
    push(&mut m, "rounds_per_s", decisions as f64 / loop_s, "1/s");
    push(&mut m, "run_s_p50", micro::median(&run_s), "s");
    push(&mut m, "setup_s", micro::median(&setup_s), "s");
    push(&mut m, "peak_rss_mb", rss_mb, "MB");
    push(
        &mut m,
        "coverage",
        covered as f64 / eligible.max(1) as f64,
        "ratio",
    );
    push(
        &mut m,
        "sim_latency_s",
        latency_ns as f64 / 1e9 / window.len() as f64,
        "s",
    );
    push(
        &mut m,
        "bytes_per_node",
        bytes as f64 / (w.nodes() as u64 * rounds) as f64,
        "B",
    );
    m
}

/// Host nanoseconds of the engine profile section `name`, all shards.
fn section_ns(p: &wsn_sim::EngineProfile, name: &str) -> u64 {
    p.sections.iter().filter(|s| s.0 == name).map(|s| s.3).sum()
}

/// The events `IcpdaRun` itself processes on `seed`, read back from the
/// engine profile it writes.
fn icpda_run_events(w: Workload, seed: u64, scratch: &str) -> Result<u64, String> {
    let dir =
        std::path::Path::new(scratch).join(format!("{}-{seed}-{}", w.name(), std::process::id()));
    let stream = icpda_obs::stream::ObsStream::create(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    let setup = workload::setup(w, seed);
    let mut sim_config = SimConfig::paper_default();
    sim_config.profile = true;
    let manifest = icpda_obs::export::Manifest {
        tool: "perfbench".into(),
        seed,
        threads: 1,
        git_rev: "unknown".into(),
        config: Vec::new(),
    };
    let outcome = setup
        .into_run()
        .with_sim_config(sim_config)
        .with_obs_stream(stream, manifest)
        .run();
    let text = std::fs::read_to_string(dir.join("profile.jsonl"));
    let _ = std::fs::remove_dir_all(&dir);
    if let Some(e) = outcome.stream.and_then(|s| s.error) {
        return Err(e);
    }
    let text = text.map_err(|e| format!("profile.jsonl: {e}"))?;
    Ok(icpda_obs::profile::parse_profile(&text)?.events)
}

/// The traced half of `--trace 1`: replays the loop's sessions through
/// [`traced::run`] for `budget`, checks them against the untraced ones,
/// and derives the per-layer split.
fn per_layer(
    w: Workload,
    sessions: &[Session],
    budget: Duration,
    failures: (u64, [u64; 4]),
    scratch: &str,
) -> Result<Metrics, String> {
    let start = Instant::now();
    let mut runs = Vec::new();
    let (mut build_s, mut ecc_s) = (Vec::new(), Vec::new());
    for s in sessions {
        if !fits(start, runs.len(), budget) {
            break;
        }
        let (dep, b) = timed(|| workload::deployment(w.nodes(), s.seed));
        let (_, e) = timed(|| dep.eccentricity(NodeId::new(0)));
        drop(dep);
        build_s.push(b);
        ecc_s.push(e);
        let t = traced::run(workload::setup(w, s.seed));
        if t.facts != s.facts || t.user_counters != s.user_counters {
            return Err(format!(
                "self-test: the traced session on seed {} differs from IcpdaRun's \
                 (traced {:?}, untraced {:?})",
                s.seed, t.facts, s.facts
            ));
        }
        runs.push(t);
    }
    let expected = icpda_run_events(w, sessions[0].seed, scratch)?;
    if runs[0].events != expected {
        return Err(format!(
            "self-test: the traced session on seed {} processed {} events, IcpdaRun {expected}",
            sessions[0].seed, runs[0].events
        ));
    }
    println!(
        "self-test: {} traced sessions match IcpdaRun (decisions, frames, bytes, counters; events on seed {})",
        runs.len(),
        sessions[0].seed
    );

    let traced = &sessions[..runs.len()];
    let d = traced.iter().map(|s| s.flags.len()).sum::<usize>() as f64;
    let untraced_p50 = micro::median(&traced.iter().map(|s| s.run_s).collect::<Vec<_>>());
    let traced_p50 = micro::median(&runs.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let times = traced::total_times(&runs);
    let sum = |f: &dyn Fn(&traced::TracedSession) -> u64| runs.iter().map(f).sum::<u64>() as f64;
    let section = |name: &str| sum(&|r| section_ns(&r.profile, name));
    let counter = |name: &str| {
        sum(&|r| {
            r.user_counters
                .iter()
                .filter(|c| c.0 == name)
                .map(|c| c.1)
                .sum()
        })
    };
    let events = sum(&|r| r.events);
    let all_sections = sum(&|r| r.profile.sections.iter().map(|s| s.3).sum());
    let wall_ns = runs.iter().map(|r| r.wall_s).sum::<f64>() * 1e9;
    let peak_len = runs
        .iter()
        .flat_map(|r| &r.profile.gauges)
        .filter(|g| g.0.starts_with("calendar.peak_len"))
        .map(|g| g.1)
        .max()
        .unwrap_or(0);
    let (reused, allocated) = (sum(&|r| r.arena.reused), sum(&|r| r.arena.allocated));

    let mut m = Metrics::new();
    let per = |x: f64| x / d;
    let secs = |ns: f64| ns / 1e9 / d;
    push(&mut m, "sim.events", per(events), "count");
    let events_per_s = events / runs.len() as f64 / untraced_p50;
    push(&mut m, "sim.events_per_s", events_per_s, "1/s");
    let delivery = section("engine.dispatch.delivery") + section("engine.dispatch.redelivery");
    for (name, ns) in [
        ("sim.next_event_s", section("engine.next_event")),
        ("sim.delivery_self_s", delivery - times.delivery_ns() as f64),
        (
            "sim.timer_self_s",
            section("engine.dispatch.timer") - times.on_timer.1 as f64,
        ),
        ("sim.mac_attempt_s", section("engine.dispatch.mac_attempt")),
        ("sim.tx_end_s", section("engine.dispatch.tx_end")),
    ] {
        push(&mut m, name, secs(ns), "s");
    }
    push(
        &mut m,
        "sim.frames_sent",
        per(sum(&|r| r.facts.frames)),
        "count",
    );
    push(
        &mut m,
        "sim.receptions",
        per(sum(&|r| r.receptions)),
        "count",
    );
    for (i, (_, cause)) in traced::LOSS_CAUSES.iter().enumerate() {
        let lost = per(sum(&|r| r.lost[i]));
        push(&mut m, format!("sim.lost.{cause}"), lost, "count");
    }
    push(&mut m, "sim.calendar_peak_len", peak_len as f64, "count");
    let reused_ratio = reused / (reused + allocated).max(1.0);
    push(&mut m, "sim.arena_reused_ratio", reused_ratio, "ratio");
    push(&mut m, "topology.build_s", micro::median(&build_s), "s");
    push(
        &mut m,
        "topology.eccentricity_s",
        micro::median(&ecc_s),
        "s",
    );

    push(&mut m, "icpda.app_s", secs(times.total_ns() as f64), "s");
    let callbacks = traced::VARIANTS
        .iter()
        .map(|v| format!("on_message.{v}"))
        .zip(times.on_message)
        .chain(
            ["on_overhear.upstream", "on_overhear.other"]
                .map(String::from)
                .into_iter()
                .zip(times.on_overhear),
        )
        .chain([("on_timer".to_string(), times.on_timer)]);
    for (name, (calls, ns)) in callbacks {
        push(
            &mut m,
            format!("icpda.{name}.calls"),
            per(calls as f64),
            "count",
        );
        push(&mut m, format!("icpda.{name}.s"), secs(ns as f64), "s");
    }
    let overheard = (times.on_overhear[0].0 + times.on_overhear[1].0).max(1);
    let useful = times.on_overhear[0].0 as f64 / overheard as f64;
    push(&mut m, "icpda.overhear_useful_ratio", useful, "ratio");
    for (metric, counter_name) in [
        ("retransmit", "icpda_rel_retransmit"),
        ("timeout", "icpda_rel_timeout"),
        ("budget_exhausted", "icpda_rel_exhausted"),
        ("duplicate", "icpda_rel_duplicate"),
    ] {
        let n = per(counter(counter_name));
        push(&mut m, format!("icpda.rel.{metric}"), n, "count");
    }
    let solved = counter("icpda_head_solved") / sum(&|r| r.heads).max(1.0);
    push(&mut m, "icpda.clusters_solved_ratio", solved, "ratio");
    let (attempted, per_reason) = failures;
    for (reason, n) in FAILURE_REASONS.iter().zip(per_reason) {
        let share = n as f64 / attempted.max(1) as f64;
        push(&mut m, format!("icpda.failed.{reason}"), share, "ratio");
    }

    let mut sizes: Vec<f64> = sessions
        .iter()
        .flat_map(|s| &s.cluster_sizes)
        .map(|&c| c as f64)
        .collect();
    if sizes.is_empty() {
        sizes.push(1.0);
    }
    let cluster = micro::median(&sizes).round().max(1.0) as usize;
    let threshold = workload::setup(w, sessions[0].seed)
        .config
        .min_cluster_size
        .clamp(1, cluster);
    let calls = micro::layer_calls(
        cluster,
        threshold,
        w.nodes(),
        peak_len as usize,
        sessions[0].seed,
    );
    println!(
        "layer calls at cluster size {cluster}, threshold {threshold}, calendar length {peak_len}"
    );
    for (name, ns) in [
        ("shares.generate_ns", calls.generate_ns),
        ("shares.recover_ns", calls.recover_ns),
        ("shares.generate_t_ns", calls.generate_t_ns),
        ("shares.recover_at_ns", calls.recover_at_ns),
        ("crypto.seal_open_ns", calls.seal_open_ns),
        ("agg.fp_mul_ns", calls.fp_mul_ns),
        ("agg.fp_inverse_ns", calls.fp_inverse_ns),
        ("agg.fp_batch_inverse_ns", calls.fp_batch_inverse_ns),
        ("calendar.push_pop_ns", calls.push_pop_ns),
    ] {
        push(&mut m, name, ns, "ns");
    }
    let overhead = traced_p50 / untraced_p50 - 1.0;
    push(&mut m, "trace.overhead_ratio", overhead, "ratio");
    let unattributed = 1.0 - all_sections / wall_ns;
    push(&mut m, "layer.unattributed_share", unattributed, "ratio");
    println!(
        "layer split: engine sections {:.4} s + unattributed {:.4} s = traced wall {:.4} s per session; \
         app callbacks {:.4} s of it",
        all_sections / 1e9 / runs.len() as f64,
        (wall_ns - all_sections) / 1e9 / runs.len() as f64,
        wall_ns / 1e9 / runs.len() as f64,
        times.total_ns() as f64 / 1e9 / runs.len() as f64,
    );
    Ok(m)
}

fn host() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    Json::Obj(vec![
        ("cpu_model".into(), Json::Str(cpu)),
        ("logical_cores".into(), Json::Num(cores as f64)),
        ("calibration_ms".into(), Json::Num(micro::calibration_ms())),
    ])
}

fn run(args: &Args) -> Result<Json, String> {
    let w = args.workload;
    if args.bless {
        let s = session(w, args.seed, false);
        return Ok(reference_entry(&s.facts, args.seed));
    }
    let host = host();
    let reference = reference_session(w)?;
    let loop_budget = Duration::from_secs_f64(if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    });
    let (sessions, loop_s) = closed_loop(w, args.seed, loop_budget, w.sim_window(), args.trace);
    let (attempted, failed, per_reason) = tally(std::iter::once(&reference).chain(&sessions));
    let mut info = Vec::new();
    let e2e = end_to_end(w, &sessions, loop_s, &mut info);
    let metrics = if args.trace {
        let scratch = args
            .scratch
            .as_deref()
            .ok_or("--trace 1 needs --scratch DIR")?;
        per_layer(w, &sessions, loop_budget, (attempted, per_reason), scratch)?
    } else {
        e2e.clone()
    };
    println!(
        "{} seed {}: {} sessions in {loop_s:.2} s, {attempted} decisions attempted, {failed} failed",
        w.name(),
        args.seed,
        sessions.len()
    );
    for (reason, n) in FAILURE_REASONS.iter().zip(per_reason) {
        if n > 0 {
            println!("  failed: {reason} {n} of {attempted}");
        }
    }
    if !args.trace {
        for (name, value) in info.iter().filter(|(name, _)| name != "run_s") {
            println!("  {name}: {}", value.compact());
        }
    }
    let num = |x: u64| Json::Num(x as f64);
    let to_json = |m: &Metrics| {
        Json::Obj(
            m.iter()
                .map(|(name, value, unit)| {
                    let value = if value.is_finite() {
                        Json::Num(*value)
                    } else {
                        Json::Null
                    };
                    (
                        name.clone(),
                        Json::Obj(vec![
                            ("value".into(), value),
                            ("unit".into(), Json::Str((*unit).into())),
                        ]),
                    )
                })
                .collect(),
        )
    };
    Ok(Json::Obj(vec![
        ("workload".into(), Json::Str(w.name().into())),
        ("seed".into(), num(args.seed)),
        ("trace".into(), Json::Bool(args.trace)),
        ("attempted".into(), num(attempted)),
        ("failed".into(), num(failed)),
        (
            "failures".into(),
            Json::Obj(
                FAILURE_REASONS
                    .iter()
                    .zip(per_reason)
                    .map(|(r, n)| ((*r).into(), num(n)))
                    .collect(),
            ),
        ),
        ("end_to_end".into(), to_json(&e2e)),
        ("metrics".into(), to_json(&metrics)),
        ("info".into(), Json::Obj(info)),
        ("host".into(), host),
    ]))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(record) => {
            println!("{}", record.compact());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#!/usr/bin/env python3
"""Repository benchmark for the iCPDA reproduction.

Builds the measuring program in perfbench/ from source (it depends on the
protocol crates by path and changes none of them), runs it, adds the host
fingerprint, and prints the result. Run from the repository root:

  python3 perfbench/run.py --workload paper_n600 --seed 1 --seconds 10 --trace 0
      One run. The last line of standard output is the result:
      {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
      metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
      per_layer list. --out FILE also saves the full record.
  python3 perfbench/run.py all [--seconds S] [--trace 0|1] [--out DIR]
      Every workload (churn_n600 included), one process each, on its
      default seed, printed as one table with the host fingerprint.
  python3 perfbench/run.py compare BASE.json HEAD.json
      Compares two saved records; refuses when their host fingerprints
      differ instead of printing a speed-up.
  python3 perfbench/run.py bless
      Rewrites perfbench/reference.json from each workload's default seed.

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
# Calibration-loop times further apart than this mean the two records
# were not measured on comparable hosts.
CALIBRATION_TOLERANCE = 0.10
FINGERPRINT_KEYS = ("cpu_model", "logical_cores", "rustc")


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build").resolve()


def build():
    """Builds the measuring program; returns its path or None."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return target_dir() / "release" / "perfbench"


def command_output(cmd):
    # The ceiling keeps git from adopting a repository above this one.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def fingerprint(host):
    fp = dict(host)
    fp["rustc"] = command_output(["rustc", "-V"])
    fp["git_rev"] = command_output(["git", "rev-parse", "--short", "HEAD"])
    return fp


def benchmark_lists():
    """BENCHMARK.json's metric names, or None outside a full checkout."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    spec = json.loads(path.read_text())
    return {
        False: [m["name"] for m in spec["end_to_end"]],
        True: [m["name"] for m in spec["per_layer"]],
    }


def measure(binary, workload, seed, seconds, trace):
    """Runs one measurement; returns (record, other stdout lines) or None."""
    scratch = target_dir() / "perfbench-scratch"
    cmd = [
        str(binary), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1" if trace else "0",
        "--scratch", str(scratch),
    ]
    try:
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = out.stdout.splitlines()
    if out.returncode != 0 or not lines:
        print(f"perfbench: {workload} failed (exit {out.returncode})", file=sys.stderr)
        sys.stdout.write("".join(line + "\n" for line in lines))
        return None
    record = json.loads(lines[-1])
    record["host"] = fingerprint(record["host"])
    record["seconds"] = seconds
    return record, lines[:-1]


def result(record, names):
    metrics = record["metrics"]
    if names is not None:
        missing = [n for n in names if n not in metrics]
        if missing:
            raise SystemExit(f"perfbench: BENCHMARK.json lists unmeasured metrics {missing}")
        metrics = {n: metrics[n] for n in names}
    if any(m["value"] is None for m in metrics.values()):
        raise SystemExit("perfbench: a metric is not a finite number")
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def cmd_run(args):
    binary = build()
    if binary is None:
        return 1
    measured = measure(binary, args.workload, args.seed, args.seconds, args.trace == 1)
    if measured is None:
        return 1
    record, lines = measured
    lists = benchmark_lists()
    out = result(record, None if lists is None else lists[args.trace == 1])
    for line in lines:
        print(line)
    print("host: " + json.dumps(record["host"], sort_keys=True))
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(out))
    return 0


def load_workloads():
    return json.loads((HERE / "workloads.json").read_text())["workloads"]


def cmd_all(args):
    binary = build()
    if binary is None:
        return 1
    workloads = load_workloads()
    records = {}
    for name, spec in workloads.items():
        seed = args.seed if args.seed is not None else spec["default_seed"]
        measured = measure(binary, name, seed, args.seconds, args.trace == 1)
        if measured is None:
            return 1
        records[name] = measured[0]
        if args.out:
            Path(args.out).mkdir(parents=True, exist_ok=True)
            Path(args.out, f"{name}.json").write_text(json.dumps(measured[0], indent=1) + "\n")
    names = list(records)
    first = records[names[0]]
    print("host: " + json.dumps(first["host"], sort_keys=True))
    keys = list(first["end_to_end"]) + ["failed_share"]
    if args.trace == 1:
        keys += [k for k in first["metrics"] if k not in first["end_to_end"]]
    width = max(len(k) for k in keys)
    print(f"{'metric':<{width}}  {'unit':<6}" + "".join(f"  {n:>14}" for n in names))
    for key in keys:
        cells, unit = [], ""
        for n in names:
            r = records[n]
            if key == "failed_share":
                cells.append(f"{r['failed'] / max(r['attempted'], 1):.4f}")
                unit = "ratio"
                continue
            m = r["end_to_end"].get(key) or r["metrics"][key]
            unit = m["unit"]
            cells.append("null" if m["value"] is None else f"{m['value']:.6g}")
        print(f"{key:<{width}}  {unit:<6}" + "".join(f"  {c:>14}" for c in cells))
    for n in names:
        r = records[n]
        reasons = ", ".join(f"{k} {v}" for k, v in r["failures"].items())
        print(f"{n}: {r['failed']} of {r['attempted']} decisions failed ({reasons}); "
              f"run_s samples {r['info'].get('run_s_samples')}, p90 {r['info'].get('run_s_p90')}")
    return 0


def cmd_compare(args):
    base, head = (json.loads(Path(p).read_text()) for p in (args.base, args.head))
    hb, hh = base["host"], head["host"]
    differs = [k for k in FINGERPRINT_KEYS if hb.get(k) != hh.get(k)]
    cal = abs(hh["calibration_ms"] / hb["calibration_ms"] - 1)
    if cal > CALIBRATION_TOLERANCE:
        differs.append(f"calibration_ms ({hb['calibration_ms']:.1f} vs {hh['calibration_ms']:.1f})")
    if differs:
        print("refused: the records come from different hosts: " + ", ".join(differs))
        return 3
    if (base["workload"], base["trace"]) != (head["workload"], head["trace"]):
        print("refused: the records measure different workloads or modes")
        return 3
    better = {}
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.exists():
        spec = json.loads(spec_path.read_text())
        better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"{base['workload']}: {hb['git_rev']} -> {hh['git_rev']} on {hb['cpu_model']}")
    for name, m in base["metrics"].items():
        b, h = m["value"], head["metrics"].get(name, {}).get("value")
        if b is None or h is None:
            continue
        ratio = h / b if b else float("nan")
        print(f"  {name:<40} {b:>14.6g} -> {h:>14.6g} {m['unit']:<6} x{ratio:.4f}"
              f" ({better.get(name, '?')} is better)")
    return 0


def cmd_bless(_args):
    binary = build()
    if binary is None:
        return 1
    reference = {}
    for name, spec in load_workloads().items():
        cmd = [str(binary), "--workload", name, "--seed", str(spec["default_seed"]), "--bless"]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        reference[name] = json.loads(out.stdout.splitlines()[-1])
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {HERE / 'reference.json'}")
    return 0


def main():
    argv = sys.argv[1:]
    commands = {"all": cmd_all, "compare": cmd_compare, "bless": cmd_bless}
    if argv and argv[0] in commands:
        p = argparse.ArgumentParser(prog=f"run.py {argv[0]}")
        if argv[0] == "all":
            p.add_argument("--seconds", type=int, default=50)
            p.add_argument("--seed", type=int)
            p.add_argument("--trace", type=int, choices=(0, 1), default=0)
            p.add_argument("--out")
        elif argv[0] == "compare":
            p.add_argument("base")
            p.add_argument("head")
        return commands[argv[0]](p.parse_args(argv[1:]))
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    return cmd_run(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end sweep benchmark for mullineux, with a traced per-layer split.

Run from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all          # every workload, one after another

Each round of a workload runs in a fresh Python process (bench/workload.py)
with src/ on PYTHONPATH, against the kernel backend the package selects at
import; rounds repeat until S seconds of measured work are done, and at
least three times without tracing.  Times are put on the scale of a
reference host by sampling the host's speed while they run
(bench/hostclock.py).  The rate is over all rounds, latencies are
quantiles over every input of every round, set-up time is a median over
import-only processes and peak memory a maximum.  The
metrics and their units are the ones BENCHMARK.json lists: with --trace 0
the end-to-end metrics, with --trace 1 the per-layer ones, taken from
traced rounds, each paired with an untraced round on the same inputs so
that the tracing overhead is measured.  Machine and run facts go to
stdout first; the last line is one JSON object with correct, attempted,
failed and metrics.  See bench/README.md for the workloads and layers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("conjecture-sweep", "crossval-sweep", "large-rank", "parallel-cli")
MIN_ROUNDS = 3  # untraced; a traced run needs one (untraced, traced) pair
PROBES_PER_ROUND = 5  # import-only processes before each of the first MIN_ROUNDS
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def spawn(argv: list, deadline: float) -> str:
    """Run a Python child in its own process group; kill the group at the deadline."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, *argv], cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"timed out: {argv}") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"exit {proc.returncode}: {argv}")
    return out.strip().splitlines()[-1]


def run_round(name: str, seed: int, number: int, deadline: float, *flags: str) -> dict:
    argv = [str(HERE / "workload.py"), "--workload", name, "--seed", str(seed), "--round", str(number), *flags]
    return json.loads(spawn(argv, deadline))


def weighted_quantile(pairs: list, q: float) -> float:
    """Nearest-rank quantile of values given with integer weights."""
    pairs = sorted(pairs)
    target = q * sum(w for _, w in pairs)
    seen = 0
    for value, weight in pairs:
        seen += weight
        if seen >= target:
            return value
    return pairs[-1][0]


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    setup = []
    expected = None
    if name == "parallel-cli":
        expected = json.loads(spawn([str(HERE / "workload.py"), "--workload", name, "--reference"], deadline))
        expected = expected["digests"]
    plain, traced = [], []
    measured = 0.0
    while len(plain) < (1 if trace else MIN_ROUNDS) or measured < seconds:
        number = len(plain)
        if not trace and number < MIN_ROUNDS:
            probe = [str(HERE / "hostclock.py"), "--import-time"]
            setup += [[float(v) for v in spawn(probe, deadline).split()] for _ in range(PROBES_PER_ROUND)]
        plain.append(run_round(name, seed, number, deadline, *(() if plain else ("--check",))))
        measured += plain[-1]["wall_s"]
        if trace:
            traced.append(run_round(name, seed, number, deadline, "--trace"))
            measured += traced[-1]["wall_s"]
    rounds = plain + traced
    problems = [p for r in rounds for p in r["problems"]]
    if name == "large-rank":
        # each round draws new inputs; a traced round repeats its untraced pair's
        pairs = [(p["digests"], t["digests"]) for p, t in zip(plain, traced)]
    else:
        pairs = [(expected or plain[0]["digests"], r["digests"]) for r in rounds]
    problems += [f"outputs differ: sha256 {got}, expected {want}" for want, got in pairs if got != want]
    return {
        "backend": rounds[0]["backend"],
        "rounds": len(plain),
        "attempted": sum(r["checked"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "problems": problems,
        "digests": plain[0]["digests"],
        "setup": setup,  # [wall seconds, reference seconds]
        "plain": plain,
        "traced": traced,
    }


def end_to_end(m: dict) -> dict:
    latency = [pair for r in m["plain"] for pair in r["latency"]]
    return {
        "checked_per_s": sum(r["checked"] for r in m["plain"]) / sum(r["ref_s"] for r in m["plain"]),
        "setup_s": statistics.median(ref for _, ref in m["setup"]),
        "peak_rss_mib": max(r["peak_rss_mib"] for r in m["plain"]),
        "latency_p50_ms": 1e3 * weighted_quantile(latency, 0.50),
        "latency_p95_ms": 1e3 * weighted_quantile(latency, 0.95),
    }


def per_layer(m: dict) -> dict:
    layers = [r["layers"] for r in m["traced"]]
    out = {key: statistics.median(layer[key] for layer in layers) for key in layers[0]}
    untraced = statistics.median(r["wall_s"] for r in m["plain"])
    overhead = statistics.median(r["wall_s"] for r in m["traced"]) - untraced
    out["trace.overhead_s"] = overhead
    out["trace.overhead_share"] = overhead / untraced
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    m = measure(name, seed, seconds, trace)
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    values = per_layer(m) if trace else end_to_end(m)
    missing = [metric["name"] for metric in listed if metric["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    print(f"# workload {name}: seed {seed}, {m['rounds']} rounds, "
          f"nproc {len(os.sched_getaffinity(0))}, Python {platform.python_version()}, backend {m['backend']}")
    for key, value in sorted(m["digests"].items()):
        print(f"# sha256 {key}: {value}")
    if not trace:
        plain = m["plain"]
        print(f"# as measured: {sum(r['checked'] for r in plain) / sum(r['wall_s'] for r in plain):.6g} checked/s, "
              f"import {statistics.median(wall for wall, _ in m['setup']):.6g} s; "
              f"{sum(r['samples'] for r in plain)} host speed samples, "
              f"host at {sum(r['ref_s'] for r in plain) / sum(r['wall_s'] for r in plain):.3f}x the reference speed")
    for problem in m["problems"][:20]:
        print(f"# PROBLEM {problem}")
    for metric in listed:
        print(f"{name:<17} {metric['name']:<40} {values[metric['name']]:>14.6g} {metric['unit']:<6} "
              f"attempted {m['attempted']} failed {m['failed']}")
    # layers the listed workloads never enter, such as the Pool in parallel-cli
    for key in sorted(values.keys() - {metric["name"] for metric in listed}):
        if values[key]:
            print(f"# {name} {key} {values[key]:.6g} (not listed in BENCHMARK.json)")
    return {
        "correct": not m["problems"],
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]} for metric in listed},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "mullineux" / "__init__.py").is_file():
        print(f"bench: no mullineux sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace), spec))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

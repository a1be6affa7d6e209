"""One round of one benchmark workload, in a fresh process.

run.py starts this with the repository's src/ on PYTHONPATH:

    python3 bench/workload.py --workload NAME --seed N --round R [--check] [--trace]
    python3 bench/workload.py --workload parallel-cli --reference

A round runs the workload's operations once against the kernel backend the
package selects at import, then checks the outputs against bench/reference.py.
An untraced round samples the host's speed while it runs (bench/hostclock.py)
and reports its times both as measured and on the reference scale.
--check adds the slower sampled checks (run once per benchmark run),
--trace wraps the program's layers (bench/tracer.py) and reports per-layer
numbers, and --reference makes the jobs=1 CLI documents that parallel-cli
rounds must match byte for byte.  The last line of stdout is one JSON
object describing the round.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import random
import resource
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import reference
from hostclock import HostClock

perf_counter = time.perf_counter

CONJ_N, CONJ_K = 30, 9
CROSS_N = 26
LARGE_INPUTS, LARGE_RANKS = 200, (150, 300)
CLI_JOBS = 2
CLI_OUT = Path(".bench_out")


class Round:
    """What one round did: work, time, outputs' digests and problems found.

    With a clock, times leave out its samples and ref_s and latency are on
    its reference scale; without one they are wall times.
    """

    def __init__(self, clock=None):
        self.clock = clock
        self.checked = 0
        self.failed = 0
        self.wall_s = 0.0
        self.ref_s = 0.0
        self.latency = []  # [seconds per input, number of inputs]
        self.digests = {}
        self.problems = []
        self.report_bytes = 0
        self.jobs = 1
        self.on_stop = None

    def begin(self) -> float:
        """Start the timed part of the round; returns its start."""
        if self.clock is not None:
            self.clock.start()
        return perf_counter()

    def stop(self, start: float):
        """End the timed part of the round, which began at start."""
        end = perf_counter()
        if self.clock is not None:
            self.clock.stop()
        if self.on_stop is not None:
            self.on_stop()
        self.wall_s, self.ref_s = self.span(start, end)

    def span(self, a: float, b: float) -> tuple:
        """Program time between a and b: (wall seconds, reference seconds)."""
        if self.clock is None:
            return b - a, b - a
        return self.clock.program_s(a, b)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def canonical(report) -> str:
    # the CLI's byte format: json.dump(doc, indent=2) plus a newline
    return json.dumps(report.to_document(), indent=2) + "\n"


def bucket_latency(timings: dict, n_max: int, rnd: Round = None, start: float = 0.0) -> list:
    """Per-input time of each (e, n) bucket from a sweep's bucket timings.

    Given the round and the sweep's start, the buckets, which ran one
    after another, are placed end to end from start and timed on the
    round's scale.
    """
    counts = {e: reference.glaisher_counts(e, n_max) for e in reference.E_LIST}
    out = []
    for label, seconds in timings.items():
        e, n = (int(field.split("=")[1]) for field in label.split(","))
        seconds = float(seconds)
        if rnd is not None:
            start, seconds = start + seconds, rnd.span(start, start + seconds)[1]
        out.append([seconds / counts[e][n], counts[e][n]])
    return out


def check_document(doc: dict, n_max: int, rnd: Round):
    """A sweep document must cover the whole grid and verify."""
    name = doc["command"]
    if doc["checked"] != reference.grid_count(n_max):
        rnd.problems.append(f"{name}: checked {doc['checked']}, expected {reference.grid_count(n_max)}")
    if doc["status"] != "verified":
        rnd.problems.append(f"{name}: status {doc['status']}")
    if name == "cross-validate" and doc.get("depth_exceeded") != 0:
        rnd.problems.append(f"{name}: depth_exceeded {doc.get('depth_exceeded')}")
    rnd.checked += doc["checked"]
    rnd.failed += len(doc["counterexamples"])


def library_sweep(rnd: Round, sweep, n_max: int, *args):
    start = rnd.begin()
    report = sweep(list(reference.E_LIST), n_max, *args, jobs=1)
    rnd.stop(start)
    text = canonical(report)
    rnd.digests[report.command] = digest(text)
    check_document(json.loads(text), n_max, rnd)
    rnd.latency = bucket_latency(report.timings, n_max, rnd, start)


def conjecture_sweep(m, seed, number, check, rnd):
    library_sweep(rnd, m.engine.sweep_conjecture, CONJ_N, CONJ_K)
    if check:
        for lam, e in reference.grid_sample(CONJ_N, 200, seed, cores=False):
            x = reference.beta_set(lam)
            got = [(s.x1, s.x2, s.inclusion) for s in m.engine.conjecture_tower(e, x, CONJ_K).steps]
            if got != reference.tower(e, x, CONJ_K):
                rnd.problems.append(f"tower differs from the reference at e={e} lam={lam}")


def image_check(m, lam, e, image, rnd):
    back = m.level1.mullineux_kleshchev(image, e)
    rnd.problems.extend(reference.image_problems(lam, e, image, back))


def crossval_sweep(m, seed, number, check, rnd):
    library_sweep(rnd, m.engine.cross_validate, CROSS_N)
    if check:
        for lam, e in reference.grid_sample(CROSS_N, 200, seed, cores=True):
            oracle = m.level1.mullineux_kleshchev(lam, e)
            recursive, _ = m.engine.mullineux_conjectural(lam, e)
            if recursive != oracle:
                rnd.problems.append(f"algorithms disagree at e={e} lam={lam}")
            image_check(m, lam, e, oracle, rnd)


def large_rank_inputs(seed: int, number: int) -> list:
    """Every round has the same ranks and moduli, in a seeded order with seeded shapes.

    Ranks are spread evenly over LARGE_RANKS and e cycles through 2..5, so
    rounds differ in the partitions they draw but not in their make-up.
    """
    rng = random.Random(f"large-rank-{seed}-{number}")
    low, high = LARGE_RANKS
    slots = [
        (low + (high - low) * i // (LARGE_INPUTS - 1), reference.E_LIST[i % len(reference.E_LIST)])
        for i in range(LARGE_INPUTS)
    ]
    rng.shuffle(slots)
    return [(reference.random_e_regular(rng, n, e), e) for n, e in slots]


def large_rank(m, seed, number, check, rnd):
    inputs = large_rank_inputs(seed, number)
    errors = (m.errors.ConjectureViolationError, m.errors.DepthExceededError, ValueError)
    results, spans = [], []
    start = rnd.begin()
    for lam, e in inputs:
        t0 = perf_counter()
        try:
            oracle = m.level1.mullineux_kleshchev(lam, e)
            recursive, _ = m.engine.mullineux_conjectural(lam, e)
        except errors as exc:
            rnd.failed += 1
            rnd.problems.append(f"failed at e={e} lam={lam}: {exc}")
            continue
        finally:
            spans.append((t0, perf_counter()))
        results.append((lam, e, oracle, recursive))
    rnd.stop(start)
    rnd.latency = [[rnd.span(t0, t1)[1], 1] for t0, t1 in spans]
    rnd.checked = len(inputs)
    for lam, e, oracle, recursive in results:
        if recursive != oracle:
            rnd.problems.append(f"algorithms disagree at e={e} lam={lam}")
        image_check(m, lam, e, oracle, rnd)
    rnd.digests["large-rank"] = digest(repr(results))


def cli_argv(jobs: int) -> list:
    e_list = ",".join(map(str, reference.E_LIST))
    return [
        ["verify-conjecture", "--e", e_list, "--max-n", str(CONJ_N), "--max-k", str(CONJ_K), "--jobs", str(jobs)],
        ["cross-validate", "--e", e_list, "--max-n", str(CROSS_N), "--jobs", str(jobs)],
    ]


def run_cli(m, argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = m.cli.main(argv)
    if code != 0:
        raise SystemExit(f"cli exited {code} on {argv}")
    return out.getvalue()


def parallel_cli(m, seed, number, check, rnd):
    import jsonschema

    CLI_OUT.mkdir(exist_ok=True)
    runs = [(argv, CLI_OUT / f"buckets-{os.getpid()}-{argv[0]}.csv") for argv in cli_argv(CLI_JOBS)]
    start = rnd.begin()
    texts = [run_cli(m, argv + ["--csv", str(path)]) for argv, path in runs]
    rnd.stop(start)
    rnd.jobs = CLI_JOBS
    for _, path in runs:
        rnd.latency += csv_latency(path)
        path.unlink()
    for text, n_max in zip(texts, (CONJ_N, CROSS_N)):
        doc = json.loads(text)
        try:
            jsonschema.validate(doc, m.schema.DOCUMENT_SCHEMA)
        except jsonschema.ValidationError as exc:
            rnd.problems.append(f"{doc.get('command')}: not a valid document: {exc.message}")
        check_document(doc, n_max, rnd)
        rnd.digests[doc["command"]] = digest(text)
        rnd.report_bytes += len(text.encode())


def csv_latency(path: Path) -> list:
    """Per-input bucket times from the CLI's --csv summary."""
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    n_max = CONJ_N if rows[0][0] == "verify-conjecture" else CROSS_N
    return bucket_latency({label: value for _, label, value in rows if label.startswith("e=")}, n_max)


def reference_documents(m) -> dict:
    """The jobs=1 documents of both parallel-cli grids, made anew."""
    return {argv[0]: digest(run_cli(m, argv)) for argv in cli_argv(1)}


WORKLOADS = {
    "conjecture-sweep": conjecture_sweep,
    "crossval-sweep": crossval_sweep,
    "large-rank": large_rank,
    "parallel-cli": parallel_cli,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--reference", action="store_true")
    args = parser.parse_args()

    import mullineux
    from mullineux import cli, engine, errors, level1, schema

    m = SimpleNamespace(cli=cli, engine=engine, errors=errors, level1=level1, schema=schema)
    out = {"backend": mullineux.BACKEND}
    if args.reference:
        out["digests"] = reference_documents(m)
    else:
        # Pool workers fork without the clock's timer, so parallel-cli is
        # timed by the wall clock alone
        clock = None if args.trace or args.workload == "parallel-cli" else HostClock()
        rnd = Round(clock)
        probe = None
        if args.trace:
            import layers

            probe = layers.Probe()
            rnd.on_stop = probe.tracer.uninstall
        try:
            WORKLOADS[args.workload](m, args.seed, args.round, args.check, rnd)
        finally:
            if probe is not None:
                probe.tracer.uninstall()
        self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        # Pool workers run side by side, so each may hold the largest child's peak
        out["peak_rss_mib"] = (self_kib + rnd.jobs * child_kib) / 1024
        out["layers"] = probe.metrics(rnd) if probe is not None else None
        out.update({key: value for key, value in vars(rnd).items() if key not in ("on_stop", "clock")})
        out["samples"] = len(clock.samples) if clock is not None else 0
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()

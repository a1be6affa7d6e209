"""Verification harnesses and the modulus-doubling Mullineux algorithm.

Two sweeps live here.  The conjecture sweep iterates the beta-set step on
diagonal pairs (X, X) and records whether the first set is contained in the
second after each stage; containment at every odd stage is the conjecture
under test, and any failure is collected as a counterexample, never raised.
Its towers stop at the first stage whose pair meets the walks' shortcut,
since every later stage is then provably an inclusion (see
conjecture_tower); the report is the one the full towers give.
The cross-validation sweep runs the recursive algorithm against a proven
oracle on every e-regular partition in range.  That oracle is Mullineux's
e-rim symbol (kernels.mullineux_symbol), which costs about one pass over
the nodes, rather than Kleshchev's residue-path algorithm
(kernels.mullineux), which rescans every row for every node; both give the
same image, so the report is the same either way.  Kleshchev's algorithm
remains the oracle of mull, level1 and the recursion's oracle_fallback, and
the test suite checks the two oracles against each other.

The recursive algorithm computes the Mullineux image of an e-regular
partition from the involution at modulus 2e: take the stabilized isomorphism
image of (lam, lam) at modulus 2e and bicharge (0, e), apply the modulus-2e
involution to both components, pull back, and read the answer off the two
components, which must agree.  Conjugation of e-cores is the base case.

The recursion revisits the same subproblems many times, both within one
partition's trace tree and across the partitions of a sweep, so each
process keeps a bounded least-recently-used memo of recursion nodes.  It
is keyed on everything a node's outcome and its error text depend on: the
partition, the modulus, the depth (with depth_limit, the remaining depth
budget), depth_limit and oracle_fallback.  It stores ConjectureViolationError
and DepthExceededError outcomes as well as traces and raises them again on
every hit, so a violation is never masked; a hit returns the very trace
object computed first, so trace trees share subtrees instead of copying
them.  The memo holds MEMO_SIZE nodes because an unbounded one costs
memory that grows with the sweep: on an in-process cross_validate(e=2..5,
n<=26) it more than doubled peak RSS, from 17.0 to 37.1 MiB, while 512
nodes add 0.7 MiB and run at 2,615 partitions/s against 3,088 unbounded
(2-core x86-64 host, Python 3.11).  In bench/run.py, 1,024 nodes added
about 5% to peak RSS for at most 3% more throughput than 512.

Both sweeps are one pipeline.  Each is only its parameters and a
per-partition check, check(lam, e, *params), that returns a list of
failure dicts.  _sweep validates the arguments, builds the (e, n) grid,
runs _bucket on every bucket and merges checked, counterexamples and
timings (labelled "e={e},n={n}") in (e, n) order.  _bucket is the only
loop over a bucket's partitions.  An exception a check raises is data, not
an abort: it becomes a counterexample of kind "error" carrying the
partition and the exception, and the sweep goes on.  With more than one
worker the buckets go to the Pool one at a time, larger ranks first, so the
largest buckets do not end up in one worker's last chunk; only picklable
data (the check, e, n, regular_only, params) crosses the Pool, and the
enumerators and checks look up module globals at call time.  Buckets share
no state, so reports are byte-identical regardless of the worker count.
Each worker process has its own memo.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from multiprocessing import Pool

from mullineux import betamaps
from mullineux._core import kernels
from mullineux.errors import ConjectureViolationError, DepthExceededError, NotRegularError
from mullineux.partitions import (
    Partition,
    beta_set,
    check_rank,
    conjugate,
    enumerate_e_regular,
    enumerate_partitions,
    format_partition,
    is_e_core,
    is_e_regular,
)
from mullineux.schema import SCHEMA_VERSION


# ---------------------------------------------------------------------------
# conjecture tower


@dataclass(frozen=True)
class TowerStep:
    k: int
    x1: tuple[int, ...]
    x2: tuple[int, ...]
    inclusion: bool


@dataclass(frozen=True)
class TowerTrace:
    """Iterated beta-set steps on (x, x), with the inclusion flag at each stage."""

    e: int
    start: tuple[int, ...]
    steps: tuple[TowerStep, ...]

    def odd_failures(self) -> list[TowerStep]:
        return [s for s in self.steps if s.k % 2 == 1 and not s.inclusion]


def conjecture_tower(
    e: int, x: tuple[int, ...], k_max: int, stop_at_shortcut: bool = False
) -> TowerTrace:
    """Iterate the beta-set step k_max + 1 times starting from (x, x).

    Stage k holds the pair after the step at charge gap k*e.  Inclusion at
    stage 1 is a proved fact and is asserted outright; inclusion at larger
    odd stages is the conjecture and is only recorded.

    With stop_at_shortcut the tower ends after the first stage whose pair
    (x1, x2) meets betamaps.shortcut_on_beta_sets, or whose x1 is empty,
    because every later stage is then an inclusion.  The shortcut says that
    x2 contains 0..m, m the largest element of x1.  The step then matches
    each a in x1 to itself, so the next pair is x1 and {0..e-1} u (x2 + e),
    which contains 0..m+e: the shortcut holds again and x1 is inside the
    second set.  An empty x1 stays empty and is inside any set.  A tower
    that stops at stage 0 skips the stage-1 assertion, but only where
    stage 1 is an inclusion anyway.  The sweep stops its towers; library
    callers get the full tower by default.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    x = tuple(x)
    x1, x2 = x, x
    steps = []
    for k in range(k_max + 1):
        x1, x2 = kernels.psi_step(e, x1, x2)
        inclusion = set(x1) <= set(x2)
        if k == 1 and not inclusion:
            raise AssertionError(
                f"inclusion failed at stage 1 for e={e}, x={x}; this case is proved, "
                "so the step implementation is broken"
            )
        steps.append(TowerStep(k, x1, x2, inclusion))
        if stop_at_shortcut and (not x1 or betamaps.shortcut_on_beta_sets(x1, x2)):
            break
    return TowerTrace(e, x, tuple(steps))


# ---------------------------------------------------------------------------
# sweep reports


@dataclass
class SweepReport:
    """Deterministic result of a sweep: counts, counterexamples, timings.

    Wall-clock timings are diagnostic only and are excluded from the
    canonical document so that reports compare byte-identical across runs
    and worker counts.
    """

    command: str
    parameters: dict
    checked: int = 0
    counterexamples: list[dict] = field(default_factory=list)
    depth_exceeded: int | None = None
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def verified(self) -> bool:
        return not self.counterexamples

    @property
    def status(self) -> str:
        return "verified" if self.verified else "counterexample"

    def to_document(self, include_timing: bool = False) -> dict:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "parameters": self.parameters,
            "checked": self.checked,
            "status": self.status,
        }
        if self.depth_exceeded is not None:
            doc["depth_exceeded"] = self.depth_exceeded
        doc["counterexamples"] = self.counterexamples
        if include_timing:
            doc["timing"] = {
                "total_seconds": round(sum(self.timings.values()), 6),
                "buckets": {k: round(v, 6) for k, v in self.timings.items()},
            }
        return doc


def _bucket(task):
    """The only loop over a bucket's partitions: run the check on each, count
    them and collect the failure dicts, recording an exception the check
    raises as a failure of kind "error".  Returns (checked, failures, seconds)."""
    check, e, n, regular_only, params = task
    start = time.perf_counter()
    checked, failures = 0, []
    for lam in enumerate_e_regular(n, e) if regular_only else enumerate_partitions(n):
        checked += 1
        try:
            failures.extend(check(lam, e, *params))
        except Exception as exc:
            failures.append(
                {
                    "e": e,
                    "partition": format_partition(lam),
                    "kind": "error",
                    "detail": f"{type(exc).__name__}: {exc}",
                }
            )
    return checked, failures, time.perf_counter() - start


def _sweep(command, parameters, check, params, e_list, n_max, regular_only, jobs) -> SweepReport:
    """Run check(lam, e, *params) on every (e, n) bucket and merge in (e, n) order."""
    if not e_list:
        raise ValueError("at least one modulus is required")
    if min(e_list) < 2:
        raise ValueError(f"modulus must be >= 2, got {min(e_list)}")
    if len(set(e_list)) != len(e_list):
        raise ValueError(f"moduli must be distinct, got {list(e_list)}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    grid = [(e, n) for e in e_list for n in range(n_max + 1)]
    tasks = [(check, e, n, regular_only, params) for e, n in grid]
    if jobs > 1 and len(tasks) > 1:
        # one bucket at a time, larger ranks first, so that no worker is left
        # holding a chunk of the largest buckets at the end
        order = sorted(range(len(tasks)), key=lambda i: grid[i][1], reverse=True)
        results = [None] * len(tasks)
        with Pool(processes=jobs) as pool:
            ranked = pool.imap(_bucket, [tasks[i] for i in order], chunksize=1)
            for i, result in zip(order, ranked):
                results[i] = result
    else:
        results = [_bucket(task) for task in tasks]
    report = SweepReport(command=command, parameters=parameters)
    for (e, n), (checked, failures, seconds) in zip(grid, results):
        report.checked += checked
        report.counterexamples.extend(failures)
        report.timings[f"e={e},n={n}"] = seconds
    return report


# ---------------------------------------------------------------------------
# conjecture sweep


def _tower_failures(lam: Partition, e: int, k_max: int) -> list[dict]:
    x = beta_set(lam, max(1, len(lam)))
    return [
        {
            "e": e,
            "partition": format_partition(lam),
            "beta_set": list(x),
            "k": step.k,
            "missing": sorted(set(step.x1) - set(step.x2)),
        }
        # the flag goes positionally, so a stand-in taking only *args can replace the tower
        for step in conjecture_tower(e, x, k_max, True).odd_failures()
    ]


def sweep_conjecture(
    e_list: list[int],
    n_max: int,
    k_max: int,
    regular_only: bool = True,
    jobs: int = 1,
) -> SweepReport:
    """Check odd-stage inclusion for the beta-set of every partition in range.

    Partitions run over rank <= n_max for each modulus in e_list,
    restricted to e-regular ones unless regular_only is False.  Failures
    are recorded as counterexamples, not raised.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    parameters = {
        "e_list": list(e_list),
        "n_max": n_max,
        "k_max": k_max,
        "regular_only": regular_only,
    }
    return _sweep(
        "verify-conjecture", parameters, _tower_failures, (k_max,), e_list, n_max, regular_only, jobs
    )


# ---------------------------------------------------------------------------
# recursive Mullineux


@dataclass(frozen=True)
class MullineuxTrace:
    """One level of the recursion: what was computed at this modulus."""

    modulus: int
    partition: Partition
    base_case: bool
    image: Partition | None
    mu: tuple[Partition, Partition] | None = None
    children: tuple["MullineuxTrace", ...] = ()
    nu: tuple[tuple, tuple] | None = None
    oracle_fallback: bool = False

    def to_dict(self) -> dict:
        doc = {
            "modulus": self.modulus,
            "partition": format_partition(self.partition),
            "base_case": self.base_case,
            "image": format_partition(self.image) if self.image is not None else None,
        }
        if self.oracle_fallback:
            doc["oracle_fallback"] = True
        if self.mu is not None:
            doc["mu"] = [format_partition(p) for p in self.mu]
        if self.nu is not None:
            doc["nu"] = [format_partition(p) for p in self.nu]
        if self.children:
            doc["children"] = [c.to_dict() for c in self.children]
        return doc


MEMO_SIZE = 512  # recursion nodes per process; see the module docstring


def _conjectural(lam: Partition, e: int, depth: int, depth_limit: int, oracle_fallback: bool):
    """One recursion node through the memo: its trace, or the error it raised."""
    outcome = _outcome(lam, e, depth, depth_limit, oracle_fallback)
    if isinstance(outcome, MullineuxTrace):
        return outcome
    # drop the traceback of the earlier raise, which would otherwise grow with every hit
    raise outcome.with_traceback(None)


@functools.lru_cache(maxsize=MEMO_SIZE)
def _outcome(lam: Partition, e: int, depth: int, depth_limit: int, oracle_fallback: bool):
    try:
        return _node(lam, e, depth, depth_limit, oracle_fallback)
    except (ConjectureViolationError, DepthExceededError) as exc:
        return exc


def _node(lam: Partition, e: int, depth: int, depth_limit: int, oracle_fallback: bool):
    if not is_e_regular(lam, e):
        # only reachable below the top level; the top-level call pre-checks
        raise ConjectureViolationError(
            f"intermediate component {lam} is not {e}-regular",
            partition=lam,
            modulus=e,
            trace=MullineuxTrace(e, lam, False, None),
        )
    if is_e_core(lam, e):
        return MullineuxTrace(e, lam, True, conjugate(lam))
    if depth >= depth_limit:
        if oracle_fallback:
            return MullineuxTrace(e, lam, False, kernels.mullineux(lam, e), oracle_fallback=True)
        raise DepthExceededError(
            f"depth limit {depth_limit} reached at modulus {e} on {lam}",
            partition=lam,
            modulus=e,
            depth=depth,
        )
    try:
        mu = betamaps.psi_tilde(2 * e, (0, e), (lam, lam))
    except ValueError as exc:
        raise ConjectureViolationError(
            f"isomorphism walk failed at modulus {e} on {lam}: {exc}",
            partition=lam,
            modulus=e,
            trace=MullineuxTrace(e, lam, False, None),
        ) from exc
    child1 = _conjectural(mu[0], 2 * e, depth + 1, depth_limit, oracle_fallback)
    child2 = _conjectural(mu[1], 2 * e, depth + 1, depth_limit, oracle_fallback)
    try:
        nu = betamaps.psi_tilde_inverse(2 * e, (0, e), (child1.image, child2.image))
    except ValueError as exc:
        raise ConjectureViolationError(
            f"inverse walk failed at modulus {e} on {lam}: {exc}",
            partition=lam,
            modulus=e,
            trace=MullineuxTrace(e, lam, False, None, mu=mu, children=(child1, child2)),
        ) from exc
    trace = MullineuxTrace(e, lam, False, None, mu=mu, children=(child1, child2), nu=nu)
    if nu[0] != nu[1]:
        raise ConjectureViolationError(
            f"pulled-back components disagree at modulus {e} on {lam}: {nu[0]} != {nu[1]}",
            partition=lam,
            modulus=e,
            trace=trace,
        )
    return MullineuxTrace(e, lam, False, nu[0], mu=mu, children=(child1, child2), nu=nu)


def mullineux_conjectural(
    lam: Partition,
    e: int,
    depth_limit: int = 16,
    oracle_fallback: bool = False,
) -> tuple[Partition, MullineuxTrace]:
    """Mullineux image by recursion on the modulus, with the full trace.

    Raises ConjectureViolationError (carrying the trace, a potential
    counterexample) when the two pulled-back components disagree, and
    DepthExceededError when the recursion exceeds depth_limit, unless
    oracle_fallback is set, in which case the crystal oracle answers for
    the too-deep subcalls.  Raises PartitionTooLargeError above
    partitions.MAX_RANK.
    """
    if e < 2:
        raise ValueError(f"modulus must be >= 2, got {e}")
    if depth_limit < 0:
        raise ValueError(f"depth_limit must be >= 0, got {depth_limit}")
    check_rank(lam)
    if not is_e_regular(lam, e):
        raise NotRegularError(f"{lam} is not {e}-regular")
    trace = _conjectural(lam, e, 0, depth_limit, oracle_fallback)
    return trace.image, trace


# ---------------------------------------------------------------------------
# cross-validation sweep


def _crossval_failures(lam: Partition, e: int, depth_limit: int) -> list[dict]:
    """Failure dicts for lam: the recursion against a proven oracle, and the
    stabilized walks of (lam, lam) at moduli 2e and e against each other.

    The oracle is Mullineux's e-rim symbol, kernels.mullineux_symbol, not
    Kleshchev's kernels.mullineux: both are proven and agree, and the symbol
    costs about one pass over the nodes instead of a rescan of every row per
    node.  An oracle error reaches _bucket, which records it as kind "error".
    """
    name = format_partition(lam)
    failures = []
    oracle = kernels.mullineux_symbol(lam, e)
    trace = None
    try:
        recursive, trace = mullineux_conjectural(lam, e, depth_limit=depth_limit)
        if recursive != oracle:
            failures.append(
                {
                    "e": e,
                    "partition": name,
                    "kind": "mullineux_mismatch",
                    "oracle": format_partition(oracle),
                    "recursive": format_partition(recursive),
                }
            )
    except ConjectureViolationError as exc:
        failures.append(
            {
                "e": e,
                "partition": name,
                "kind": "conjecture_violation",
                "detail": str(exc),
                "trace": exc.trace.to_dict() if exc.trace is not None else None,
            }
        )
    except DepthExceededError as exc:
        failures.append({"e": e, "partition": name, "kind": "depth_exceeded", "detail": str(exc)})
    # the recursion's top level already walked (lam, lam) at modulus 2e,
    # except at an e-core or when it raised
    if trace is not None and trace.mu is not None:
        double = trace.mu
    else:
        double = betamaps.psi_tilde(2 * e, (0, e), (lam, lam))
    single = betamaps.psi_tilde(e, (0, 0), (lam, lam))
    if double != single:
        failures.append(
            {
                "e": e,
                "partition": name,
                "kind": "isomorphism_mismatch",
                "at_2e": [format_partition(p) for p in double],
                "at_e": [format_partition(p) for p in single],
            }
        )
    return failures


def cross_validate(
    e_list: list[int],
    n_max: int,
    depth_limit: int = 16,
    jobs: int = 1,
) -> SweepReport:
    """Compare the recursive algorithm with the e-rim symbol oracle on every
    e-regular partition of rank <= n_max, and check that the stabilized
    isomorphism of (lam, lam) agrees between modulus 2e at bicharge (0, e)
    and modulus e at bicharge (0, 0).  Mismatches are recorded, not raised.
    """
    if depth_limit < 0:
        raise ValueError(f"depth_limit must be >= 0, got {depth_limit}")
    parameters = {"e_list": list(e_list), "n_max": n_max, "depth_limit": depth_limit}
    report = _sweep(
        "cross-validate", parameters, _crossval_failures, (depth_limit,), e_list, n_max, True, jobs
    )
    report.depth_exceeded = sum(c["kind"] == "depth_exceeded" for c in report.counterexamples)
    return report

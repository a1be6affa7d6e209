"""Verification harnesses and the modulus-doubling Mullineux algorithm.

Two sweeps live here.  The conjecture sweep iterates the beta-set step on
diagonal pairs (X, X) and records whether the first set is contained in the
second after each stage; containment at every odd stage is the conjecture
under test, and any failure is collected as a counterexample, never raised.
The cross-validation sweep runs the recursive algorithm against the crystal
oracle on every e-regular partition in range.

The recursive algorithm computes the Mullineux image of an e-regular
partition from the involution at modulus 2e: take the stabilized isomorphism
image of (lam, lam) at modulus 2e and bicharge (0, e), apply the modulus-2e
involution to both components, pull back, and read the answer off the two
components, which must agree.  Conjugation of e-cores is the base case.

Sweeps parallelize over (modulus, rank) buckets with no shared state and
merge per-bucket results in a fixed order, so reports are byte-identical
regardless of the worker count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from multiprocessing import Pool

from mullineux import betamaps
from mullineux._core import kernels
from mullineux.errors import ConjectureViolationError, DepthExceededError, NotRegularError
from mullineux.partitions import (
    Partition,
    beta_set,
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


def conjecture_tower(e: int, x: tuple[int, ...], k_max: int) -> TowerTrace:
    """Iterate the beta-set step k_max + 1 times starting from (x, x).

    Stage k holds the pair after the step at charge gap k*e.  Inclusion at
    stage 1 is a proved fact and is asserted outright; inclusion at larger
    odd stages is the conjecture and is only recorded.
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


def _run_buckets(worker, args, jobs: int):
    if jobs > 1 and len(args) > 1:
        with Pool(processes=jobs) as pool:
            return pool.map(worker, args)
    return [worker(a) for a in args]


# ---------------------------------------------------------------------------
# conjecture sweep


def _conjecture_bucket(arg):
    e, n, k_max, regular_only = arg
    t0 = time.perf_counter()
    checked = 0
    failures = []
    source = enumerate_e_regular(n, e) if regular_only else enumerate_partitions(n)
    for lam in source:
        x = beta_set(lam, max(1, len(lam)))
        trace = conjecture_tower(e, x, k_max)
        checked += 1
        for step in trace.odd_failures():
            failures.append(
                {
                    "e": e,
                    "partition": format_partition(lam),
                    "beta_set": list(x),
                    "k": step.k,
                    "missing": sorted(set(step.x1) - set(step.x2)),
                }
            )
    return f"e={e},n={n}", checked, failures, time.perf_counter() - t0


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
    report = SweepReport(
        command="verify-conjecture",
        parameters={
            "e_list": list(e_list),
            "n_max": n_max,
            "k_max": k_max,
            "regular_only": regular_only,
        },
    )
    args = [(e, n, k_max, regular_only) for e in e_list for n in range(n_max + 1)]
    for label, checked, failures, elapsed in _run_buckets(_conjecture_bucket, args, jobs):
        report.checked += checked
        report.counterexamples.extend(failures)
        report.timings[label] = elapsed
    return report


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


def _conjectural(lam: Partition, e: int, depth: int, depth_limit: int, oracle_fallback: bool):
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
    the too-deep subcalls.
    """
    if e < 2:
        raise ValueError(f"modulus must be >= 2, got {e}")
    if not is_e_regular(lam, e):
        raise NotRegularError(f"{lam} is not {e}-regular")
    trace = _conjectural(lam, e, 0, depth_limit, oracle_fallback)
    return trace.image, trace


# ---------------------------------------------------------------------------
# cross-validation sweep


def _cross_validate_bucket(arg):
    e, n, depth_limit = arg
    t0 = time.perf_counter()
    checked = 0
    failures = []
    depth_exceeded = 0
    for lam in enumerate_e_regular(n, e):
        checked += 1
        name = format_partition(lam)
        oracle = kernels.mullineux(lam, e)
        try:
            recursive, _ = mullineux_conjectural(lam, e, depth_limit=depth_limit)
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
            depth_exceeded += 1
            failures.append(
                {"e": e, "partition": name, "kind": "depth_exceeded", "detail": str(exc)}
            )
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
    return f"e={e},n={n}", checked, failures, depth_exceeded, time.perf_counter() - t0


def cross_validate(
    e_list: list[int],
    n_max: int,
    depth_limit: int = 16,
    jobs: int = 1,
) -> SweepReport:
    """Compare the recursive algorithm with the crystal oracle on every
    e-regular partition of rank <= n_max, and check that the stabilized
    isomorphism of (lam, lam) agrees between modulus 2e at bicharge (0, e)
    and modulus e at bicharge (0, 0).  Mismatches are recorded, not raised.
    """
    report = SweepReport(
        command="cross-validate",
        parameters={"e_list": list(e_list), "n_max": n_max, "depth_limit": depth_limit},
        depth_exceeded=0,
    )
    args = [(e, n, depth_limit) for e in e_list for n in range(n_max + 1)]
    for label, checked, failures, exceeded, elapsed in _run_buckets(
        _cross_validate_bucket, args, jobs
    ):
        report.checked += checked
        report.counterexamples.extend(failures)
        report.depth_exceeded += exceeded
        report.timings[label] = elapsed
    return report

"""Verification harnesses and the modulus-doubling Mullineux algorithm.

Two sweeps live here.  The conjecture sweep iterates the beta-set step on
diagonal pairs (X, X) and records each odd stage whose first set is not
contained in the second as a counterexample, never raised.  Its towers
stop at the first stage that meets the walks' shortcut, since every later
stage is then provably an inclusion (see conjecture_tower); the report is
the one the full towers give.  The cross-validation sweep checks three
statements on every e-regular partition lam: the recursion's image, which
it accepts when it is e-regular with the dual (kernels.dual_symbol) of
lam's e-rim symbol, since that symbol determines an e-regular partition
(Mullineux 1979; Ford-Kleshchev 1997), running Kleshchev's algorithm
(kernels.mullineux) only on a mismatch, for the record; and the walks of
(lam, lam) at moduli 2e and e, the latter being lam's stopped tower,
whose odd-stage failures it records.

The recursive algorithm computes the Mullineux image of an e-regular
partition from the involution at modulus 2e: take the stabilized isomorphism
image of (lam, lam) at modulus 2e and bicharge (0, e), apply the modulus-2e
involution to both components, pull back, and read the answer off the two
components, which must agree.  Conjugation of e-cores is the base case.

Towers and recursion hold a beta-set as an int bitset, bit b set iff b is
a bead (see mullineux._core.kernels), at minimal padding
(partitions.minimal_bits).  A MullineuxTrace stores bitsets and decodes
its partition fields only when they are read; the sweeps decode only what
a report prints.

Each process keeps a least-recently-used memo of recursion nodes below
the top level, functools.lru_cache on _node, keyed on everything a node's
outcome and error text depend on: the beta-set, the modulus, the depth,
depth_limit and oracle_fallback.  It holds traces only: a node that
raises leaves no entry, so a violation is raised again, never masked.  A
hit returns the very trace computed first, so trace trees share
subtrees.  The top level bypasses the memo (_node.__wrapped__): a sweep
checks each partition once, so its entry would only push out a child
that recurs.  MEMO_SIZE is sized to the children's working set.

Both sweeps are one pipeline.  _sweep validates the arguments, runs
_bucket on every (e, n) bucket and merges checked, counterexamples and
timings ("e={e},n={n}") in (e, n) order.  _bucket is the only loop over a
bucket's partitions, each lam with x, its bitset at minimal padding
(partitions.enumerate_e_regular_bits): it passes CHUNK of them at a time
to check(chunk, e, *params), chunk a list of (lam, x), which returns
failure dicts in partition order.  A sweep's check is _phases over its
phases, the stopped tower for verify-conjecture, and for cross-validate
the recursion, the symbol check and the walks.  Each phase runs over the
whole chunk before the next starts, which keeps one phase's code and data
hot; each partition gets the same kernel calls and memo traffic, in the
same order, as in one pass.  _phases alone catches a check's exception:
the partition gets one failure of kind "error" in place of its others
and leaves the later phases, and the sweep goes on.  A chunk bounds the
memory a bucket holds (e = 5, rank 30 has 327,805 partitions).  Median
CPU time of an in-process cross_validate(e=2..5, n<=26) over 9
alternating runs (2-core x86-64 host, Python 3.11):

    CHUNK         1     16    64    256   whole bucket
    time, ms      844   624   577   550   565

With more than one worker the buckets go to the Pool one at a time,
larger ranks first; only picklable data crosses it, and the checks look
up module globals at call time.  Buckets share no state, so reports are
byte-identical across worker counts; each worker has its own memo.
Only a sweep with more than one worker imports multiprocessing.
"""

from __future__ import annotations

import functools
import time
from collections import namedtuple
from itertools import islice
from typing import NamedTuple

from mullineux import betamaps
from mullineux._core import kernels
from mullineux.errors import (
    ConjectureViolationError, DepthExceededError, NotRegularError, PartitionTooLargeError, check_modulus, clip
)
from mullineux.partitions import (
    MAX_RANK,
    Partition,
    beta_set,  # unused here; bench/layers.py wraps it on this module
    beta_set_from_bits,
    beta_set_is_e_core,
    beta_set_is_e_regular,
    beta_set_to_bits,
    check_rank,
    conjugate_beta_set,
    enumerate_e_regular,  # unused here; bench/layers.py wraps it on this module
    enumerate_e_regular_bits,
    format_partition,
    minimal_beta_set,
    minimal_bits,
    pad_beta_set,
    partition_from_bits,
    partition_text,
    unrestricted_modulus,
)
from mullineux.schema import SCHEMA_VERSION

Bits = int
BitPair = tuple[Bits, Bits]
CHUNK = 256  # partitions per check call; see the module docstring's table


# ---------------------------------------------------------------------------
# conjecture tower


class TowerStep(NamedTuple):
    k: int
    x1: tuple[int, ...]
    x2: tuple[int, ...]
    inclusion: bool


class TowerTrace(NamedTuple):
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
    odd stages is the conjecture and is only recorded.  x is a strictly
    increasing tuple of nonnegative ints (ValueError otherwise), and the
    steps hold tuples.  With stop_at_shortcut the tower ends after the
    first stage that meets betamaps.shortcut_on_beta_sets, since every
    later stage is then an inclusion (see _tower); the sweep stops its
    towers, library callers get the full tower by default.
    """
    check_modulus(e)
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    x = tuple(x)
    steps = tuple(
        TowerStep(k, beta_set_from_bits(x1), beta_set_from_bits(x2), inclusion)
        for k, x1, x2, inclusion in _tower(e, beta_set_to_bits(x), k_max, stop_at_shortcut)
    )
    return TowerTrace(e, x, steps)


def _tower(e: int, x: Bits, k_max: int, stop_at_shortcut: bool) -> list[tuple[int, Bits, Bits, bool]]:
    """conjecture_tower's stages on the bitset x, as (k, x1, x2, inclusion) rows."""
    # A step from (x1, x2) with x1 inside x2 matches every a in x1 to itself
    # (the induction in kernels.psi_step's docstring), so it is built in
    # closed form as x1 and {0..e-1} u (x2 + e), with no kernel call and no
    # second subset test; stage 0 starts from (x, x), and the kernel runs
    # only after a stage that is not an inclusion.  The shortcut says that
    # x2 contains 0..m, m the largest element of x1 (or x1 is empty); the
    # next step is then the closed form, whose second set contains 0..m+e,
    # so the shortcut holds again and every later stage is an inclusion.
    # That is why a stage that meets it is an inclusion, and a tower may
    # stop there; one stopped at stage 0 skips the stage-1 assertion only
    # where stage 1 is an inclusion anyway.
    x1 = x2 = x
    inclusion = True  # (x, x) is one
    staircase = (1 << e) - 1
    rows = []
    for k in range(k_max + 1):
        if inclusion:
            x2 = (x2 << e) | staircase
        else:
            x1, x2 = kernels.psi_step(e, x1, x2)
        # an empty x1 meets the shortcut too
        shortcut = betamaps.shortcut_on_beta_sets(x1, x2)
        inclusion = shortcut or x1 & x2 == x1
        if k == 1 and not inclusion:
            raise AssertionError(
                f"inclusion failed at stage 1 for e={e}, x={beta_set_from_bits(x)}; this case is proved, "
                "so the step implementation is broken"
            )
        rows.append((k, x1, x2, inclusion))
        if stop_at_shortcut and shortcut:
            break
    return rows


# ---------------------------------------------------------------------------
# sweep reports


class SweepReport:
    """Deterministic result of a sweep: counts, counterexamples, timings.

    Wall-clock timings are diagnostic only and are excluded from the
    canonical document so that reports compare byte-identical across runs
    and worker counts.  Each report gets its own counterexamples list and
    timings dict unless the caller passes them.
    """

    __slots__ = ("command", "parameters", "checked", "counterexamples", "depth_exceeded", "timings")

    def __init__(
        self,
        command: str,
        parameters: dict,
        checked: int = 0,
        counterexamples: list[dict] | None = None,
        depth_exceeded: int | None = None,
        timings: dict[str, float] | None = None,
    ):
        self.command = command
        self.parameters = parameters
        self.checked = checked
        self.counterexamples = [] if counterexamples is None else counterexamples
        self.depth_exceeded = depth_exceeded
        self.timings = {} if timings is None else timings

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


def _failure(lam: Partition, e: int, **fields) -> dict:
    """A failure record: e, the partition, then fields in the order given."""
    return {"e": e, "partition": format_partition(lam), **fields}


def _bucket(task):
    """The only loop over a bucket's partitions: hand the check CHUNK of them
    at a time, count them and collect the failure dicts.  Returns (checked,
    failures, seconds)."""
    check, e, n, regular_only, params = task
    start = time.perf_counter()
    checked, failures = 0, []
    partitions = enumerate_e_regular_bits(n, e if regular_only else unrestricted_modulus(n))
    while chunk := list(islice(partitions, CHUNK)):
        checked += len(chunk)
        failures += check(chunk, e, *params)
    return checked, failures, time.perf_counter() - start


def _phases(phases, chunk, e, *params):
    """A check: run each phase(lam, x, e, carry, *params) -> (failures,
    carry) over the partitions of chunk still live, carry being what lam's
    previous phase returned (None at the first); return the failures in
    partition order.  A phase that raises gives lam one failure of kind
    "error" in place of its earlier ones, and lam leaves the later phases."""
    found = {}
    carry = [None] * len(chunk)
    live = range(len(chunk))
    for phase in phases:
        kept = []
        for i in live:
            lam, x = chunk[i]
            try:
                failures, carry[i] = phase(lam, x, e, carry[i], *params)
            except Exception as exc:
                found[i] = [_failure(lam, e, kind="error", detail=f"{type(exc).__name__}: {exc}")]
                continue
            kept.append(i)
            if failures:
                found.setdefault(i, []).extend(failures)
        live = kept
    return [f for i in sorted(found) for f in found[i]]


def _sweep(command, parameters, check, params, e_list, n_max, regular_only, jobs) -> SweepReport:
    """Run check(chunk, e, *params) on every (e, n) bucket and merge in (e, n) order."""
    if not e_list:
        raise ValueError("at least one modulus is required")
    check_modulus(min(e_list))
    if len(set(e_list)) != len(e_list):
        raise ValueError(f"moduli must be distinct, got {list(e_list)}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {clip(n_max)}")
    if n_max > MAX_RANK:
        raise PartitionTooLargeError(f"n_max {clip(n_max)} exceeds MAX_RANK = {MAX_RANK}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {clip(jobs)}")
    grid = [(e, n) for e in e_list for n in range(n_max + 1)]
    tasks = [(check, e, n, regular_only, params) for e, n in grid]
    if jobs > 1 and len(tasks) > 1:
        from multiprocessing import Pool

        # one bucket at a time, larger ranks first, so that no worker is left
        # holding a chunk of the largest buckets at the end
        order = sorted(range(len(tasks)), key=lambda i: grid[i][1], reverse=True)
        results = [None] * len(tasks)
        with Pool(processes=min(jobs, len(tasks))) as pool:
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


def _odd_stage_failures(
    lam: Partition, e: int, rows: list[tuple[int, Bits, Bits, bool]], **kind
) -> list[dict]:
    """A record per odd row of lam's tower that is not an inclusion, with
    kind's fields after the partition."""
    # a loop: before Python 3.12 a comprehension builds a function on every call
    failures = []
    for k, x1, x2, inclusion in rows:
        if k % 2 and not inclusion:
            beads = list(beta_set_from_bits(minimal_bits(lam)))
            missing = list(beta_set_from_bits(x1 & ~x2))
            failures.append(_failure(lam, e, **kind, beta_set=beads, k=k, missing=missing))
    return failures


def _tower_phase(lam: Partition, x: Bits, e: int, _, k_max: int):
    """Odd-stage failures of lam's stopped tower from its bitset x."""
    # the flag goes positionally, so a stand-in taking only *args can replace the tower
    return _odd_stage_failures(lam, e, _tower(e, x, k_max, True)), None


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
    check = functools.partial(_phases, (_tower_phase,))
    return _sweep("verify-conjecture", parameters, check, (k_max,), e_list, n_max, regular_only, jobs)


# ---------------------------------------------------------------------------
# recursive Mullineux


# a named tuple keeps the fields immutable and costs less to define at
# import than a frozen dataclass
class MullineuxTrace(
    namedtuple(
        "MullineuxTrace",
        "modulus beta base_case image_beta children nu_beta oracle_fallback",
        defaults=((), None, False),
    )
):
    """One level of the recursion: what was computed at this modulus.

    It stores beta-sets at minimal padding as int bitsets (beta,
    image_beta, nu_beta) and decodes partition, image, mu, nu and to_dict
    on access.  mu, the pair the forward walk hands to the children, is
    read off the children's beta-sets.
    """

    __slots__ = ()

    @property
    def partition(self) -> Partition:
        return partition_from_bits(self.beta)

    @property
    def image(self) -> Partition | None:
        return None if self.image_beta is None else partition_from_bits(self.image_beta)

    @property
    def mu_beta(self) -> BitPair | None:
        return (self.children[0].beta, self.children[1].beta) if self.children else None

    @property
    def mu(self) -> tuple[Partition, Partition] | None:
        return None if self.mu_beta is None else betamaps.decode_bits(self.mu_beta)

    @property
    def nu(self) -> tuple[Partition, Partition] | None:
        return None if self.nu_beta is None else betamaps.decode_bits(self.nu_beta)

    def to_dict(self) -> dict:
        doc = {
            "modulus": self.modulus,
            "partition": format_partition(self.partition),
            "base_case": self.base_case,
            "image": format_partition(self.image) if self.image_beta is not None else None,
        }
        if self.oracle_fallback:
            doc["oracle_fallback"] = True
        if self.children:
            doc["mu"] = [format_partition(p) for p in self.mu]
        if self.nu_beta is not None:
            doc["nu"] = [format_partition(p) for p in self.nu]
        if self.children:
            doc["children"] = [c.to_dict() for c in self.children]
        return doc


# On an in-process cross_validate(e=2..5, n<=26), 17,508 top-level nodes
# have 7,915 distinct children.  Node computations there (children computed
# plus top-level nodes) and peak RSS, for that sweep and for one 200-input
# round of bench/run.py's large-rank workload run in-process, against a
# 512-node memo that also held the top level (2-core x86-64 host, Python
# 3.11, median of three processes; entries hold bitsets):
#
#     MEMO_SIZE              node computations  peak RSS, crossval  large-rank
#     512, top level in it   50,052             15.1 MiB            19.3 MiB
#     512                    45,911             -0.0 MiB            +0.0 MiB
#     1,024                  35,119             +0.3 MiB            +0.3 MiB
#     1,536                  28,684             +0.5 MiB            +0.5 MiB
#     2,048                  25,536             +0.8 MiB            +0.7 MiB
#     4,096                  25,423             +1.7 MiB            +1.5 MiB
#
# 4,096 nodes reach the floor, one computation per distinct node.  1,536
# come within 13% of it for under a third of the extra memory, and were the
# largest size that kept bench/run.py's peak RSS within 5% of the 512-node
# memo on both workloads even with tuple entries (+0.8 MiB at 1,536 nodes;
# 2,048 added 5.3% on crossval-sweep).  An unbounded memo also reaches the
# floor, but grows with the sweep: +2.5 MiB on this one.
MEMO_SIZE = 1536  # recursion nodes per process


def _diagonal_walk(e: int, x: Bits) -> BitPair:
    """psi_tilde(2e, (0, e), (lam, lam)) for lam = the partition x encodes,
    as two bitsets at minimal padding."""
    y1, y2 = betamaps.psi_tilde_beta_sets(2 * e, (0, e), (x, pad_beta_set(x, x.bit_count() + e)))
    return minimal_beta_set(y1), minimal_beta_set(y2)


def _violation(x: Bits, e: int, before: str, after: str, *fields) -> ConjectureViolationError:
    """The violation at the node of x: its text names lam between before and
    after, and its trace holds the fields computed so far (children, nu)."""
    lam = partition_from_bits(x)
    trace = MullineuxTrace(e, x, False, None, *fields)
    text = before + partition_text(lam) + after
    return ConjectureViolationError(text, partition=lam, modulus=e, trace=trace)


@functools.lru_cache(maxsize=MEMO_SIZE)
def _node(x: Bits, e: int, depth: int, depth_limit: int, oracle_fallback: bool):
    """The recursion at one node, on the bitset x of lam's beta-set at minimal padding."""
    if not beta_set_is_e_regular(x, e):
        # only reachable below the top level; the top-level call pre-checks
        raise _violation(x, e, "intermediate component ", f" is not {e}-regular")
    if beta_set_is_e_core(x, e):
        return MullineuxTrace(e, x, True, conjugate_beta_set(x))
    if depth >= depth_limit:
        lam = partition_from_bits(x)
        if oracle_fallback:
            image = minimal_bits(kernels.mullineux(lam, e))
            return MullineuxTrace(e, x, False, image, oracle_fallback=True)
        raise DepthExceededError(
            f"depth limit {depth_limit} reached at modulus {e} on {partition_text(lam)}",
            partition=lam,
            modulus=e,
            depth=depth,
        )
    try:
        mu = _diagonal_walk(e, x)
    except ValueError as exc:
        raise _violation(x, e, f"isomorphism walk failed at modulus {e} on ", f": {exc}") from exc
    child1 = _node(mu[0], 2 * e, depth + 1, depth_limit, oracle_fallback)
    child2 = _node(mu[1], 2 * e, depth + 1, depth_limit, oracle_fallback)
    # the trace reads mu off the children: a memo hit's beta-sets are the
    # older, cached ints, so the fresh copies in mu are let go
    children = (child1, child2)
    try:
        back = betamaps.psi_tilde_beta_sets(2 * e, (0, e), (child1.image_beta, child2.image_beta), True)
    except ValueError as exc:
        raise _violation(x, e, f"inverse walk failed at modulus {e} on ", f": {exc}", children) from exc
    nu = minimal_beta_set(back[0]), minimal_beta_set(back[1])
    if nu[0] != nu[1]:
        nu1, nu2 = map(partition_text, betamaps.decode_bits(nu))
        what = f"pulled-back components disagree at modulus {e} on "
        raise _violation(x, e, what, f": {nu1} != {nu2}", children, nu)
    # the components agree, so one int serves as both and as the image
    image = nu[0]
    return MullineuxTrace(e, x, False, image, children, (image, image))


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
    check_modulus(e)
    if depth_limit < 0:
        raise ValueError(f"depth_limit must be >= 0, got {depth_limit}")
    check_rank(lam)
    x = minimal_bits(lam)
    if not beta_set_is_e_regular(x, e):
        raise NotRegularError(f"{partition_text(lam)} is not {e}-regular")
    # the top level bypasses the memo: a sweep checks each partition once, so
    # its entry would never be hit and would only push out a child's entry
    trace = _node.__wrapped__(x, e, 0, depth_limit, oracle_fallback)
    return trace.image, trace


# ---------------------------------------------------------------------------
# cross-validation sweep


def _recursion_phase(lam: Partition, x: Bits, e: int, _, depth_limit: int):
    """The recursion's (image, trace), or its violation or depth record."""
    # looked up at call time, so a wrapper on the module sees every call
    try:
        return (), mullineux_conjectural(lam, e, depth_limit=depth_limit)
    except ConjectureViolationError as exc:
        trace_doc = exc.trace.to_dict() if exc.trace is not None else None
        return [_failure(lam, e, kind="conjecture_violation", detail=str(exc), trace=trace_doc)], None
    except DepthExceededError as exc:
        return [_failure(lam, e, kind="depth_exceeded", detail=str(exc))], None


def _symbol_phase(lam: Partition, x: Bits, e: int, result, _):
    """Accept the recursion's image when it is e-regular and its e-rim symbol
    is the dual of lam's; otherwise record Kleshchev's image if it differs."""
    if result is not None:
        recursive, trace = result
        if not (
            beta_set_is_e_regular(trace.image_beta, e)
            and kernels.e_rim_symbol(recursive, e) == kernels.dual_symbol(kernels.e_rim_symbol(lam, e), e)
        ):
            oracle = kernels.mullineux(lam, e)
            if recursive != oracle:
                oracle, recursive = format_partition(oracle), format_partition(recursive)
                return [_failure(lam, e, kind="mullineux_mismatch", oracle=oracle, recursive=recursive)], result
    return (), result


def _walk_phase(lam: Partition, x: Bits, e: int, result, _):
    """The walks of (lam, lam) at moduli 2e and e against each other, and
    odd-stage inclusion along the latter, lam's tower."""
    # except at an e-core or when it raised, the recursion already walked
    # (lam, lam) at modulus 2e
    double = result[1].mu_beta if result is not None else None
    if double is None:
        double = _diagonal_walk(e, x)
    # the walk at modulus e takes the tower's steps, and the tower meets the
    # shortcut by stage stable_shift - 1, where the charge gap exceeds 2n
    rows = _tower(e, x, betamaps.stable_shift((0, 0), sum(lam), e), True)
    failures = _odd_stage_failures(lam, e, rows, kind="inclusion_failure")
    _, x1, x2, _ = rows[-1]
    single = minimal_beta_set(x1), minimal_beta_set(x2)
    if double != single:
        at_2e, at_e = ([format_partition(p) for p in betamaps.decode_bits(b)] for b in (double, single))
        failures.append(_failure(lam, e, kind="isomorphism_mismatch", at_2e=at_2e, at_e=at_e))
    return failures, None


def cross_validate(
    e_list: list[int],
    n_max: int,
    depth_limit: int = 16,
    jobs: int = 1,
) -> SweepReport:
    """Check, on every e-regular partition of rank <= n_max, the recursion's
    image by its e-rim symbol, the stabilized isomorphism of (lam, lam) at
    modulus 2e, bicharge (0, e), against modulus e, bicharge (0, 0), and
    odd-stage inclusion along the latter.  Failures are recorded, not raised.
    """
    if depth_limit < 0:
        raise ValueError(f"depth_limit must be >= 0, got {depth_limit}")
    parameters = {"e_list": list(e_list), "n_max": n_max, "depth_limit": depth_limit}
    check = functools.partial(_phases, (_recursion_phase, _symbol_phase, _walk_phase))
    report = _sweep("cross-validate", parameters, check, (depth_limit,), e_list, n_max, True, jobs)
    report.depth_exceeded = sum(c["kind"] == "depth_exceeded" for c in report.counterexamples)
    return report

"""Verification harnesses and the modulus-doubling Mullineux algorithm.

Two sweeps live here.  The conjecture sweep iterates the beta-set step on
diagonal pairs (X, X) and records whether the first set is contained in the
second after each stage; containment at every odd stage is the conjecture
under test, and any failure is collected as a counterexample, never raised.
Its towers stop at the first stage whose pair meets the walks' shortcut,
since every later stage is then provably an inclusion (see
conjecture_tower); the report is the one the full towers give.
Each stage's inclusion flag also picks how the next step is taken: from a
pair whose first set lies inside the second, the step matches every
element to itself, so the tower builds it in closed form and calls
kernels.psi_step only after a stage that is not an inclusion.
The cross-validation sweep runs the recursive algorithm against a proven
oracle on every e-regular partition in range.  That oracle is Mullineux's
e-rim symbol (kernels.mullineux_symbol), which costs about one pass over
the nodes, rather than Kleshchev's residue-path algorithm
(kernels.mullineux), which scans the rows once for every i-string it
strips or replays; both give the same image, so the report is the same
either way.  Kleshchev's algorithm
remains the oracle of mull, level1 and the recursion's oracle_fallback, and
the test suite checks the two oracles against each other.

The recursive algorithm computes the Mullineux image of an e-regular
partition from the involution at modulus 2e: take the stabilized isomorphism
image of (lam, lam) at modulus 2e and bicharge (0, e), apply the modulus-2e
involution to both components, pull back, and read the answer off the two
components, which must agree.  Conjugation of e-cores is the base case.

Both the towers and the recursion hold a beta-set as an int bitset, bit
b set iff b is a bead (see mullineux._core.kernels).  The recursion works
on beta-sets at minimal padding, the bitset of beta_set(lam,
max(1, len(lam))), from end to end: a partition is encoded once on entry,
the regularity and e-core tests and the base case's conjugation read the
bitset, the walks (betamaps.psi_tilde_beta_sets) take and return bitset
pairs, and the children get the forward walk's pair trimmed back to
minimal padding.  A MullineuxTrace stores those bitsets and decodes its
partition fields only when they are read, for error text, to_dict and
the top-level image.  The sweeps decode only what a report prints: a
tower failure's missing beads, and a mismatch's or an error's partitions.
conjecture_tower keeps the tuple form for its callers and runs the
bitset tower the sweep calls, _tower.

The recursion revisits the same modulus-2e and modulus-4e subproblems many
times, both within one partition's trace tree and across the partitions of
a sweep, so each process keeps a bounded least-recently-used memo of
recursion nodes below the top level.  It is keyed on everything a node's
outcome and its error text depend on: the partition's beta-set at minimal
padding (one int, in one-to-one correspondence with the partition), the
modulus, the depth (with depth_limit, the remaining depth budget),
depth_limit and oracle_fallback.  It stores ConjectureViolationError and
DepthExceededError outcomes as well as traces and raises them again on
every hit, so a violation is never masked; a hit returns the very trace
object computed first, so trace trees share subtrees instead of copying
them, and a parent's mu is read off its children, so it holds their
cached beta-sets rather than fresh copies and costs the trace no field.
The top-level node of mullineux_conjectural bypasses the memo: a sweep
checks each partition once, so a top-level entry is never hit, and each
one would push out a child that recurs.  The memo holds MEMO_SIZE nodes,
sized to the children's working set.  On an in-process
cross_validate(e=2..5, n<=26), 17,508 top-level nodes have 7,915 distinct
children.  The table gives node computations there (children computed
plus top-level nodes) and peak RSS, both for that sweep and for one
200-input round of bench/run.py's large-rank workload run in-process,
against a 512-node memo that also held the top level (2-core x86-64
host, Python 3.11, median of three processes; entries hold bitsets):

    MEMO_SIZE              node computations  peak RSS, crossval  large-rank
    512, top level in it   50,052             15.1 MiB            19.3 MiB
    512                    45,911             -0.0 MiB            +0.0 MiB
    1,024                  35,119             +0.3 MiB            +0.3 MiB
    1,536                  28,684             +0.5 MiB            +0.5 MiB
    2,048                  25,536             +0.8 MiB            +0.7 MiB
    4,096                  25,423             +1.7 MiB            +1.5 MiB

4,096 nodes reach the floor, one computation per distinct node.  1,536
nodes come within 13% of it for under a third of the extra memory, and
were the largest size that kept bench/run.py's peak RSS within 5% of the
512-node memo on both workloads even with tuple entries, which cost more
(+0.8 MiB at 1,536 nodes): there 2,048 nodes added 5.3% on
crossval-sweep (24.4 to 25.7 MiB), 1,536 about 3%.  An unbounded memo
also reaches the floor, but its memory grows with the sweep: +2.5 MiB on
this one.

Both sweeps are one pipeline.  Each is only its parameters and a
per-partition check, check(lam, x, e, *params), that returns a list of
failure dicts.  _sweep validates the arguments, builds the (e, n) grid,
runs _bucket on every bucket and merges checked, counterexamples and
timings (labelled "e={e},n={n}") in (e, n) order.  _bucket is the only
loop over a bucket's partitions; partitions.enumerate_e_regular_bits
hands it each lam with x, its bitset at minimal padding, which the
checks start from.  An exception a check raises is data, not
an abort: it becomes a counterexample of kind "error" carrying the
partition and the exception, and the sweep goes on.  With more than one
worker the buckets go to the Pool one at a time, larger ranks first, so the
largest buckets do not end up in one worker's last chunk; only picklable
data (the check, e, n, regular_only, params) crosses the Pool, and the
enumerators and checks look up module globals at call time.  Buckets share
no state, so reports are byte-identical regardless of the worker count.
Each worker process has its own memo.  The first sweep with more than one
worker imports multiprocessing, so importing the package and running a
serial sweep never load it.
"""

from __future__ import annotations

import functools
import time
from collections import namedtuple
from typing import NamedTuple

from mullineux import betamaps
from mullineux._core import kernels
from mullineux.errors import ConjectureViolationError, DepthExceededError, NotRegularError, check_modulus
from mullineux.partitions import (
    Partition,
    beta_bits,
    beta_set,
    beta_set_from_bits,
    beta_set_is_e_core,
    beta_set_is_e_regular,
    beta_set_to_bits,
    check_rank,
    conjugate_beta_set,
    enumerate_e_regular,  # unused here; bench/layers.py wraps it on this module
    enumerate_e_regular_bits,
    format_partition,
    is_e_regular,
    minimal_beta_set,
    pad_beta_set,
    partition_from_beta_set,
    unrestricted_modulus,
)
from mullineux.schema import SCHEMA_VERSION

Bits = int
BitPair = tuple[Bits, Bits]


def _encode(lam: Partition) -> Bits:
    """The bitset of lam's beta-set at minimal padding, the form the
    recursion and the towers start from."""
    return beta_bits(lam, max(1, len(lam)))


def _partition(x: Bits) -> Partition:
    """The partition a bitset beta-set encodes."""
    return partition_from_beta_set(beta_set_from_bits(x))


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
    steps hold tuples; the tower itself runs on bitsets (_tower).

    Each stage's inclusion flag decides how the next step is taken.  A step
    from a pair (x1, x2) with x1 inside x2 matches every a in x1 to itself
    (the induction in kernels.psi_step's docstring), so it is built in
    closed form as x1 and {0..e-1} u (x2 + e), with no kernel call and no
    second subset test.  Stage 0 starts from (x, x), and every stage after
    an inclusion starts from such a pair; kernels.psi_step runs only after
    a stage that is not an inclusion.

    With stop_at_shortcut the tower ends after the first stage whose pair
    (x1, x2) meets betamaps.shortcut_on_beta_sets, or whose x1 is empty,
    because every later stage is then an inclusion.  The shortcut says that
    x2 contains 0..m, m the largest element of x1.  The next step is then
    the closed form, whose second set contains 0..m+e: the shortcut holds
    again and x1 is inside the second set.  An empty x1 stays empty and is
    inside any set.  A tower that stops at stage 0 skips the stage-1
    assertion, but only where stage 1 is an inclusion anyway.  The sweep
    stops its towers; library callers get the full tower by default.  Since
    a stage that meets the shortcut is an inclusion, the shortcut, computed
    once per stage, also decides the inclusion flag there.
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


def _bucket(task):
    """The only loop over a bucket's partitions: run the check on each, count
    them and collect the failure dicts, recording an exception the check
    raises as a failure of kind "error".  Returns (checked, failures, seconds)."""
    check, e, n, regular_only, params = task
    start = time.perf_counter()
    checked, failures = 0, []
    for lam, x in enumerate_e_regular_bits(n, e if regular_only else unrestricted_modulus(n)):
        checked += 1
        try:
            failures.extend(check(lam, x, e, *params))
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
    """Run check(lam, x, e, *params) on every (e, n) bucket and merge in (e, n) order."""
    if not e_list:
        raise ValueError("at least one modulus is required")
    check_modulus(min(e_list))
    if len(set(e_list)) != len(e_list):
        raise ValueError(f"moduli must be distinct, got {list(e_list)}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    grid = [(e, n) for e in e_list for n in range(n_max + 1)]
    tasks = [(check, e, n, regular_only, params) for e, n in grid]
    if jobs > 1 and len(tasks) > 1:
        from multiprocessing import Pool

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


def _tower_failures(lam: Partition, x: Bits, e: int, k_max: int) -> list[dict]:
    """Odd stages of lam's stopped tower from its bitset x that are not
    inclusions, with lam's beta-set and the missing beads as lists."""
    return [
        {
            "e": e,
            "partition": format_partition(lam),
            "beta_set": list(beta_set(lam, max(1, len(lam)))),
            "k": k,
            "missing": list(beta_set_from_bits(x1 & ~x2)),
        }
        # the flag goes positionally, so a stand-in taking only *args can replace the tower
        for k, x1, x2, inclusion in _tower(e, x, k_max, True)
        if k % 2 and not inclusion
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


class MullineuxTrace(
    namedtuple(
        "MullineuxTrace",
        "modulus beta base_case image_beta children nu_beta oracle_fallback",
        defaults=((), None, False),
    )
):
    """One level of the recursion: what was computed at this modulus.

    It stores what the recursion computes, beta-sets at minimal padding
    held as int bitsets (beta, image_beta, nu_beta), and decodes
    partition, image, mu, nu and to_dict on access.  mu, the pair the
    forward walk hands to the children, is read off the children's
    beta-sets, so it exists exactly when there are children.  A named
    tuple keeps the fields immutable and costs less to define at import
    than a frozen dataclass.
    """

    __slots__ = ()

    @property
    def partition(self) -> Partition:
        return _partition(self.beta)

    @property
    def image(self) -> Partition | None:
        return None if self.image_beta is None else _partition(self.image_beta)

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


MEMO_SIZE = 1536  # recursion nodes per process; see the module docstring


def _conjectural(x: Bits, e: int, depth: int, depth_limit: int, oracle_fallback: bool):
    """One recursion node through the memo: its trace, or the error it raised."""
    outcome = _outcome(x, e, depth, depth_limit, oracle_fallback)
    if isinstance(outcome, MullineuxTrace):
        return outcome
    # drop the traceback of the earlier raise, which would otherwise grow with every hit
    raise outcome.with_traceback(None)


@functools.lru_cache(maxsize=MEMO_SIZE)
def _outcome(x: Bits, e: int, depth: int, depth_limit: int, oracle_fallback: bool):
    try:
        return _node(x, e, depth, depth_limit, oracle_fallback)
    except (ConjectureViolationError, DepthExceededError) as exc:
        return exc


def _diagonal_walk(e: int, s2: int, x: Bits) -> BitPair:
    """psi_tilde(e, (0, s2), (lam, lam)) for lam = the partition x encodes,
    as two bitsets at minimal padding."""
    y1, y2 = betamaps.psi_tilde_beta_sets(e, (0, s2), (x, pad_beta_set(x, x.bit_count() + s2)))
    return minimal_beta_set(y1), minimal_beta_set(y2)


def _node(x: Bits, e: int, depth: int, depth_limit: int, oracle_fallback: bool):
    """The recursion at one node, on the bitset x of lam's beta-set at minimal padding."""
    if not beta_set_is_e_regular(x, e):
        # only reachable below the top level; the top-level call pre-checks
        lam = _partition(x)
        raise ConjectureViolationError(
            f"intermediate component {lam} is not {e}-regular",
            partition=lam,
            modulus=e,
            trace=MullineuxTrace(e, x, False, None),
        )
    if beta_set_is_e_core(x, e):
        return MullineuxTrace(e, x, True, conjugate_beta_set(x))
    if depth >= depth_limit:
        lam = _partition(x)
        if oracle_fallback:
            image = _encode(kernels.mullineux(lam, e))
            return MullineuxTrace(e, x, False, image, oracle_fallback=True)
        raise DepthExceededError(
            f"depth limit {depth_limit} reached at modulus {e} on {lam}",
            partition=lam,
            modulus=e,
            depth=depth,
        )
    try:
        mu = _diagonal_walk(2 * e, e, x)
    except ValueError as exc:
        lam = _partition(x)
        raise ConjectureViolationError(
            f"isomorphism walk failed at modulus {e} on {lam}: {exc}",
            partition=lam,
            modulus=e,
            trace=MullineuxTrace(e, x, False, None),
        ) from exc
    child1 = _conjectural(mu[0], 2 * e, depth + 1, depth_limit, oracle_fallback)
    child2 = _conjectural(mu[1], 2 * e, depth + 1, depth_limit, oracle_fallback)
    # the trace reads mu off the children: a memo hit's beta-sets are the
    # older, cached ints, so the fresh copies in mu are let go
    children = (child1, child2)
    try:
        back = betamaps.psi_tilde_beta_sets(2 * e, (0, e), (child1.image_beta, child2.image_beta), True)
    except ValueError as exc:
        lam = _partition(x)
        raise ConjectureViolationError(
            f"inverse walk failed at modulus {e} on {lam}: {exc}",
            partition=lam,
            modulus=e,
            trace=MullineuxTrace(e, x, False, None, children),
        ) from exc
    nu = minimal_beta_set(back[0]), minimal_beta_set(back[1])
    if nu[0] != nu[1]:
        trace = MullineuxTrace(e, x, False, None, children, nu)
        lam = _partition(x)
        raise ConjectureViolationError(
            f"pulled-back components disagree at modulus {e} on {lam}: {trace.nu[0]} != {trace.nu[1]}",
            partition=lam,
            modulus=e,
            trace=trace,
        )
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
    if not is_e_regular(lam, e):
        raise NotRegularError(f"{lam} is not {e}-regular")
    # the top level bypasses the memo: a sweep checks each partition once, so
    # its entry would never be hit and would only push out a child's entry
    trace = _node(_encode(lam), e, 0, depth_limit, oracle_fallback)
    return trace.image, trace


# ---------------------------------------------------------------------------
# cross-validation sweep


def _crossval_failures(lam: Partition, x: Bits, e: int, depth_limit: int) -> list[dict]:
    """Failure dicts for lam, with bitset x: the recursion against a proven
    oracle, and the stabilized walks of (lam, lam) at moduli 2e and e
    against each other.

    The oracle is Mullineux's e-rim symbol, kernels.mullineux_symbol, not
    Kleshchev's kernels.mullineux: both are proven and agree, and the symbol
    costs about one pass over the nodes instead of a scan of the rows per
    i-string.  An oracle error reaches _bucket, which records it as kind "error".
    The walks are compared on bitsets and decoded only for a mismatch.
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
    # except at an e-core or when it raised, the recursion already walked
    # (lam, lam) at modulus 2e
    double = _diagonal_walk(2 * e, e, x) if trace is None or trace.mu_beta is None else trace.mu_beta
    single = _diagonal_walk(e, 0, x)
    if double != single:
        failures.append(
            {
                "e": e,
                "partition": name,
                "kind": "isomorphism_mismatch",
                "at_2e": [format_partition(p) for p in betamaps.decode_bits(double)],
                "at_e": [format_partition(p) for p in betamaps.decode_bits(single)],
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

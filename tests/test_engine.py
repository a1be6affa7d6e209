"""Harness behavior: towers, sweeps, the recursive algorithm, reports."""

import json
import multiprocessing
import os
import pickle
import subprocess
import sys

import pytest

from mullineux import betamaps, engine
from mullineux._core import kernels
from mullineux.engine import (
    SweepReport,
    TowerStep,
    TowerTrace,
    conjecture_tower,
    cross_validate,
    mullineux_conjectural,
    sweep_conjecture,
)
from mullineux.errors import ConjectureViolationError, DepthExceededError, NotRegularError
from mullineux.level1 import mullineux_kleshchev
from mullineux.partitions import (
    beta_bits,
    beta_set,
    beta_set_from_bits,
    conjugate,
    enumerate_e_regular,
    enumerate_e_regular_bits,
    enumerate_partitions,
    format_partition,
    is_e_core,
    is_e_regular,
    minimal_beta_set,
    minimal_bits,
    partition_from_beta_set,
)

import beta_reference
import crystal_reference
import enumerate_reference

X_STAR = (0, 3, 5, 6, 10, 12, 15, 18, 20)


# ---------------------------------------------------------------------------
# towers


def test_tower_pinned():
    trace = conjecture_tower(3, X_STAR, 3)
    assert [s.inclusion for s in trace.steps] == [False, True, False, True]
    missing = sorted(set(trace.steps[2].x1) - set(trace.steps[2].x2))
    assert 8 in missing
    assert trace.odd_failures() == []


def test_tower_shapes():
    trace = conjecture_tower(4, (0, 2, 7), 5)
    assert len(trace.steps) == 6
    for i, step in enumerate(trace.steps):
        assert step.k == i
        assert len(step.x1) == 3
        assert len(step.x2) == 3 + 4 * (i + 1)


def test_tower_stage_one_always_holds():
    for e in (2, 3, 4):
        for n in range(9):
            for lam in enumerate_partitions(n):
                x = beta_set(lam, max(1, len(lam)))
                trace = conjecture_tower(e, x, 1)
                assert trace.steps[1].inclusion


def test_tower_padding_invariance():
    """Padding the start set shifts the whole tower; inclusions are unchanged."""
    for e in (2, 3):
        for n in range(8):
            for lam in enumerate_partitions(n):
                x = beta_set(lam, max(1, len(lam)))
                padded = (0,) + tuple(v + 1 for v in x)
                a = conjecture_tower(e, x, 5)
                b = conjecture_tower(e, padded, 5)
                assert [s.inclusion for s in a.steps] == [s.inclusion for s in b.steps]


def shortcut_holds(step):
    """x2 contains 0..max(x1), by sets rather than betamaps' O(1) test."""
    return set(range(max(step.x1, default=-1) + 1)) <= set(step.x2)


def test_tower_stopped_at_the_shortcut_is_a_prefix_of_the_full_tower():
    stopped_early = 0
    for e in (2, 3, 4, 5, 6):
        for n in range(17):
            for lam in enumerate_partitions(n):
                x = beta_set(lam, max(1, len(lam)))
                full = conjecture_tower(e, x, 9)
                short = conjecture_tower(e, x, 9, stop_at_shortcut=True)
                kept = len(short.steps)
                first = next((s.k for s in full.steps if shortcut_holds(s)), 9)
                assert kept == first + 1, (e, lam)
                assert short.steps == full.steps[:kept], (e, lam)
                assert all(step.inclusion for step in full.steps[kept:]), (e, lam)
                assert short.odd_failures() == full.odd_failures(), (e, lam)
                stopped_early += kept < len(full.steps)
    assert stopped_early > 0


def naive_tower(step, e, x, k_max, stop_at_shortcut):
    """The tower with a call of step at every stage, as (k, x1, x2, inclusion) rows."""
    x1, x2 = x, x
    rows = []
    for k in range(k_max + 1):
        x1, x2 = step(e, x1, x2)
        rows.append((k, x1, x2, set(x1) <= set(x2)))
        if stop_at_shortcut and shortcut_holds(TowerStep(k, x1, x2, None)):
            break
    return rows


def test_fused_tower_matches_a_kernel_call_at_every_stage(monkeypatch):
    # the naive tower calls the tuple reference step, the fused one the bitset kernel
    step = beta_reference.psi_step
    kernel = kernels.psi_step
    calls = []

    def counted_step(e, x1, x2):
        calls.append(e)
        return kernel(e, x1, x2)

    monkeypatch.setattr(kernels, "psi_step", counted_step)
    for e in (2, 3, 4, 5):
        for n in range(13):
            for lam in enumerate_partitions(n):
                x = beta_set(lam, max(1, len(lam)))
                for start in (x, beta_set(lam, len(x) + 3)):
                    for stop in (False, True):
                        calls.clear()
                        trace = conjecture_tower(e, start, 9, stop)
                        assert [tuple(s) for s in trace.steps] == naive_tower(step, e, start, 9, stop)
                        # one kernel call per stage that follows a non-inclusion
                        assert len(calls) == sum(not s.inclusion for s in trace.steps[:-1]), (e, start)


def test_tower_trace_pickles():
    trace = conjecture_tower(3, X_STAR, 5)
    copy = pickle.loads(pickle.dumps(trace))
    assert copy == trace and type(copy) is TowerTrace
    assert copy.odd_failures() == trace.odd_failures()


def test_tower_stops_on_an_empty_first_set():
    trace = conjecture_tower(3, (), 5, stop_at_shortcut=True)
    assert [(s.k, s.x1, s.inclusion) for s in trace.steps] == [(0, (), True)]
    assert len(conjecture_tower(3, (), 5).steps) == 6


# ---------------------------------------------------------------------------
# conjecture sweep


def test_sweep_verified_small():
    report = sweep_conjecture([2], 10, 7)
    assert report.verified
    assert report.checked == sum(len(list(enumerate_e_regular(n, 2))) for n in range(11))
    assert report.status == "verified"


def test_sweep_all_partitions_flag():
    restricted = sweep_conjecture([3], 8, 5, regular_only=True)
    full = sweep_conjecture([3], 8, 5, regular_only=False)
    assert full.checked == sum(len(list(enumerate_partitions(n))) for n in range(9))
    assert full.checked > restricted.checked
    assert full.verified and restricted.verified


def test_sweep_trivial():
    report = sweep_conjecture([2], 0, 3)
    assert report.verified and report.checked == 1


def test_sweep_jobs_deterministic():
    doc1 = sweep_conjecture([2, 3], 9, 5, jobs=1).to_document()
    doc2 = sweep_conjecture([2, 3], 9, 5, jobs=4).to_document()
    assert json.dumps(doc1) == json.dumps(doc2)


def flag_ignoring_tower(monkeypatch):
    """Replace the sweep's tower, engine._tower, with one that always runs to k_max."""
    tower = engine._tower

    def full_tower(e, x, k_max, *flags):
        return tower(e, x, k_max, False)

    monkeypatch.setattr(engine, "_tower", full_tower)


def test_stopped_towers_give_the_full_towers_document(monkeypatch):
    # work is counted in tower stages: past the shortcut every step is the
    # closed form, so kernel calls are the same for stopped and full towers
    tower = engine._tower
    stages = []

    def counted_tower(*args):
        rows = tower(*args)
        stages.append(len(rows))
        return rows

    monkeypatch.setattr(engine, "_tower", counted_tower)
    # the golden digests cover only the e-regular sweep
    stopped = sweep_conjecture([2, 3, 4, 5], 12, 9, regular_only=False).to_document()
    stopped_stages = sum(stages)
    flag_ignoring_tower(monkeypatch)
    full = sweep_conjecture([2, 3, 4, 5], 12, 9, regular_only=False).to_document()
    assert stopped == full
    assert stopped_stages < sum(stages) - stopped_stages


def odd_stage_breaking_step(inferred, modulus=None):
    """kernels.psi_step, broken on tower pairs (at `modulus` only, if given):
    its pairs never meet the shortcut, and from stage 3 on each odd stage
    loses an element of the first set from the second.  It reads the stage
    off the set sizes and appends it to `inferred`."""
    step = kernels.psi_step

    def broken_step(e, x1, x2):
        y1, y2 = step(e, x1, x2)
        if modulus is not None and e != modulus:
            return y1, y2
        # without 0 in the second set the shortcut never holds; a new top
        # element keeps |y2| = |x2| + e, as the closed-form step does
        y2 = y2 & (y2 - 1) | 1 << y2.bit_length()
        k = (y2.bit_count() - y1.bit_count()) // e - 1  # each stage adds e elements
        inferred.append(k)
        top = y1.bit_length() - 1
        if k >= 3 and k % 2 and y2 >> top & 1:
            # odd stages past the proved one lose an element of the first set
            y2 = y2 ^ 1 << top | 1 << y2.bit_length()
        return y1, y2

    return broken_step


def test_stopped_towers_keep_odd_stage_failures(monkeypatch):
    inferred = []
    monkeypatch.setattr(kernels, "psi_step", odd_stage_breaking_step(inferred))
    tower = engine._tower
    towers = []

    def recorded_tower(*args):
        towers.append(tower(*args))
        return towers[-1]

    monkeypatch.setattr(engine, "_tower", recorded_tower)
    stopped = [sweep_conjecture([2, 3, 4, 5], 10, 7, jobs=1).to_document()]
    # the serial sweep calls the kernel exactly for the stages after a
    # non-inclusion, in order, and the broken kernel reads each one's stage;
    # a row is (k, x1, x2, inclusion)
    true_stages = [now[0] for t in towers for before, now in zip(t, t[1:]) if not before[3]]
    assert inferred == true_stages
    monkeypatch.setattr(engine, "_tower", tower)
    stopped.append(sweep_conjecture([2, 3, 4, 5], 10, 7, jobs=2).to_document())
    flag_ignoring_tower(monkeypatch)
    full = sweep_conjecture([2, 3, 4, 5], 10, 7).to_document()
    assert {c.get("k") for c in full["counterexamples"]} >= {3, 5, 7}
    assert stopped[0] == stopped[1] == full


def test_report_document_shape():
    report = sweep_conjecture([2], 4, 3)
    doc = report.to_document()
    assert list(doc) == ["schema_version", "command", "parameters", "checked", "status", "counterexamples"]
    timed = report.to_document(include_timing=True)
    assert "timing" in timed
    # the defaults, and no list or dict shared between two reports
    first = SweepReport(command="verify-conjecture", parameters={})
    second = SweepReport(command="verify-conjecture", parameters={})
    assert (first.checked, first.depth_exceeded, first.counterexamples, first.timings) == (0, None, [], {})
    first.counterexamples.append({"e": 2, "partition": "1"})
    first.timings["e=2,n=1"] = 0.5
    assert (second.counterexamples, second.timings) == ([], {})
    assert (first.status, second.status) == ("counterexample", "verified")


# ---------------------------------------------------------------------------
# recursive Mullineux


def test_recursive_pinned():
    image, trace = mullineux_conjectural((6, 5, 2, 2, 1, 1), 3)
    assert image == (11, 4, 2)
    assert trace.mu == ((3, 3, 2, 2, 1, 1), (6, 5, 5, 4, 1, 1))
    assert trace.nu == ((11, 4, 2), (11, 4, 2))
    assert not trace.base_case

    image, trace = mullineux_conjectural((5, 2, 1, 1), 3)
    assert image == (4, 2, 2, 1)

    # cores return their conjugate at depth zero
    image, trace = mullineux_conjectural((5, 2, 1, 1), 6)
    assert image == (4, 2, 1, 1, 1) and trace.base_case

    image, trace = mullineux_conjectural((), 3)
    assert image == () and trace.base_case


def test_recursive_rejects_irregular():
    with pytest.raises(NotRegularError):
        mullineux_conjectural((1, 1, 1), 3)


def test_recursive_depth_limit():
    with pytest.raises(DepthExceededError):
        mullineux_conjectural((3,), 3, depth_limit=0)
    image, trace = mullineux_conjectural((3,), 3, depth_limit=0, oracle_fallback=True)
    assert image == mullineux_kleshchev((3,), 3)
    assert trace.oracle_fallback


def test_error_texts_name_a_long_partition_briefly():
    # 21 rows of 2 are 22-regular but no 22-core: the hook of (1, 1) is 22
    lam = (2,) * 21
    with pytest.raises(DepthExceededError) as info:
        mullineux_conjectural(lam, 22, depth_limit=0)
    assert str(info.value) == f"depth limit 0 reached at modulus 22 on ({'2, ' * 20}...) (21 parts, rank 42)"
    assert info.value.partition == lam
    for algorithm in (mullineux_kleshchev, mullineux_conjectural):
        with pytest.raises(NotRegularError) as info:
            algorithm((1,) * 30, 2)
        assert str(info.value) == f"({'1, ' * 20}...) (30 parts, rank 30) is not 2-regular"


def test_negative_depth_limit_raises_before_any_bucket(monkeypatch):
    monkeypatch.setattr(engine, "_bucket", None)  # a bucket run would raise TypeError
    with pytest.raises(ValueError, match="depth_limit must be >= 0, got -1"):
        cross_validate([2, 3], 4, depth_limit=-1)
    # (3, 1) is a 3-core, which answers before the depth is looked at
    with pytest.raises(ValueError, match="depth_limit must be >= 0, got -1"):
        mullineux_conjectural((3, 1), 3, depth_limit=-1)


def test_jobs_below_one_raise_before_any_bucket(monkeypatch):
    monkeypatch.setattr(engine, "_bucket", None)  # a bucket run would raise TypeError
    for jobs in (0, -4):
        with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
            cross_validate([2, 3], 4, jobs=jobs)
        with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
            sweep_conjecture([2, 3], 4, 3, jobs=jobs)


def test_trace_built_from_partitions_reads_like_the_recursion():
    _, trace = mullineux_conjectural((6, 5, 2, 2, 1, 1), 3)
    rebuilt = engine.MullineuxTrace(
        trace.modulus, trace.beta, trace.base_case, trace.image_beta,
        children=trace.children, nu_beta=trace.nu_beta,
    )
    assert rebuilt == trace
    assert rebuilt.to_dict() == trace.to_dict()
    assert pickle.loads(pickle.dumps(trace)) == trace
    bare = engine.MullineuxTrace(3, beta_bits((3, 1), 2), False, None)
    assert (bare.partition, bare.image, bare.mu, bare.nu) == ((3, 1), None, None, None)
    assert bare.to_dict() == {"modulus": 3, "partition": "3,1", "base_case": False, "image": None}
    empty = engine.MullineuxTrace(3, beta_bits((), 1), True, beta_bits((), 1))
    assert (empty.partition, empty.image) == ((), ())


def test_recursive_core_detection_shortens_recursion():
    for e in (2, 3, 4, 5):
        for n in range(11):
            for lam in enumerate_e_regular(n, e):
                if is_e_core(lam, e):
                    image, trace = mullineux_conjectural(lam, e)
                    assert trace.base_case
                    assert image == conjugate(lam)


def test_recursive_matches_oracle_and_involutive():
    for e in (2, 3, 4, 5):
        for n in range(11):
            for lam in enumerate_e_regular(n, e):
                image, _ = mullineux_conjectural(lam, e)
                assert image == mullineux_kleshchev(lam, e)
                assert sum(image) == n
                assert is_e_regular(image, e)
                again, _ = mullineux_conjectural(image, e)
                assert again == lam


def test_trace_serialization():
    _, trace = mullineux_conjectural((6, 5, 2, 2, 1, 1), 3)
    doc = trace.to_dict()
    assert doc["partition"] == "6,5,2,2,1,1"
    assert doc["image"] == "11,4,2"
    assert doc["mu"] == ["3,3,2,2,1,1", "6,5,5,4,1,1"]
    assert len(doc["children"]) == 2
    assert doc["children"][0]["modulus"] == 6
    json.dumps(doc)  # must be serializable as-is


# ---------------------------------------------------------------------------
# the recursion's memo


@pytest.fixture
def cold_memo():
    """Start from an empty memo and leave none of this test's entries behind."""
    engine._node.cache_clear()
    yield
    engine._node.cache_clear()


def outcome(lam, e, depth_limit, oracle_fallback):
    """What a caller of mullineux_conjectural sees, in comparable form."""
    try:
        image, trace = mullineux_conjectural(
            lam, e, depth_limit=depth_limit, oracle_fallback=oracle_fallback
        )
    except (ConjectureViolationError, DepthExceededError) as exc:
        trace = getattr(exc, "trace", None)
        return (
            type(exc),
            str(exc),
            None if trace is None else trace.to_dict(),
            (exc.partition, exc.modulus, getattr(exc, "depth", None)),
        )
    return image, trace.to_dict()


def test_memo_warm_and_cleared_give_the_same_outcome(cold_memo):
    # oracle_fallback runs innermost, so a depth limit first raises and then
    # answers on the same partition, as in test_recursive_depth_limit
    calls = [
        (lam, e, depth_limit, oracle_fallback)
        for e in (2, 3, 4, 5)
        for n in range(13)
        for lam in enumerate_e_regular(n, e)
        for depth_limit in (0, 1, 2, 16)
        for oracle_fallback in (False, True)
    ]
    warm = [outcome(*call) for call in calls]
    assert any(result[0] is DepthExceededError for result in warm)
    for call, seen in zip(calls, warm):
        engine._node.cache_clear()
        assert outcome(*call) == seen, call


@pytest.fixture
def disagreeing_walk(monkeypatch):
    """Make every node with children raise: the inverse walk's second
    component gains a part 1."""
    walk = engine.betamaps.psi_tilde_beta_sets

    def disagreeing(e, s, pair, inverse=False):
        nu = walk(e, s, pair, inverse)
        if not inverse:
            return nu
        lam = partition_from_beta_set(beta_set_from_bits(nu[1]))
        return nu[0], beta_bits(lam + (1,), nu[1].bit_count() + 1)

    monkeypatch.setattr(engine.betamaps, "psi_tilde_beta_sets", disagreeing)


def test_memo_keeps_raising_a_violation(cold_memo, disagreeing_walk):
    seen = []
    for _ in range(3):
        with pytest.raises(ConjectureViolationError) as info:
            mullineux_conjectural((6, 5, 2, 2, 1, 1), 3)
        seen.append((str(info.value), info.value.trace.to_dict()))
    assert engine._node.cache_info().hits >= 2
    assert seen[0] == seen[1] == seen[2]
    assert "pulled-back components disagree" in seen[0][0]


def test_a_node_that_raises_leaves_no_memo_entry(cold_memo, disagreeing_walk):
    # (8,)'s children at modulus 6 have children of their own, so they raise;
    # only the base cases below them enter the memo, and a repeated call
    # computes the raising nodes again
    x = minimal_bits((8,))
    raised, sizes = [], []
    for _ in range(2):
        misses = engine._node.cache_info().misses
        with pytest.raises(ConjectureViolationError) as info:
            engine._node(x, 3, 0, 16, False)
        assert engine._node.cache_info().misses > misses
        sizes.append(engine._node.cache_info().currsize)
        exc = info.value
        raised.append((exc, str(exc), exc.partition, exc.modulus, exc.trace.to_dict()))
    assert sizes[0] == sizes[1] > 0
    (first, *seen), (second, *again) = raised
    assert second is not first and seen == again
    assert seen[2] == 6 and "pulled-back components disagree" in seen[0]


def test_memo_holds_no_top_level_node(cold_memo):
    # a sweep checks each partition once, so a top-level entry would never be hit
    assert is_e_core((4, 2), 3)
    mullineux_conjectural((4, 2), 3)
    assert engine._node.cache_info().currsize == 0
    mullineux_conjectural((6, 5, 2, 2, 1, 1), 3)
    assert engine._node.cache_info().currsize > 0


def test_sweep_memoizes_no_top_level_node(cold_memo):
    # the sweep's top level bypasses the memo too, so a cold sweep computes
    # exactly the children that mullineux_conjectural computes on its grid
    cross_validate([2, 3], 10)
    swept = engine._node.cache_info().misses
    engine._node.cache_clear()
    for e in (2, 3):
        for n in range(11):
            for lam in enumerate_e_regular(n, e):
                mullineux_conjectural(lam, e)
    assert swept == engine._node.cache_info().misses > 0


def test_sweep_enters_the_top_level_node_on_its_bitset(monkeypatch):
    # the sweep neither re-validates nor re-encodes lam, and a clean sweep
    # decodes no image; the top level sees each partition once
    calls = {"mullineux_conjectural": 0, "partition_from_bits": 0}
    for name in calls:
        original = getattr(engine, name)

        def spied(*args, name=name, original=original, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(engine, name, spied)
    top, seen = engine._node.__wrapped__, []

    def spied_top(x, e, *args):
        seen.append((x, e))
        return top(x, e, *args)

    monkeypatch.setattr(engine._node, "__wrapped__", spied_top)
    report = cross_validate([2, 3, 4, 5], 14)
    assert report.verified
    assert calls == {"mullineux_conjectural": 0, "partition_from_bits": 0}
    grid = [(x, e) for e in (2, 3, 4, 5) for n in range(15) for _, x in enumerate_e_regular_bits(n, e)]
    assert seen == grid and report.checked == len(grid)


def test_recursion_phase_matches_mullineux_conjectural():
    # the same trace, or the record of the same violation or depth limit
    for e in (2, 3, 4, 5):
        for n in range(13):
            for lam, x in enumerate_e_regular_bits(n, e):
                for depth_limit in (0, 1, 16):
                    failures, trace = engine._recursion_phase(lam, x, e, None, depth_limit)
                    try:
                        _, expected = mullineux_conjectural(lam, e, depth_limit=depth_limit)
                    except DepthExceededError as exc:
                        record = {"e": e, "partition": format_partition(lam), "kind": "depth_exceeded"}
                        assert (failures, trace) == ([{**record, "detail": str(exc)}], None)
                        continue
                    assert (failures, trace) == ((), expected), (lam, e, depth_limit)
                    assert trace.to_dict() == expected.to_dict()


def test_sweep_records_each_violation_with_its_trace(cold_memo, disagreeing_walk):
    expected = []
    for n in range(9):
        for lam in enumerate_e_regular(n, 3):
            try:
                mullineux_conjectural(lam, 3)
            except ConjectureViolationError as exc:
                record = {"e": 3, "partition": format_partition(lam), "kind": "conjecture_violation"}
                expected.append({**record, "detail": str(exc), "trace": exc.trace.to_dict()})
    assert len(expected) > 10
    violations = [c for c in cross_validate([3], 8).counterexamples if c["kind"] == "conjecture_violation"]
    assert violations == expected


def test_memo_answers_every_child_of_a_repeated_call(cold_memo):
    _, first = mullineux_conjectural((6, 5, 2, 2, 1, 1), 3)
    misses = engine._node.cache_info().misses
    _, second = mullineux_conjectural((6, 5, 2, 2, 1, 1), 3)
    assert engine._node.cache_info().misses == misses
    assert second is not first and second.to_dict() == first.to_dict()
    assert all(a is b for a, b in zip(second.children, first.children))


def test_trace_shares_the_tuples_it_repeats(cold_memo):
    _, first = mullineux_conjectural((6, 5, 2, 2, 1, 1), 3)
    _, second = mullineux_conjectural((6, 5, 2, 2, 1, 1), 3)
    for trace in (first, second):
        assert trace.nu_beta[0] is trace.nu_beta[1] is trace.image_beta
        assert all(trace.mu_beta[i] is trace.children[i].beta for i in (0, 1))
    # on the memo hits, the cached children's sets, not fresh copies
    assert all(second.mu_beta[i] is first.mu_beta[i] for i in (0, 1))


def test_deep_walks_stay_short(cold_memo, monkeypatch):
    # the longest second input each kernel sees on a deep recursion (it
    # reaches modulus 256); 384 and 896 are what walks that re-encode every
    # stage at its minimal padding pass, and a walk that encoded the pair at
    # the stabilized top charge would pass far longer sets
    longest = {"psi_step": 0, "psi_step_inverse": 0}
    for name in longest:
        kernel = getattr(kernels, name)

        def recorded(e, x1, x2, name=name, kernel=kernel):
            longest[name] = max(longest[name], x2.bit_count())
            return kernel(e, x1, x2)

        monkeypatch.setattr(kernels, name, recorded)
    image, trace = mullineux_conjectural((217, 55, 1), 2)
    assert image == mullineux_kleshchev((217, 55, 1), 2)
    assert 0 < longest["psi_step"] <= 384
    assert 0 < longest["psi_step_inverse"] <= 896


# ---------------------------------------------------------------------------
# cross-validation


def test_cross_validate_small():
    report = cross_validate([3], 6)
    assert report.verified
    assert report.depth_exceeded == 0
    assert report.checked == sum(len(list(enumerate_e_regular(n, 3))) for n in range(7))


def test_cross_validate_trivial():
    report = cross_validate([4], 0)
    assert report.verified and report.checked == 1


def test_cross_validate_wide():
    report = cross_validate([2, 3, 4, 5], 10)
    assert report.verified
    assert report.depth_exceeded == 0


def test_cross_validate_document_includes_depth_counter():
    doc = cross_validate([2], 3).to_document()
    assert doc["depth_exceeded"] == 0
    assert doc["status"] == "verified"


def test_cross_validate_jobs_deterministic():
    doc1 = cross_validate([2, 3], 7, jobs=1).to_document()
    doc2 = cross_validate([2, 3], 7, jobs=3).to_document()
    assert json.dumps(doc1) == json.dumps(doc2)


def test_cross_validate_counts_depth_exceeded():
    reports = [cross_validate([2, 3], 8, depth_limit=1, jobs=jobs) for jobs in (1, 2)]
    kinds = [c["kind"] for c in reports[0].counterexamples]
    assert reports[0].depth_exceeded > 0
    assert reports[0].depth_exceeded == kinds.count("depth_exceeded")
    assert json.dumps(reports[0].to_document()) == json.dumps(reports[1].to_document())


def test_stopped_tower_ends_where_the_walk_at_modulus_e_ends():
    # the walk of (lam, lam) at modulus e from bicharge (0, 0) takes the steps
    # of lam's tower, which meets the shortcut within the cap cross-validate gives it
    checked = 0
    for e in range(2, 6):
        for n in range(1, 23):
            for lam, x in enumerate_e_regular_bits(n, e):
                _, x1, x2, _ = engine._tower(e, x, betamaps.stable_shift((0, 0), n, e), True)[-1]
                assert betamaps.shortcut_on_beta_sets(x1, x2), (lam, e)
                y1, y2 = betamaps.psi_tilde_beta_sets(e, (0, 0), (x, x))
                end = minimal_beta_set(x1), minimal_beta_set(x2)
                assert end == (minimal_beta_set(y1), minimal_beta_set(y2)), (lam, e)
                checked += 1
    assert checked == 7516


# ---------------------------------------------------------------------------
# the sweep pipeline


@pytest.mark.parametrize(
    "regular_only, counts", [(True, [70, 145, 193, 223]), (False, [272] * 4)], ids=["e-regular", "all"]
)
def test_bucket_hands_each_check_its_bitset(regular_only, counts, monkeypatch):
    monkeypatch.setattr(engine, "CHUNK", 16)
    seen, sizes = [], []

    def record(chunk, e):
        seen.extend((e, lam, x) for lam, x in chunk)
        ranks = {sum(lam) for lam, _ in chunk}
        assert len(ranks) == 1  # one bucket per chunk
        sizes.append((e, *ranks, len(chunk)))
        return []

    report = engine._sweep("record", {}, record, (), [2, 3, 4, 5], 12, regular_only, 1)
    assert report.checked == sum(counts) == len(seen)
    for e, count in zip((2, 3, 4, 5), counts):
        # at modulus n + 2 no part of n is restricted
        expected = [
            lam
            for n in range(13)
            for lam in enumerate_reference.enumerate_e_regular(n, e if regular_only else n + 2)
        ]
        assert [lam for f, lam, _ in seen if f == e] == expected
        assert len(expected) == count
    for e, lam, x in seen:
        assert x == beta_bits(lam, max(1, len(lam))), (e, lam)
    # full chunks, and a shorter one only at a bucket's end
    assert all(0 < size <= 16 for *_, size in sizes)
    for (e, n, size), following in zip(sizes, sizes[1:]):
        assert size == 16 or following[:2] != (e, n), (e, n)
    assert max(size for *_, size in sizes) == 16


@pytest.mark.parametrize("jobs", [1, 2])
def test_bucket_labels_in_grid_order(jobs):
    labels = [f"e={e},n={n}" for e in (3, 2) for n in range(7)]
    for report in (sweep_conjecture([3, 2], 6, 3, jobs=jobs), cross_validate([3, 2], 6, jobs=jobs)):
        assert list(report.timings) == labels


def test_pool_gets_larger_ranks_first(monkeypatch):
    submitted, workers = [], []

    class SerialPool:
        def __init__(self, processes):
            workers.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, tasks, chunksize):
            assert chunksize == 1
            for task in tasks:
                submitted.append(task[1:3])
                yield fn(task)

    # depth_limit=1 puts counterexamples in many buckets, so a result merged
    # into the wrong bucket would reorder them
    serial = cross_validate([2, 3], 6, depth_limit=1)
    # the sweep imports Pool from multiprocessing only when it needs workers
    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    pooled = cross_validate([2, 3], 6, depth_limit=1, jobs=2)
    assert submitted == [(e, n) for n in range(6, -1, -1) for e in (2, 3)]
    assert pooled.depth_exceeded > 0
    assert pooled.to_document() == serial.to_document()
    assert list(pooled.timings) == list(serial.timings)
    assert workers == [2]
    # never more workers than buckets: e = 2 at ranks 0..2 is three buckets
    assert cross_validate([2], 2, jobs=8).to_document() == cross_validate([2], 2).to_document()
    assert workers == [2, 3]


def test_serial_runs_load_no_pool_or_dataclass_machinery():
    # what a fresh interpreter has loaded after the package's serial paths,
    # over what the same interpreter loads for `pass`
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, sys.path))}
    loaded = "import sys; print(*sys.modules)"
    program = (
        "import mullineux, mullineux.cli\n"
        "mullineux.engine.cross_validate([2, 3], 6, jobs=1)\n"
    )

    def modules(code):
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        return set(out.stdout.split())

    added = modules(program + loaded) - modules(loaded)
    assert "mullineux.engine" in added
    assert {"multiprocessing", "dataclasses"}.isdisjoint(name.partition(".")[0] for name in added)


def fail_on(monkeypatch, module, name, args, exc):
    """Make module.name raise exc when it is called with these positional args."""
    original = getattr(module, name)

    def failing(*called, **options):
        if called[: len(args)] == args:
            raise exc
        return original(*called, **options)

    monkeypatch.setattr(module, name, failing)


@pytest.mark.parametrize(
    "sweep, target, args, exc, partition",
    [
        pytest.param(
            lambda jobs: sweep_conjecture([2, 3], 7, 5, jobs=jobs),
            (engine, "_tower"),
            (3, beta_bits((3, 1), 2)),
            AssertionError("stage 1 failed"),
            "3,1",
            id="tower",
        ),
        # the symbol check of lam, (3,1,1), which is not 2-regular, so only
        # its check at e = 3 raises
        pytest.param(
            lambda jobs: cross_validate([2, 3], 7, jobs=jobs),
            (engine, "_is_dual"),
            (beta_bits((3, 1, 1), 3),),
            ValueError("bad part"),
            "3,1,1",
            id="e-rim-symbol",
        ),
    ],
)
def test_unexpected_exception_is_a_counterexample(sweep, target, args, exc, partition, monkeypatch):
    clean = sweep(1)
    assert clean.verified
    fail_on(monkeypatch, *target, args, exc)
    assert_only_error([sweep(jobs) for jobs in (1, 2)], clean, partition, exc)


def assert_only_error(reports, clean, partition, exc, e=3):
    """Each report holds one failure, of kind "error", at modulus e; the
    reports match the clean one's grid and each other."""
    for report in reports:
        assert report.status == "counterexample"
        assert report.counterexamples == [
            {"e": e, "partition": partition, "kind": "error", "detail": f"{type(exc).__name__}: {exc}"}
        ]
        assert report.checked == clean.checked
        assert list(report.timings) == list(clean.timings)
    assert json.dumps(reports[0].to_document()) == json.dumps(reports[1].to_document())


def in_sweep_order(records, e_list, n_max):
    """records sorted, stably, by their partition's place in the sweep."""
    place = {}
    for e in e_list:
        for n in range(n_max + 1):
            for lam, _ in enumerate_e_regular_bits(n, e):
                place[e, format_partition(lam)] = len(place)
    return sorted(records, key=lambda c: place[c["e"], c["partition"]])


# with CHUNK = 3 the e = 3, n = 7 bucket is chunked (7) (6,1) (5,2) | (5,1,1) (4,3)
# (4,2,1) | (3,3,1) (3,2,2) (3,2,1,1); at depth_limit=1 all but (5,1,1) and (3,2,2)
# are depth_exceeded, so a fault in the walks replaces a record, and the symbol
# check, which needs a trace, is faulted on those two; neither is 2-regular
@pytest.mark.parametrize(
    "phase, lam",
    [
        ("recursion", (6, 1)),
        ("recursion", (5, 2)),
        ("symbol", (3, 2, 2)),
        ("symbol", (5, 1, 1)),
        ("walks", (4, 3)),
        ("walks", (3, 2, 1, 1)),
    ],
    ids=["recursion-middle", "recursion-edge", "symbol-middle", "symbol-edge", "walks-middle", "walks-edge"],
)
def test_a_fault_in_one_phase_is_one_error_record(phase, lam, monkeypatch):
    monkeypatch.setattr(engine, "CHUNK", 3)
    clean = cross_validate([2, 3], 7, depth_limit=1)
    assert clean.counterexamples == in_sweep_order(clean.counterexamples, [2, 3], 7)
    x = beta_bits(lam, len(lam))
    exc = ValueError("bad part")
    if phase == "recursion":
        fail_on(monkeypatch, engine._node, "__wrapped__", (x, 3), exc)
    elif phase == "symbol":
        fail_on(monkeypatch, engine, "_is_dual", (x,), exc)
    else:
        fail_on(monkeypatch, engine, "_tower", (3, x), exc)
    tower, towers = engine._tower, []

    def spied_tower(*args):
        towers.append(args[:2])
        return tower(*args)

    monkeypatch.setattr(engine, "_tower", spied_tower)
    text = format_partition(lam)
    error = {"e": 3, "partition": text, "kind": "error", "detail": "ValueError: bad part"}
    others = [c for c in clean.counterexamples if (c["e"], c["partition"]) != (3, text)]
    expected = in_sweep_order(others + [error], [2, 3], 7)
    for jobs in (1, 2):
        report = cross_validate([2, 3], 7, depth_limit=1, jobs=jobs)
        assert report.counterexamples == expected, jobs
        assert report.checked == clean.checked
        assert report.depth_exceeded == sum(c["kind"] == "depth_exceeded" for c in expected)
    # the serial run's later phases never saw the partition (the spy sees no Pool worker)
    assert towers.count((3, x)) == (phase == "walks")


def test_chunk_size_leaves_every_document_unchanged(monkeypatch):
    # the default chunk splits the larger buckets here: 5-regular partitions
    # of 20 number more than 256
    def documents():
        reports = (
            sweep_conjecture([2, 3, 4, 5], 20, 9),
            sweep_conjecture([2, 3], 10, 7, regular_only=False),
            cross_validate([2, 5], 20),
            cross_validate([2, 3, 4, 5], 14, depth_limit=1),
        )
        return [json.dumps(r.to_document()) for r in reports]

    assert len(list(enumerate_e_regular_bits(20, 5))) > engine.CHUNK
    default = documents()
    for chunk in (1, 3):
        monkeypatch.setattr(engine, "CHUNK", chunk)
        assert documents() == default, chunk


def give_wrong_image(monkeypatch, lam, e, wrong):
    """Make the recursion's top level answer `wrong` for lam at modulus e, in
    its trace's image.  The sweep and mullineux_conjectural both call
    engine._node.__wrapped__; the memo's children never do."""
    original, x = engine._node.__wrapped__, minimal_bits(lam)

    def wrapped(y, modulus, *args):
        trace = original(y, modulus, *args)
        if (y, modulus) == (x, e):
            return trace._replace(image_beta=minimal_bits(wrong))
        return trace

    monkeypatch.setattr(engine._node, "__wrapped__", wrapped)


# M(3,1) = (2,1,1) at e = 3; (4,) is 3-regular and (1,1,1,1) is not
@pytest.mark.parametrize("wrong", [(4,), (1, 1, 1, 1)], ids=["e-regular", "not-e-regular"])
def test_wrong_image_is_a_mullineux_mismatch(wrong, monkeypatch):
    give_wrong_image(monkeypatch, (3, 1), 3, wrong)
    oracle = format_partition(kernels.mullineux((3, 1), 3))
    assert oracle == "2,1,1"
    reports = [cross_validate([2, 3], 7, jobs=jobs) for jobs in (1, 2)]
    for report in reports:
        assert report.counterexamples == [
            {
                "e": 3,
                "partition": "3,1",
                "kind": "mullineux_mismatch",
                "oracle": oracle,
                "recursive": format_partition(wrong),
            }
        ]
    assert json.dumps(reports[0].to_document()) == json.dumps(reports[1].to_document())


@pytest.fixture
def cold_rims():
    """Start from an empty rim memo and leave none of this test's entries behind."""
    engine._rim.cache_clear()
    yield
    engine._rim.cache_clear()


def test_is_dual_matches_the_reference_symbols(cold_rims):
    # every e-regular partition of rank <= 16 at e = 2..5 against every one
    # of its rank, and of rank <= 8 against every one of rank <= 8, where a
    # symbol can be the other's dual with columns added at the end; the dual
    # of a symbol is the symbol of exactly one e-regular partition
    memo = engine._rim.cache_info
    for e in (2, 3, 4, 5):
        buckets = [list(enumerate_e_regular_bits(n, e)) for n in range(17)]
        symbol = {x: crystal_reference.e_rim_symbol(lam, e) for bucket in buckets for lam, x in bucket}
        for n, bucket in enumerate(buckets):
            partners = [y for m in (range(9) if n <= 8 else (n,)) for _, y in buckets[m]]
            for lam, x in bucket:
                dual = crystal_reference.dual_symbol(symbol[x], e)
                images = [y for y in partners if engine._is_dual(x, y, e)]
                assert images == [y for y in partners if symbol[y] == dual], (lam, e)
                assert len(images) == 1, (lam, e)
    assert memo().hits > 0 and memo().maxsize == engine.SYMBOL_MEMO_SIZE
    # the empty partition against (1,), one extra column either way, a wrong
    # R, and the image the last two miss
    assert not engine._is_dual(1, minimal_bits((1,)), 2) and not engine._is_dual(minimal_bits((1,)), 1, 2)
    assert not engine._is_dual(minimal_bits((2,)), minimal_bits((3,)), 2)
    assert not engine._is_dual(minimal_bits((3,)), minimal_bits((2,)), 2)
    assert not engine._is_dual(minimal_bits((3, 1)), minimal_bits((3, 1)), 3)
    assert engine._is_dual(minimal_bits((3, 1)), minimal_bits((2, 1, 1)), 3)
    # a chain longer than the memo, cold, in one frame: (10000,) is its own
    # image at e = 2, with 5,000 columns (2, 1), and (9998,) has one fewer
    engine._rim.cache_clear()
    row = minimal_bits((10000,))
    assert engine._is_dual(row, row, 2)
    assert memo().currsize == engine.SYMBOL_MEMO_SIZE
    assert not engine._is_dual(minimal_bits((9998,)), row, 2) and not engine._is_dual(row, minimal_bits((9998,)), 2)


def test_symbol_memo_cold_and_warm_give_the_same_document(cold_rims, monkeypatch):
    # a wrong image puts a mismatch in the document; the memo holds every
    # rim here, and a cold sweep removes each nonempty partition's rim
    # exactly once
    give_wrong_image(monkeypatch, (3, 1), 3, (4,))
    rim = kernels.remove_e_rim
    rims = []

    def counted(x, e):
        rims.append((x, e))
        return rim(x, e)

    monkeypatch.setattr(kernels, "remove_e_rim", counted)
    grid = [(x, e) for e in (2, 3, 4, 5) for n in range(1, 15) for _, x in enumerate_e_regular_bits(n, e)]
    assert len(grid) < engine.SYMBOL_MEMO_SIZE
    cold = json.dumps(cross_validate([2, 3, 4, 5], 14).to_document())
    assert sorted(rims) == sorted(grid)
    warm = json.dumps(cross_validate([2, 3, 4, 5], 14).to_document())
    assert len(rims) == len(grid)
    assert warm == cold
    assert '"kind": "mullineux_mismatch"' in cold


def test_oracle_error_on_the_mismatch_path_is_a_counterexample(monkeypatch):
    clean = cross_validate([2, 3], 7)
    give_wrong_image(monkeypatch, (3, 1), 3, (4,))
    exc = ValueError("bad part")
    fail_on(monkeypatch, engine.kernels, "mullineux", ((3, 1), 3), exc)
    assert_only_error([cross_validate([2, 3], 7, jobs=jobs) for jobs in (1, 2)], clean, "3,1", exc)


def test_broken_stage_one_step_is_an_error(monkeypatch):
    # stage 0 of (2,) at e = 2 is not an inclusion, so stage 1 is a kernel step
    x = beta_bits((2,), 1)
    assert not conjecture_tower(2, (2,), 0).steps[0].inclusion
    clean = sweep_conjecture([2, 3], 4, 5)
    assert clean.verified
    step = kernels.psi_step

    def broken(e, x1, x2):
        if (e, x1, x2) == (2, x, x << 2 | 0b11):
            return x1, 0b11  # the first set is no longer inside the second
        return step(e, x1, x2)

    monkeypatch.setattr(engine.kernels, "psi_step", broken)
    exc = AssertionError(
        "inclusion failed at stage 1 for e=2, x=(2,); this case is proved, so the step implementation is broken"
    )
    reports = [sweep_conjecture([2, 3], 4, 5, jobs=jobs) for jobs in (1, 2)]
    assert_only_error(reports, clean, "2", exc, e=2)


def test_walk_disagreement_is_an_isomorphism_mismatch(monkeypatch):
    # (4,1) is not a 3-core, so the walk at modulus 6 is the one the recursion
    # took; the walk at modulus 3 is the tower's last row
    tower = engine._tower
    x = beta_bits((4, 1), 2)

    def wrong_at_e(e, y, *args):
        rows = tower(e, y, *args)
        if (e, y) == (3, x):
            k, _, _, inclusion = rows[-1]
            rows[-1] = (k, beta_bits((4,), 1), beta_bits((), 1), inclusion)
        return rows

    monkeypatch.setattr(engine, "_tower", wrong_at_e)
    reports = [cross_validate([2, 3], 7, jobs=jobs) for jobs in (1, 2)]
    for report in reports:
        assert report.counterexamples == [
            {
                "e": 3,
                "partition": "4,1",
                "kind": "isomorphism_mismatch",
                "at_2e": ["3,1", "4,2"],
                "at_e": ["4", "-"],
            }
        ]
    assert json.dumps(reports[0].to_document()) == json.dumps(reports[1].to_document())


def test_cross_validate_records_odd_stage_failures_to_the_shortcut(monkeypatch):
    # the broken kernel acts only at the sweep's modulus: the recursion steps
    # at 6, 12, ..., so its walks are untouched, and a tower it breaks does not
    # meet the shortcut, so it runs to stable_shift((0, 0), n, 3) = 2n // 3 + 1
    monkeypatch.setattr(kernels, "psi_step", odd_stage_breaking_step([], modulus=3))
    walk = betamaps.psi_tilde_beta_sets
    moduli = []

    def spied_walk(e, *args):
        moduli.append(e)
        if e == 3:
            # with the broken kernel this walk would never meet the shortcut
            raise AssertionError("a walk at the sweep's modulus")
        return walk(e, *args)

    monkeypatch.setattr(betamaps, "psi_tilde_beta_sets", spied_walk)
    reports = [cross_validate([3], 16, jobs=jobs) for jobs in (1, 2)]
    # the spy sees the serial run only
    assert moduli and set(moduli) <= {6, 12, 24, 48}
    failures = reports[0].counterexamples
    assert {c["kind"] for c in failures} == {"inclusion_failure", "isomorphism_mismatch"}
    inclusion = [c for c in failures if c["kind"] == "inclusion_failure"]
    # stage 11 lies past verify-conjecture's default cap of 9
    assert {c["k"] for c in inclusion} == {3, 5, 7, 11}
    # the conjecture sweep's records, to each rank's cap, with the kind added
    rank = {format_partition(lam): n for n in range(17) for lam in enumerate_e_regular(n, 3)}
    expected = [
        {"e": 3, "partition": c["partition"], "kind": "inclusion_failure", **c}
        for c in sweep_conjecture([3], 16, 11).counterexamples
        if c["k"] <= 2 * rank[c["partition"]] // 3 + 1
    ]
    assert json.dumps(inclusion) == json.dumps(expected)
    for report in reports:
        assert report.counterexamples == failures
    assert json.dumps(reports[0].to_document()) == json.dumps(reports[1].to_document())

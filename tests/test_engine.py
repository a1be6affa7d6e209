"""Harness behavior: towers, sweeps, the recursive algorithm, reports."""

import json

import pytest

from mullineux import engine
from mullineux._core import kernels
from mullineux.engine import (
    conjecture_tower,
    cross_validate,
    mullineux_conjectural,
    sweep_conjecture,
)
from mullineux.errors import ConjectureViolationError, DepthExceededError, NotRegularError
from mullineux.level1 import mullineux_kleshchev
from mullineux.partitions import (
    beta_set,
    conjugate,
    enumerate_e_regular,
    enumerate_partitions,
    is_e_core,
    is_e_regular,
)

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
    """Replace engine.conjecture_tower with one that always runs to k_max."""
    tower = engine.conjecture_tower

    def full_tower(e, x, k_max, *flags):
        return tower(e, x, k_max)

    monkeypatch.setattr(engine, "conjecture_tower", full_tower)


def test_stopped_towers_give_the_full_towers_document(monkeypatch):
    step = kernels.psi_step
    steps = []

    def counted_step(e, x1, x2):
        steps.append(e)
        return step(e, x1, x2)

    monkeypatch.setattr(kernels, "psi_step", counted_step)
    # the golden digests cover only the e-regular sweep
    stopped = sweep_conjecture([2, 3, 4, 5], 12, 9, regular_only=False).to_document()
    stopped_steps = len(steps)
    flag_ignoring_tower(monkeypatch)
    full = sweep_conjecture([2, 3, 4, 5], 12, 9, regular_only=False).to_document()
    assert stopped == full
    assert stopped_steps < len(steps) - stopped_steps


def test_stopped_towers_keep_odd_stage_failures(monkeypatch):
    step = kernels.psi_step

    def broken_step(e, x1, x2):
        y1, y2 = step(e, x1, x2)
        y2 = y2[1:]  # without 0 in the second set the shortcut never holds
        k = (len(y2) - len(y1)) // (e - 1) - 1  # each stage adds e - 1 elements
        if k >= 3 and k % 2 and y1[-1] in y2:
            # odd stages past the proved one lose an element of the first set
            y2 = tuple(b for b in y2 if b != y1[-1]) + (y2[-1] + 1,)
        return y1, y2

    monkeypatch.setattr(kernels, "psi_step", broken_step)
    stopped = [sweep_conjecture([2, 3, 4, 5], 10, 7, jobs=jobs).to_document() for jobs in (1, 2)]
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


def test_negative_depth_limit_raises_before_any_bucket(monkeypatch):
    monkeypatch.setattr(engine, "_bucket", None)  # a bucket run would raise TypeError
    with pytest.raises(ValueError, match="depth_limit must be >= 0, got -1"):
        cross_validate([2, 3], 4, depth_limit=-1)
    # (3, 1) is a 3-core, which answers before the depth is looked at
    with pytest.raises(ValueError, match="depth_limit must be >= 0, got -1"):
        mullineux_conjectural((3, 1), 3, depth_limit=-1)


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
    engine._outcome.cache_clear()
    yield
    engine._outcome.cache_clear()


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
        engine._outcome.cache_clear()
        assert outcome(*call) == seen, call


def test_memo_keeps_raising_a_violation(cold_memo, monkeypatch):
    walk_back = engine.betamaps.psi_tilde_inverse

    def disagreeing(e, s, blam):
        nu = walk_back(e, s, blam)
        return nu[0], nu[1] + (1,)

    monkeypatch.setattr(engine.betamaps, "psi_tilde_inverse", disagreeing)
    seen = []
    for _ in range(3):
        with pytest.raises(ConjectureViolationError) as info:
            mullineux_conjectural((6, 5, 2, 2, 1, 1), 3)
        seen.append((str(info.value), info.value.trace.to_dict()))
    assert engine._outcome.cache_info().hits >= 2
    assert seen[0] == seen[1] == seen[2]
    assert "pulled-back components disagree" in seen[0][0]


def test_deep_walks_stay_short(cold_memo, monkeypatch):
    # the longest second input each kernel sees on a deep recursion (it
    # reaches modulus 256); 384 and 896 are what walks that re-encode every
    # stage at its minimal padding pass, and a walk that encoded the pair at
    # the stabilized top charge would pass far longer sets
    longest = {"psi_step": 0, "psi_step_inverse": 0}
    for name in longest:
        kernel = getattr(kernels, name)

        def recorded(e, x1, x2, name=name, kernel=kernel):
            longest[name] = max(longest[name], len(x2))
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


# ---------------------------------------------------------------------------
# the sweep pipeline


@pytest.mark.parametrize("jobs", [1, 2])
def test_bucket_labels_in_grid_order(jobs):
    labels = [f"e={e},n={n}" for e in (3, 2) for n in range(7)]
    for report in (sweep_conjecture([3, 2], 6, 3, jobs=jobs), cross_validate([3, 2], 6, jobs=jobs)):
        assert list(report.timings) == labels


def test_pool_gets_larger_ranks_first(monkeypatch):
    submitted = []

    class SerialPool:
        def __init__(self, processes):
            pass

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
    monkeypatch.setattr(engine, "Pool", SerialPool)
    pooled = cross_validate([2, 3], 6, depth_limit=1, jobs=2)
    assert submitted == [(e, n) for n in range(6, -1, -1) for e in (2, 3)]
    assert pooled.depth_exceeded > 0
    assert pooled.to_document() == serial.to_document()
    assert list(pooled.timings) == list(serial.timings)


def fail_on(monkeypatch, module, name, args, exc):
    """Make module.name raise exc when it is called with these positional args."""
    original = getattr(module, name)

    def failing(*called):
        if called[: len(args)] == args:
            raise exc
        return original(*called)

    monkeypatch.setattr(module, name, failing)


@pytest.mark.parametrize(
    "sweep, target, args, exc",
    [
        (
            lambda jobs: sweep_conjecture([2, 3], 7, 5, jobs=jobs),
            (engine, "conjecture_tower"),
            (3, beta_set((3, 1), 2)),
            AssertionError("stage 1 failed"),
        ),
        (
            lambda jobs: cross_validate([2, 3], 7, jobs=jobs),
            (engine.kernels, "mullineux_symbol"),
            ((3, 1), 3),
            ValueError("bad part"),
        ),
    ],
)
def test_unexpected_exception_is_a_counterexample(sweep, target, args, exc, monkeypatch):
    clean = sweep(1)
    assert clean.verified
    fail_on(monkeypatch, *target, args, exc)
    reports = [sweep(jobs) for jobs in (1, 2)]
    for report in reports:
        assert report.status == "counterexample"
        assert report.counterexamples == [
            {"e": 3, "partition": "3,1", "kind": "error", "detail": f"{type(exc).__name__}: {exc}"}
        ]
        assert report.checked == clean.checked
        assert list(report.timings) == list(clean.timings)
    assert json.dumps(reports[0].to_document()) == json.dumps(reports[1].to_document())

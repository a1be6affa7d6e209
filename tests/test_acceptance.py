"""Acceptance suite: the package's exit criteria.

Each criterion prints one PASS/FAIL line (run with `pytest -s` to see them
on success; on failure the line is part of the assertion message).  All
tolerances are exact since everything here is integer combinatorics; the
runtime budgets are wall-clock upper bounds.
"""

import json
import random
import time

from mullineux import cli
from mullineux.betamaps import (
    decode_bipartition,
    encode_bipartition,
    minimal_padding,
    psi_bipartition,
    psi_step,
    psi_step_inverse,
    psi_tilde,
    psi_tilde_inverse,
)
from mullineux.engine import (
    conjecture_tower,
    cross_validate,
    mullineux_conjectural,
    sweep_conjecture,
)
from mullineux.level1 import (
    e_tilde,
    f_tilde,
    mullineux_kleshchev,
    replay_path,
    residue_path_to_empty,
)
from mullineux.partitions import (
    beta_set,
    conjugate,
    enumerate_bipartitions,
    enumerate_e_regular,
    enumerate_partitions,
    is_e_core,
    is_e_regular,
    partition_from_beta_set,
)

from crystal_reference import (
    e_tilde2,
    f_tilde2,
    is_kleshchev,
    mullineux_level2,
    rank2,
    replay_path2,
    uglov_bipartitions,
)


def report(number, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_known_involution_values():
    t0 = time.perf_counter()
    ok = (
        mullineux_kleshchev((5, 2, 1, 1), 3) == (4, 2, 2, 1)
        and mullineux_conjectural((5, 2, 1, 1), 3)[0] == (4, 2, 2, 1)
        and mullineux_kleshchev((5, 2, 1, 1), 6) == (4, 2, 1, 1, 1)
        and mullineux_conjectural((5, 2, 1, 1), 6)[0] == (4, 2, 1, 1, 1)
    )
    elapsed = time.perf_counter() - t0
    report(1, ok and elapsed < 1.0,
           f"m_3(5,2,1,1) and m_6(5,2,1,1) by both methods in {elapsed:.3f}s")


def test_criterion_2_worked_example_end_to_end():
    t0 = time.perf_counter()
    lam = (6, 5, 2, 2, 1, 1)
    checks = []
    checks.append(beta_set(lam, 6) == (1, 2, 4, 5, 9, 11))
    checks.append(beta_set(lam, 9) == (0, 1, 2, 4, 5, 7, 8, 12, 14))
    image, trace = mullineux_conjectural(lam, 3)
    checks.append(trace.mu == ((3, 3, 2, 2, 1, 1), (6, 5, 5, 4, 1, 1)))
    checks.append(tuple(c.image for c in trace.children) == ((6, 4, 2), (11, 9, 2)))
    checks.append(
        psi_tilde_inverse(6, (0, 3), ((6, 4, 2), (11, 9, 2))) == ((11, 4, 2), (11, 4, 2))
    )
    checks.append(trace.nu == ((11, 4, 2), (11, 4, 2)))
    checks.append(image == (11, 4, 2))
    elapsed = time.perf_counter() - t0
    report(2, all(checks) and elapsed < 1.0,
           f"recursive m_3(6,5,2,2,1,1) with all checkpoints in {elapsed:.3f}s")


def test_criterion_3_tower_symbols():
    x = (0, 3, 5, 6, 10, 12, 15, 18, 20)
    trace = conjecture_tower(3, x, 3)
    s0, s1, s2, s3 = trace.steps
    checks = [
        s0.x1 == x,
        s0.x2 == (0, 1, 2, 3, 6, 8, 9, 13, 15, 18, 21, 23),
        s1.x1 == (0, 2, 3, 6, 8, 9, 13, 15, 18),
        s1.x2 == (0, 1, 2, 3, 4, 6, 8, 9, 13, 15, 18, 21, 23, 24, 26),
        s2.x1 == s1.x1,
        s2.x2 == (0, 1, 2, 3, 4, 5, 6, 7, 9, 11, 12, 16, 18, 21, 24, 26, 27, 29),
        s3.x1 == (0, 2, 3, 6, 7, 9, 11, 12, 18),
        s3.x2[:14] == (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 16, 18),
        s1.inclusion is True,
        s2.inclusion is False,
        s3.inclusion is True,
    ]
    report(3, all(checks), "four tower symbols reproduced; inclusion at k=1,3 only")


def test_criterion_4_conjecture_sweep():
    t0 = time.perf_counter()
    rep = sweep_conjecture([2, 3, 4, 5], 12, 9, regular_only=True)
    elapsed = time.perf_counter() - t0
    report(4, rep.verified and elapsed < 300.0,
           f"{rep.checked} towers, e in 2..5, rank <= 12, k <= 9, "
           f"0 counterexamples in {elapsed:.2f}s")


def test_criterion_5_oracle_equivalence():
    t0 = time.perf_counter()
    rep = cross_validate([2, 3, 4, 5], 10)
    elapsed = time.perf_counter() - t0
    report(5, rep.verified and rep.depth_exceeded == 0 and elapsed < 300.0,
           f"{rep.checked} partitions cross-validated, 0 mismatches, "
           f"0 depth excesses in {elapsed:.2f}s")


def test_criterion_6_property_suites():
    suites = {}

    # conjugation is an involution; exhaustive at rank <= 25
    suites["conjugate-involution"] = all(
        conjugate(conjugate(lam)) == lam
        for n in range(26)
        for lam in enumerate_partitions(n)
    )

    # beta-set round trip and the padding shift rule
    ok = True
    cases = 0
    for n in range(16):
        for lam in enumerate_partitions(n):
            for extra in (0, 1, 7):
                length = max(1, len(lam) + extra)
                b = beta_set(lam, length)
                ok = ok and partition_from_beta_set(b) == lam
                ok = ok and beta_set(lam, length + 1) == (0,) + tuple(v + 1 for v in b)
                cases += 1
    suites["beta-set-round-trip"] = ok and cases >= 1000

    # operator adjointness at level 1 and level 2, rank <= 10
    ok = True
    for n in range(11):
        for lam in enumerate_partitions(n):
            for e in (2, 3, 4):
                for j in range(e):
                    up = f_tilde(lam, j, e)
                    ok = ok and (up is None or e_tilde(up, j, e) == lam)
                    down = e_tilde(lam, j, e)
                    ok = ok and (down is None or f_tilde(down, j, e) == lam)
    for n in range(11):
        for blam in enumerate_bipartitions(n):
            for e, s in [(2, (0, 0)), (3, (0, 1))]:
                for i in range(e):
                    up = f_tilde2(blam, i, e, s)
                    ok = ok and (up is None or e_tilde2(up, i, e, s) == blam)
                    down = e_tilde2(blam, i, e, s)
                    ok = ok and (down is None or f_tilde2(down, i, e, s) == blam)
    suites["operator-adjointness"] = ok

    # involution, rank and regularity preservation, rank <= 12
    ok = True
    for e in range(2, 7):
        for n in range(13):
            for lam in enumerate_e_regular(n, e):
                image = mullineux_kleshchev(lam, e)
                ok = ok and sum(image) == n and is_e_regular(image, e)
                ok = ok and mullineux_kleshchev(image, e) == lam
    suites["involution-rank-regularity"] = ok

    # cores map to their conjugate, rank <= 15
    suites["core-conjugate"] = all(
        mullineux_kleshchev(lam, e) == conjugate(lam)
        for e in range(2, 8)
        for n in range(16)
        for lam in enumerate_e_regular(n, e)
        if is_e_core(lam, e)
    )

    # step round trip on 1000 random beta-set pairs, sizes <= 30, e <= 8
    rng = random.Random(20240811)
    ok = True
    for _ in range(1000):
        e = rng.randint(2, 8)
        size1 = rng.randint(1, 30)
        size2 = rng.randint(size1, 30)
        x1 = tuple(sorted(rng.sample(range(60), size1)))
        x2 = tuple(sorted(rng.sample(range(60), size2)))
        y1, y2 = psi_step(e, x1, x2)
        ok = ok and psi_step_inverse(e, y1, y2) == (x1, x2)
    suites["step-round-trip"] = ok

    # rank preservation and padding independence, bipartitions of rank <= 8
    ok = True
    for e, s in [(2, (0, 0)), (3, (0, 2))]:
        for n in range(9):
            for blam in enumerate_bipartitions(n):
                image = psi_bipartition(e, s, blam)
                ok = ok and rank2(image) == n
                m = minimal_padding(blam, s)
                for k in (1, 5):
                    padded = psi_step(e, *encode_bipartition(blam, s, m + k))
                    ok = ok and decode_bipartition(padded) == image
    suites["rank-and-padding"] = ok

    # the step commutes with the charged operators on members of rank <= 8
    ok = True
    for e, s in [(2, (0, 0)), (3, (0, 1))]:
        up = (s[0], s[1] + e)
        for blam in uglov_bipartitions(e, s, 8):
            image = psi_bipartition(e, s, blam)
            for i in range(e):
                moved = f_tilde2(blam, i, e, s)
                moved_image = f_tilde2(image, i, e, up)
                if moved is None:
                    ok = ok and moved_image is None
                else:
                    ok = ok and moved_image == psi_bipartition(e, s, moved)
    suites["crystal-equivariance"] = ok

    # identity on members once the charge gap clears twice the rank
    ok = True
    for e in (2, 3, 4):
        s = (0, 17)
        for blam in uglov_bipartitions(e, s, 8):
            ok = ok and psi_bipartition(e, s, blam) == blam
    suites["stabilized-identity"] = ok

    # diagonal replays: doubled path at (0,0); interleaved at modulus 2e
    ok = True
    for e in (2, 3):
        for n in range(11):
            for lam in enumerate_e_regular(n, e):
                path = residue_path_to_empty(lam, e)
                ok = ok and replay_path(path, e) == lam
                doubled = tuple(j for j in path for _ in range(2))
                ok = ok and replay_path2(doubled, e, (0, 0)) == (lam, lam)
                interleaved = tuple(x for j in path for x in (j, j + e))
                ok = ok and replay_path2(interleaved, 2 * e, (0, e)) == (lam, lam)
    suites["diagonal-replays"] = ok

    # level-2 involution acts componentwise on Kleshchev bipartitions
    ok = True
    for e, s in [(2, (0, 0)), (3, (0, 1))]:
        for n in range(9):
            for blam in enumerate_bipartitions(n):
                if is_kleshchev(blam, e, s):
                    want = (mullineux_kleshchev(blam[0], e), mullineux_kleshchev(blam[1], e))
                    ok = ok and mullineux_level2(blam, e, s) == want
    suites["level2-componentwise"] = ok

    # stabilized diagonal images agree between modulus e and 2e
    ok = True
    for e in (2, 3, 4, 5):
        for n in range(11):
            for lam in enumerate_e_regular(n, e):
                ok = ok and psi_tilde(2 * e, (0, e), (lam, lam)) == psi_tilde(
                    e, (0, 0), (lam, lam)
                )
    suites["modulus-doubling-agreement"] = ok

    failed = sorted(name for name, ok in suites.items() if not ok)
    report(6, not failed,
           f"{len(suites)} property suites exhaustive at stated ranks"
           + (f"; FAILED: {failed}" if failed else ""))


def test_criterion_7_report_determinism(capsys):
    outputs = []
    for jobs in ("1", "4"):
        code = cli.main(
            ["verify-conjecture", "--e", "2,3", "--max-n", "10", "--max-k", "7", "--jobs", jobs]
        )
        assert code == 0
        outputs.append(capsys.readouterr().out)
    for jobs in ("1", "3"):
        code = cli.main(["cross-validate", "--e", "2,3", "--max-n", "8", "--jobs", jobs])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    ok = outputs[0] == outputs[1] and outputs[2] == outputs[3]
    json.loads(outputs[0])  # and they are valid documents
    with capsys.disabled():
        report(7, ok, "sweep reports byte-identical across --jobs 1/4 and 1/3")

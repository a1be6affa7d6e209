"""Mutation gate for the decisions that write a failure record.

`verified` means that no check wrote a failure record, so each decision
that writes one must be one some test can see go wrong.  Each mutant below
replaces one text, found exactly once, in one source file, and names the
test file that should kill it.  The gate applies the mutants one at a time
to a temporary copy of src/, tests/ and bench/, runs that test file there with
`pytest -x`, and prints killed or survived.  A mutant that survives must be
on EQUIVALENT, with the reason no test can kill it.

Run from anywhere (about a minute):

    python tests/mutation_gate.py

Exit status: 0 when every mutant is killed or is a listed equivalent that
survived; 1 when a mutant survives unlisted, a listed equivalent is killed,
or a mutant's text does not match exactly once; 2 when a run neither passes
nor fails (pytest could not collect or was interrupted).
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ENGINE = "src/mullineux/engine.py"
ENGINE_TESTS = "tests/test_engine.py"
PARTITIONS = "src/mullineux/partitions.py"
PARTITIONS_TESTS = "tests/test_partitions.py"
KERNELS = "src/mullineux/_core/kernels.py"
BETAMAPS_TESTS = "tests/test_betamaps.py"

# (name, file, old text, new text, test file that kills it)
MUTANTS = [
    ("walk-mismatch-ignored", ENGINE,
     "    if double != single:", "    if False:", ENGINE_TESTS),
    ("crossval-odd-stages-dropped", ENGINE,
     '    failures = _odd_stage_failures(lam, e, rows, kind="inclusion_failure")',
     "    failures = []", ENGINE_TESTS),
    ("crossval-tower-capped-at-9", ENGINE,
     "    rows = _tower(e, x, betamaps.stable_shift((0, 0), sum(lam), e), True)",
     "    rows = _tower(e, x, min(9, betamaps.stable_shift((0, 0), sum(lam), e)), True)", ENGINE_TESTS),
    ("stage-one-assertion-dropped", ENGINE,
     "        if k == 1 and not inclusion:", "        if False:", ENGINE_TESTS),
    ("mullineux-mismatch-ignored", ENGINE,
     "            if recursive != oracle:", "            if False:", ENGINE_TESTS),
    ("symbol-check-always-passes", ENGINE,
     "        if not (\n", "        if False and not (\n", ENGINE_TESTS),
    ("symbol-check-skips-regularity", ENGINE,
     "            beta_set_is_e_regular(trace.image_beta, e)\n            and ", "            ", ENGINE_TESTS),
    ("components-disagree-ignored", ENGINE,
     "    if nu[0] != nu[1]:", "    if False:", ENGINE_TESTS),
    ("depth-limit-off-by-one", ENGINE,
     "    if depth >= depth_limit:", "    if depth > depth_limit:", ENGINE_TESTS),
    ("top-level-node-memoized", ENGINE,
     "    trace = _node.__wrapped__(x, e, 0, depth_limit, oracle_fallback)",
     "    trace = _node(x, e, 0, depth_limit, oracle_fallback)", ENGINE_TESTS),
    ("even-stage-failures-recorded", ENGINE,
     "        if k % 2 and not inclusion:", "        if not k % 2 and not inclusion:", ENGINE_TESTS),
    ("towers-stop-at-stage-5", ENGINE,
     "        if stop_at_shortcut and shortcut:", "        if stop_at_shortcut and (shortcut or k == 5):",
     ENGINE_TESTS),
    ("check-errors-abort-the-sweep", ENGINE,
     "            except Exception as exc:", "            except ArithmeticError as exc:", ENGINE_TESTS),
    ("phase-error-keeps-earlier-records", ENGINE,
     '                found[i] = [_failure(lam, e, kind="error", detail=f"{type(exc).__name__}: {exc}")]',
     '                found.setdefault(i, []).append(_failure(lam, e, kind="error", detail=f"{type(exc).__name__}: {exc}"))',
     ENGINE_TESTS),
    ("errored-partition-runs-later-phases", ENGINE,
     "        live = kept", "        live = range(len(chunk))", ENGINE_TESTS),
    ("depth-exceeded-not-counted", ENGINE,
     '    report.depth_exceeded = sum(c["kind"] == "depth_exceeded" for c in report.counterexamples)',
     "    report.depth_exceeded = 0", ENGINE_TESTS),
    ("report-always-verified", ENGINE,
     "        return not self.counterexamples", "        return True", ENGINE_TESTS),
    ("shortcut-bit-shifted", "src/mullineux/betamaps.py",
     "    return (x2 ^ (x2 + 1)) >> (x1.bit_length() + shift) != 0",
     "    return (x2 ^ (x2 + 1)) >> (x1.bit_length() + shift + 1) != 0", "tests/test_betamaps.py"),
    ("mull-disagreement-exits-zero", "src/mullineux/cli.py",
     '            if not doc["results"]["agree"]:', "            if False:", "tests/test_cli.py"),
    # the codec: the symbol check reads the image these decode
    ("decoder-keeps-zero-parts", PARTITIONS,
     "    parts = list(filter(None, _gaps_below(x)))", "    parts = list(_gaps_below(x))", PARTITIONS_TESTS),
    ("minimal-bits-one-bead-too-many", PARTITIONS,
     "    return beta_bits(lam, max(1, len(lam)))", "    return beta_bits(lam, max(1, len(lam)) + 1)",
     PARTITIONS_TESTS),
    # the step kernels park only the beads with no slot of their own
    ("forward-free-slots-include-settled", KERNELS,
     "    avail = x2 & ~x1", "    avail = x2", BETAMAPS_TESTS),
    ("inverse-settled-beads-move", KERNELS,
     "y1 & ~shifted", "y1", BETAMAPS_TESTS),
    ("regularity-pre-check-dropped", ENGINE,
     "    if not beta_set_is_e_regular(x, e):\n        raise NotRegularError",
     "    if False:\n        raise NotRegularError", ENGINE_TESTS),
]

# mutants no test can kill, each with the reason
EQUIVALENT = {
    "symbol-check-skips-regularity": (
        "no partition that is not e-regular shares an e-regular one's e-rim symbol at e = 2, 3 "
        "(rank <= 18) or e = 4, 5 (rank <= 16); the symbol determines a partition only among "
        "e-regular ones, so the clause stays"
    ),
}


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests", "bench"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def main() -> int:
    names = [m[0] for m in MUTANTS]
    assert len(set(names)) == len(names) and set(EQUIVALENT) <= set(names)
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        _copy(copy)
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        # the runs must import the copy, not an installed package
        where = subprocess.run(
            [sys.executable, "-c", "import mullineux; print(mullineux.__file__)"],
            cwd=copy, env=env, capture_output=True, text=True, check=True,
        ).stdout.strip()
        if not Path(where).resolve().is_relative_to(copy.resolve()):
            print(f"the copy imports mullineux from {where}", file=sys.stderr)
            return 2
        for name, file, old, new, tests in MUTANTS:
            path = copy / file
            original = path.read_text()
            if original.count(old) != 1:
                print(f"ERROR     {name}: its text matches {original.count(old)} times in {file}")
                bad += 1
                continue
            path.write_text(original.replace(old, new))
            start = time.perf_counter()
            try:
                run = subprocess.run(
                    [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", tests],
                    cwd=copy, env=env, capture_output=True, text=True,
                )
            finally:
                path.write_text(original)
            seconds = time.perf_counter() - start
            if run.returncode not in (0, 1):
                print(f"ERROR     {name}: pytest exited {run.returncode}\n{run.stdout[-2000:]}{run.stderr[-2000:]}")
                return 2
            killed = run.returncode == 1
            if killed and name in EQUIVALENT:
                verdict = "KILLED, but listed as equivalent: take it off EQUIVALENT"
                bad += 1
            elif killed:
                verdict = "killed"
            elif name in EQUIVALENT:
                verdict = f"survived, equivalent: {EQUIVALENT[name]}"
            else:
                verdict = "SURVIVED"
                bad += 1
            print(f"{name:32} {tests:24} {seconds:5.1f} s  {verdict}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

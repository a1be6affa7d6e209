"""Byte-identity guard: SHA-256 digests of documents the CLI writes.

Each group of CLI runs below is joined into one text (exit code, stdout and
stderr of every run) and pinned by its digest.  A change meant only to make
the program faster must leave every digest as it is; a change that alters
output on purpose must say so and pin the new digest, which

    PYTHONPATH=src:tests python -c "import test_golden; test_golden.main()"

prints.  The first three digests were recorded from the partition-level
walks and the unmemoized recursion, before the walks moved onto beta-sets;
deep_documents was recorded from tuple beta-sets, before the engine held
them as int bitsets.
"""

import contextlib
import hashlib
import io

import pytest

from mullineux import cli
from mullineux.partitions import enumerate_bipartitions, enumerate_e_regular, format_partition

E_LIST = "2,3,4,5"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return f"{code}\n{out.getvalue()}{err.getvalue()}"


def sweeps(jobs="1"):
    yield ["cross-validate", "--e", E_LIST, "--max-n", "14", "--jobs", jobs]
    yield ["verify-conjecture", "--e", E_LIST, "--max-n", "16", "--max-k", "9", "--jobs", jobs]


def psi_walks():
    for e in (2, 6):
        for s1, s2 in ((0, 0), (0, 3), (-2, 5)):
            for n in range(5):
                for blam in enumerate_bipartitions(n):
                    for flags in ([], ["--inverse"]):
                        yield [
                            "psi", "--e", str(e), f"--charges={s1},{s2}",
                            f"--bipartition={cli.format_bipartition(blam)}", "--to-dominant", *flags,
                        ]


def mull_traces():
    for e in (2, 3, 4, 5):
        for n in range(8):
            for lam in enumerate_e_regular(n, e):
                for flags in ([], ["--depth-limit", "1"], ["--depth-limit", "1", "--oracle-fallback"]):
                    yield [
                        "mull", "--method", "recursive", "--e", str(e),
                        f"--lambda={format_partition(lam)}", "--trace", *flags,
                    ]
    yield ["mull", "--method", "both", "--e", "3", "--lambda", "6,5,2,2,1,1", "--trace"]


def deep_documents():
    # documents the other groups leave out: a sweep of 333 depth_exceeded
    # counterexamples, whose text is decoded from the recursion's sets, the
    # towers of every partition, e-regular or not, and a trace seven levels
    # deep of a rank-300 partition
    yield ["cross-validate", "--e", E_LIST, "--max-n", "12", "--depth-limit", "1"]
    yield ["verify-conjecture", "--all-partitions", "--e", "2,3", "--max-n", "12", "--max-k", "9"]
    yield [
        "mull", "--method", "both", "--trace", "--e", "2",
        "--lambda", "40,35,33,30,28,25,22,20,17,15,12,10,7,5,1",
    ]


GROUPS = {
    "sweeps": sweeps,
    "psi_walks": psi_walks,
    "mull_traces": mull_traces,
    "deep_documents": deep_documents,
}

DIGESTS = {
    "sweeps": "78b89171ae78033a49be5a27cec8389b95be583a8d45f7c0ac4e1813c3e1ad7e",
    "psi_walks": "e956b88746bb1d7648b8c476c0c2bef9265e4bb6b1689a087686f8f6470cf764",
    "mull_traces": "d643fbeb5fc7ddf237babf47b3a953faf719b7f1d8198a5d24ad4f2593834d87",
    "deep_documents": "c099b3990a3528622a59a8be927dd84c98c1b835dfa28a479590b90eaddf2ac9",
}


def digest(group, *args):
    return hashlib.sha256("".join(run(argv) for argv in GROUPS[group](*args)).encode()).hexdigest()


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_documents_are_byte_identical(group):
    assert digest(group) == DIGESTS[group]


def test_sweeps_are_byte_identical_with_two_workers():
    assert digest("sweeps", "2") == DIGESTS["sweeps"]


def main():
    for group in GROUPS:
        print(f'    "{group}": "{digest(group)}",')

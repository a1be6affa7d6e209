"""CLI surface: wire formats, exit codes, document shapes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mullineux import cli
from mullineux.betamaps import minimal_padding, psi_tilde, psi_tilde_inverse
from mullineux.errors import ERROR_TEXT_CHARS, clip
from mullineux.partitions import MAX_RANK, as_partition, enumerate_bipartitions, partition_from_beta_set


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def get_json(out):
    return json.loads(out)


# ---------------------------------------------------------------------------
# wire formats


def test_partition_wire_round_trip():
    for lam in [(), (1,), (6, 5, 2, 2, 1, 1), (3, 3, 3)]:
        assert cli.parse_partition(cli.format_partition(lam)) == lam
    assert cli.parse_partition("-") == ()
    assert cli.parse_partition("") == ()


def test_partition_wire_strictness():
    # unlike as_partition, the wire format has no trailing zeros to drop
    for text in ("1,2,3", "3,0", "3,0,0", "0", "0,3", "3,-1", "3,x", "3,,1"):
        with pytest.raises(ValueError):
            cli.parse_partition(text)


def test_bipartition_wire_round_trip():
    for blam in [((), ()), ((2, 1), ()), ((6, 5), (4, 4, 1))]:
        assert cli.parse_bipartition(cli.format_bipartition(blam)) == blam
    with pytest.raises(ValueError):
        cli.parse_bipartition("1,1")


# ---------------------------------------------------------------------------
# mull


def test_mull_both(capsys):
    code, out, _ = run_cli(
        capsys, "mull", "--method", "both", "--e", "3", "--lambda", "6,5,2,2,1,1"
    )
    assert code == 0
    doc = get_json(out)
    assert doc["results"]["kleshchev"] == "11,4,2"
    assert doc["results"]["recursive"] == "11,4,2"
    assert doc["results"]["agree"] is True


def test_mull_kleshchev(capsys):
    code, out, _ = run_cli(capsys, "mull", "--method", "kleshchev", "--e", "3", "--lambda", "5,2,1,1")
    assert code == 0
    assert get_json(out)["results"]["kleshchev"] == "4,2,2,1"


def test_mull_empty(capsys):
    code, out, _ = run_cli(capsys, "mull", "--e", "3", "--lambda", "")
    assert code == 0
    assert get_json(out)["results"]["kleshchev"] == "-"


def test_mull_trace(capsys):
    code, out, _ = run_cli(
        capsys, "mull", "--method", "recursive", "--e", "3", "--lambda", "6,5,2,2,1,1", "--trace"
    )
    assert code == 0
    trace = get_json(out)["results"]["trace"]
    assert trace["mu"] == ["3,3,2,2,1,1", "6,5,5,4,1,1"]


def test_mull_oversized_input_is_a_usage_error(capsys):
    for lam in ("2147483647", "10000,1"):
        code, out, err = run_cli(capsys, "mull", "--e", "2", "--lambda", lam)
        assert code == 1 and out == ""
        assert "exceeds MAX_RANK = 10000" in err


def test_mull_error_text_is_bounded(capsys):
    # 10,000 rows at MAX_RANK: the message names the first 20 parts, the
    # part count and the rank, not the whole partition (about 30 KB)
    ones = ",".join(["1"] * MAX_RANK)
    for method in ("kleshchev", "recursive", "both"):
        code, out, err = run_cli(capsys, "mull", "--method", method, "--e", "2", "--lambda", ones)
        assert (code, out) == (1, ""), method
        assert len(err.encode()) <= 300, (method, len(err.encode()))
        assert err.endswith("...) (10000 parts, rank 10000) is not 2-regular\n"), (method, err)


def test_echoed_input_is_clipped(capsys):
    # a 5,000-digit part is past int()'s digit limit, a 4,000-digit one is a
    # rank past MAX_RANK, and after a 1 it breaks the weak decrease first
    big = "9" * 4000
    for lam, says in (
        ("9" * 5000, "bad partition entry '99999999999999999999'... (5000 characters)"),
        (big, "partition rank 99999999999999999999... (4000 digits) exceeds MAX_RANK"),
        (f"1,{big}", "weakly decreasing, got (1, 99999999999999999999... (4000 digits))"),
    ):
        code, out, err = run_cli(capsys, "mull", "--e", "2", "--lambda", lam)
        assert (code, out) == (1, ""), lam[:10]
        assert len(err.encode()) <= 300 and says in err, err[:400]
    with pytest.raises(ValueError, match=r"positive, got -99999999999999999999\.\.\. \(4000 digits\)$"):
        as_partition([2, -int(big)])


def test_mull_usage_errors(capsys):
    assert run_cli(capsys, "mull", "--e", "3", "--lambda", "1,2")[0] == 1
    # every single-modulus command refuses e = 1 with the sweeps' message
    for argv in (
        ["mull", "--e", "1", "--lambda", "2,1"],
        ["psi", "--e", "1", "--charges", "0,1", "--bipartition", "1|1"],
        ["crystal-export", "--e", "1", "--max-n", "1"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert "mullineux: error: modulus must be >= 2, got 1" in err, argv
    assert run_cli(capsys, "mull", "--e", "3", "--lambda", "1,1,1")[0] == 1  # not regular
    assert run_cli(capsys, "mull", "--e", "3")[0] == 1  # missing --lambda


def test_modulus_above_the_rank_bound_is_a_usage_error(capsys):
    e = str(MAX_RANK + 2)
    for argv in (
        ["mull", "--method", "both", "--e", e, "--lambda", "3,1"],
        ["psi", "--e", e, "--charges", "0,1", "--bipartition", "1|1"],
        ["crystal-export", "--e", e, "--max-n", "1"],
        ["verify-conjecture", "--e", f"2,{e}", "--max-n", "1", "--jobs", "1"],
        ["cross-validate", "--e", e, "--max-n", "1", "--jobs", "1"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "", argv
        assert f"mullineux: error: modulus {e} exceeds MAX_MODULUS = {MAX_RANK + 1}" in err, argv
    # every partition in range is an e-core at MAX_RANK + 1, so its image is its conjugate
    code, out, _ = run_cli(capsys, "mull", "--method", "both", "--e", str(MAX_RANK + 1), "--lambda", "3,1")
    assert code == 0 and get_json(out)["results"]["recursive"] == "2,1,1"


def test_charge_gap_above_twice_the_rank_bound_is_a_usage_error(capsys):
    gap = 2 * MAX_RANK
    for charges in (f"0,{gap + 1}", f"-1,{gap}"):
        for extra in ([], ["--to-dominant"], ["--inverse"]):
            code, out, err = run_cli(
                capsys, "psi", "--e", "3", f"--charges={charges}", "--bipartition", "2,1|1", *extra
            )
            assert code == 1 and out == ""
            assert f"mullineux: error: charge gap {gap + 1} exceeds 2 * MAX_RANK = {gap}" in err
    # past a gap of 2 * MAX_RANK every step is the identity
    code, out, _ = run_cli(capsys, "psi", "--e", "3", f"--charges=0,{gap}", "--bipartition", "2,1|1")
    assert code == 0 and get_json(out)["results"]["image"] == "2,1|1"


# ---------------------------------------------------------------------------
# sweeps


def test_verify_conjecture_exit_codes(capsys):
    code, out, _ = run_cli(
        capsys, "verify-conjecture", "--e", "2", "--max-n", "10", "--max-k", "7", "--jobs", "1"
    )
    assert code == 0
    doc = get_json(out)
    assert doc["status"] == "verified"
    assert doc["counterexamples"] == []
    assert doc["parameters"]["regular_only"] is True


def test_verify_conjecture_trivial(capsys):
    code, out, _ = run_cli(capsys, "verify-conjecture", "--max-n", "0", "--jobs", "1")
    assert code == 0
    assert get_json(out)["checked"] == len(get_json(out)["parameters"]["e_list"])


def test_verify_conjecture_all_partitions(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify-conjecture", "--e", "3", "--max-n", "6", "--max-k", "4",
        "--all-partitions", "--jobs", "1",
    )
    assert code == 0
    assert get_json(out)["parameters"]["regular_only"] is False


def test_reports_byte_identical_across_jobs(capsys):
    args = ["verify-conjecture", "--e", "2,3", "--max-n", "9", "--max-k", "5"]
    _, out1, _ = run_cli(capsys, *args, "--jobs", "1")
    _, out2, _ = run_cli(capsys, *args, "--jobs", "4")
    assert out1 == out2
    args = ["cross-validate", "--e", "2,3", "--max-n", "7"]
    _, out3, _ = run_cli(capsys, *args, "--jobs", "1")
    _, out4, _ = run_cli(capsys, *args, "--jobs", "3")
    assert out3 == out4


def test_cross_validate_cli(capsys):
    code, out, _ = run_cli(capsys, "cross-validate", "--e", "3", "--max-n", "6", "--jobs", "1")
    assert code == 0
    doc = get_json(out)
    assert doc["status"] == "verified"
    assert doc["depth_exceeded"] == 0


def test_timing_flag_adds_section(capsys):
    _, out, _ = run_cli(
        capsys, "verify-conjecture", "--e", "2", "--max-n", "4", "--max-k", "3",
        "--jobs", "1", "--timing",
    )
    assert "timing" in get_json(out)


def test_csv_summary(tmp_path, capsys):
    path = tmp_path / "summary.csv"
    code, _, _ = run_cli(
        capsys, "verify-conjecture", "--e", "2", "--max-n", "4", "--max-k", "3",
        "--jobs", "1", "--csv", str(path),
    )
    assert code == 0
    text = path.read_text()
    assert "checked" in text and "e=2,n=4" in text


# wire-format text: digits, separators, signs, spaces and a few strays
WIRE_TEXT = st.text(alphabet="0123456789,|- +_x\t", max_size=40) | st.text(max_size=20)


@given(WIRE_TEXT)
@settings(max_examples=400)
def test_parse_bipartition_round_trips_or_raises_value_error(text):
    try:
        blam = cli.parse_bipartition(text)
    except ValueError:
        return
    assert cli.parse_bipartition(cli.format_bipartition(blam)) == blam


@given(WIRE_TEXT)
@settings(max_examples=400)
def test_parse_int_list_round_trips_or_raises_value_error(text):
    try:
        values = cli.parse_int_list(text, "--e")
    except ValueError as exc:
        # past ERROR_TEXT_CHARS characters the echo is clipped
        assert str(exc) == f"--e takes comma-separated ints, got {clip(text)}"
        assert clip(text) == repr(text) or len(text) > ERROR_TEXT_CHARS
        return
    assert all(isinstance(v, int) for v in values)
    assert cli.parse_int_list(",".join(map(str, values)), "--e") == values


def test_bad_sweep_arguments_are_usage_errors(capsys):
    cases = [
        (["verify-conjecture", "--all-partitions", "--e=0", "--max-n", "3"],
         "modulus must be >= 2, got 0"),
        (["verify-conjecture", "--e", "1"], "modulus must be >= 2, got 1"),
        (["verify-conjecture", "--e=-3"], "modulus must be >= 2, got -3"),
        (["verify-conjecture", "--e="], "at least one modulus is required"),
        (["verify-conjecture", "--max-n", "-1"], "n_max must be >= 0, got -1"),
        (["verify-conjecture", "--max-k", "-1"], "k_max must be >= 0, got -1"),
        (["cross-validate", "--e", "3,1"], "modulus must be >= 2, got 1"),
        (["cross-validate", "--e", "2,3,2"], "moduli must be distinct, got [2, 3, 2]"),
        (["cross-validate", "--e="], "at least one modulus is required"),
        (["cross-validate", "--max-n", "-1"], "n_max must be >= 0, got -1"),
        (["verify-conjecture", "--e", "2,,3"], "--e takes comma-separated ints, got '2,,3'"),
        (["cross-validate", "--e", "2,"], "--e takes comma-separated ints, got '2,'"),
    ]
    for argv, message in cases:
        for jobs in ("1", "2"):
            code, out, err = run_cli(capsys, *argv, "--jobs", jobs)
            assert (code, out) == (1, ""), argv
            assert f"mullineux: error: {message}" in err, argv
    for command in ("verify-conjecture", "cross-validate"):
        for jobs in ("0", "-4"):
            code, out, err = run_cli(capsys, command, "--e", "2", "--max-n", "3", "--jobs", jobs)
            assert (code, out) == (1, ""), (command, jobs)
            assert f"mullineux: error: jobs must be >= 1, got {jobs}" in err, (command, jobs)
    code, out, err = run_cli(capsys, "psi", "--e", "2", "--charges", "1,,2", "--bipartition", "1|1")
    assert (code, out) == (1, "")
    assert "mullineux: error: --charges takes comma-separated ints, got '1,,2'" in err


def test_negative_depth_limit_is_a_usage_error(capsys):
    message = "mullineux: error: depth_limit must be >= 0, got -1"
    for jobs in ("1", "2"):
        code, out, err = run_cli(
            capsys, "cross-validate", "--e", "3", "--max-n", "3", "--depth-limit", "-1", "--jobs", jobs
        )
        assert (code, out) == (1, "") and message in err, jobs
    # (3, 1) is a 3-core, which answers before the depth is looked at
    for lam in ("3,1", "3,2"):
        for method in ("recursive", "both"):
            code, out, err = run_cli(
                capsys, "mull", "--method", method, "--e", "3", "--lambda", lam, "--depth-limit", "-1"
            )
            assert (code, out) == (1, "") and message in err, (lam, method)
    # a limit of 0 stays valid
    for jobs in ("1", "2"):
        code, out, _ = run_cli(
            capsys, "cross-validate", "--e", "3", "--max-n", "3", "--depth-limit", "0", "--jobs", jobs
        )
        assert code == 2 and get_json(out)["depth_exceeded"] > 0
    code, out, _ = run_cli(
        capsys, "mull", "--method", "recursive", "--e", "3", "--lambda", "3,1", "--depth-limit", "0"
    )
    assert code == 0 and get_json(out)["results"]["recursive"] == "2,1,1"


def test_sweep_error_exits_two(capsys, monkeypatch):
    def broken(*args):
        raise RuntimeError("broken check")

    monkeypatch.setattr(cli.engine, "_tower", broken)
    monkeypatch.setattr(cli.engine, "_symbols", broken)
    for command in ("verify-conjecture", "cross-validate"):
        code, out, _ = run_cli(capsys, command, "--e", "3", "--max-n", "1", "--jobs", "1")
        assert code == 2
        doc = get_json(out)
        assert doc["status"] == "counterexample"
        assert doc["counterexamples"] == [
            {"e": 3, "partition": p, "kind": "error", "detail": "RuntimeError: broken check"}
            for p in ("-", "1")
        ]


# ---------------------------------------------------------------------------
# psi


def test_psi_single_step(capsys):
    code, out, _ = run_cli(
        capsys, "psi", "--e", "6", "--charges", "0,3",
        "--bipartition", "6,5,2,2,1,1|6,5,2,2,1,1",
    )
    assert code == 0
    doc = get_json(out)
    assert doc["results"]["image"] == "3,3,2,2,1,1|6,5,5,4,1,1"
    step = doc["results"]["steps"][0]
    assert step["input"][0]["beta_set"] == [0, 1, 2, 4, 5, 7, 8, 12, 14]
    assert step["input"][1]["beta_set"] == [1, 2, 4, 5, 9, 11]
    assert step["input"][0]["charge"] == 3
    assert step["input"][1]["charge"] == 0


def test_psi_inverse_round_trips(capsys):
    _, out, _ = run_cli(
        capsys, "psi", "--e", "6", "--charges", "0,3",
        "--bipartition", "6,5,2,2,1,1|6,5,2,2,1,1",
    )
    image = get_json(out)["results"]["image"]
    code, out, _ = run_cli(
        capsys, "psi", "--e", "6", "--charges", "0,3", "--bipartition", image, "--inverse"
    )
    assert code == 0
    assert get_json(out)["results"]["image"] == "6,5,2,2,1,1|6,5,2,2,1,1"


def test_psi_empty_bipartition(capsys):
    # leading dash needs the = form so argparse does not read it as a flag
    code, out, _ = run_cli(capsys, "psi", "--e", "3", "--charges", "0,0", "--bipartition=-|-")
    assert code == 0
    assert get_json(out)["results"]["image"] == "-|-"
    code, out, _ = run_cli(capsys, "psi", "--e", "3", "--charges", "0,0", "--bipartition", "|")
    assert code == 0
    assert get_json(out)["results"]["image"] == "-|-"


def test_psi_to_dominant(capsys):
    code, out, _ = run_cli(
        capsys, "psi", "--e", "6", "--charges", "0,3",
        "--bipartition", "6,5,2,2,1,1|6,5,2,2,1,1", "--to-dominant",
    )
    assert code == 0
    doc = get_json(out)
    assert doc["results"]["image"] == "3,3,2,2,1,1|6,5,5,4,1,1"
    assert doc["results"]["steps"][-1]["shortcut"] is True


def test_psi_inverse_to_dominant(capsys):
    code, out, _ = run_cli(
        capsys, "psi", "--e", "6", "--charges", "0,3",
        "--bipartition", "6,4,2|11,9,2", "--inverse", "--to-dominant",
    )
    assert code == 0
    assert get_json(out)["results"]["image"] == "11,4,2|11,4,2"


def test_psi_charge_order(capsys):
    code, out, err = run_cli(capsys, "psi", "--e", "3", "--charges", "4,0", "--bipartition=-|-")
    assert (code, out) == (1, "")
    assert "mullineux: error: charges must satisfy s1 <= s2" in err


def test_psi_charges_need_two_ints(capsys):
    for charges, message in [
        ("0", "--charges takes two comma-separated ints"),
        ("0,1,2", "--charges takes two comma-separated ints"),
        (",", "--charges takes two comma-separated ints"),
        ("a,1", "--charges takes comma-separated ints, got 'a,1'"),
    ]:
        code, out, err = run_cli(capsys, "psi", "--e", "3", "--charges", charges, "--bipartition=-|-")
        assert code == 1
        assert out == ""
        assert f"mullineux: error: {message}" in err


def test_sweep_rank_above_the_bound_is_refused_before_any_bucket(capsys, monkeypatch):
    def forbidden(task):
        raise AssertionError("a bucket ran")

    monkeypatch.setattr(cli.engine, "_bucket", forbidden)
    for command in ("verify-conjecture", "cross-validate"):
        for max_n, says in (
            (str(MAX_RANK + 1), f"n_max {MAX_RANK + 1} exceeds MAX_RANK = {MAX_RANK}"),
            ("9" * 4000, "n_max 99999999999999999999... (4000 digits) exceeds MAX_RANK"),
        ):
            for jobs in ("1", "2"):
                code, out, err = run_cli(capsys, command, "--e", "2", "--max-n", max_n, "--jobs", jobs)
                assert (code, out) == (1, ""), (command, jobs)
                assert len(err.encode()) <= 300 and f"mullineux: error: {says}" in err, err[:400]
    # MAX_RANK itself is in range: every bucket up to it runs
    ranks = []
    monkeypatch.setattr(cli.engine, "_bucket", lambda task: ranks.append(task[2]) or (0, [], 0.0))
    code, _, _ = run_cli(capsys, "cross-validate", "--e", "2", "--max-n", str(MAX_RANK), "--jobs", "1")
    assert code == 0 and ranks == list(range(MAX_RANK + 1))


def test_int_options_clip_the_value_they_echo(capsys, monkeypatch):
    # 5,000 digits are past int()'s digit limit, so argparse's type check
    # refuses them; the message names only the first ERROR_TEXT_CHARS.  A
    # usage block would wrap at the terminal width, 80 columns without one
    monkeypatch.setenv("COLUMNS", "80")
    d5 = "9" * 5000
    says = f"{clip(d5)} is not an int"
    for argv in (
        ["cross-validate", "--max-n", d5], ["mull", "--e", d5, "--lambda", "1"],
        ["verify-conjecture", "--max-n", d5], ["verify-conjecture", "--max-k", d5],
        ["verify-conjecture", "--jobs", d5], ["cross-validate", "--depth-limit", d5],
        ["mull", "--e", "2", "--lambda", "1", "--depth-limit", d5],
        ["psi", "--e", d5, "--charges", "0,0", "--bipartition", "1|1"],
        ["crystal-export", "--e", "2", "--max-n", d5],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, ""), argv[:2]
        assert len(err.encode()) <= 300 and says in err, err[:400]
        assert "9" * (ERROR_TEXT_CHARS + 1) not in err, err[:400]
        assert f"(see mullineux {argv[0]} --help)" in err, err[:400]


def test_argparse_messages_show_their_head(capsys, monkeypatch):
    # argparse echoes an invalid choice or unrecognized arguments whole
    monkeypatch.setenv("COLUMNS", "80")
    d5 = "9" * 5000
    for argv, says in (
        (["mull", "--method", d5, "--e", "2", "--lambda", "1"], "argument --method: invalid choice: '999"),
        (["mull", "--e", "2", "--lambda", "1", d5], "unrecognized arguments: 999"),
        ([d5], "argument command: invalid choice: '999"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, ""), argv[:2]
        assert len(err.encode()) <= 300 and says in err, err[:400]
        assert err.splitlines()[0].endswith(" characters)"), err[:400]


def test_jobs_above_the_bound_are_refused_before_any_pool(capsys, monkeypatch):
    # a stand-in Pool fails if it is built; no worker process is started
    import multiprocessing

    def forbidden(*args, **kwargs):
        raise AssertionError("a Pool or a bucket ran")

    monkeypatch.setattr(multiprocessing, "Pool", forbidden)
    monkeypatch.setattr(cli.engine, "_bucket", forbidden)
    bound = cli.engine.MAX_JOBS
    for command in ("verify-conjecture", "cross-validate"):
        for jobs, says in ((str(bound + 1), str(bound + 1)), ("100000", "100000"), ("9" * 4000, clip(int("9" * 4000)))):
            code, out, err = run_cli(capsys, command, "--max-n", str(MAX_RANK), "--jobs", jobs)
            assert (code, out) == (1, ""), (command, jobs[:10])
            assert len(err.encode()) <= 300 and f"mullineux: error: jobs {says} exceeds MAX_JOBS = {bound}" in err
            monkeypatch.setenv("MULLINEUX_JOBS", jobs)
            code, out, err = run_cli(capsys, command, "--max-n", str(MAX_RANK))
            monkeypatch.delenv("MULLINEUX_JOBS")
            assert (code, out) == (1, ""), (command, jobs[:10])
            assert len(err.encode()) <= 300 and f"mullineux: error: jobs {says} exceeds MAX_JOBS = {bound}" in err
    # MAX_JOBS itself is accepted; one bucket runs serially, with no Pool
    monkeypatch.setattr(cli.engine, "_bucket", lambda task: (0, [], 0.0))
    code, _, _ = run_cli(capsys, "cross-validate", "--e", "2", "--max-n", "0", "--jobs", str(bound))
    assert code == 0


def test_default_jobs_on_a_large_host_are_capped_at_the_bound(capsys, monkeypatch):
    # 128 usable CPUs and no --jobs or MULLINEUX_JOBS: the sweep runs with
    # MAX_JOBS workers instead of refusing; a stand-in Pool starts none
    import multiprocessing

    workers = []

    class SerialPool:
        def __init__(self, processes):
            workers.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, tasks, chunksize):
            return map(fn, tasks)

    monkeypatch.delenv("MULLINEUX_JOBS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(128)), raising=False)
    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    bound = cli.engine.MAX_JOBS
    assert cli._default_jobs() == bound
    serial = cli.engine.cross_validate([2, 3, 4, 5], 20).to_document()
    code, out, err = run_cli(capsys, "cross-validate", "--max-n", "20")
    assert (code, err) == (0, "")
    assert workers == [bound]
    assert json.loads(out) == serial


def test_sweep_moduli_must_be_ints(capsys):
    for command in ("verify-conjecture", "cross-validate"):
        code, out, err = run_cli(capsys, command, "--e", "2,x", "--max-n", "3", "--jobs", "1")
        assert code == 1
        assert out == ""
        assert "mullineux: error: --e takes comma-separated ints, got '2,x'" in err


def test_psi_negative_charge_needs_the_equals_form(capsys):
    # argparse reads a bare "-2,5" as an option, so the value must be attached
    code, _, err = run_cli(capsys, "psi", "--e", "3", "--charges", "-2,5", "--bipartition=1|-")
    assert code == 1
    assert "argument --charges: expected one argument" in err
    code, out, _ = run_cli(capsys, "psi", "--e", "3", "--charges=-2,5", "--bipartition=1|-")
    assert code == 0
    assert get_json(out)["parameters"]["charges"] == [-2, 5]


def test_psi_walk_rank_bound(capsys):
    # a recorded walk's output grows with the square of the rank; a lone step
    # renders one stage and is not bounded
    bound = cli.MAX_WALK_RANK
    blam = ((bound,), ())
    for flags in ((), ("--inverse",)):
        code, out, _ = run_cli(capsys, "psi", "--e", str(bound + 1), "--charges", "0,0",
                               f"--bipartition={bound}|-", "--to-dominant", *flags)
        assert code == 0
        walk = psi_tilde_inverse if flags else psi_tilde
        assert get_json(out)["results"]["image"] == cli.format_bipartition(walk(bound + 1, (0, 0), blam))
        code, out, err = run_cli(capsys, "psi", "--e", "2", "--charges", "0,0",
                                 f"--bipartition={bound}|1", "--to-dominant", *flags)
        assert (code, out) == (1, "")
        assert f"mullineux: error: --to-dominant: bipartition rank {bound + 1} exceeds MAX_WALK_RANK = {bound}" in err
        code, out, _ = run_cli(capsys, "psi", "--e", "2", "--charges", "0,0", f"--bipartition={bound}|1", *flags)
        assert code == 0


PSI_GRID = [(2, (0, 0)), (3, (0, 2)), (3, (-1, 1)), (6, (0, 3))]


def _psi_doc(capsys, e, s, blam, *flags):
    code, out, _ = run_cli(
        capsys, "psi", "--e", str(e), f"--charges={s[0]},{s[1]}",
        f"--bipartition={cli.format_bipartition(blam)}", *flags,
    )
    assert code == 0
    return get_json(out)["results"]


def test_psi_to_dominant_matches_library(capsys):
    for e, s in PSI_GRID:
        for n in range(5):
            for blam in enumerate_bipartitions(n):
                results = _psi_doc(capsys, e, s, blam, "--to-dominant")
                assert results["image"] == cli.format_bipartition(psi_tilde(e, s, blam))
                results = _psi_doc(capsys, e, s, blam, "--to-dominant", "--inverse")
                assert results["image"] == cli.format_bipartition(psi_tilde_inverse(e, s, blam))


def test_psi_to_dominant_steps_chain(capsys):
    for e, s in PSI_GRID:
        for n in range(5):
            for blam in enumerate_bipartitions(n):
                steps = _psi_doc(capsys, e, s, blam, "--to-dominant")["steps"]
                assert steps[-1] == {"charges": [s[0], s[1] + (len(steps) - 1) * e],
                                     "identity": True, "shortcut": True}
                walked = steps[:-1]
                for step, following in zip(walked, walked[1:]):
                    assert step["output"] == following["input"]


def _decoded(rows):
    # rows list the larger charge, the second component, first
    return tuple(partition_from_beta_set(row["beta_set"]) for row in reversed(rows))


def test_psi_inverse_steps_render_at_the_step_padding(capsys):
    for e, s in PSI_GRID:
        for n in range(5):
            for blam in enumerate_bipartitions(n):
                for flags in ((), ("--to-dominant",)):
                    results = _psi_doc(capsys, e, s, blam, "--inverse", *flags)
                    cur = blam
                    for step in results["steps"]:
                        if step.get("shortcut"):
                            continue
                        assert _decoded(step["input"]) == cur
                        stage = tuple(row["charge"] for row in reversed(step["output"]))
                        rows = step["input"] + step["output"]
                        assert {len(row["beta_set"]) - row["charge"] for row in rows} == {
                            minimal_padding(cur, stage)
                        }
                        cur = _decoded(step["output"])
                    assert cli.format_bipartition(cur) == results["image"]


# ---------------------------------------------------------------------------
# crystal export


def test_crystal_export_json(capsys):
    code, out, _ = run_cli(capsys, "crystal-export", "--e", "2", "--max-n", "3", "--format", "json")
    assert code == 0
    doc = get_json(out)
    assert set(doc["results"]["vertices"]) == {"-", "1", "2", "3", "2,1"}
    for edge in doc["results"]["edges"]:
        assert set(edge) == {"source", "residue", "target"}


def test_crystal_export_single_vertex(capsys):
    code, out, _ = run_cli(capsys, "crystal-export", "--e", "3", "--max-n", "0", "--format", "json")
    assert code == 0
    doc = get_json(out)
    assert doc["results"]["vertices"] == ["-"]
    assert doc["results"]["edges"] == []


def test_crystal_export_vertex_count(capsys):
    from mullineux.partitions import enumerate_e_regular

    code, out, _ = run_cli(capsys, "crystal-export", "--e", "3", "--max-n", "4", "--format", "json")
    doc = get_json(out)
    expected = sum(len(list(enumerate_e_regular(n, 3))) for n in range(5))
    assert len(doc["results"]["vertices"]) == expected


def test_crystal_export_rank_bound(capsys):
    bound = cli.MAX_EXPORT_RANK
    code, out, err = run_cli(capsys, "crystal-export", "--e", "2", "--max-n", str(bound + 1))
    assert (code, out) == (1, "")
    assert f"mullineux: error: --max-n {bound + 1} exceeds MAX_EXPORT_RANK = {bound}" in err
    code, out, _ = run_cli(capsys, "crystal-export", "--e", "2", "--max-n", str(bound), "--format", "json")
    assert code == 0 and get_json(out)["parameters"]["max_n"] == bound


def test_crystal_export_dot(capsys):
    code, out, _ = run_cli(capsys, "crystal-export", "--e", "2", "--max-n", "2", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    assert '"-" -> "1" [label="0"];' in out


@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_crystal_export_into_a_closed_pipe_exits_zero(fmt):
    # at e = 3 and rank 22 the export (261 kB of JSON, 116 kB of DOT) is more
    # than a pipe holds, so the reader goes away while it is still writing
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "mullineux.cli", "crystal-export", "--e", "3", "--max-n", "22", "--format", fmt]
    with subprocess.Popen(argv, env=env, bufsize=0, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.read(1) == (b"{" if fmt == "json" else b"d")
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=30)
    assert (code, err) == (0, b"")


def test_unknown_command_exits_one(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 1


# ---------------------------------------------------------------------------
# exit-code contract edges


def test_mull_conjecture_violation_exits_three(capsys, monkeypatch):
    # no real counterexample is known, so fake one to pin the contract
    from mullineux.engine import MullineuxTrace
    from mullineux.errors import ConjectureViolationError
    from mullineux.partitions import beta_bits

    def explode(lam, e, depth_limit=16, oracle_fallback=False):
        raise ConjectureViolationError(
            "pulled-back components disagree",
            partition=lam,
            modulus=e,
            trace=MullineuxTrace(e, beta_bits(lam, max(1, len(lam))), False, None),
        )

    monkeypatch.setattr(cli.engine, "mullineux_conjectural", explode)
    code, out, _ = run_cli(capsys, "mull", "--method", "recursive", "--e", "3", "--lambda", "3,1")
    assert code == 3
    doc = get_json(out)
    assert "counterexample" in doc and "error" in doc


def test_mull_both_disagreement_exits_three(capsys, monkeypatch):
    # the two algorithms agree on every known input, so fake a wrong oracle
    import jsonschema

    from mullineux._core import kernels
    from mullineux.schema import DOCUMENT_SCHEMA

    monkeypatch.setattr(kernels, "mullineux", lambda lam, e: tuple(lam))
    code, out, _ = run_cli(capsys, "mull", "--method", "both", "--e", "3", "--lambda", "6,5,2,2,1,1")
    assert code == 3
    doc = get_json(out)
    assert doc["results"] == {"kleshchev": "6,5,2,2,1,1", "recursive": "11,4,2", "agree": False}
    assert doc["error"] == "the recursion and Kleshchev's algorithm disagree"
    jsonschema.validate(doc, DOCUMENT_SCHEMA)


def test_mull_depth_limit_paths(capsys):
    code, _, err = run_cli(
        capsys, "mull", "--method", "recursive", "--e", "3", "--lambda", "3,2", "--depth-limit", "0"
    )
    assert code == 1 and "depth" in err
    code, out, _ = run_cli(
        capsys, "mull", "--method", "recursive", "--e", "3", "--lambda", "3,2",
        "--depth-limit", "0", "--oracle-fallback",
    )
    assert code == 0
    from mullineux.level1 import mullineux_kleshchev

    expected = cli.format_partition(mullineux_kleshchev((3, 2), 3))
    assert get_json(out)["results"]["recursive"] == expected


def test_jobs_default_from_environment(monkeypatch):
    monkeypatch.setenv("MULLINEUX_JOBS", "7")
    assert cli._default_jobs() == 7
    monkeypatch.delenv("MULLINEUX_JOBS")
    assert cli._default_jobs() >= 1
    # a process pinned to one CPU (taskset, a cpuset) gets one worker, not
    # one per CPU of the host
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert cli._default_jobs() == 1
    monkeypatch.setenv("MULLINEUX_JOBS", "3")
    assert cli._default_jobs() == 3
    # without an affinity call, the host's CPU count
    monkeypatch.delenv("MULLINEUX_JOBS")
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._default_jobs() == 8


def test_bad_jobs_environment_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("MULLINEUX_JOBS", "abc")
    code, out, err = run_cli(capsys, "verify-conjecture", "--e", "2", "--max-n", "2")
    assert code == 1
    assert out == ""
    assert "mullineux: error: MULLINEUX_JOBS must be an integer, got 'abc'" in err
    assert "Traceback" not in err


def test_jobs_environment_below_one_is_a_usage_error(capsys, monkeypatch):
    for command in ("verify-conjecture", "cross-validate"):
        for jobs in ("0", "-4"):
            monkeypatch.setenv("MULLINEUX_JOBS", jobs)
            code, out, err = run_cli(capsys, command, "--e", "2", "--max-n", "3")
            assert (code, out) == (1, ""), (command, jobs)
            assert f"mullineux: error: MULLINEUX_JOBS must be >= 1, got {jobs}" in err, (command, jobs)
    # an explicit --jobs still wins over the environment
    code, _, _ = run_cli(capsys, "cross-validate", "--e", "2", "--max-n", "3", "--jobs", "1")
    assert code == 0


def test_sweep_counterexample_exits_two(capsys, monkeypatch):
    # fake a failing sweep to pin the exit-2 contract
    from mullineux.engine import SweepReport

    def fake_sweep(e_list, n_max, k_max, regular_only=True, jobs=1):
        report = SweepReport(
            command="verify-conjecture",
            parameters={"e_list": list(e_list), "n_max": n_max, "k_max": k_max,
                        "regular_only": regular_only},
            checked=1,
        )
        report.counterexamples.append(
            {"e": 3, "partition": "2,1", "beta_set": [0, 2], "k": 3, "missing": [5]}
        )
        return report

    monkeypatch.setattr(cli.engine, "sweep_conjecture", fake_sweep)
    code, out, _ = run_cli(capsys, "verify-conjecture", "--e", "3", "--max-n", "3", "--jobs", "1")
    assert code == 2
    assert get_json(out)["status"] == "counterexample"


def test_all_documents_validate_against_published_schema(capsys):
    import jsonschema

    from mullineux.schema import DOCUMENT_SCHEMA

    invocations = [
        ["mull", "--method", "both", "--e", "3", "--lambda", "6,5,2,2,1,1"],
        ["mull", "--method", "recursive", "--e", "3", "--lambda", "5,2,1,1", "--trace"],
        ["verify-conjecture", "--e", "2,3", "--max-n", "6", "--max-k", "5", "--jobs", "1"],
        ["verify-conjecture", "--e", "2", "--max-n", "4", "--max-k", "3", "--jobs", "1",
         "--timing"],
        ["cross-validate", "--e", "3", "--max-n", "5", "--jobs", "1"],
        ["psi", "--e", "6", "--charges", "0,3", "--bipartition", "6,5,2,2,1,1|6,5,2,2,1,1"],
        ["psi", "--e", "6", "--charges", "0,3", "--bipartition", "6,4,2|11,9,2",
         "--inverse", "--to-dominant"],
        ["crystal-export", "--e", "3", "--max-n", "4", "--format", "json"],
    ]
    for argv in invocations:
        assert cli.main(argv) == 0, argv
        doc = get_json(capsys.readouterr().out)
        jsonschema.validate(doc, DOCUMENT_SCHEMA)

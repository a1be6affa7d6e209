"""Command-line front end.

Subcommands cover single computations (mull, psi), the two sweep harnesses
(verify-conjecture, cross-validate) and crystal graph export.  JSON goes to
stdout, diagnostics to stderr.  Exit codes: 0 success or verified, 1 usage
or parse error, 2 sweep counterexample, 3 conjecture violation in a single
computation.  A reader that closes stdout early (| head) ends the output
quietly and leaves the exit code as it is.

Wire formats: a partition is a comma-separated weakly decreasing list of
positive ints, with "" or "-" for the empty partition; a bipartition joins
two partitions with "|".  Parsing is strict so that malformed input fails
loudly instead of being reordered.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys

from mullineux import betamaps, engine, level1
from mullineux.schema import SCHEMA_VERSION
from mullineux.errors import ConjectureViolationError, DepthExceededError, NotRegularError, check_modulus, clip
from mullineux.partitions import MAX_RANK, Partition, format_partition, parse_partition, unrestricted_modulus

DEFAULT_E_LIST = "2,3,4,5"
# every partition of rank <= MAX_RANK is an e-core at this modulus
MAX_MODULUS = unrestricted_modulus(MAX_RANK)
# past this gap every walk step is the identity on rank <= MAX_RANK (betamaps.stable_shift)
MAX_CHARGE_GAP = 2 * MAX_RANK
# crystal-export builds the whole graph in memory.  At e = 50, where every
# partition in range is e-regular, rank 30 gives 13.5 MB of JSON in 3-5 s
# and rank 36 gives 54 MB in about 18 s (2-core x86-64 Xeon host)
MAX_EXPORT_RANK = 30
# psi --to-dominant renders every stage's beta-sets, so its output grows with
# the square of the rank: at e = 2, (1000|-) gives 9.9 MB of JSON in 0.9 s
# and (6000|-) 357 MB in 20 s (2-core x86-64 Xeon host)
MAX_WALK_RANK = 1000


# the characters of argparse's own error message that a usage error shows
USAGE_MESSAGE_CHARS = 150


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the exit-code contract wants 1.
    # A usage error names the command and --help instead of printing the
    # usage block (about 190 bytes for a sweep), and shows the head of a
    # message that argparse filled with whole arguments (an invalid choice,
    # unrecognized arguments), so that it stays within a few hundred bytes
    def error(self, message):
        if len(message) > USAGE_MESSAGE_CHARS:
            message = f"{message[:USAGE_MESSAGE_CHARS]}... ({len(message)} characters)"
        print(f"{self.prog}: error: {message}\n(see {self.prog} --help)", file=sys.stderr)
        raise SystemExit(1)


def _int(text: str) -> int:
    """An int option's value; argparse echoes a bad one, so it is clipped."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{clip(text)} is not an int") from None


def parse_bipartition(text: str) -> tuple[Partition, Partition]:
    if text.count("|") != 1:
        raise ValueError(f"bipartition must be two partitions joined by '|', got {clip(text)}")
    left, right = text.split("|")
    return parse_partition(left), parse_partition(right)


def format_bipartition(blam) -> str:
    return f"{format_partition(blam[0])}|{format_partition(blam[1])}"


def parse_int_list(text: str, option: str) -> list[int]:
    """Comma-separated ints.  Text with only blank entries ("", ",") is the
    empty list; a blank entry beside a value ("2,,3", "2,") is an error."""
    chunks = text.split(",")
    if not any(chunk.strip() for chunk in chunks):
        return []
    try:
        return [int(chunk) for chunk in chunks]
    except ValueError:
        raise ValueError(f"{option} takes comma-separated ints, got {clip(text)}") from None


def check_moduli(moduli: list[int]) -> list[int]:
    """moduli, or ValueError when one is below 2 or exceeds MAX_MODULUS."""
    for e in moduli:
        check_modulus(e)
        if e > MAX_MODULUS:
            raise ValueError(f"modulus {clip(e)} exceeds MAX_MODULUS = {MAX_MODULUS}")
    return moduli


def _default_jobs() -> int:
    env = os.environ.get("MULLINEUX_JOBS")
    if env:
        try:
            jobs = int(env)
        except ValueError:
            raise ValueError(f"MULLINEUX_JOBS must be an integer, got {clip(env)}") from None
        if jobs < 1:
            raise ValueError(f"MULLINEUX_JOBS must be >= 1, got {clip(jobs)}")
        return jobs
    # the CPUs this process may run on, which taskset or a cpuset can make
    # fewer than the host has, up to the most workers a sweep opens; only an
    # explicit count above that is refused
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, engine.MAX_JOBS)


@contextlib.contextmanager
def _stdout():
    """stdout for one document.  A reader that closes the pipe early (| head)
    ends the output quietly, and the command keeps its exit code."""
    try:
        yield sys.stdout
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout once more at exit; let that go to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit(doc: dict) -> None:
    with _stdout() as out:
        json.dump(doc, out, indent=2)
        out.write("\n")


def _write_csv(path: str, report: engine.SweepReport) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["command", "bucket", "seconds"])
        for label, seconds in report.timings.items():
            writer.writerow([report.command, label, f"{seconds:.6f}"])
        writer.writerow([report.command, "checked", report.checked])
        writer.writerow([report.command, "counterexamples", len(report.counterexamples)])


# ---------------------------------------------------------------------------
# subcommands


def cmd_mull(args) -> int:
    lam = parse_partition(args.lam)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "mull",
        "parameters": {"e": args.e, "lambda": format_partition(lam), "method": args.method},
        "results": {},
    }
    try:
        if args.method in ("kleshchev", "both"):
            doc["results"]["kleshchev"] = format_partition(level1.mullineux_kleshchev(lam, args.e))
        if args.method in ("recursive", "both"):
            image, trace = engine.mullineux_conjectural(
                lam, args.e, depth_limit=args.depth_limit, oracle_fallback=args.oracle_fallback
            )
            doc["results"]["recursive"] = format_partition(image)
            if args.trace:
                doc["results"]["trace"] = trace.to_dict()
        if args.method == "both":
            doc["results"]["agree"] = doc["results"]["kleshchev"] == doc["results"]["recursive"]
            if not doc["results"]["agree"]:
                # Kleshchev's algorithm is proven, so a mismatch is a conjecture violation
                doc["error"] = "the recursion and Kleshchev's algorithm disagree"
                _emit(doc)
                return 3
    except (NotRegularError, DepthExceededError) as exc:
        print(f"mullineux: error: {exc}", file=sys.stderr)
        return 1
    except ConjectureViolationError as exc:
        doc["error"] = str(exc)
        doc["counterexample"] = exc.trace.to_dict() if exc.trace is not None else None
        _emit(doc)
        return 3
    _emit(doc)
    return 0


def sweep_verify_conjecture(args) -> engine.SweepReport:
    return engine.sweep_conjecture(
        check_moduli(parse_int_list(args.e, "--e")),
        args.max_n,
        args.max_k,
        regular_only=not args.all_partitions,
        jobs=args.jobs,
    )


def sweep_cross_validate(args) -> engine.SweepReport:
    return engine.cross_validate(
        check_moduli(parse_int_list(args.e, "--e")), args.max_n, depth_limit=args.depth_limit, jobs=args.jobs
    )


def cmd_sweep(args) -> int:
    report = args.sweep(args)
    _emit(report.to_document(include_timing=args.timing))
    if args.csv:
        _write_csv(args.csv, report)
    return 0 if report.verified else 2


def _symbol(blam, s, e_shift=0, m=None) -> list[dict]:
    """Charge-labelled beta-set rows of a bipartition (larger charge first)."""
    x1, x2 = betamaps.encode_bipartition(blam, (s[0], s[1] + e_shift), m)
    return [
        {"charge": s[1] + e_shift, "beta_set": list(x2)},
        {"charge": s[0], "beta_set": list(x1)},
    ]


def _step_doc(e: int, inverse: bool, stage, before, after) -> dict:
    """One walk stage as JSON: both symbols, or a marker for a skipped stage."""
    if after is None:
        return {"charges": list(stage), "identity": True, "shortcut": True}
    # an inverse step reads its input at (s1, s2 + e); display it with the
    # padding the step works at
    m = betamaps.minimal_padding(before, stage) if inverse else None
    shift_in, shift_out = (e, 0) if inverse else (0, e)
    return {
        "charges": list(stage),
        "input": _symbol(before, stage, shift_in, m),
        "output": _symbol(after, stage, shift_out, m),
        "identity": after == before,
    }


def cmd_psi(args) -> int:
    charges = parse_int_list(args.charges, "--charges")
    if len(charges) != 2:
        raise ValueError(f"--charges takes two comma-separated ints s1,s2, got {clip(args.charges)}")
    s1, s2 = s = tuple(charges)
    if s1 > s2:
        raise ValueError("charges must satisfy s1 <= s2")
    if s2 - s1 > MAX_CHARGE_GAP:
        raise ValueError(f"charge gap {clip(s2 - s1)} exceeds 2 * MAX_RANK = {MAX_CHARGE_GAP}")
    e = args.e
    blam = parse_bipartition(args.bipartition)
    if args.to_dominant:
        rank = sum(blam[0]) + sum(blam[1])
        if rank > MAX_WALK_RANK:
            raise ValueError(f"--to-dominant: bipartition rank {rank} exceeds MAX_WALK_RANK = {MAX_WALK_RANK}")
        walked = []
        decode = betamaps.decode_bits
        image = decode(betamaps.psi_tilde_beta_sets(e, s, betamaps.encode_bits(blam, s), args.inverse, walked))
        stages = [
            (stage, decode(before), None if after is None else decode(after))
            for stage, before, after in walked
        ]
    else:
        step = betamaps.psi_bipartition_inverse if args.inverse else betamaps.psi_bipartition
        image = step(e, s, blam)
        stages = [(s, blam, image)]
    steps = [_step_doc(e, args.inverse, *stage) for stage in stages]
    if args.inverse and not args.to_dominant:
        # A lone inverse step is labelled by the bicharge its input is read
        # at, (s1, s2 + e): that is where the bipartition on the command line
        # lives.  Walk stages in either direction are labelled by the lower
        # bicharge of their step, so an inverse walk lists the forward walk's
        # labels in reverse order; its input lives at the stabilized
        # bicharge, above every stage.  Every symbol also carries its charge.
        steps[0]["charges"] = [s1, s2 + e]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "psi",
        "parameters": {
            "e": e,
            "charges": [s1, s2],
            "bipartition": format_bipartition(blam),
            "inverse": args.inverse,
            "to_dominant": args.to_dominant,
        },
        "results": {"image": format_bipartition(image), "steps": steps},
    }
    _emit(doc)
    return 0


def cmd_crystal_export(args) -> int:
    if args.max_n > MAX_EXPORT_RANK:
        raise ValueError(f"--max-n {clip(args.max_n)} exceeds MAX_EXPORT_RANK = {MAX_EXPORT_RANK}")
    graph = level1.crystal_graph(args.e, args.max_n)
    if args.format == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": "crystal-export",
            "parameters": {"e": args.e, "max_n": args.max_n},
            "results": {
                "vertices": [format_partition(v) for v in graph.vertices],
                "edges": [
                    {"source": format_partition(a), "residue": j, "target": format_partition(b)}
                    for a, j, b in graph.edges
                ],
            },
        }
        _emit(doc)
    else:
        with _stdout() as out:
            out.write(f'digraph "crystal_e{args.e}" {{\n')
            for v in graph.vertices:
                out.write(f'  "{format_partition(v)}";\n')
            for a, j, b in graph.edges:
                out.write(f'  "{format_partition(a)}" -> "{format_partition(b)}" [label="{j}"];\n')
            out.write("}\n")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_sweep(sub, name: str, help: str, max_n: int, sweep, options: dict) -> None:
    """A sweep subcommand: its own options between the ones every sweep takes."""
    cmd = sub.add_parser(name, help=help)
    cmd.add_argument("--e", default=DEFAULT_E_LIST, help="comma-separated moduli")
    cmd.add_argument("--max-n", type=_int, default=max_n)
    for flag, kwargs in options.items():
        cmd.add_argument(flag, **kwargs)
    cmd.add_argument("--jobs", type=_int, default=None)
    cmd.add_argument("--csv", help="also write a per-bucket CSV summary to this path")
    cmd.add_argument("--timing", action="store_true",
                     help="include wall-clock timing in the report (breaks byte-identity)")
    cmd.set_defaults(func=cmd_sweep, sweep=sweep)


def build_parser() -> _Parser:
    parser = _Parser(prog="mullineux", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    mull = sub.add_parser("mull", help="compute the Mullineux image of a partition")
    mull.add_argument("--method", choices=["kleshchev", "recursive", "both"], default="kleshchev")
    mull.add_argument("--e", type=_int, required=True, help="modulus, at least 2")
    mull.add_argument("--lambda", dest="lam", required=True, help="partition, e.g. 6,5,2,2,1,1")
    mull.add_argument("--trace", action="store_true", help="include the recursion trace")
    mull.add_argument("--depth-limit", type=_int, default=16)
    mull.add_argument("--oracle-fallback", action="store_true",
                      help="answer too-deep recursive subcalls with the crystal oracle")
    mull.set_defaults(func=cmd_mull)

    _add_sweep(sub, "verify-conjecture", "sweep the odd-stage inclusion property", 10,
               sweep_verify_conjecture, {
                   "--max-k": dict(type=_int, default=9),
                   "--all-partitions": dict(action="store_true",
                                            help="sweep all partitions instead of only e-regular ones"),
               })
    _add_sweep(sub, "cross-validate", "recursive algorithm vs crystal oracle", 8,
               sweep_cross_validate, {"--depth-limit": dict(type=_int, default=16)})

    psi = sub.add_parser("psi", help="apply a beta-set crystal isomorphism step")
    psi.add_argument("--e", type=_int, required=True)
    psi.add_argument("--charges", required=True, help="bicharge, e.g. 0,3")
    psi.add_argument("--bipartition", required=True, help='e.g. "6,5,2|4,1"')
    psi.add_argument("--inverse", action="store_true")
    psi.add_argument("--to-dominant", action="store_true",
                     help="compose steps into the stabilized regime instead of one step")
    psi.set_defaults(func=cmd_psi)

    export = sub.add_parser("crystal-export", help="export the level-1 crystal graph")
    export.add_argument("--e", type=_int, required=True)
    export.add_argument("--max-n", type=_int, required=True)
    export.add_argument("--format", choices=["dot", "json"], default="dot")
    export.set_defaults(func=cmd_crystal_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        if isinstance(getattr(args, "e", None), int):
            check_moduli([args.e])
        if hasattr(args, "jobs") and args.jobs is None:
            args.jobs = _default_jobs()
        return args.func(args)
    except ValueError as exc:
        print(f"mullineux: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""The program's layers as the traced run sees them.

Probe wraps public functions at the module attributes their callers look
up and, after a traced round, turns the spans and the program's public
outputs (MullineuxTrace trees, SweepReport.timings) into the per-layer
metrics listed in BENCHMARK.json.  Layer names follow the modules; `core`
stands for mullineux._core, whose kernels module is the selected backend.
"""

from __future__ import annotations

from tracer import Tracer

from mullineux import betamaps, cli, engine, partitions
from mullineux._core import kernels

TIMED = (
    "partitions.beta_set",
    "partitions.partition_from_beta_set",
    "core.psi_step",
    "core.psi_step_inverse",
    "core.mullineux",
    "betamaps.psi_bipartition",
    "betamaps.psi_bipartition_inverse",
    "betamaps.psi_tilde",
    "betamaps.psi_tilde_inverse",
    "betamaps.shortcut_applies",
    "engine.mullineux_conjectural",
    "engine.conjecture_tower",
)


class Probe:
    """A Tracer installed on every layer, plus the counts read from outputs."""

    def __init__(self):
        self.traces = []
        self.sweeps = []  # (report, span seconds, jobs)
        self.inverse_stages_skipped = 0
        t = self.tracer = Tracer()
        t.install("partitions.enumerate", [(engine, "enumerate_e_regular")], generator=True)
        t.install("partitions.beta_set", [(partitions, "beta_set"), (betamaps, "beta_set"), (engine, "beta_set")])
        t.install("partitions.partition_from_beta_set", [(betamaps, "partition_from_beta_set")])
        for name in ("psi_step", "psi_step_inverse", "mullineux"):
            t.install(f"core.{name}", [(kernels, name)])
        for name in ("psi_bipartition", "psi_bipartition_inverse", "psi_tilde", "psi_tilde_inverse"):
            t.install(f"betamaps.{name}", [(betamaps, name)])
        t.install("betamaps.shortcut_applies", [(betamaps, "shortcut_applies")], on_result=self._shortcut)
        t.install("engine.mullineux_conjectural", [(engine, "mullineux_conjectural")], on_result=self._recursion)
        t.install("engine.conjecture_tower", [(engine, "conjecture_tower")])
        t.install("engine.sweep", [(engine, "sweep_conjecture"), (engine, "cross_validate")], on_result=self._sweep)
        t.install("cli", [(cli, "main")])

    def _shortcut(self, applies, args, kwargs, parent, elapsed):
        if applies and parent == "betamaps.psi_tilde_inverse":
            self.inverse_stages_skipped += 1

    def _recursion(self, result, args, kwargs, parent, elapsed):
        self.traces.append(result[1])  # walked after the round, outside every span

    def _sweep(self, report, args, kwargs, parent, elapsed):
        self.sweeps.append((report, elapsed, kwargs.get("jobs", 1)))

    def metrics(self, rnd) -> dict:
        t = self.tracer
        out = {
            "partitions.enumerate.items": t.items["partitions.enumerate"],
            "partitions.enumerate.self_s": t.self_s["partitions.enumerate"],
        }
        for layer in TIMED:
            out[f"{layer}.calls"] = t.calls[layer]
            out[f"{layer}.self_s"] = t.self_s[layer]
        for layer in ("core.psi_step", "core.mullineux"):
            calls = t.calls[layer]
            out[f"{layer}.us_per_call"] = 1e6 * t.self_s[layer] / calls if calls else 0.0
        out["betamaps.inverse_stages_skipped"] = self.inverse_stages_skipped
        out.update(self._recursion_counts())
        out["engine.sweep.self_s"] = t.self_s["engine.sweep"]
        buckets = [s for report, _, _ in self.sweeps for s in report.timings.values()]
        busy = sum(buckets)
        out["engine.pool.busy_s"] = busy
        out["engine.pool.idle_s"] = sum(jobs * span for _, span, jobs in self.sweeps) - busy
        out["engine.pool.max_bucket_s"] = max(buckets, default=0.0)
        out["cli.self_s"] = t.self_s["cli"]
        out["cli.report_bytes"] = rnd.report_bytes
        return out

    def _recursion_counts(self) -> dict:
        nodes = base_cases = max_depth = 0
        keys = set()
        for root in self.traces:
            pending = [(root, 0)]
            while pending:
                node, depth = pending.pop()
                nodes += 1
                keys.add((node.partition, node.modulus))
                base_cases += node.base_case
                max_depth = max(max_depth, depth)
                pending.extend((child, depth + 1) for child in node.children)
        return {
            "engine.recursion_nodes": nodes,
            "engine.distinct_subproblems": len(keys),
            "engine.useful_share": len(keys) / nodes if nodes else 0.0,
            "engine.base_cases": base_cases,
            "engine.max_depth": max_depth,
        }

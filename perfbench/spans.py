"""Span tracing of chargeplane's layers from outside the package.

Each traced name is wrapped where the calling module binds it, so the same
function called from two modules (``eigen_decompose`` from ``trajectory`` and
from ``resonance``) yields two tagged span streams. Spans live in memory as
(name, tag, start, end, parent, info) and are aggregated into per-layer
counts and self times once the run ends; self time is a span's duration
minus the time covered by its direct children.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    tag: str
    start: float
    end: float
    parent: int
    info: dict = field(default_factory=dict)


def _matrix_order(args, kwargs, result):
    mat = args[0] if args else kwargs["mat"]
    return {"n": int(mat.shape[0])}


def _refine_info(args, kwargs, result):
    return {"iterations": int(result.iterations), "converged": bool(result.converged)}


def _search_info(args, kwargs, result):
    return {
        "unique": len(result),
        "plateau": sum(bool(r.stability is not None and r.stability.plateau) for r in result),
    }


def _text_bytes(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


def traced_names(cp):
    """(module, attribute, span name, tag, info hook) for every traced binding.

    `cp` is the imported chargeplane package. A binding a later version of the
    package no longer has is skipped when the tracer installs itself, and the
    layers it fed then report zero.
    """
    res, traj, ham, out = cp.resonance, cp.trajectory, cp.hamiltonian, cp.output
    return [
        (traj, "eigen_decompose", "eigensolver.eig", "in_sweep", _matrix_order),
        (res, "eigen_decompose", "eigensolver.eig", "in_refine", _matrix_order),
        (traj, "match_step", "trajectory.match_step", "",
         lambda a, k, r: {"flagged": len(r[1])}),
        (traj, "sweep", "trajectory.sweep", "", None),
        (res, "sweep", "trajectory.sweep", "", None),
        (res, "detect_crossings", "resonance.detect_crossings", "",
         lambda a, k, r: {"candidates": len(r)}),
        (res, "refine_resonance", "resonance.refine", "", _refine_info),
        (res, "stability_scan", "resonance.stability_scan", "",
         lambda a, k, r: {"points": len(r.entries)}),
        (res, "auto_search", "resonance.auto_search", "", _search_info),
        (traj, "RotatedHamiltonian", "hamiltonian.assemble", "", None),
        (res, "RotatedHamiltonian", "hamiltonian.assemble", "", None),
        (ham, "gauss_rule", "basis.gauss_rule", "", None),
        (out, "resonances_to_json", "output.format", "", _text_bytes),
    ]


class Tracer:
    """Records nested spans around the wrapped bindings while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _wrap(self, orig, name, tag, info_hook):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(Span(name, tag, 0.0, 0.0, stack[-1] if stack else -1))
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            except BaseException:
                spans[idx].info["error"] = True
                raise
            finally:
                spans[idx].start, spans[idx].end = start, time.perf_counter()
                stack.pop()
            if info_hook is not None:
                spans[idx].info.update(info_hook(args, kwargs, result))
            return result

        return wrapper

    @contextmanager
    def installed(self, bindings):
        """Patch every present binding for the duration of the block."""
        saved = []
        try:
            for module, attr, name, tag, info_hook in bindings:
                orig = getattr(module, attr, None)
                if orig is None:
                    continue
                saved.append((module, attr, orig))
                setattr(module, attr, self._wrap(orig, name, tag, info_hook))
            yield self
        finally:
            for module, attr, orig in reversed(saved):
                setattr(module, attr, orig)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for sp in spans:
        if sp.parent >= 0:
            child[sp.parent] += sp.end - sp.start
    return [sp.end - sp.start - c for sp, c in zip(spans, child)]


def layer_metrics(spans: list[Span], passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer counts, self times and ratios, each per traced pass.

    Every ratio is emitted next to the count that is its base.
    """
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    n3: dict[str, int] = defaultdict(int)
    sums: dict[str, int] = defaultdict(int)
    for sp, st in zip(spans, selfs):
        keys = [sp.name] + ([f"{sp.name}.{sp.tag}"] if sp.tag else [])
        for key in keys:
            calls[key] += 1
            self_s[key] += st
            if "n" in sp.info:
                n3[key] += sp.info["n"] ** 3
        for k, v in sp.info.items():
            if k != "n":
                sums[f"{sp.name}:{k}"] += int(v)

    def per_pass(x):
        return x / passes

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {}
    for key in ("eigensolver.eig", "eigensolver.eig.in_sweep", "eigensolver.eig.in_refine"):
        m[f"{key}.calls"] = (per_pass(calls[key]), "count")
        m[f"{key}.self_s"] = (per_pass(self_s[key]), "s")
        m[f"{key}.n3_sum"] = (per_pass(n3[key]), "N3_computed")

    refines = calls["resonance.refine"]
    m["resonance.refine.calls"] = (per_pass(refines), "count")
    m["resonance.refine.self_s"] = (per_pass(self_s["resonance.refine"]), "s")
    m["resonance.refine.iterations"] = (per_pass(sums["resonance.refine:iterations"]), "count")
    m["resonance.refine.eig_per_call"] = (
        ratio(calls["eigensolver.eig.in_refine"], refines), "eig/refine")
    m["resonance.refine.converged_ratio"] = (
        ratio(sums["resonance.refine:converged"], refines), "conv/refine")

    m["resonance.stability_scan.calls"] = (per_pass(calls["resonance.stability_scan"]), "count")
    m["resonance.stability_scan.points"] = (
        per_pass(sums["resonance.stability_scan:points"]), "count")
    m["resonance.stability_scan.self_s"] = (per_pass(self_s["resonance.stability_scan"]), "s")

    candidates = sums["resonance.detect_crossings:candidates"]
    unique = sums["resonance.auto_search:unique"]
    m["resonance.auto_search.candidates"] = (per_pass(candidates), "count")
    m["resonance.auto_search.unique"] = (per_pass(unique), "count")
    m["resonance.auto_search.useful_ratio"] = (ratio(unique, candidates), "unique/cand")
    m["resonance.auto_search.plateau_ratio"] = (
        ratio(sums["resonance.auto_search:plateau"], unique), "plateau/unique")
    m["resonance.detect_crossings.self_s"] = (per_pass(self_s["resonance.detect_crossings"]), "s")

    m["trajectory.sweep.calls"] = (per_pass(calls["trajectory.sweep"]), "count")
    m["trajectory.sweep.self_s"] = (per_pass(self_s["trajectory.sweep"]), "s")
    m["trajectory.match_step.calls"] = (per_pass(calls["trajectory.match_step"]), "count")
    m["trajectory.match_step.self_s"] = (per_pass(self_s["trajectory.match_step"]), "s")
    m["trajectory.flagged_steps"] = (per_pass(sums["trajectory.match_step:flagged"]), "count")

    for key in ("basis.gauss_rule", "hamiltonian.assemble"):
        m[f"{key}.calls"] = (per_pass(calls[key]), "count")
        m[f"{key}.self_s"] = (per_pass(self_s[key]), "s")

    m["output.format.calls"] = (per_pass(calls["output.format"]), "count")
    m["output.format.self_s"] = (per_pass(self_s["output.format"]), "s")
    m["output.format.bytes"] = (per_pass(sums["output.format:bytes"]), "bytes")
    return m

"""Per-layer spans recorded from outside the program.

A ``Tracer`` replaces the attributes that callers look up -- module-level
functions in every ``scbundle`` module that imported them, and methods on
their classes -- with wrappers that record a span per call.  Spans stay in
memory (name, start, end, parent, pass id, work count) and are written out
when the run ends; ``restore`` puts the original attributes back.  Nothing
in the program itself is edited.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from dataclasses import dataclass, replace
from typing import Callable, Optional

__all__ = ["Probe", "Span", "Tracer", "self_times", "per_layer_names", "PROBES"]


@dataclass(frozen=True)
class Probe:
    """One traced callable.

    ``target`` is ``module:attr`` or ``module:Class.attr``; ``name`` is the
    span name and metric prefix.  ``count`` maps the bound call arguments and
    the result to a work count (steps, points, bytes) summed into
    ``<name>.<count_name>``.  ``key`` maps the bound arguments to a hashable
    input key, giving ``<name>.distinct_ratio``.  ``wrap_result`` may return a
    traced replacement for the result (used to time lazily called batches).
    An ``inclusive`` probe reports only ``<name>_s``, its time including
    children (the verify suites).
    """

    target: str
    name: str
    count_name: Optional[str] = None
    count: Optional[Callable] = None
    key: Optional[Callable] = None
    wrap_result: Optional[Callable] = None
    inclusive: bool = False


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    pass_id: int = -1
    count: float = 0.0


def self_times(spans) -> list:
    """Self time of each span: its duration minus the durations of its
    direct children.  Spans are properly nested (one thread)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


# -- counters ------------------------------------------------------------------

def _flow_steps(args, result):
    return len(result) - 1


def _flow_key(args):
    X0 = args["X0"]
    return (float(X0.S), tuple(X0.P), tuple(X0.Q), float(args["T"]), float(args["dt"]))


def _fft_points(args, result):
    # Strang steps each transform forward and back, plus the final
    # resolution-guard transform (computed from the arguments, not measured).
    T, dt, size = float(args["T"]), float(args["dt"]), len(args["xs"])
    if T == 0.0:
        return 0
    return (2 * int(round(abs(T) / dt)) + 1) * size


def _orbit_points(args, result):
    return len(args["self"])


def _transform_bytes(args, result):
    # Source and new section values plus the lattice matrices and their
    # translates (computed from array sizes, not measured traffic).
    mats = args["psi"].sampling.group_mats
    return 2 * args["psi"].values.nbytes + 2 * mats.nbytes


def _kernel_nodes(args, result):
    return len(result.node_steps)


def _batch_rows(args, result):
    return len(args["rows"])


# pullback returns a base function whose batch runs later, inside multiply
_PULLBACK_BATCH = Probe("", "sections.pullback.batch", "rows", _batch_rows)


def _traced_pullback(tracer, result):
    if result.batch is None:
        return result
    return replace(result, batch=tracer.wrap_callable(_PULLBACK_BATCH, result.batch))


PROBES = (
    Probe("scbundle.groups:exp", "groups.exp"),
    Probe("scbundle.groups:LieGroup.compose_exps", "groups.LieGroup.compose_exps"),
    Probe("scbundle.groups:factorize_second_kind", "groups.factorize_second_kind"),
    Probe("scbundle.fiber:quadratic_hamiltonian", "fiber.quadratic_hamiltonian"),
    Probe("scbundle.fiber:unitarity_residual", "fiber.unitarity_residual"),
    Probe("scbundle.dynamics:classical_flow", "dynamics.classical_flow",
          "steps", _flow_steps, _flow_key),
    Probe("scbundle.dynamics:fluctuation_propagator", "dynamics.fluctuation_propagator"),
    Probe("scbundle.dynamics:reference_schrodinger", "dynamics.reference_schrodinger",
          "fft_points", _fft_points),
    Probe("scbundle.dynamics:evolution_automorphism", "dynamics.evolution_automorphism"),
    Probe("scbundle.actions:BundleAction.base_points", "actions.BundleAction.base_points"),
    Probe("scbundle.actions:BundleAction.fiber_matrix", "actions.BundleAction.fiber_matrix"),
    Probe("scbundle.sections:OrbitSampling.__init__", "sections.OrbitSampling",
          "points", _orbit_points),
    Probe("scbundle.sections:OrbitSampling.indices_of_matrices",
          "sections.OrbitSampling.indices_of_matrices"),
    Probe("scbundle.sections:section_transform", "sections.section_transform",
          "bytes_computed", _transform_bytes),
    Probe("scbundle.sections:pullback", "sections.pullback",
          wrap_result=_traced_pullback),
    Probe("scbundle.sections:evaluator_transform", "sections.evaluator_transform"),
    Probe("scbundle.sections:pairing", "sections.pairing"),
    Probe("scbundle.sections:Section.from_field", "sections.Section.from_field"),
    Probe("scbundle.sections:smooth_probe_section", "sections.smooth_probe_section"),
    Probe("scbundle.sections:gentle_probe_section", "sections.gentle_probe_section"),
    Probe("scbundle.generators:lattice_kernel", "generators.lattice_kernel",
          "nodes", _kernel_nodes),
    Probe("scbundle.generators:garding_smooth", "generators.garding_smooth"),
    Probe("scbundle.generators:generator_apply", "generators.generator_apply"),
    Probe("scbundle.generators:base_derivative", "generators.base_derivative"),
    Probe("scbundle.reconstruction:exponentiate_generator",
          "reconstruction.exponentiate_generator"),
    Probe("scbundle.reconstruction:reconstruct_group_operator",
          "reconstruction.reconstruct_group_operator"),
    Probe("scbundle.reconstruction:word_identity_check",
          "reconstruction.word_identity_check"),
    Probe("scbundle.reconstruction:group_law_verify", "reconstruction.group_law_verify"),
    Probe("scbundle.reconstruction:conjugation_check", "reconstruction.conjugation_check"),
    Probe("scbundle.gauge:GaugeBundle.__init__", "gauge.GaugeBundle"),
    Probe("scbundle.gauge:GaugeBundle.gauge_transform", "gauge.GaugeBundle.gauge_transform"),
    Probe("scbundle.gauge:compensator_relations_check", "gauge.compensator_relations_check"),
    Probe("scbundle.gauge:gauge_equivalent", "gauge.gauge_equivalent"),
    Probe("scbundle.scenarios:load_scenario", "scenarios.load_scenario"),
    Probe("scbundle.scenarios:Scenario.build_action", "scenarios.Scenario.build_action"),
    Probe("scbundle.report:Report.to_json", "report.Report.to_json"),
    Probe("scbundle.verify:lie_checks", "verify.lie", inclusive=True),
    Probe("scbundle.verify:dynamics_checks", "verify.dynamics", inclusive=True),
    Probe("scbundle.verify:section_checks", "verify.sections", inclusive=True),
    Probe("scbundle.verify:generator_checks", "verify.generators", inclusive=True),
    Probe("scbundle.verify:reconstruction_checks", "verify.reconstruction", inclusive=True),
    Probe("scbundle.verify:gauge_checks", "verify.gauge", inclusive=True),
)


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self, probes=PROBES):
        self.probes = tuple(probes)
        self.spans: list = []
        self.keys: dict = {}          # (pass id, span name) -> set of input keys
        self.pass_id = -1
        self._stack: list = []
        self._saved: list = []        # (owner, attr, original) to restore

    # -- recording -------------------------------------------------------------

    def wrap_callable(self, probe: Probe, fn: Callable) -> Callable:
        """A callable that behaves as ``fn`` and records one span per call."""
        tracer = self
        needs_args = probe.count is not None or probe.key is not None
        signature = inspect.signature(fn) if needs_args else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(probe.name, time.perf_counter(),
                        parent=tracer._stack[-1] if tracer._stack else -1,
                        pass_id=tracer.pass_id)
            index = len(tracer.spans)
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if needs_args:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if probe.count is not None:
                    span.count = float(probe.count(bound.arguments, result))
                if probe.key is not None:
                    tracer.keys.setdefault((span.pass_id, probe.name), set()).add(
                        probe.key(bound.arguments))
            if probe.wrap_result is not None:
                result = probe.wrap_result(tracer, result)
            return result

        return traced

    # -- installation ----------------------------------------------------------

    def install(self) -> "Tracer":
        for probe in self.probes:
            module_name, _, path = probe.target.partition(":")
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                self._patch_method(getattr(module, cls_name), attr, probe)
            else:
                self._patch_function(module, path, probe)
        return self

    def _patch_function(self, module, attr: str, probe: Probe) -> None:
        original = getattr(module, attr)
        traced = self.wrap_callable(probe, original)
        # every module that imported the function holds its own binding
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "scbundle" or name.startswith("scbundle.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, key, original))
                    setattr(mod, key, traced)

    def _patch_method(self, cls, attr: str, probe: Probe) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            traced = staticmethod(self.wrap_callable(probe, raw.__func__))
        else:
            traced = self.wrap_callable(probe, raw)
        self._saved.append((cls, attr, raw))
        setattr(cls, attr, traced)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- reduction -------------------------------------------------------------

    def _pass_metrics(self, rows: dict, pass_id) -> dict:
        """Metrics of one pass from its {span name: [calls, self s, inclusive s,
        count]} totals."""
        out = {}
        for probe in self.probes + (_PULLBACK_BATCH,):
            calls, own, incl, count = rows.get(probe.name, (0, 0.0, 0.0, 0.0))
            if probe.inclusive:
                out[probe.name + "_s"] = incl
                continue
            out[probe.name + ".calls"] = calls
            out[probe.name + ".self_s"] = own
            if probe.count_name:
                out[f"{probe.name}.{probe.count_name}"] = count
            if probe.key is not None:
                distinct = len(self.keys.get((pass_id, probe.name), ()))
                out[probe.name + ".distinct_ratio"] = distinct / calls if calls else 0.0
        return out

    def layer_metrics(self, pass_ids) -> dict:
        """Per-layer metrics, each the median over the given passes."""
        totals: dict = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            row = totals.setdefault(span.pass_id, {}).setdefault(span.name, [0, 0.0, 0.0, 0.0])
            row[0] += 1
            row[1] += own
            row[2] += span.end - span.start
            row[3] += span.count
        per_pass = [self._pass_metrics(totals.get(pid, {}), pid) for pid in pass_ids]
        return {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}

    def write(self, path) -> None:
        """Spans as JSON lines (name, start, end, parent, pass, count, self_s)."""
        with open(path, "w") as fh:
            for span, own in zip(self.spans, self_times(self.spans)):
                fh.write(json.dumps({
                    "name": span.name, "start": span.start, "end": span.end,
                    "parent": span.parent, "pass": span.pass_id,
                    "count": span.count, "self_s": own}) + "\n")


def per_layer_names(probes=PROBES) -> list:
    """Every per-layer metric name the tracer reports, in a fixed order."""
    return list(Tracer(probes)._pass_metrics({}, None))

"""Tests of the benchmark's own code.  Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from scbundle import groups, sections, verify  # noqa: E402
from scbundle.scenarios import load_scenario  # noqa: E402

import run  # noqa: E402
from tracing import PROBES, Probe, Span, Tracer, per_layer_names, self_times  # noqa: E402
from workloads import WORKLOADS, PassResult, Workload, run_pass  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_direct_children_only():
    spans = [Span("root", 0.0, 10.0),
             Span("a", 1.0, 4.0, parent=0),
             Span("a.inner", 2.0, 3.0, parent=1),
             Span("b", 5.0, 7.0, parent=0)]
    assert self_times(spans) == [5.0, 2.0, 1.0, 2.0]


def test_self_times_sum_to_root_duration():
    spans = [Span("root", 0.0, 8.0), Span("x", 1.0, 6.0, parent=0),
             Span("y", 2.0, 5.5, parent=1), Span("z", 6.5, 7.0, parent=0)]
    assert sum(self_times(spans)) == pytest.approx(8.0)


def test_tracer_nests_spans_and_restores_attributes():
    original_factorize = groups.factorize_second_kind
    original_compose = groups.LieGroup.compose_exps
    probes = [Probe("scbundle.groups:factorize_second_kind", "f"),
              Probe("scbundle.groups:LieGroup.compose_exps", "c")]
    heis = groups.get_group("heisenberg")
    g = groups.exp(heis.algebra([0.1, 0.2, 0.3]))
    tracer = Tracer(probes)
    with tracer:
        # every importing module sees the wrapper, not just the defining one
        assert verify.factorize_second_kind is groups.factorize_second_kind
        assert groups.factorize_second_kind is not original_factorize
        groups.factorize_second_kind(g)
    assert groups.factorize_second_kind is original_factorize
    assert verify.factorize_second_kind is original_factorize
    assert groups.LieGroup.compose_exps is original_compose
    outer, inner = tracer.spans
    assert (outer.name, inner.name, inner.parent) == ("f", "c", 0)
    own = self_times(tracer.spans)
    assert own[0] == pytest.approx((outer.end - outer.start) - (inner.end - inner.start))


def test_wrapping_leaves_return_values_unchanged():
    heis = groups.get_group("heisenberg")
    A = heis.algebra([0.3, -0.2, 0.1])
    scn = load_scenario("so2-rotor")
    action, _ = scn.build_action()
    sampling = scn.build_sampling(action)
    field = lambda mats: np.ones((mats.shape[0], sampling.fiber_dim), dtype=complex)
    alpha = sections.BaseFunction(fn=lambda X: X.Q[0], batch=lambda rows: rows[:, 2] + 0j)
    g = action.group.element(action.group.compose_exps([sampling.spacings[0]]))

    plain = (groups.exp(A, 0.7).matrix, sections.Section.from_field(sampling, field).values,
             sections.pullback(action, g, alpha).eval_on(sampling))
    tracer = Tracer()
    with tracer:
        traced = (groups.exp(A, 0.7).matrix, sections.Section.from_field(sampling, field).values,
                  sections.pullback(action, g, alpha).eval_on(sampling))
    for a, b in zip(plain, traced):
        assert np.array_equal(a, b)
    rows = [s.count for s in tracer.spans if s.name == "sections.pullback.batch"]
    assert rows == [len(sampling)]


def test_traced_pass_output_is_byte_identical():
    workload = WORKLOADS["small-groups-verify"]
    plain = run_pass(workload)
    with Tracer():
        traced = run_pass(workload)
    assert traced.output == plain.output
    assert traced.operations == plain.operations > 0


def test_every_metric_name_is_well_formed():
    spec = _spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_declared_per_layer_metrics_match_the_tracer():
    declared = [m["name"] for m in _spec()["per_layer"]]
    assert sorted(declared) == sorted(
        per_layer_names() + ["trace.overhead_ratio", "verify.suite_errors"])
    tracer = Tracer(PROBES)
    assert sorted(tracer.layer_metrics([0])) == sorted(per_layer_names())


def test_declared_workloads_match_the_code():
    assert _spec()["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]


def test_tail_has_ten_samples_beyond_it():
    samples = list(range(25))
    value, pct = run.tail(samples)
    assert sum(s > value for s in samples) == 10
    assert pct == pytest.approx(60.0)
    assert run.tail(list(range(10))) == (None, None)


def test_only_unknown_fail_verdicts_and_mismatches_count_as_failed():
    workload = Workload("w", "why", (), known_failures=("a: known", "a: known_error"))
    warmup = PassResult(1.0, "out", operations=5, failing_checks=["a: known"])
    same = PassResult(1.0, "out", operations=5, failing_checks=["a: known"],
                      errors=["a: known_error"])
    new_fail = PassResult(1.0, "out", operations=5, failing_checks=["a: known", "a: new"])
    errored = PassResult(1.0, "out", operations=5, errors=["a: raised"])
    differs = PassResult(1.0, "other", operations=5)
    passes = [run.Timed(False, p) for p in (same, new_fail, errored, differs)]
    outcome = run._outcome(workload, warmup, passes)
    assert (outcome["attempted"], outcome["failed"], outcome["report_mismatch"]) == (20, 7, 1)
    assert not outcome["correct"]
    assert run._outcome(workload, warmup, passes[:1])["correct"]

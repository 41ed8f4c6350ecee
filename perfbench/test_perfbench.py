"""Tests of the benchmark itself: ``python3 -m pytest perfbench`` from the repository root."""

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import corpus  # noqa: E402
from spans import SpanRecorder, bindings, patch, self_times  # noqa: E402
from worker import Record  # noqa: E402
from workloads import ExtensionMaps, MeasuresSweep, evaluate  # noqa: E402


@pytest.mark.parametrize("make", [corpus.measures_corpus, corpus.quantumness_corpus])
def test_corpus_is_identical_for_the_same_seed(make, tmp_path):
    first, second, other = make(7), make(7), make(8)
    assert [label for label, _ in first] == [label for label, _ in second]
    for (_, a), (_, b) in zip(first, second):
        assert np.array_equal(a, b)
    assert any(not np.array_equal(a, b) for (_, a), (_, b) in zip(first, other))
    corpus.write_state(tmp_path / "a.json", first[0][1])
    corpus.write_state(tmp_path / "b.json", second[0][1])
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_extension_grid_is_identical_for_the_same_seed():
    assert corpus.extension_grid(7) == corpus.extension_grid(7) != corpus.extension_grid(8)


def test_self_time_is_span_time_minus_child_time():
    # op [0, 10] holds a [1, 6] (which holds b [2, 4]) and a second a [7, 9].
    spans = [
        ("op", 0.0, 10.0, -1, 0),
        ("a", 1.0, 6.0, 0, 0),
        ("b", 2.0, 4.0, 1, 0),
        ("a", 7.0, 9.0, 0, 0),
    ]
    assert self_times(spans) == {"op": (1, 3.0), "a": (2, 5.0), "b": (1, 2.0)}


def test_recorder_nests_spans_through_patched_bindings():
    import types

    module = types.ModuleType("qcorr_fake")
    module.inner = lambda: 1
    module.outer = lambda: module.inner() + 1
    sys.modules["qcorr_fake"] = module
    try:
        rec = SpanRecorder()
        inner, outer = module.inner, module.outer
        restore = patch(
            [(m, a, rec.span("inner", inner)) for m, a in bindings(inner, "qcorr_fake")]
            + [(m, a, rec.span("outer", outer)) for m, a in bindings(outer, "qcorr_fake")]
        )
        assert module.outer() == 2
        restore()
        assert module.inner is inner and module.outer is outer
    finally:
        del sys.modules["qcorr_fake"]
    (name0, s0, e0, parent0, _), (name1, s1, e1, parent1, _) = rec.spans
    assert (name0, parent0, name1, parent1) == ("outer", -1, "inner", 0)
    assert s0 <= s1 <= e1 <= e0


def test_wrong_measures_output_is_a_failed_op(tmp_path):
    workload = MeasuresSweep(3, tmp_path, ROOT)
    bell = next(op for op in workload.ops if op[0] == "bell")
    good = workload.run(bell)
    bad = copy.deepcopy(good)
    bad["measures"]["discord"] += 1e-3
    records = [Record(bell, 0.1, good, None), Record(bell, 0.1, bad, None), Record(bell, 0.1, None, "RuntimeError: exit 3")]
    failures = evaluate(workload, records)
    assert len(failures) == 2
    assert failures[0].startswith("op 1 (bell)") and "mutual information" in failures[0]
    assert failures[1].startswith("op 2 (bell)")


def test_wrong_map_output_is_a_failed_op(tmp_path):
    workload = ExtensionMaps(3, tmp_path, ROOT)
    good = workload.run(workload.ops[0])
    bad = dict(good, verdict="CP")
    failures = evaluate(workload, [Record(workload.ops[0], 0.01, good, None), Record(workload.ops[0], 0.01, bad, None)])
    assert len(failures) == 1 and "NCP" in failures[0]


def test_quantumness_checks_catch_each_defect():
    ref = {"coherent_bound": checks.coherent_information_bound(corpus.bell()), "bell": True}
    assert ref["coherent_bound"] == pytest.approx(1.0)
    good = {"quantumness": {"upper_bound": 1.0, "marginal_residual": 0.0}}
    assert checks.check_quantumness(good, ref) == []
    for key, value in (("upper_bound", float("inf")), ("upper_bound", 0.5), ("marginal_residual", 1e-3)):
        bad = {"quantumness": dict(good["quantumness"], **{key: value})}
        assert checks.check_quantumness(bad, ref)

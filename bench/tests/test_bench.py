"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q bench/tests

They use shortened workloads; nothing here pins the program's call
counts, which later changes to the program are expected to move.
"""

import json
import os
import shutil
import subprocess
import sys
from argparse import Namespace
from fractions import Fraction as F

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def program():
    return workloads.load_program()


def _brute_force(n, k):
    """(max size, number of maximum sets) by listing every k-sum-free set."""
    best, count = 0, 0

    def grow(chosen, start):
        nonlocal best, count
        if len(chosen) > best:
            best, count = len(chosen), 0
        if len(chosen) == best:
            count += 1
        for e in range(start, n + 1):
            if oracle.int_sum_free(chosen + [e], k):
                grow(chosen + [e], e + 1)

    grow([], 1)
    return best, count


@pytest.fixture
def small(monkeypatch, program):
    """Workloads cut down to a few seconds, with their own answers."""
    monkeypatch.setattr(workloads, "OPTIMIZE_ITERATIONS", 60)
    monkeypatch.setattr(workloads, "DISCRETE_PINS",
                        {(16, 3): _brute_force(16, 3), (16, 4): _brute_force(16, 4)})

    def make(name):
        if name == "certify":
            return workloads.Certify(program, 5, size=24)
        wl = workloads.WORKLOADS[name](program, 5)
        if name == "optimize":
            wl.items = [1, 2]
        return wl

    return make


# -- oracle and corpus ---------------------------------------------------------


def test_extremal_family_reference():
    assert oracle.measure(oracle.A0) == F(77, 177)
    for i in range(8):
        assert oracle.is_k_sum_free(oracle.extremal(i))
    assert not oracle.is_k_sum_free(oracle.with_endpoints(0b010, 0b111))
    assert not oracle.is_k_sum_free(((F(0), F(1), True, True),))


def test_corpus_is_deterministic_per_seed():
    a, b, c = oracle.corpus(11, 60), oracle.corpus(11, 60), oracle.corpus(12, 60)
    assert a == b
    assert [x.text for x in a] != [x.text for x in c]


def test_corpus_composition():
    cases = oracle.corpus(3)
    texts = {c.text for c in cases}
    assert len(cases) == 200
    assert all(oracle.text(oracle.extremal(i)) in texts for i in range(8))
    assert 0.1 < sum(not c.sum_free for c in cases) / 200 < 0.3
    assert 0.3 < sum(c.dense for c in cases) / 200 < 0.5
    assert min(len(c.pieces) for c in cases) >= 3
    assert all(oracle.sorted_disjoint(c.pieces) for c in cases)


def test_corpus_verdicts_agree_with_piece_test():
    for case in oracle.corpus(4, 80):
        assert oracle.is_k_sum_free(case.pieces) == case.sum_free, case.text


# -- tracing -------------------------------------------------------------------


def test_patch_reaches_every_binding(program):
    targets, classes = workloads.trace_targets(program)
    before = tracing.unpatched_bindings(targets, classes=classes)
    owners = {(getattr(o, "__name__", o), a) for o, a, _ in before}
    for expected in [("sumfree.constructions", "is_k_sum_free"),
                     ("sumfree.lemmas", "is_k_sum_free"), ("sumfree.optimize", "is_k_sum_free"),
                     ("sumfree.cli", "is_k_sum_free"), ("sumfree.optimize", "forbidden_region"),
                     ("sumfree.cli", "forbidden_region"), ("sumfree.trace", "construct_extremal"),
                     ("sumfree.trace", "check_tail_bound"), ("IntervalSet", "__or__"),
                     ("IntervalSet", "__add__"), ("IntervalSet", "__and__"),
                     ("IntervalSet", "__sub__"), ("IntervalSet", "__xor__")]:
        assert expected in owners
    tracer = tracing.Tracer()
    with tracing.patched(tracer, targets, classes=classes):
        assert tracing.unpatched_bindings(targets, classes=classes) == []
        iset = program["sumfree"].IntervalSet
        a, b = iset.parse("(0,1/3)"), iset.parse("(1/2,1)")
        _ = (a | b, a + b, a & b, a - b, a ^ b)
    assert tracing.unpatched_bindings(targets, classes=classes) == before
    calls = {name: n for name, (n, _) in tracer.self_times().items()}
    for op in ("parse", "union", "minkowski", "intersect", "difference", "symmetric_difference"):
        assert calls[f"intervals.{op}"] >= 1


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.spans[:] = [("outer", 0.0, 10.0, None, 0), ("inner", 1.0, 4.0, 0, 0),
                       ("inner", 5.0, 6.0, 0, 0)]
    assert tracer.self_times() == {"outer": (1, 6.0), "inner": (2, 4.0)}
    assert tracer.count_within("inner", "outer") == 2


# -- host speed ------------------------------------------------------------------


def test_probe_takes_its_samples_out_of_a_span_and_scales_by_them():
    probe = speed.Probe()
    probe.samples[:] = [(0.0, 0.002), (1.0, 0.004), (2.0, 0.006), (3.0, 0.001), (9.0, 0.5)]
    assert probe.net(0.5, 2.5) == pytest.approx(2.0 - 0.010)
    # (0.5, 1.0) ran at the speed of samples 0-2, (1.004, 2.0) of 0-3
    # and (2.006, 2.5) of 1-4, medians 0.004, 0.003 and 0.005
    expected = 0.5 / 0.004 + 0.996 / 0.003 + 0.494 / 0.005
    assert probe.scaled(0.5, 2.5) == pytest.approx(speed.REFERENCE_S * expected)
    # before the first sample, at the speed of samples 0-1
    assert probe.scaled(-1.0, 0.0) == pytest.approx(speed.REFERENCE_S / 0.003)
    with speed.Probe(interval=0.01) as live:
        start = run.perf_counter()
        while run.perf_counter() - start < 0.2:
            pass
        end = run.perf_counter()
    assert len(live.samples) >= 3
    assert 0 < live.net(start, end) < end - start and live.scaled(start, end) > 0


@pytest.mark.parametrize("name", ["certify", "optimize", "discrete"])
def test_traced_run_matches_untraced_and_repeats_counts(small, program, name):
    first, lines = run.traced_run(small(name), program)
    second, _ = run.traced_run(small(name), program)
    assert first["correct"] and second["correct"], lines
    assert first["failed"] == 0
    declared = {m["name"] for m in _declared("per_layer")
                if not m["name"].startswith("discrete.search_s.")}
    declared |= {f"discrete.search_s.n{n}k{k}" for n, k in workloads.DISCRETE_PINS}
    assert set(first["metrics"]) == declared
    for metric, m in first["metrics"].items():
        if m["unit"] in ("count", "ratio", "measure"):
            assert m["value"] == second["metrics"][metric]["value"], metric


def test_layers_a_workload_bypasses_read_zero(small, program):
    metrics = run.traced_run(small("discrete"), program)[0]["metrics"]
    assert metrics["discrete.nodes"]["value"] > 0
    assert metrics["intervals.union.calls"]["value"] == 0
    assert metrics["predicates.is_k_sum_free.calls"]["value"] == 0


# -- failure detection -----------------------------------------------------------


def test_wrong_expected_answer_fails_the_run(small, program, monkeypatch):
    (n, k), (size, count) = next(iter(workloads.DISCRETE_PINS.items()))
    monkeypatch.setitem(workloads.DISCRETE_PINS, (n, k), (size, count + 1))
    report, _ = run.traced_run(small("discrete"), program)
    assert not report["correct"] and report["failed"] == 1


def test_wrong_verdict_fails_certify(small, program):
    wl = small("certify")
    case = wl.items[0]
    wl.items[0] = oracle.Case(case.text, case.pieces, not case.sum_free, case.measure,
                              case.sup, case.containers)
    report, _ = run.traced_run(wl, program)
    assert not report["correct"]


def test_timed_run_reports_every_end_to_end_metric(small, monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    args = Namespace(workload="discrete", seed=5, seconds=0.1, trace=0)
    report, _ = run.timed_run(small("discrete"), args)
    assert report["correct"] and report["attempted"] >= 1
    assert set(report["metrics"]) == {m["name"] for m in _declared("end_to_end")}
    assert all(m["value"] > 0 for m in report["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(run.ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "discrete", "--seed",
                           "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout


def _declared(kind):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)[kind]

"""Checks on the benchmark itself: trace neutrality, failure counting, output contract.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys

import pytest

import tracing
import workloads as W

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
TINY = W.WORKLOADS["train-tiny"]

T = importlib.import_module("sfinet.tensor")


def _wrapped_targets():
    targets = [("sfinet.tensor", op) for op in tracing.TENSOR_OPS]
    targets += [("sfinet.reconstitution", op) for op in tracing.SIR_OPS]
    targets += [(m, p) for m, p, _ in tracing.LAYER_SPANS]
    targets += [("sfinet.tensor", "node"), ("sfinet.reconstitution", "node"),
                ("sfinet.model", "SFINet.zero_grad"), ("sfinet.model", "SFINet.__init__"),
                ("sfinet.train", "sgd_momentum_step"), ("sfinet.train", "evaluate"),
                ("sfinet.config", "make_synthetic")]
    out = {}
    for module, path in targets:
        owner, name = tracing._resolve(module, path)
        out[(module, path)] = vars(owner)[name]
    return out


def test_traced_run_is_bit_identical_and_unwraps():
    before = _wrapped_targets()
    untraced = W.run_experiment(TINY, 7)
    tracer = tracing.Tracer()
    traced = W.run_experiment(TINY, 7, tracer)
    assert untraced.csv is not None and untraced.problem is None
    assert (traced.csv, traced.params) == (untraced.csv, untraced.params)
    assert tracer.missing == []
    assert _wrapped_targets() == before
    metrics = tracer.metrics()
    # exact counts: 18 training samples per epoch, 5 steps (4 full batches and one of 2)
    assert metrics["tensor.op.add_n.calls"][0] == pytest.approx(1 + 5 / 18, abs=0)
    assert metrics["tensor.nodes_per_sample"][0] * 36 == tracer.train.nodes


def test_node_count_and_bytes_repeat_exactly():
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        W.run_experiment(TINY, 11, tracer)
        counts.append((tracer.train.nodes, tracer.train.bytes, dict(tracer.train.op_calls)))
    assert counts[0] == counts[1]


def test_abort_counts_every_remaining_op_as_failed(monkeypatch):
    # each tiny training sample takes log three times (two filter stages,
    # one class loss); fail the 25th call, i.e. inside the third step
    real_log = T.log
    calls = [0]

    def failing_log(a):
        calls[0] += 1
        if calls[0] == 25:
            raise T.NonFiniteError("op 'log' produced non-finite values")
        return real_log(a)

    monkeypatch.setattr(T, "log", failing_log)
    exp = W.run_experiment(TINY, 3)
    assert exp.abort is not None and "op 'log'" in exp.abort
    steps, evals = 2 * 5, 2 * 6
    assert exp.attempted == steps + evals
    assert exp.failed == (steps - 2) + evals
    assert exp.csv is None

    run = W.Run()
    run.add(exp)
    assert run.failed == exp.failed and not run.correct


def test_repeat_mismatch_is_failed():
    run = W.Run()
    first = W.run_experiment(TINY, 5)
    other = W.run_experiment(TINY, 6)
    run.add(first)
    run.add(other)
    assert run.failed == other.attempted
    assert not run.correct


@pytest.mark.parametrize("trace", [False, True])
def test_measure_reports_the_declared_metrics(trace):
    with open(SPEC) as fh:
        spec = json.load(fh)
    run, metrics = W.measure("train-tiny", 1, 0.01, trace)
    assert run.correct, run.problems
    assert run.failed == 0 and run.attempted > 0
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: u for k, (_, u) in metrics.items()}
    assert {w["name"] for w in spec["workloads"]} <= set(W.WORKLOADS)
    assert all(v == v and v >= 0 for v, _ in metrics.values())


def test_tail_percentile_keeps_ten_samples_beyond():
    assert W.tail_percentile(1000) == 90
    assert W.tail_percentile(100) == 90
    assert W.tail_percentile(64) == 84
    for n in (11, 20, 64, 99, 100):
        pct = W.tail_percentile(n)
        beyond = n - (pct * n + 99) // 100  # samples above the nearest-rank position
        assert beyond >= 10


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train-tiny",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert '"correct"' not in proc.stdout

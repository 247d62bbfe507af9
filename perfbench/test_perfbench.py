"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, os.path.join(run.ROOT, "src"))

import fsing  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


@pytest.fixture(autouse=True)
def in_root(monkeypatch):
    monkeypatch.chdir(run.ROOT)
    yield
    workloads.cleanup()


def test_inputs_depend_only_on_the_seed():
    for make in (inputs.suite_inputs, inputs.modify_inputs):
        assert next(make(3)) == next(make(3))
        assert next(make(3)) != next(make(4))


def test_irreducible_matches_fsing():
    rng = random.Random(7)
    for p in (2, 3, 5):
        for _ in range(40):
            n, t, terms = inputs.suite_draw(rng, p)
            exps = {tuple(int(i in m) for i in range(n)): c for m, c in terms.items()}
            f = fsing.Poly.make(fsing.build_field(p), fsing.VarCtx(f"x{i}" for i in range(n)), exps)
            assert inputs.irreducible(terms, p) == fsing.is_irreducible_sqfree(f)
            assert fsing.disjoint_factorization(f).t == t


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run(workload, trace):
    # The default seed also checks every report against the recorded digests;
    # the traced run checks that the untraced replay reproduces its reports.
    result = run.run(workload, run.DEFAULT_SEED, 0, trace, min_inputs=4, whole_cycles=False,
                     report=lambda _: None)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 4
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_traced_and_untraced_reports_identical(workload):
    pool = next(workloads.cycles(workload, 5))[:6]
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = [workloads.verify(item, tracer.run_input(k, workloads.execute, item))
                  for k, item in enumerate(pool)]
    finally:
        tracer.remove()
    untraced = [workloads.verify(item, workloads.execute(item)) for item in pool]
    assert traced == untraced
    assert all(error is None for error, _ in traced)
    assert tracer.layer_totals()[spans.ROOT_SPAN][0] == len(pool)


def test_every_binding_is_patched_and_restored():
    originals = {
        (module_name, attr): getattr(sys.modules[module_name], attr)
        for module_name, attr, _ in spans.TRACED
        if not attr.startswith("Poly.")
    }
    holders = [
        (mod, key)
        for name, mod in sys.modules.items()
        if name == "fsing" or name.startswith("fsing.")
        for key, value in vars(mod).items()
        if any(value is fn for fn in originals.values())
    ]
    assert len(holders) > len(originals)  # imported names are bound more than once
    before = {(mod, key): getattr(mod, key) for mod, key in holders}
    evaluate = vars(fsing.poly.Poly)["evaluate"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for mod, key in holders:
            assert getattr(mod, key) is not before[(mod, key)], (mod.__name__, key)
        assert vars(fsing.poly.Poly)["evaluate"] is not evaluate
    finally:
        tracer.remove()
    for mod, key in holders:
        assert getattr(mod, key) is before[(mod, key)]
    assert vars(fsing.poly.Poly)["evaluate"] is evaluate


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    inner = tracer.span("inner", lambda: sum(range(20000)))
    outer = tracer.span("outer", lambda: inner() + inner())
    outer()
    totals = tracer.layer_totals()
    total_outer = tracer.spans[0][2] - tracer.spans[0][1]
    inner_ns = sum(s[2] - s[1] for s in tracer.spans[1:])
    assert totals["inner"][0] == 2 and totals["outer"][0] == 1
    assert totals["outer"][1] == pytest.approx((total_outer - inner_ns) / 1e9)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "work", "out"))
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""

"""The sweep benchmark's declared shapes and traced names, checked against
the package.

perfbench/workloads.py and perfbench/run.py import only the standard
library and their perfbench siblings, so they are loaded here by file path;
a workload whose declared cutoffs the policy no longer picks, or a traced
name that no longer exists, would otherwise show up only inside a benchmark
run (a missing name changes the shape of a traced run's result line).
The benchmark's row gate (perfbench/gate.py) is checked here on every
committed config, so a config that the gate would fail shows up in tier-1.
A traced sweep (perfbench/child.py) of every workload is run here too, and
its per-layer metrics must make a strict-JSON result line that carries
every per-layer name of BENCHMARK.json, so a break of the traced line on
one workload alone fails here.
"""

import dataclasses
import glob
import importlib.util
import json
import math
import os
import subprocess
import sys

import pytest

import gibbslab as gl

ROOT = os.path.join(os.path.dirname(__file__), "..")
BENCH = os.path.join(ROOT, "perfbench")


def _load(name):
    """perfbench/<name>.py as a module; its sibling imports resolve in
    perfbench/."""
    path = os.path.join(BENCH, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    sys.path.insert(0, BENCH)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(BENCH)
    return module


WORKLOADS = _load("workloads")
GATE = _load("gate")
RUN = _load("run")
TRACED = sorted({name for names in RUN.SELF_TIME_METRICS.values()
                 for name in names} | set(RUN.CALL_METRICS.values()))


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_workload_declared_shapes_match_the_tail_policy(name):
    workload = WORKLOADS.WORKLOADS[name]
    base = gl.read_config(os.path.join(ROOT, WORKLOADS.BASE_CONFIG))
    cfg = dataclasses.replace(base, **workload.overrides)
    for key, value in workload.declared.items():
        got = getattr(cfg, key)
        assert (list(got) if key == "T_schedule" else got) == value, key
    basis, _ = gl.convergence.resolve(cfg)
    n_max = tuple(gl.choose_n_max(basis.eigenvalues, T,
                                  tail=cfg.n_max_policy,
                                  dim_budget=cfg.dim_budget)
                  for T in cfg.T_schedule)
    assert n_max == workload.n_max
    assert tuple(gl.build_fock_basis(cfg.K, n, cfg.dim_budget).dim
                 for n in n_max) == workload.dims


def _unresolved(names):
    """The layer.function names with no callable of that name in their
    gibbslab module."""
    out = []
    for name in names:
        layer, attr = name.split(".")
        module = importlib.import_module(f"gibbslab.{layer}")
        if not callable(getattr(module, attr, None)):
            out.append(name)
    return out


def test_every_traced_benchmark_name_resolves():
    assert "fock.eigh" in TRACED and "semiclassics.husimi_density" in TRACED
    assert _unresolved(TRACED) == []


def test_a_deleted_traced_name_is_caught(monkeypatch):
    monkeypatch.delattr(importlib.import_module("gibbslab.semiclassics"),
                        "husimi_density")
    assert _unresolved(TRACED) == ["semiclassics.husimi_density"]


@pytest.mark.parametrize("name", sorted(
    os.path.basename(p) for p in glob.glob(os.path.join(ROOT, "configs",
                                                         "*.cfg"))))
def test_committed_config_rows_meet_the_row_gate(name):
    # the config as committed: samples and schedule are not cut
    cfg = gl.read_config(os.path.join(ROOT, "configs", name))
    rows = [r for r in gl.run_convergence(cfg).rows if r.valid]
    assert rows
    for row in rows:
        assert row.fe_identity_defect <= GATE.FE_DEFECT_MAX
        if cfg.trial_subsample > 0:
            assert row.trial_gap >= GATE.TRIAL_GAP_FLOOR
        if cfg.bl_samples > 0:
            assert not row.bl.degenerate


# Per-layer names of BENCHMARK.json that measure() adds after layer_metrics.
MEASURED = {"trace_overhead_s", "convergence.report_identical"}


def _result_problems(metrics: dict) -> list:
    """The per-layer names of BENCHMARK.json (but MEASURED) that metrics
    lacks or holds as a non-finite number; a result line without them is
    not a result."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    return [n for n in names if n not in MEASURED
            and not (n in metrics and math.isfinite(metrics[n]))]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """traced(workload): child.json with summary.json of one traced sweep of
    the workload at seed 7, run from the repo root with every BLAS/OpenMP
    pool pinned to one thread; each workload runs once per module."""
    runs = {}

    def run(workload):
        if workload not in runs:
            out = tmp_path_factory.mktemp(f"traced_{workload}")
            env = dict(os.environ, **{var: "1" for var in RUN.THREAD_VARS})
            subprocess.run([sys.executable, os.path.join(BENCH, "child.py"),
                            "sweep", "--workload", workload, "--seed", "7",
                            "--out", str(out), "--trace"], cwd=ROOT, env=env,
                           check=True, stdout=subprocess.DEVNULL, timeout=600)
            with open(out / "child.json", encoding="utf-8") as fh:
                runs[workload] = json.load(fh)
            with open(out / "summary.json", encoding="utf-8") as fh:
                runs[workload]["summary"] = json.load(fh)
        return runs[workload]

    return run


@pytest.mark.parametrize("workload", sorted(WORKLOADS.WORKLOADS))
def test_a_traced_sweep_gives_every_per_layer_metric(traced, workload):
    metrics = RUN.layer_metrics(traced(workload))
    assert _result_problems(metrics) == []
    json.dumps({"metrics": metrics}, allow_nan=False)


def test_a_non_finite_summary_field_fails_the_result_check(traced):
    # negative control: json.dumps would write a bare NaN
    desk = traced("desk")
    broken = dict(desk, summary=dict(desk["summary"], ess=math.nan))
    metrics = RUN.layer_metrics(broken)
    assert _result_problems(metrics) == ["classical.ess_ratio"]
    with pytest.raises(ValueError):
        json.dumps({"metrics": metrics}, allow_nan=False)

"""The sweep benchmark's declared shapes and traced names, checked against
the package.

perfbench/workloads.py and perfbench/run.py import only the standard
library and their perfbench siblings, so they are loaded here by file path;
a workload whose declared cutoffs the policy no longer picks, or a traced
name that no longer exists, would otherwise show up only inside a benchmark
run (a missing name changes the shape of a traced run's result line).
The benchmark's row gate (perfbench/gate.py) is checked here on every
committed config, so a config that the gate would fail shows up in tier-1.
"""

import dataclasses
import glob
import importlib.util
import os
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

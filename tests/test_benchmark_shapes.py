"""The sweep benchmark's declared shapes, checked against the tail policy.

perfbench/workloads.py imports only the standard library, so it is loaded
here by file path; a workload whose declared cutoffs the policy no longer
picks would otherwise show up only inside a benchmark run.
"""

import dataclasses
import importlib.util
import os
import sys

import pytest

import gibbslab as gl

ROOT = os.path.join(os.path.dirname(__file__), "..")


def _load_workloads():
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_workload_declared_shapes_match_the_tail_policy(name):
    workload = WORKLOADS.WORKLOADS[name]
    base = gl.read_config(os.path.join(ROOT, WORKLOADS.BASE_CONFIG))
    cfg = dataclasses.replace(base, **workload.overrides)
    for key, value in workload.declared.items():
        got = getattr(cfg, key)
        assert (list(got) if key == "T_schedule" else got) == value, key
    basis, _, _ = gl.convergence.resolve(cfg)
    n_max = tuple(gl.choose_n_max(basis.eigenvalues, T,
                                  tail=cfg.n_max_policy,
                                  dim_budget=cfg.dim_budget)
                  for T in cfg.T_schedule)
    assert n_max == workload.n_max
    assert tuple(gl.build_fock_basis(cfg.K, n, cfg.dim_budget).dim
                 for n in n_max) == workload.dims

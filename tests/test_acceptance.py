"""Acceptance suite: one test per criterion, each printing a summary line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; the heavy convergence sweep is shared by criteria 6-9.
"""

import math
import time

import numpy as np
import pytest

import gibbslab as gl
from gibbslab.convergence import (ExperimentConfig, evaluate_properties,
                                  run_convergence)

import oracles

_LINES = []


def _record(num, ok, detail):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    _LINES.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module", autouse=True)
def summary():
    yield
    print("\n".join(["", "acceptance summary", "-" * 18] + _LINES))


@pytest.fixture(scope="module")
def heavy():
    cfg = ExperimentConfig(
        spec=gl.OneBodySpec.interval("dirichlet", m=1.0, grid_points=512),
        kernel=gl.KernelSpec("delta", g=1.0),
        K=2, T_schedule=(5.0, 10.0, 20.0, 40.0),
        coupling_rule=1.0, k_max=2, mc_samples=100_000, seed=7,
        n_max_policy=1e-8, dim_budget=20000,
        trial_subsample=512, bl_samples=4000, n_blocks=50)
    t0 = time.perf_counter()
    result = run_convergence(cfg)
    return result, time.perf_counter() - t0


def test_criterion_01_spectral_anchor():
    t0 = time.perf_counter()
    exact = np.array([oracles.dirichlet_eigenvalue(j) for j in range(1, 9)])
    errs = {}
    for n in (512, 1024):
        spec = gl.OneBodySpec.interval("dirichlet", m=1.0, grid_points=n)
        lam = gl.eigendecompose(gl.build_operator(spec), 8).eigenvalues
        errs[n] = np.abs(lam - exact)
    rel = (errs[1024] / exact).max()
    ratios = errs[512] / errs[1024]
    wall = time.perf_counter() - t0
    ok = rel <= 1e-3 and np.all(ratios >= 3.5) and np.all(ratios <= 4.5) \
        and wall < 5.0
    _record(1, ok, f"max rel err {rel:.2e} (<=1e-3), refinement ratios in "
                   f"[{ratios.min():.2f}, {ratios.max():.2f}] (4 +- 0.5), "
                   f"{wall:.2f}s (<5s)")


def test_criterion_02_wick_moment_anchor(basis_k3):
    t0 = time.perf_counter()
    lam = basis_k3.eigenvalues
    ens = gl.sample_free(basis_k3, 100_000, seed=42)
    m1, se1 = gl.moment_matrix(ens, 1, with_stderr=True)
    dev1 = np.abs(m1.entries - np.diag(1.0 / lam)) / (5 * se1 + 1e-30)
    m2, se2 = gl.moment_matrix(ens, 2, with_stderr=True)
    exact2 = np.diag([2.0 * np.prod(lam ** -row, dtype=float)
                      for row in m2.occupations])
    dev2 = np.abs(m2.entries - exact2) / (5 * se2 + 1e-30)
    wall = time.perf_counter() - t0
    ok = dev1.max() <= 1.0 and dev2.max() <= 1.0 and wall < 30.0
    _record(2, ok, f"k=1 worst dev {dev1.max():.2f}, k=2 worst dev "
                   f"{dev2.max():.2f} (units of 5 stderr), {wall:.2f}s (<30s)")


def test_criterion_03_interaction_mean_identity(dirichlet_op, delta_kernel):
    msgs, ok = [], True
    for K in (1, 2):
        basis = gl.eigendecompose(dirichlet_op, K)
        tensor = gl.interaction_elements(basis, delta_kernel)
        res = gl.mean_F_NL_free(basis, tensor, n_samples=50_000, seed=3)
        dev = abs(res.mc_value - res.closed_form) / res.mc_stderr
        ok &= dev <= 3.0
        msgs.append(f"K={K} |MC-closed|={dev:.2f} stderr")
        if K == 1:
            analytic = tensor.entries[0, 0, 0, 0] / basis.eigenvalues[0] ** 2
            dev_a = abs(res.mc_value - analytic) / res.mc_stderr
            ok &= dev_a <= 3.0 and abs(res.closed_form - analytic) < 1e-12
            msgs.append(f"K=1 vs W_1111/lam^2 {dev_a:.2f} stderr")
    _record(3, ok, "; ".join(msgs))


def test_criterion_04_single_mode_closed_forms(unit_mode_basis, quartic_tensor):
    ens = gl.sample_free(unit_mode_basis, 100_000, seed=23)
    rw = gl.reweight(ens, quartic_tensor)
    zr_oracle = oracles.quartic_zr()
    dev = abs(rw.z_r - zr_oracle) / rw.z_r_stderr
    fb = gl.build_fock_basis(1, 10)
    H = gl.build_hamiltonian(fb, np.array([1.0]), None, 0.0)
    _, log_z, _ = gl.gibbs_state(H, 1.0)
    exact = math.log((1.0 - math.exp(-11.0)) / (1.0 - math.exp(-1.0)))
    z_err = abs(log_z - exact)
    ok = dev <= 3.0 and z_err <= 1e-10
    _record(4, ok, f"Z_r dev {dev:.2f} stderr (oracle {zr_oracle:.4f}), "
                   f"geometric log Z err {z_err:.1e} (<=1e-10)")


def test_criterion_05_exact_algebraic_identities(basis_k3, tensor_k3):
    from gibbslab import fock
    worst_rdm, worst_num, worst_energy = 0.0, 0.0, 0.0
    count = 0
    for K, n_max in ((1, 8), (2, 7), (3, 5)):
        fb = gl.build_fock_basis(K, n_max)
        lam = basis_k3.eigenvalues[:K]
        tens = gl.TwoBodyTensor(tensor_k3.entries[:K, :K, :K, :K])
        for seed in range(7 if K < 3 else 6):
            state = fock.random_state(fb, 1000 + seed)
            count += 1
            for k in (1, 2):
                if k > n_max:
                    continue
                a = gl.reduced_density_matrix(state, k)
                b = gl.reduced_dm_normal_ordered(state, k)
                worst_rdm = max(worst_rdm, float(np.abs(a.entries - b.entries).max()))
            g1 = gl.reduced_density_matrix(state, 1)
            worst_num = max(worst_num,
                            abs(g1.trace() - gl.particle_number(state)))
            split = gl.energy_decomposition(state, lam, tens, 0.6)
            worst_energy = max(worst_energy,
                               abs(split.total - split.one_body - split.two_body)
                               / max(abs(split.total), 1e-12))
    ok = worst_rdm <= 1e-10 and worst_num <= 1e-10 and worst_energy <= 1e-9
    _record(5, ok, f"{count} random states: rdm routes {worst_rdm:.1e} "
                   f"(<=1e-10), number identity {worst_num:.1e} (<=1e-10), "
                   f"energy split {worst_energy:.1e} rel (<=1e-9)")


def test_criterion_06_density_matrix_convergence(heavy):
    result, wall = heavy
    props = evaluate_properties(result)
    rows = result.rows
    d1 = [r.distances[1].value for r in rows]
    d2 = [r.distances[2].value for r in rows]
    mono = props["d_monotone"][1] and props["d_monotone"][2]
    ratio_ok = d1[-1] < d1[0] / 3.0
    ok = props["all_valid"] and mono and ratio_ok and wall < 600.0
    _record(6, ok, f"d1={['%.4f' % v for v in d1]}, "
                   f"d2={['%.4f' % v for v in d2]}, monotone within 2 stderr: "
                   f"{mono}, d1(40)={d1[-1]:.4f} < d1(5)/3={d1[0] / 3:.4f}, "
                   f"{wall:.0f}s (<600s)")


def test_criterion_07_free_energy_convergence(heavy):
    result, _ = heavy
    props = evaluate_properties(result)
    offs = [abs(r.f_value - r.f_target) for r in result.rows]
    ok = props["f_monotone"] and offs[-1] <= offs[0] / 2.0
    _record(7, ok, f"|f+logZr|={['%.4f' % v for v in offs]}, monotone: "
                   f"{props['f_monotone']}, factor "
                   f"{offs[0] / max(offs[-1], 1e-300):.1f} (>=2)")


def test_criterion_08_variational_sanity(heavy):
    result, _ = heavy
    gaps = [r.trial_gap for r in result.rows]
    ok = all(g is not None and math.isfinite(g) and g >= -1e-8 for g in gaps)
    _record(8, ok, f"trial-state free-energy gaps {['%.3f' % g for g in gaps]} "
                   f"all finite and >= -1e-8")


def test_criterion_09_berezin_lieb_gap(heavy):
    result, _ = heavy
    traj = [(r.T, r.bl.gap) for r in result.rows]
    last = result.rows[-1].bl
    ok = last.gap >= -0.05 and not last.degenerate
    _record(9, ok, f"gap trajectory {[(T, '%.4f' % g) for T, g in traj]}, "
                   f"gap(T=40)={last.gap:.4f} (>=-0.05, ess {last.ess:.0f})")


def test_criterion_10_free_case_closed_form():
    cfg = ExperimentConfig(
        spec=gl.OneBodySpec.interval("dirichlet", m=1.0, grid_points=512),
        kernel=gl.KernelSpec("zero"),
        K=2, T_schedule=(5.0, 10.0), coupling_rule=0.0, k_max=1,
        mc_samples=1000, seed=3, n_max_policy=1e-12,
        bl_samples=0, trial_subsample=0)
    result = run_convergence(cfg)
    lam = result.eigenvalues
    worst = 0.0
    for row in result.rows:
        closed = float(np.sum(np.abs(
            1.0 / (row.T * (np.exp(lam / row.T) - 1.0)) - 1.0 / lam)))
        worst = max(worst, abs(row.distances[1].value - closed))
    ok = worst <= 1e-6
    _record(10, ok, f"free-case d1 vs closed form, worst {worst:.1e} (<=1e-6)")

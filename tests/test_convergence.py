import copy
import dataclasses
import gc
import glob
import json
import math
import os
import platform
import threading
import time
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
import scipy

import gibbslab as gl
from gibbslab import cli, fock, semiclassics
from gibbslab.convergence import (ExperimentConfig, config_to_dict,
                                  emit_report, evaluate_properties,
                                  parse_config, run_convergence,
                                  run_selfchecks)

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")

CONFIG_TEXT = """
# small desk experiment
domain = interval
bc = dirichlet
m = 1.0
grid_points = 256
kernel = delta
g = 1.0
K = 2
T_schedule = 2.0, 4.0
k_max = 2
mc_samples = 4000
seed = 11
n_max_policy = 1e-8
dim_budget = 20000
out_dir = results
trial_subsample = 64
bl_samples = 400
"""


@pytest.fixture()
def small_config():
    return parse_config(CONFIG_TEXT)


def test_parse_config_roundtrip(small_config):
    cfg = small_config
    assert cfg.spec.domain == "interval" and cfg.spec.bc == "dirichlet"
    assert cfg.spec.grid_points == 256
    assert cfg.kernel == gl.InteractionKernel("delta", 1.0)
    assert cfg.T_schedule == (2.0, 4.0)
    assert cfg.mc_samples == 4000 and cfg.seed == 11
    assert cfg.n_max_policy == 1e-8


def test_parse_config_errors():
    with pytest.raises(ValueError, match="unknown config keys"):
        parse_config("domain = interval\nwhatever = 3\n")
    with pytest.raises(ValueError, match="expected key = value"):
        parse_config("domain interval\n")
    with pytest.raises(ValueError, match="ascending"):
        parse_config("T_schedule = 4, 2\nK = 1\n")
    with pytest.raises(ValueError, match="k_max"):
        parse_config("k_max = 5\n")
    desk = open(os.path.join(CONFIGS, "desk.cfg")).read().rstrip("\n")
    line = len(desk.splitlines()) + 1
    with pytest.raises(ValueError,
                       match=f"^config line {line}: duplicate key K$"):
        parse_config(desk + "\nK = 3\n")


@pytest.mark.parametrize("line, message", [
    ("mc_samples = 1e5", "config key mc_samples: expected an integer, "
                         "got '1e5'"),
    ("n_max_policy = one", "config key n_max_policy: expected a number, "
                           "got 'one'"),
    ("T_schedule = 5,,10", "config key T_schedule: expected numbers, "
                           "got '5,,10'"),
], ids=["int", "float", "schedule"])
def test_parse_config_names_the_key_of_a_bad_number(line, message):
    with pytest.raises(ValueError) as info:
        parse_config(f"K = 1\n{line}\n")
    assert str(info.value) == message


def test_interaction_kernel_names(basis_k2):
    def W(name, g, width=0.0):
        kern = gl.InteractionKernel(name, g, width)
        return gl.interaction_elements(basis_k2, kern).entries

    assert np.array_equal(W("delta", 2.0), 2.0 * W("delta", 1.0))
    for name, width in (("delta", 0.0), ("constant", 0.0), ("gaussian", 0.2)):
        assert gl.InteractionKernel(name, 0.0, width).is_zero
        assert not np.any(W(name, 0.0, width))
        assert not gl.InteractionKernel(name, 0.5, width).is_zero
    # 0 < w <= g pointwise, so the gaussian self-energy of a mode lies
    # below the constant one and reaches it as the width grows
    const = W("constant", 0.5)[0, 0, 0, 0]
    assert 0 < W("gaussian", 0.5, 0.2)[0, 0, 0, 0] < const
    assert W("gaussian", 0.5, 1e3)[0, 0, 0, 0] == pytest.approx(const)


@pytest.mark.parametrize("lines, message", [
    ("kernel = foo", "unknown kernel name 'foo'"),
    ("kernel = constant\ng = -1", "kernel g must be nonnegative (defocusing)"),
    ("kernel = gaussian\nwidth = 0", "gaussian kernel needs width > 0"),
    ("kernel = delta\nwidth = 0.5", "only the gaussian kernel reads a width"),
    ("kernel = constant\nwidth = 0.5",
     "only the gaussian kernel reads a width"),
], ids=["unknown", "negative-g", "zero-width", "delta-width",
        "constant-width"])
def test_parse_config_refuses_a_bad_kernel(tmp_path, capsys, lines, message):
    with pytest.raises(ValueError) as info:
        parse_config(f"K = 1\n{lines}\n")
    assert str(info.value) == message
    bad = tmp_path / "kernel.cfg"
    bad.write_text(f"K = 1\n{lines}\nout_dir = {tmp_path}/out\n")
    assert cli.main(["spectrum", "--config", str(bad)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", sorted(
    os.path.basename(p) for p in glob.glob(os.path.join(CONFIGS, "*.cfg"))))
def test_config_echo_parses_back_to_the_config(name):
    # summary.json echoes config_to_dict; as key = value lines it must
    # read back as the same config
    cfg = gl.read_config(os.path.join(CONFIGS, name))
    lines = [f"{key} = {','.join(map(str, v)) if isinstance(v, list) else v}"
             for key, v in config_to_dict(cfg).items()]
    assert parse_config("\n".join(lines)) == cfg


def test_readme_config_table_lists_the_echoed_keys():
    # the keys config_to_dict writes for the committed configs, against
    # the backticked names of the README's "Config keys" table
    written = set()
    for path in glob.glob(os.path.join(CONFIGS, "*.cfg")):
        written |= set(config_to_dict(gl.read_config(path)))
    readme = open(os.path.join(CONFIGS, "..", "README.md"),
                  encoding="utf-8").read()
    table = readme.split("### Config keys\n\n", 1)[1].split("\n\n")[0]
    listed = set()
    for line in table.splitlines()[2:]:
        listed |= set(line.split("|")[1].replace("`", "").replace(
            " ", "").split(","))
    assert listed == written


def test_readme_kernel_names_are_the_accepted_names():
    # the backticked names of the README's kernel row, against the names
    # InteractionKernel accepts
    readme = open(os.path.join(CONFIGS, "..", "README.md"),
                  encoding="utf-8").read()
    row = readme.split("| `kernel`, `g`, `width` | ", 1)[1].split(
        " pair interaction", 1)[0]
    listed = set(row.split("`")[1::2])
    assert listed == set(gl.spectral._KERNELS)
    for name in listed:
        gl.InteractionKernel(name, 1.0, 0.2 if name == "gaussian" else 0.0)


@pytest.mark.parametrize("key, value", [
    ("mc_samples", 49),
    ("trial_subsample", -1), ("trial_subsample", 4001),
    ("bl_samples", -1), ("bl_samples", 1), ("bl_samples", 9),
    ("dim_budget", 0), ("dim_budget", -1),
])
def test_config_rejects_bad_sampling_counts(small_config, key, value):
    # the message opens with the key: "trial_subsample must lie in
    # 0..mc_samples" does not count as naming mc_samples
    with pytest.raises(ValueError, match=f"^{key} must"):
        dataclasses.replace(small_config,
                            **{"trial_subsample": 0, key: value})


def test_config_accepts_boundary_sampling_counts(small_config):
    for key, value in [("mc_samples", 50),
                       ("trial_subsample", 0), ("trial_subsample", 4000),
                       ("bl_samples", 0), ("bl_samples", 10),
                       ("dim_budget", 1)]:
        cfg = dataclasses.replace(small_config,
                                  **{"trial_subsample": 0, key: value})
        assert getattr(cfg, key) == value


def test_anharmonic_config_parses():
    cfg = parse_config("domain = anharmonic\na = 4\nhalf_width = 6\n"
                       "grid_points = 256\nK = 1\nm = 0\n")
    assert cfg.spec.domain == "anharmonic" and cfg.spec.a == 4.0


def test_run_convergence_small(small_config):
    res = run_convergence(small_config)
    assert len(res.rows) == 2
    for T, row in zip((2.0, 4.0), res.rows):
        assert row.valid
        assert row.T == T
        assert row.lam == pytest.approx(1.0 / T)
        assert row.tail_mass < small_config.n_max_policy
        assert set(row.distances) == {1, 2}
        assert row.distances[1].value >= 0
        # a support failure would give +inf and pass the bound vacuously
        assert math.isfinite(row.trial_gap) and row.trial_gap >= -1e-8
        assert row.fe_identity_defect < 1e-8
        assert row.bl is not None
    assert 0 < res.z_r <= 1


def _record_marginal_orders(monkeypatch) -> list:
    """Record the orders of every marginal gather (fock._Marginals): the
    Gibbs stream of solve_point and reduced_density_matrix[ces] both build
    theirs there."""
    orders, gather = [], fock._Marginals

    class Recording(gather):
        def __init__(self, basis, ks):
            super().__init__(basis, ks)
            orders.append(tuple(self.sums))

    monkeypatch.setattr(fock, "_Marginals", Recording)
    return orders


def test_gibbs_pair_marginal_is_built_once_per_row(small_config, monkeypatch):
    orders = _record_marginal_orders(monkeypatch)
    res = run_convergence(small_config)
    # per row: d_1 and d_2 of the Gibbs state in its solve's stream, then
    # the trial state's pair energy; the Gibbs free energy reuses the d_2
    # marginal
    per_row = [(1, 2), (2,)]
    assert orders == per_row * len(res.rows)
    # negative control: a second gather on the kept Gibbs blocks, as a
    # separate gather of orders 1 and 2, is seen
    solve = fock.solve_point

    def regather(*args, **kwargs):
        point = solve(*args, **kwargs)
        fock._state_marginals(point.gibbs, range(1, 3))
        return point

    monkeypatch.setattr(fock, "solve_point", regather)
    orders.clear()
    run_convergence(small_config)
    assert orders != per_row * len(res.rows)
    monkeypatch.undo()
    basis, tensor = gl.convergence.resolve(small_config)
    for row in res.rows:
        point = fock.solve_point(basis.eigenvalues, tensor, row.T,
                                 k_max=small_config.k_max,
                                 tail=small_config.n_max_policy,
                                 dim_budget=small_config.dim_budget)
        assert row.lam == point.lam == 1.0 / row.T
        pair = fock.pair_energy(point.marginals[2], tensor, row.lam)
        assert point.pair_energy == pair
        assert pair == pytest.approx(
            fock.two_body_energy(point.gibbs, tensor, row.lam), rel=1e-13)
        exact = row.T * row.f_value
        assert row.fe_identity_defect == abs(
            pair + point.one_body_energy - point.energy) / abs(exact)


def _passing_runs(runs, seen: list):
    """The sector runs of H as the Gibbs stream takes them, each kept in
    seen as it passes."""
    for lo, M in runs:
        seen.append((lo, M))
        yield lo, M


def _run_block(seen: list, rows: np.ndarray) -> np.ndarray:
    """The dense block of H on the basis indices rows, cut from the run
    in seen that holds them."""
    [(lo, M)] = [(lo, M) for lo, M in seen if lo <= rows[0] < lo + M.shape[0]]
    return M[rows - lo][:, rows - lo].toarray()


def test_sweep_eigensolves_each_state_block_once(small_config, monkeypatch):
    # the Gibbs stream solves each class block, the tridiagonal ones with
    # stevd and the others with dsyevd on its pool, and S(trial | free)
    # each stored trial block with scipy's evd; S(Gibbs | free) comes from
    # the Gibbs spectrum, so relative_entropy sees trial states only
    eigh, dstevd, gibbs_sectors = fock.eigh, fock.dstevd, fock._gibbs_sectors
    dsyevd, lock = fock._dsyevd, threading.Lock()
    trial_state, relative_entropy = semiclassics.trial_state, \
        fock.relative_entropy
    calls = {"evd": 0, "stevd": 0, "pool_evd": 0}
    gibbs_blocks, trials, entropy_states = [], [], []

    def counting_eigh(*args, **kwargs):
        calls["evd"] += 1
        return eigh(*args, **kwargs)

    def counting_dsyevd(*args):
        with lock:
            calls["pool_evd"] += 1
        return dsyevd(*args)

    def counting_stevd(*args, **kwargs):
        calls["stevd"] += 1
        return dstevd(*args, **kwargs)

    def recording_sectors(basis, labels, runs, T):
        tri, dense, seen = 0, 0, []
        for n, blocks, flat, lam in gibbs_sectors(
                basis, labels, _passing_runs(runs, seen), T):
            for rows, _ in blocks:
                h = _run_block(seen, rows)
                band = not np.triu(h, 2).any() and not np.tril(h, -2).any()
                tri, dense = tri + band, dense + (not band)
            yield n, blocks, flat, lam
        gibbs_blocks.append((tri, dense))

    def recording_trial(*args, **kwargs):
        trials.append(trial_state(*args, **kwargs))
        return trials[-1]

    def recording_entropy(state, ref):
        entropy_states.append(state)
        return relative_entropy(state, ref)

    monkeypatch.setattr(fock, "eigh", counting_eigh)
    monkeypatch.setattr(fock, "_dsyevd", counting_dsyevd)
    monkeypatch.setattr(fock, "dstevd", counting_stevd)
    monkeypatch.setattr(fock, "_gibbs_sectors", recording_sectors)
    monkeypatch.setattr(semiclassics, "trial_state", recording_trial)
    monkeypatch.setattr(fock, "relative_entropy", recording_entropy)
    res = run_convergence(small_config)
    assert len(gibbs_blocks) == len(trials) == len(res.rows) == 2
    tridiagonal, dense = np.sum(gibbs_blocks, axis=0)
    assert calls["stevd"] == tridiagonal > 0
    assert calls["pool_evd"] == dense
    assert calls["evd"] == sum(len(t.blocks) for t in trials)
    assert [id(s) for s in entropy_states] == [id(t) for t in trials]


@pytest.mark.parametrize("bl_samples", [400, 0],
                         ids=["trial-and-bl", "trial-only"])
def test_a_row_builds_its_trial_state_holding_no_gibbs_block(
        small_config, monkeypatch, bl_samples):
    # the trial state reads the point's class layout, so a row drops the
    # Gibbs blocks (after the Berezin-Lieb stage, which reads them) before
    # it builds the trial state: each sector's flat array, which every
    # block of that sector is a view of, is gone when trial_state starts
    gibbs_sectors, build = fock._gibbs_sectors, semiclassics.trial_state
    flats, alive = [], []

    def recording(*args):
        for n, blocks, flat, lam in gibbs_sectors(*args):
            flats.append(weakref.ref(flat))
            yield n, blocks, flat, lam

    def checked(*args, **kwargs):
        gc.collect()
        alive.append(sum(ref() is not None for ref in flats))
        return build(*args, **kwargs)

    monkeypatch.setattr(fock, "_gibbs_sectors", recording)
    monkeypatch.setattr(semiclassics, "trial_state", checked)
    cfg = dataclasses.replace(small_config, bl_samples=bl_samples)
    rows = run_convergence(cfg).rows
    assert all(r.valid and r.trial_gap is not None for r in rows)
    assert all((r.bl is not None) == (bl_samples > 0) for r in rows)
    assert len(alive) == len(rows) == 2 and len(flats) > 2 * 10
    assert alive == [0, 0]


def _corrupt_gibbs_coupling(monkeypatch):
    """One off-diagonal pair of one solved Gibbs block, between two states
    that W couples, moved by 1e-6 in the sector stream, before the
    marginals are gathered."""
    gibbs_sectors = fock._gibbs_sectors

    def corrupted(basis, labels, runs, T):
        moved, seen = False, []
        for n, blocks, flat, lam in gibbs_sectors(
                basis, labels, _passing_runs(runs, seen), T):
            for rows, G in blocks:
                h = _run_block(seen, rows)
                a, b = np.nonzero(h - np.diag(np.diagonal(h)))
                if a.size and not moved:
                    G[a[0], b[0]] += 1e-6
                    G[b[0], a[0]] += 1e-6
                    moved = True
            yield n, blocks, flat, lam

    monkeypatch.setattr(fock, "_gibbs_sectors", corrupted)


def _corrupt_sym2_entry(monkeypatch):
    """One tensor entry moved by 1e-6 on the Sym^2 pair matrix only; the
    Hamiltonian keeps the true tensor."""
    restrict = gl.TwoBodyTensor.pair_matrix

    def corrupted(tensor):
        W = tensor.entries.copy()
        W[0, 0, 0, 0] += 1e-6
        return restrict(gl.TwoBodyTensor(W, tensor.parity))

    monkeypatch.setattr(gl.TwoBodyTensor, "pair_matrix", corrupted)


@pytest.mark.parametrize("corrupt", [_corrupt_gibbs_coupling,
                                     _corrupt_sym2_entry])
def test_fe_identity_defect_sees_one_corrupted_build(small_config,
                                                     monkeypatch, corrupt):
    cfg = dataclasses.replace(small_config, bl_samples=0)
    assert all(r.fe_identity_defect <= 1e-10 for r in run_convergence(cfg).rows)
    corrupt(monkeypatch)
    assert all(r.fe_identity_defect > 1e-10 for r in run_convergence(cfg).rows)


@pytest.mark.parametrize("shape", ["k2", "ed-k3"])
def test_summary_rows_carry_their_widest_class_block(small_config, tmp_path,
                                                     shape):
    # the rows of the widest (sector, class) block of each valid row's
    # Gibbs state, which sizes the dense solves' workspaces; report.csv
    # has no column for it
    cfg = small_config if shape == "k2" else dataclasses.replace(
        small_config, K=3, k_max=3, trial_subsample=0, bl_samples=0)
    csv_path, json_path = emit_report(run_convergence(cfg), tmp_path)
    rows = json.load(open(json_path))["rows"]
    _, tensor = gl.convergence.resolve(cfg)
    assert len(rows) == 2
    for row in rows:
        fb = gl.build_fock_basis(cfg.K, row["n_max"])
        labels = fb.occupations @ tensor.parity % 2
        assert row["widest_block"] == fock._widest_class(fb, labels) > 1
    assert "widest" not in open(csv_path).read()


def test_fe_identity_defect_is_on_rows_without_a_trial_state(
        small_config, tmp_path, monkeypatch):
    # the ed-k3 shape: K=3 dense class blocks, k_max=3, no trial state and
    # no Berezin-Lieb stage; the identity needs only <H>, <H_0> and the d_2
    # pair term, so every row carries it and it still sees a corrupted block
    cfg = dataclasses.replace(small_config, K=3, k_max=3, trial_subsample=0,
                              bl_samples=0)
    _, json_path = emit_report(run_convergence(cfg), tmp_path)
    rows = json.load(open(json_path))["rows"]
    assert len(rows) == 2
    assert all(r["trial_gap"] is None for r in rows)
    assert all(r["fe_identity_defect"] is not None
               and r["fe_identity_defect"] <= 1e-10 for r in rows)
    _corrupt_gibbs_coupling(monkeypatch)
    assert all(r.fe_identity_defect > 1e-10 for r in run_convergence(cfg).rows)


def test_k_max_one_row_keeps_no_block_and_gathers_its_pair_marginal(
        small_config, monkeypatch):
    # k_max = 1 with a pair term and neither a trial state nor a
    # Berezin-Lieb stage: the row keeps no Gibbs block, and its solve's
    # stream still gathers Gamma^(2), the one source of its pair energy
    cfg = dataclasses.replace(small_config, k_max=1, trial_subsample=0,
                              bl_samples=0)
    solve, points = fock.solve_point, []

    def recording(*args, **kwargs):
        points.append(solve(*args, **kwargs))
        return points[-1]

    monkeypatch.setattr(fock, "solve_point", recording)
    rows = run_convergence(cfg).rows
    assert len(points) == len(rows) == 2
    assert all(p.gibbs is None and sorted(p.marginals) == [1, 2]
               for p in points)
    assert all(r.valid and set(r.distances) == {1} for r in rows)
    assert all(r.fe_identity_defect <= 1e-10 for r in rows)
    # negative control: a corrupted block in the stream shows in the defect
    _corrupt_gibbs_coupling(monkeypatch)
    assert all(r.fe_identity_defect > 1e-10 for r in run_convergence(cfg).rows)


def test_fe_identity_defect_of_the_free_case_is_relative_to_the_energy(
        monkeypatch):
    # T f is exactly 0 without a pair term, so the defect is read on the
    # scale of <H> = <H_0>; a 1e-9 relative error in the eigen-route <H>
    # must still show
    cfg = gl.read_config(os.path.join(CONFIGS, "free-case.cfg"))
    rows = run_convergence(cfg).rows
    assert all(r.valid and r.T * r.f_value == 0.0 for r in rows)
    assert all(r.fe_identity_defect <= 1e-12 for r in rows)
    solve = fock.solve_point

    def scaled(*args, **kwargs):
        point = solve(*args, **kwargs)
        return dataclasses.replace(point, energy=point.energy * (1.0 + 1e-9))

    monkeypatch.setattr(fock, "solve_point", scaled)
    assert all(r.fe_identity_defect > 1e-10 for r in run_convergence(cfg).rows)


def test_emit_report_counts_and_format(tmp_path, small_config):
    res = run_convergence(small_config)
    csv_path, json_path = emit_report(res, tmp_path)
    lines = open(csv_path).read().splitlines()
    header = "T,lambda,n_max,tail_mass,metric,k,value,stderr,hs_value,target"
    assert lines[0] == header
    # 2 metric rows per T (k_max = 2) plus one free-energy row per T
    assert len(lines) == 1 + 2 * 3
    metric_rows = [l for l in lines[1:] if ",trace_distance," in l]
    f_rows = [l for l in lines[1:] if ",free_energy_delta," in l]
    assert len(metric_rows) == 4 and len(f_rows) == 2
    summary = json.load(open(json_path))
    assert summary["config"]["mc_samples"] == 4000
    assert summary["mode_parity"] == [0, 1]
    for row, srow in zip(res.rows, summary["rows"]):
        assert srow["dim"] == math.comb(2 + row.n_max, 2)
    assert summary["properties"]["all"] in (True, False)
    assert "wall_clock_s" in summary
    assert summary["versions"] == {"python": platform.python_version(),
                                   "numpy": np.__version__,
                                   "scipy": scipy.__version__}


def test_summary_times_the_classical_side(tmp_path, small_config):
    # the streamed classical pass gets its own line in summary.json; its
    # wall time stays out of report.csv
    for held in (small_config.trial_subsample, 0):
        cfg = dataclasses.replace(small_config, trial_subsample=held)
        res = run_convergence(cfg)
        csv_a, json_a = emit_report(res, tmp_path / f"a{held}")
        summary = json.load(open(json_a))
        side = summary["classical"]
        assert side == {"wall_s": side["wall_s"], "samples": cfg.mc_samples,
                        "blocks": gl.classical.N_BLOCKS,
                        "held_samples": held}
        assert 0.0 < side["wall_s"] < summary["wall_clock_s"]
        res.classical["wall_s"] += 100.0
        csv_b, json_b = emit_report(res, tmp_path / f"b{held}")
        assert open(csv_a, "rb").read() == open(csv_b, "rb").read()
        assert json.load(open(json_b))["classical"]["wall_s"] \
            == side["wall_s"] + 100.0
    assert small_config.trial_subsample > 0


def test_emit_report_empty_rows(tmp_path, small_config):
    res = run_convergence(small_config)
    res.rows = []
    csv_path, _ = emit_report(res, tmp_path)
    lines = open(csv_path).read().splitlines()
    assert len(lines) == 1  # header only


def test_reports_are_deterministic(tmp_path, small_config):
    res1 = run_convergence(small_config)
    res2 = run_convergence(small_config)
    p1, j1 = emit_report(res1, tmp_path / "a")
    p2, j2 = emit_report(res2, tmp_path / "b")
    assert open(p1, "rb").read() == open(p2, "rb").read()
    s1, s2 = json.load(open(j1)), json.load(open(j2))
    for s in (s1, s2):
        s.pop("wall_clock_s")
        s["classical"].pop("wall_s")
        for row in s["rows"]:
            row.pop("wall_s")
            row.pop("stages")
            row.pop("stage_rss_mb")
    assert s1 == s2


def test_degenerate_run_matches_closed_form():
    cfg = ExperimentConfig(
        spec=gl.OneBodySpec.interval("dirichlet", m=1.0, grid_points=256),
        kernel=gl.InteractionKernel("delta", g=0.0),
        K=2, T_schedule=(5.0, 10.0), k_max=1,
        mc_samples=100, seed=0, n_max_policy=1e-12,
        bl_samples=0, trial_subsample=0)
    res = run_convergence(cfg)
    assert res.degenerate
    lam = res.eigenvalues
    for row in res.rows:
        closed = float(np.sum(np.abs(
            1.0 / (row.T * (np.exp(lam / row.T) - 1.0)) - 1.0 / lam)))
        assert abs(row.distances[1].value - closed) < 1e-6
        assert row.f_value == 0.0 and row.f_target == pytest.approx(0.0)
    props = evaluate_properties(res)
    assert props["all"]


def test_evaluate_properties_flags_rising_distance(small_config):
    res = run_convergence(small_config)
    bad = copy.deepcopy(res)
    bad.rows[1].distances[1] = gl.convergence.DistanceMetric(
        bad.rows[0].distances[1].value * 3.0, 0.0, 0.0)
    bad.rows[1].block_distances[1] = bad.rows[0].block_distances[1] * 3.0
    props = evaluate_properties(bad)
    assert not props["d_monotone"][1]
    assert props["violations"]


def test_tail_policy_failure_marks_row_invalid(tmp_path):
    cfg = ExperimentConfig(
        spec=gl.OneBodySpec.interval("dirichlet", m=1.0, grid_points=256),
        kernel=gl.InteractionKernel("delta", g=1.0),
        K=2, T_schedule=(2.0, 50.0), k_max=1,
        mc_samples=100, seed=0, dim_budget=2000,
        bl_samples=0, trial_subsample=0)
    res = run_convergence(cfg)
    assert res.rows[0].valid
    assert not res.rows[1].valid and "budget" in res.rows[1].error
    _, json_path = emit_report(res, tmp_path)

    def refuse(name):
        raise ValueError(f"summary.json holds {name}")

    rows = json.loads(open(json_path).read(), parse_constant=refuse)["rows"]
    assert rows[0]["dim"] == math.comb(2 + rows[0]["n_max"], 2)
    assert rows[1]["n_max"] == -1 and "dim" not in rows[1]
    assert rows[1]["f_value"] is None and rows[1]["tail_mass"] is None
    props = evaluate_properties(res)
    assert not props["all_valid"] and not props["all"]


def test_interacting_tail_over_the_policy_is_noted(tmp_path, monkeypatch,
                                                   small_config):
    solve = fock.solve_point

    def heavy_tail(*args, **kwargs):
        # the solved point with 1e-6 of its mass moved to the top sector
        point = solve(*args, **kwargs)
        return dataclasses.replace(
            point, tail_mass=(1.0 - 1e-6) * point.tail_mass + 1e-6)

    monkeypatch.setattr(fock, "solve_point", heavy_tail)
    cfg = dataclasses.replace(small_config, trial_subsample=0, bl_samples=0)
    res = run_convergence(cfg)
    csv_path, json_path = emit_report(res, tmp_path)
    for row in json.load(open(json_path))["rows"]:
        assert row["tail_mass"] >= cfg.n_max_policy
        assert "interacting tail mass" in row["notes"]
    assert "interacting tail mass" not in open(csv_path).read()


def test_trial_tail_over_the_policy_is_noted(tmp_path, monkeypatch,
                                            small_config):
    build = semiclassics.trial_state

    def heavy_tail(*args, **kwargs):
        # the built trial state with all its mass moved to the top sector
        trial = build(*args, **kwargs)
        fb = trial.basis
        blocks = [np.zeros((fb.sector_dim(n),) * 2) for n in range(fb.n_max)]
        d = fb.sector_dim(fb.n_max)
        return fock.FockState.from_sectors(fb, blocks + [np.eye(d) / d])

    monkeypatch.setattr(semiclassics, "trial_state", heavy_tail)
    cfg = dataclasses.replace(small_config, bl_samples=0)
    res = run_convergence(cfg)
    csv_path, json_path = emit_report(res, tmp_path)
    for row in json.load(open(json_path))["rows"]:
        assert row["trial_tail_mass"] == pytest.approx(1.0, rel=1e-12)
        assert "trial tail mass 1.000e+00 is not below n_max_policy 1.0e-08" \
            in row["notes"]
        assert "interacting tail mass" not in row["notes"]
    assert "trial tail mass" not in open(csv_path).read()


def test_summary_rows_carry_the_trial_window(tmp_path, monkeypatch,
                                            small_config):
    build = semiclassics.trial_state
    built = []

    def recording(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(semiclassics, "trial_state", recording)
    cfg = dataclasses.replace(small_config, T_schedule=(2.0, 20.0),
                              bl_samples=0)
    _, json_path = emit_report(run_convergence(cfg), tmp_path / "a")
    rows = json.load(open(json_path))["rows"]
    assert len(rows) == len(built) == 2
    for row, trial in zip(rows, built):
        held = np.flatnonzero(trial.sector_probabilities())
        assert row["trial_window"] == [int(held[0]), int(held[-1])]
    # at T = 20 no sample reaches the top two sectors: the trial tail is 0
    assert rows[1]["trial_window"][1] < rows[1]["n_max"] - 1
    assert rows[1]["trial_tail_mass"] == 0.0
    cfg = dataclasses.replace(cfg, T_schedule=(2.0,), trial_subsample=0)
    _, json_path = emit_report(run_convergence(cfg), tmp_path / "b")
    assert "trial_window" not in json.load(open(json_path))["rows"][0]


def test_committed_config_tail_is_within_the_policy(tmp_path):
    # negative control of the tail notes: the T=5 row of configs/desk.cfg
    path = os.path.join(CONFIGS, "desk.cfg")
    cfg = dataclasses.replace(gl.read_config(path), T_schedule=(5.0,),
                              out_dir=str(tmp_path))
    (row,) = run_convergence(cfg).rows
    assert row.valid and row.tail_mass < cfg.n_max_policy
    assert row.trial_tail_mass < cfg.n_max_policy
    assert "interacting tail mass" not in row.notes
    assert "trial tail mass" not in row.notes


def test_selfchecks_pass(small_config):
    checks = run_selfchecks(small_config)
    names = {c.name for c in checks}
    assert {"wick_k1", "wick_k2", "partial_trace_vs_normal_ordered",
            "number_identity", "energy_decomposition",
            "free_state_occupation", "mean_fnl_identity", "coherent_overlap",
            "classical_jensen_bound", "single_mode_log_z",
            "single_mode_quartic_zr", "seed_determinism", "class_split",
            "partial_trace_vs_normal_ordered_gibbs"} <= names
    for c in checks:
        assert c.passed, f"{c.name}: measured {c.measured} > {c.tolerance}"


def test_selfchecks_keep_no_gibbs_block(small_config, monkeypatch):
    # the selfchecks read a solved point's basis, log Z and free state, never
    # its blocks, so no solve_point call of theirs keeps them
    solve, kept = fock.solve_point, []

    def spy(*args, **kwargs):
        point = solve(*args, **kwargs)
        kept.append(point.gibbs is not None)
        return point

    monkeypatch.setattr(fock, "solve_point", spy)
    checks = run_selfchecks(small_config)
    assert kept == [False, False]
    # negative control: the same solves with their blocks kept are seen,
    # and every check measures the same value either way
    monkeypatch.setattr(fock, "solve_point", lambda *args, **kwargs: spy(
        *args, **{**kwargs, "keep_blocks": True}))
    kept.clear()
    again = run_selfchecks(small_config)
    assert kept == [True, True]
    assert [(c.name, c.measured) for c in again] \
        == [(c.name, c.measured) for c in checks]


@pytest.mark.filterwarnings("error::gibbslab.semiclassics.TailWarning")
def test_selfchecks_on_free_case_count_tail_warnings_in_the_note():
    # the 20 coherent pairs of coherent_overlap are cut at n_max 30; the
    # tails they drop are inside the check's bound and go into its note
    cfg = gl.read_config(os.path.join(CONFIGS, "free-case.cfg"))
    by_name = {c.name: c for c in run_selfchecks(cfg)}
    assert all(c.passed for c in by_name.values())
    assert by_name["coherent_overlap"].note == \
        "defect / tail-corrected bound; 2 TailWarning(s) at n_max 30"
    assert by_name["classical_jensen_bound"].measured == 0.0
    assert by_name["classical_jensen_bound"].note == "zero kernel: vacuous"
    assert by_name["mean_fnl_identity"].note == "zero kernel: vacuous"


@pytest.mark.parametrize("name", sorted(
    os.path.basename(p) for p in glob.glob(os.path.join(CONFIGS, "*.cfg"))))
def test_selfchecks_pass_on_committed_config(name):
    cfg = gl.read_config(os.path.join(CONFIGS, name))
    failed = [c.name for c in run_selfchecks(cfg) if not c.passed]
    assert failed == []


def test_cli_selfcheck_passes_where_converge_runs(tmp_path, capsys):
    # three periodic modes at T=2: the sweep's tail policy fits the default
    # budget, and the free-occupation check must fit it too
    cfg = tmp_path / "periodic.cfg"
    cfg.write_text("domain = interval\nbc = periodic\nK = 3\n"
                   "grid_points = 256\nT_schedule = 2, 2.5\n"
                   f"out_dir = {tmp_path}/out\n")
    assert cli.main(["selfcheck", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "PASS free_state_occupation" in out and "FAIL" not in out


def test_selfcheck_notes_say_one_class_on_k1(small_config):
    cfg = dataclasses.replace(small_config, K=1)
    by_name = {c.name: c for c in run_selfchecks(cfg)}
    assert all(c.passed for c in by_name.values())
    assert by_name["partial_trace_vs_normal_ordered_gibbs"].note == \
        "one class: cross-class reads not exercised"
    assert by_name["class_split"].note == "one class: split not exercised"


def test_jensen_bound_selfcheck_fails_on_doubled_reweighting(monkeypatch):
    # negative control: F_NL doubled in the weights exp(-F_NL) only, not in
    # the Wick closed form of <F_NL>_mu0, pushes -log Z_r past the bound
    cfg = gl.read_config(os.path.join(CONFIGS, "desk.cfg"))
    reweight = gl.classical.reweight

    def doubled(ensemble, tensor):
        return reweight(ensemble, dataclasses.replace(
            tensor, entries=2.0 * tensor.entries))

    monkeypatch.setattr(gl.classical, "reweight", doubled)
    check = {c.name: c for c in run_selfchecks(cfg)}["classical_jensen_bound"]
    assert not check.passed and check.measured > 10.0


def test_selfchecks_negative_control(small_config):
    checks = run_selfchecks(small_config, corrupt_determinism=True)
    by_name = {c.name: c for c in checks}
    assert not by_name["seed_determinism"].passed
    others = [c for c in checks if c.name != "seed_determinism"]
    assert all(c.passed for c in others)


def test_class_split_selfcheck_fails_on_a_corrupted_split(monkeypatch,
                                                          small_config):
    blocks = fock._class_blocks

    def shifted(basis, labels, lo, M):
        # class 1 of every split sector moved up by 1e-6; whole sectors and
        # one-class sectors are left as they are
        for n, rows, r, c, v in blocks(basis, labels, lo, M):
            if rows.size < basis.sector_dim(n) and labels[rows[0]] == 1:
                assert np.array_equal(np.sort(r[r == c]), np.arange(rows.size))
                v = v + 1e-6 * (r == c)
            yield n, rows, r, c, v

    monkeypatch.setattr(fock, "_class_blocks", shifted)
    by_name = {c.name: c for c in run_selfchecks(small_config)}
    assert not by_name["class_split"].passed
    assert by_name["class_split"].note == "2 classes"
    assert all(c.passed for c in by_name.values() if c.name != "class_split")


def test_summary_rows_carry_stage_times_outside_the_report(tmp_path,
                                                           small_config,
                                                           monkeypatch):
    # next to its wall seconds each stage records the peak RSS after it,
    # which never falls; without the resource module it is null
    res = run_convergence(small_config)
    csv_path, json_path = emit_report(res, tmp_path / "a")
    stages = ["solve_point", "rdm", "berezin_lieb", "trial_state",
              "relative_entropy"]
    peaks = []
    for row in json.load(open(json_path))["rows"]:
        assert set(row["stages"]) == set(stages)
        assert all(v >= 0.0 for v in row["stages"].values())
        assert sum(row["stages"].values()) <= row["wall_s"]
        assert set(row["stage_rss_mb"]) == set(stages)
        peaks += [row["stage_rss_mb"][s] for s in stages]
    assert peaks == sorted(peaks) and peaks[0] > 1.0
    monkeypatch.setattr(gl.convergence, "resource", None)
    res = run_convergence(small_config)
    _, null_json = emit_report(res, tmp_path / "c")
    for row in json.load(open(null_json))["rows"]:
        assert row["stage_rss_mb"] == dict.fromkeys(stages)
    for row in res.rows:
        row.stages, row.stage_rss_mb = {}, {}
    bare_csv, _ = emit_report(res, tmp_path / "b")
    assert open(csv_path, "rb").read() == open(bare_csv, "rb").read()


# ---------------------------------------------------------------- CLI tests

@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(CONFIG_TEXT.replace("out_dir = results",
                                        f"out_dir = {tmp_path}/out"))
    return path


def test_cli_spectrum(config_file, tmp_path, capsys):
    rc = cli.main(["spectrum", "--config", str(config_file)])
    assert rc == 0
    assert (tmp_path / "out" / "spectrum.csv").exists()
    assert "eigenvalues" in capsys.readouterr().out


def test_cli_sample(config_file, tmp_path):
    rc = cli.main(["sample", "--config", str(config_file)])
    assert rc == 0
    out = tmp_path / "out"
    assert (out / "ensemble.csv").exists()
    assert (out / "ensemble.json").exists()
    assert (out / "moments_k1.csv").exists()


def test_cli_sample_moments_match_per_order(config_file, tmp_path):
    assert cli.main(["sample", "--config", str(config_file)]) == 0
    cfg = gl.read_config(str(config_file))
    basis, tensor = gl.convergence.resolve(cfg)
    ens = gl.reweight(gl.sample_free(basis, cfg.mc_samples, cfg.seed), tensor)
    for k in range(1, cfg.k_max + 1):
        want = tmp_path / f"want_k{k}.csv"
        gl.classical.moments_to_csv(gl.moment_matrix(ens, k), want)
        got = tmp_path / "out" / f"moments_k{k}.csv"
        assert got.read_bytes() == want.read_bytes()


def test_cli_quantum(config_file, tmp_path):
    rc = cli.main(["quantum", "--config", str(config_file), "--T", "2.0"])
    assert rc == 0
    info = json.load(open(tmp_path / "out" / "quantum.json"))
    assert info["T"] == 2.0
    assert info["tail_mass"] < 1e-8
    assert (tmp_path / "out" / "quantum_k1.csv").exists()


def test_cli_quantum_assembles_the_hamiltonian_once_and_never_whole(
        config_file, tmp_path, monkeypatch):
    # the solve assembles H run by run and builds no whole H; <H> and <H_0>
    # come from the solved point and the pair term from the written k = 2
    # marginal, so no energy split builds H either
    build, runs = fock.build_hamiltonian, fock._hamiltonian_runs
    calls = {"build": 0, "runs": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(fock, "build_hamiltonian", counting("build", build))
    monkeypatch.setattr(fock, "_hamiltonian_runs", counting("runs", runs))
    assert cli.main(["quantum", "--config", str(config_file),
                     "--T", "2.0"]) == 0
    assert calls == {"build": 0, "runs": 1}
    monkeypatch.undo()
    energy = json.load(open(tmp_path / "out" / "quantum.json"))["energy"]
    cfg = gl.read_config(str(config_file))
    basis, tensor = gl.convergence.resolve(cfg)
    point = fock.solve_point(basis.eigenvalues, tensor, 2.0, k_max=cfg.k_max,
                             tail=cfg.n_max_policy)
    assert point.lam == 0.5
    assert energy["two_body"] == point.pair_energy == fock.pair_energy(
        point.marginals[2], tensor, point.lam)
    split = fock.energy_decomposition(point.gibbs, basis.eigenvalues, tensor,
                                      point.lam)
    for key in ("total", "one_body", "two_body"):
        assert energy[key] == pytest.approx(getattr(split, key), rel=1e-13)
    assert energy["total"] == pytest.approx(
        energy["one_body"] + energy["two_body"], rel=1e-12)


def test_cli_quantum_holds_no_gibbs_blocks(config_file, tmp_path,
                                          monkeypatch):
    # the marginals, tail mass and <N> come from the solved point, which
    # keeps no block; nothing gathers on blocks afterwards
    solve, points = fock.solve_point, []

    def recording(*args, **kwargs):
        points.append(solve(*args, **kwargs))
        return points[-1]

    def refuse(*args):
        raise AssertionError("quantum gathered marginals on kept blocks")

    monkeypatch.setattr(fock, "solve_point", recording)
    monkeypatch.setattr(fock, "_state_marginals", refuse)
    assert cli.main(["quantum", "--config", str(config_file),
                     "--T", "2.0"]) == 0
    [point] = points
    assert point.gibbs is None
    info = json.loads((tmp_path / "out" / "quantum.json").read_text())
    assert info["tail_mass"] == point.tail_mass
    assert info["particle_number"] == point.particle_number
    k_max = gl.read_config(str(config_file)).k_max
    assert sorted(point.marginals) == [1, 2] == list(range(1, k_max + 1))
    for k in range(1, k_max + 1):
        want = tmp_path / f"want_k{k}.csv"
        gl.classical.moments_to_csv(point.marginals[k], want)
        got = tmp_path / "out" / f"quantum_k{k}.csv"
        assert got.read_bytes() == want.read_bytes()
    assert not (tmp_path / "out" / f"quantum_k{k_max + 1}.csv").exists()
    # against the state of kept blocks
    basis, tensor = gl.convergence.resolve(gl.read_config(str(config_file)))
    kept = solve(basis.eigenvalues, tensor, 2.0)
    assert info["tail_mass"] == pytest.approx(
        kept.gibbs.sector_probabilities()[-2:].sum(), rel=1e-13)
    assert info["particle_number"] == pytest.approx(
        fock.particle_number(kept.gibbs), rel=1e-13)


def _refuses_over_budget_without_output(command, tmp_path, capsys, T="1000"):
    path = os.path.join(CONFIGS, "desk.cfg")
    out = tmp_path / "over"
    assert cli.main([command, "--config", path, "--T", T,
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "over the budget 20000" in err[0]
    assert not out.exists()


def test_cli_quantum_over_budget_leaves_no_output(tmp_path, capsys):
    _refuses_over_budget_without_output("quantum", tmp_path, capsys)


@pytest.mark.parametrize("command", ["spectrum", "sample"])
def test_cli_too_many_modes_leaves_no_output(config_file, tmp_path, capsys,
                                             command):
    config_file.write_text(config_file.read_text()
                           .replace("K = 2", "K = 40")
                           .replace("grid_points = 256", "grid_points = 64"))
    assert cli.main([command, "--config", str(config_file)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_cli_converge(config_file, tmp_path, capsys):
    rc = cli.main(["converge", "--config", str(config_file)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "wrote" in out
    assert (tmp_path / "out" / "report.csv").exists()
    props = json.load(open(tmp_path / "out" / "summary.json"))["properties"]
    assert props["insufficient_points"] is False and props["all"]


def test_cli_converge_prints_each_row_as_it_finishes(
        config_file, tmp_path, capsys, monkeypatch):
    # converge prints a row's stdout line before the next row starts,
    # through run_convergence's progress callback; run_convergence given
    # none prints nothing, and one given a callback passes it every row
    temperature_row, printed = gl.convergence._temperature_row, []

    def recording(*args):
        printed.append(capsys.readouterr())
        return temperature_row(*args)

    monkeypatch.setattr(gl.convergence, "_temperature_row", recording)
    assert cli.main(["converge", "--config", str(config_file)]) == 0
    printed.append(capsys.readouterr())
    assert all(err == "" for _, err in printed)
    out = [o.splitlines() for o, _ in printed]
    assert out[0] == [] and len(out[1]) == 1 and len(out[2]) == 2
    assert out[1][0].startswith("T=2.0 ") and out[2][0].startswith("T=4.0 ")
    assert out[2][1].startswith("wrote ")
    monkeypatch.undo()
    cfg = dataclasses.replace(gl.convergence.read_config(str(config_file)),
                              bl_samples=0, trial_subsample=0)
    res = run_convergence(cfg)
    seen = []
    again = run_convergence(cfg, progress=seen.append)
    assert capsys.readouterr() == ("", "")
    assert [r.T for r in seen] == [r.T for r in again.rows] == [2.0, 4.0]
    assert all(a is b for a, b in zip(seen, again.rows))
    assert [r.distances for r in res.rows] == [r.distances for r in seen]


def _desk_at_coupling(tmp_path, g):
    """configs/desk.cfg with 2000 samples, T = 5, 10 and kernel strength g."""
    text = open(os.path.join(CONFIGS, "desk.cfg")).read()
    for old, new in [("\ng = 1.0\n", f"\ng = {g}\n"),
                     ("mc_samples = 100000", "mc_samples = 2000"),
                     ("T_schedule = 5, 10, 20, 40", "T_schedule = 5, 10"),
                     ("out_dir = results/desk", f"out_dir = {tmp_path}/out")]:
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "strong.cfg"
    path.write_text(text)
    return str(path)


def test_cli_converge_refuses_weights_that_all_underflow(tmp_path, capsys):
    # every exp(-F_NL) is 0 in double precision, so Z_r and the ESS are 0/0
    path = _desk_at_coupling(tmp_path, "1e12")
    assert cli.main(["converge", "--config", path]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: every weight")
    assert "smallest F_NL 1.259" in err[0]


def test_cli_converge_fails_on_a_degenerate_ensemble(tmp_path, capsys):
    # one sample carries all the weight: ESS 1 of 2000
    path = _desk_at_coupling(tmp_path, "1e7")
    assert cli.main(["converge", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "property violation: classical ensemble is degenerate: ESS 1.0 " \
        "of 2000 samples" in err
    props = json.load(open(tmp_path / "out" / "summary.json"))["properties"]
    assert props["ensemble_degenerate"] is True and props["all"] is False
    assert props["all_valid"] and props["f_monotone"]


def test_cli_converge_fails_on_weights_below_the_square_range(tmp_path,
                                                               capsys):
    # every exp(-F_NL) lies below 1e-162, so (sum w)^2 and sum w^2 both
    # underflow; the ESS of the weights scaled to a largest of 1 still
    # reads 1 of 2000, and the ensemble is refused as degenerate
    path = _desk_at_coupling(tmp_path, "3e8")
    assert cli.main(["converge", "--config", path]) == 2
    assert "property violation: classical ensemble is degenerate: ESS 1.0 " \
        "of 2000 samples" in capsys.readouterr().err
    summary = json.load(open(tmp_path / "out" / "summary.json"))
    assert summary["ess"] == 1.0 and 0.0 < summary["z_r"] < 1e-162
    assert summary["properties"]["ensemble_degenerate"] is True


def test_cli_converge_passes_a_weak_coupling_ensemble(tmp_path):
    # the negative control of the degenerate verdicts: the same shape at
    # g = 1 keeps most of its samples
    path = _desk_at_coupling(tmp_path, "1.0")
    assert cli.main(["converge", "--config", path]) == 0
    summary = json.load(open(tmp_path / "out" / "summary.json"))
    assert summary["ess"] > 0.5 * 2000
    assert summary["properties"]["ensemble_degenerate"] is False
    assert summary["properties"]["all"] is True


@pytest.mark.parametrize("ess, degenerate", [
    (float("nan"), True), (float("inf"), True), (1.0, True),
    (99.0, True), (100.0, False), (2000.0, False)])
def test_a_non_finite_ess_is_degenerate(ess, degenerate):
    config = SimpleNamespace(k_max=1, mc_samples=2000)
    props = gl.evaluate_properties(SimpleNamespace(rows=[], ess=ess,
                                                   config=config))
    assert props["ensemble_degenerate"] is degenerate
    assert any(v.startswith("classical ensemble is degenerate")
               for v in props["violations"]) is degenerate


def test_cli_selfcheck_and_negative_control(config_file, capsys):
    assert cli.main(["selfcheck", "--config", str(config_file)]) == 0
    assert "PASS" in capsys.readouterr().out
    assert cli.main(["selfcheck", "--config", str(config_file),
                     "--corrupt"]) == 2
    assert "FAIL seed_determinism" in capsys.readouterr().out


def test_cli_seed_override_changes_output(config_file, tmp_path):
    cli.main(["sample", "--config", str(config_file), "--out",
              str(tmp_path / "s1"), "--seed", "1"])
    cli.main(["sample", "--config", str(config_file), "--out",
              str(tmp_path / "s2"), "--seed", "2"])
    a = open(tmp_path / "s1" / "ensemble.csv").read()
    b = open(tmp_path / "s2" / "ensemble.csv").read()
    assert a != b


def test_cli_one_point_schedule_exits_2(config_file, tmp_path, capsys):
    text = config_file.read_text()
    config_file.write_text(text.replace("T_schedule = 2.0, 4.0",
                                        "T_schedule = 2.0"))
    assert cli.main(["converge", "--config", str(config_file)]) == 2
    assert "monotonicity needs at least 2 valid temperatures" \
        in capsys.readouterr().err
    summary = json.load(open(tmp_path / "out" / "summary.json"))
    assert summary["rows"][0]["valid"]
    assert summary["properties"]["insufficient_points"]
    assert not summary["properties"]["all"]


def test_sweep_berezin_lieb_matches_the_library(config_file, tmp_path):
    assert cli.main(["converge", "--config", str(config_file)]) == 0
    summary = json.load(open(tmp_path / "out" / "summary.json"))
    cfg = gl.read_config(str(config_file))
    basis, tensor = gl.convergence.resolve(cfg)
    seeds = gl.convergence.row_seeds(cfg.seed, len(cfg.T_schedule))
    assert len(summary["rows"]) == len(seeds)
    for T, seed, row in zip(cfg.T_schedule, seeds, summary["rows"]):
        point = gl.solve_point(basis.eigenvalues, tensor, T,
                               tail=cfg.n_max_policy,
                               dim_budget=cfg.dim_budget)
        gap = semiclassics.BLGap.of(
            point.s_gibbs, semiclassics.husimi_kl_importance(
                point.gibbs, point.free, 1.0 / T, n_samples=cfg.bl_samples,
                seed=seed))
        # the closed form from the spectrum against a second eigensolve:
        # the desk sweep at seed 7 reads at most 2e-13 relative
        s_eig = fock.relative_entropy(point.gibbs, point.free)
        assert abs(point.s_gibbs - s_eig) <= 1e-12 * abs(s_eig)
        assert row["berezin_lieb"] == {
            "quantum": gap.quantum, "classical": gap.classical,
            "gap": gap.gap, "classical_stderr": gap.classical_stderr,
            "ess": gap.ess, "degenerate": gap.degenerate,
            "fallback_points": gap.fallback_points,
            "n_hi": {"min": gap.n_hi[0], "median": gap.n_hi[1],
                     "max": gap.n_hi[2]}}
        assert 0 < row["berezin_lieb"]["n_hi"]["min"] \
            <= row["berezin_lieb"]["n_hi"]["median"] \
            <= row["berezin_lieb"]["n_hi"]["max"] <= row["n_max"]


def test_desk_berezin_lieb_needs_no_full_basis_fallback():
    # every desk row at seeds 7 and 11: the Gibbs state's tail is far below
    # 2^-53, so no Husimi point is recomputed over the full basis
    cfg = gl.read_config(os.path.join(CONFIGS, "desk.cfg"))
    basis, tensor = gl.convergence.resolve(cfg)
    points = [gl.solve_point(basis.eigenvalues, tensor, T,
                             tail=cfg.n_max_policy, dim_budget=cfg.dim_budget)
              for T in cfg.T_schedule]
    for seed in (7, 11):
        seeds = gl.convergence.row_seeds(seed, len(cfg.T_schedule))
        for point, row_seed in zip(points, seeds):
            kl = semiclassics.husimi_kl_importance(
                point.gibbs, point.free, 1.0 / point.T,
                n_samples=cfg.bl_samples, seed=row_seed)
            assert kl.fallback_points == 0
            assert kl.n_hi[2] <= point.basis.n_max


@pytest.mark.parametrize("command", ["quantum"])
@pytest.mark.parametrize("T", ["0", "-1", "inf", "nan"])
def test_cli_non_positive_temperature_is_an_error(
        config_file, tmp_path, capsys, monkeypatch, command, T):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before --T was checked")

    monkeypatch.setattr(gl.fock, "solve_point", no_solve)
    assert cli.main([command, "--config", str(config_file), "--T", T]) == 1
    err = capsys.readouterr().err
    assert err.strip() == "error: --T must be a positive finite temperature"
    assert not (tmp_path / "out").exists()


def test_cli_refuses_a_coherent_point_past_the_float_range(config_file,
                                                          capsys):
    # one mode at T = 1000 (n_max 3879, within the budget): the coherent
    # walks of the Berezin-Lieb and trial stages meet points with |v|^2
    # above 1416.79, whose amplitudes would lose their bits; the sweep stops
    # with one error line instead of reporting them
    config_file.write_text(config_file.read_text().replace(
        "K = 2", "K = 1").replace("T_schedule = 2.0, 4.0",
                                  "T_schedule = 1000"))
    assert cli.main(["converge", "--config", str(config_file)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: coherent point with nu = |v|^2 = ")


@pytest.mark.parametrize("schedule, refused", [
    ("5, 5", True), ("5, 10", False), ("5, 10, 10, 20", True)],
    ids=["repeated", "control", "repeated-inner"])
def test_cli_refuses_a_repeated_temperature(config_file, tmp_path, capsys,
                                            monkeypatch, schedule, refused):
    # a repeated T compares a row with its own copy, so every monotonicity
    # verdict between the two would pass vacuously
    config_file.write_text(config_file.read_text().replace(
        "T_schedule = 2.0, 4.0", f"T_schedule = {schedule}"))
    if not refused:
        assert cli.main(["converge", "--config", str(config_file)]) == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "out" / "report.csv").exists()
        return

    def guard(*args, **kwargs):
        raise AssertionError("ran before the config was validated")

    monkeypatch.setattr(gl.classical, "sample_free", guard)
    assert cli.main(["converge", "--config", str(config_file)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: T_schedule must be strictly ascending"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("T", ["64000", "1e12"])
def test_cli_hot_temperature_is_refused_at_once(tmp_path, capsys, T):
    t0 = time.perf_counter()
    _refuses_over_budget_without_output("quantum", tmp_path, capsys, T)
    assert time.perf_counter() - t0 < 1.0


def test_cli_non_positive_dim_budget_is_an_error(config_file, tmp_path,
                                                capsys):
    config_file.write_text(config_file.read_text().replace(
        "dim_budget = 20000", "dim_budget = 0"))
    out = tmp_path / "budget"
    assert cli.main(["converge", "--config", str(config_file),
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: dim_budget must be positive"]
    assert not out.exists()


@pytest.mark.parametrize("name", sorted(n for n in os.listdir(CONFIGS)
                                          if n.endswith(".cfg")))
def test_committed_config_schedule_fits_its_budget(name):
    cfg = gl.read_config(os.path.join(CONFIGS, name))
    basis, _ = gl.convergence.resolve(cfg)
    for T in cfg.T_schedule:
        gl.choose_n_max(basis.eigenvalues, T, tail=cfg.n_max_policy,
                        dim_budget=cfg.dim_budget)


@pytest.mark.parametrize("name, overrides, n_max", [
    ("anharmonic.cfg", {}, (68, 131, 252)),
    ("free-case.cfg", {}, (41, 80)),
    ("desk.cfg", {"T_schedule": (80.0, 160.0), "dim_budget": 300000},
     (377, 723)),
])
def test_committed_config_cutoffs(name, overrides, n_max):
    cfg = dataclasses.replace(gl.read_config(os.path.join(CONFIGS, name)),
                              **overrides)
    basis, _ = gl.convergence.resolve(cfg)
    assert tuple(gl.choose_n_max(basis.eigenvalues, T, tail=cfg.n_max_policy,
                                 dim_budget=cfg.dim_budget)
                 for T in cfg.T_schedule) == n_max


@pytest.mark.parametrize("name", sorted(n for n in os.listdir(CONFIGS)
                                          if n.endswith(".cfg")))
def test_committed_config_has_both_parity_classes(name):
    # a silent fall back to one class would read as all zeros
    cfg = gl.read_config(os.path.join(CONFIGS, name))
    _, tensor = gl.convergence.resolve(cfg)
    assert set(tensor.parity.tolist()) == {0, 1}


@pytest.mark.parametrize("policy", ["2", "0", "1"])
def test_cli_n_max_policy_outside_unit_interval_is_an_error(
        config_file, tmp_path, capsys, monkeypatch, policy):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the config was validated")

    monkeypatch.setattr(gl.classical, "sample_free", no_sampling)
    config_file.write_text(config_file.read_text().replace(
        "n_max_policy = 1e-8", f"n_max_policy = {policy}"))
    assert cli.main(["converge", "--config", str(config_file)]) == 1
    err = capsys.readouterr().err
    assert err.strip() == "error: n_max_policy must lie in (0, 1)"
    assert not (tmp_path / "out" / "report.csv").exists()


@pytest.mark.parametrize("old, new, message", [
    ("T_schedule = 2.0, 4.0", "T_schedule = 2.0, inf",
     "T_schedule must hold positive finite temperatures"),
    ("T_schedule = 2.0, 4.0", "T_schedule = 2.0, nan",
     "T_schedule must hold positive finite temperatures"),
    ("g = 1.0", "g = inf", "kernel g and width must be finite"),
    ("g = 1.0", "g = nan", "kernel g and width must be finite"),
    ("kernel = delta", "kernel = gaussian\nwidth = nan",
     "kernel g and width must be finite"),
    ("kernel = delta\ng = 1.0", "kernel = gaussian\nwidth = 0.2\ng = inf",
     "kernel g and width must be finite"),
    ("m = 1.0", "m = nan", "m must be finite"),
    ("domain = interval", "domain = anharmonic\na = inf\nhalf_width = 6",
     "anharmonic exponent must satisfy 2 < a < inf"),
    ("domain = interval", "domain = anharmonic\na = 4\nhalf_width = nan",
     "anharmonic box needs 0 < half_width < inf"),
], ids=["T-inf", "T-nan", "g-inf", "g-nan", "width-nan", "gaussian-g-inf",
        "m-nan", "a-inf", "half_width-nan"])
def test_cli_non_finite_schedule_or_coupling_is_an_error(
        config_file, tmp_path, capsys, monkeypatch, old, new, message):
    def guard(*args, **kwargs):
        raise AssertionError("ran before the config was validated")

    monkeypatch.setattr(gl.classical, "sample_free", guard)
    monkeypatch.setattr(gl.fock, "solve_point", guard)
    config_file.write_text(config_file.read_text().replace(old, new))
    assert cli.main(["converge", "--config", str(config_file)]) == 1
    assert capsys.readouterr().err.strip() == f"error: {message}"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("keys", ["a = 4\nhalf_width = 6\n", ""],
                         ids=["with-a", "bare"])
def test_cli_unknown_domain_is_an_error(tmp_path, capsys, keys):
    bad = tmp_path / "foo.cfg"
    bad.write_text(f"domain = foo\n{keys}K = 1\n")
    assert cli.main(["spectrum", "--config", str(bad)]) == 1
    assert capsys.readouterr().err.strip() == "error: unknown domain 'foo'"


@pytest.mark.parametrize("keys", ["half_width = 6", "a = 4"])
def test_cli_anharmonic_without_a_or_half_width_is_an_error(tmp_path, capsys,
                                                            keys):
    bad = tmp_path / "anh.cfg"
    bad.write_text(f"domain = anharmonic\n{keys}\nK = 1\n")
    assert cli.main(["spectrum", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.strip() == "error: anharmonic domain needs a and half_width"


@pytest.mark.parametrize("domain, key", [
    ("interval", "a = 4"), ("interval", "half_width = 6"),
    ("anharmonic\na = 4\nhalf_width = 6", "bc = neumann")],
    ids=["interval-a", "interval-half_width", "anharmonic-bc"])
def test_cli_key_of_the_other_domain_is_an_error(tmp_path, capsys, domain,
                                                 key):
    bad = tmp_path / "mixed.cfg"
    bad.write_text(f"domain = {domain}\n{key}\nK = 1\n")
    assert cli.main(["spectrum", "--config", str(bad),
                     "--out", str(tmp_path / "out")]) == 1
    name = key.split(" = ")[0]
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: unknown config keys: ['{name}']"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("old, new, message", [
    ("", "coupling" "_rule = 1.0\n",
     "unknown config keys: ['coupling" "_rule']"),
    ("", "n_blocks = 50\n", "unknown config keys: ['n_blocks']"),
    ("kernel = delta\ng = 1.0\n", "kernel = zero\n",
     "unknown kernel name 'zero'"),
], ids=["coupling_rule", "n_blocks", "kernel-zero"])
def test_cli_deleted_setting_is_refused(config_file, tmp_path, capsys, old,
                                        new, message):
    # the coupling is 1/T, the block count a constant and the free case
    # g = 0, so the settings that spelled them are refused like any other
    # unknown key or kernel name
    text = config_file.read_text()
    assert old in text
    config_file.write_text(text.replace(old, "") + new)
    assert cli.main(["converge", "--config", str(config_file)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "out").exists()


def test_free_case_sweep_builds_no_pair_marginal(tmp_path, monkeypatch):
    # g = 0 and k_max = 1: the pair energy is 0 with no two-body marginal
    orders = _record_marginal_orders(monkeypatch)
    cfg = dataclasses.replace(
        gl.read_config(os.path.join(CONFIGS, "free-case.cfg")),
        out_dir=str(tmp_path))
    res = run_convergence(cfg)
    assert res.degenerate and all(row.valid for row in res.rows)
    assert orders == [(1,)] * len(res.rows)
    # negative control: with a pair term the same k_max = 1 sweep gathers
    # Gamma^(2) in each row's stream, for the pair energy
    orders.clear()
    res = run_convergence(dataclasses.replace(
        cfg, kernel=gl.InteractionKernel("delta", 1.0)))
    assert not res.degenerate and all(row.valid for row in res.rows)
    assert orders == [(1, 2)] * len(res.rows)


@pytest.mark.parametrize("where", ["key", "override"])
def test_cli_negative_seed_is_an_error(config_file, tmp_path, capsys, where):
    args = ["converge", "--config", str(config_file)]
    if where == "key":
        config_file.write_text(config_file.read_text().replace(
            "seed = 11", "seed = -1"))
    else:
        args += ["--seed", "-1"]
    assert cli.main(args) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: seed must be nonnegative"]
    assert not (tmp_path / "out").exists()


def test_cli_bad_number_is_a_one_line_error(config_file, tmp_path, capsys):
    config_file.write_text(config_file.read_text().replace(
        "mc_samples = 4000", "mc_samples = 1e5"))
    assert cli.main(["converge", "--config", str(config_file)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: config key mc_samples: expected an integer, "
                   "got '1e5'"]
    assert not (tmp_path / "out").exists()


def test_cli_out_of_memory_is_a_one_line_error(config_file, tmp_path,
                                               capsys):
    # 1e14 samples need 2.84 PiB, more than a 47-bit address space: the
    # allocation fails before it touches memory
    config_file.write_text(config_file.read_text().replace(
        "mc_samples = 4000", "mc_samples = 100000000000000"))
    assert cli.main(["converge", "--config", str(config_file)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: out of memory")
    assert not (tmp_path / "out").exists()


def test_cli_memory_error_without_text_still_says_memory(
        config_file, capsys, monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(gl.classical, "sample_measure", no_memory)
    assert cli.main(["converge", "--config", str(config_file)]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: out of memory"]


@pytest.mark.parametrize("command", ["spectrum", "sample", "quantum",
                                     "converge", "selfcheck"])
def test_cli_operator_not_positive_definite_is_an_error(tmp_path, capsys,
                                                        command):
    # lambda_1 = -3.94: converge used to sample NaN fields and spectrum to
    # print a NaN tail, the one with exit 2 and the other with exit 0
    bad = tmp_path / "negative.cfg"
    bad.write_text("domain = anharmonic\na = 4\nhalf_width = 6\nm = -5\n"
                   "grid_points = 256\nK = 2\nT_schedule = 4, 8\n"
                   "mc_samples = 2000\ntrial_subsample = 0\nbl_samples = 0\n"
                   f"out_dir = {tmp_path}/out\n")
    assert cli.main([command, "--config", str(bad)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: h is not positive definite: lambda_1 = -3.9399"]
    assert not (tmp_path / "out").exists()


def test_cli_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("domain = interval\nm = -3\nK = 1\n")
    assert cli.main(["spectrum", "--config", str(bad)]) == 1

"""Limit experiments: sweep (T, coupling = 1/T) and compare the sides.

For each temperature in the schedule the driver builds the grand-canonical
Gibbs state at coupling 1/T (the kernel's g sets the strength), rescales
its k-body marginals by k!/T^k and measures their trace-norm distance to
the classical moment matrices, plus the free-energy offset
(F_coupled - F_free)/T against -log Z_r. The classical ensemble is sampled
once (the measure does not depend on T), so distances at different T share
their Monte Carlo noise, which sharpens the monotonicity checks on purpose.
It is streamed by batch-means block (classical.sample_measure), and only
the rows the trial state reads are held.
"""

from __future__ import annotations

import json
import math
import os
import platform
import sys
import time
import warnings
from dataclasses import dataclass, field, fields

import numpy as np
import scipy
from scipy.linalg import eigvalsh
from scipy.special import logsumexp

try:
    import resource
except ImportError:  # not on this platform: per-stage RSS is null
    resource = None

from . import classical, fock, semiclassics
from .metrics import hs_distance, trace_norm_distance
from .spectral import InteractionKernel, OneBodySpec, SpectralBasis, \
    TwoBodyTensor, build_operator, eigendecompose, interaction_elements

__all__ = [
    "ExperimentConfig",
    "DistanceMetric",
    "ReportRow",
    "ConvergenceResult",
    "parse_config",
    "read_config",
    "config_to_dict",
    "resolve",
    "row_seeds",
    "run_convergence",
    "evaluate_properties",
    "emit_report",
    "run_selfchecks",
    "CheckResult",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one convergence sweep needs; mirrors the config-file keys."""

    spec: OneBodySpec
    kernel: InteractionKernel
    K: int
    T_schedule: tuple
    k_max: int = 2
    mc_samples: int = 100_000
    seed: int = 0
    n_max_policy: float = 1e-8
    dim_budget: int = 20000
    out_dir: str = "results"
    trial_subsample: int = 512
    bl_samples: int = 4000

    def __post_init__(self):
        sched = tuple(float(t) for t in self.T_schedule)
        if not sched or not all(0 < t < math.inf for t in sched):
            raise ValueError(
                "T_schedule must hold positive finite temperatures")
        # a repeated T would compare a row with its own copy: a vacuous pass
        if any(b <= a for a, b in zip(sched, sched[1:])):
            raise ValueError("T_schedule must be strictly ascending")
        object.__setattr__(self, "T_schedule", sched)
        if not 1 <= self.k_max <= 3:
            raise ValueError("k_max must lie in 1..3")
        if not 0 < self.n_max_policy < 1:
            raise ValueError("n_max_policy must lie in (0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.mc_samples < classical.N_BLOCKS:
            raise ValueError("mc_samples must be at least the "
                             f"{classical.N_BLOCKS} batch-means blocks")
        if not 0 <= self.trial_subsample <= self.mc_samples:
            raise ValueError("trial_subsample must lie in 0..mc_samples")
        if self.bl_samples != 0 and self.bl_samples < 10:
            raise ValueError("bl_samples must be 0 (off) or at least 10")
        if self.dim_budget < 1:
            raise ValueError("dim_budget must be positive")


def parse_config(text: str) -> ExperimentConfig:
    """Parse the key = value config format (# starts a comment)."""
    kv = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value")
        key, val = (s.strip() for s in line.split("=", 1))
        if key in kv:
            raise ValueError(f"config line {lineno}: duplicate key {key}")
        kv[key] = val

    def pop(key, kind, *default):
        """kv.pop(key, *default) as kind; a bad value's error names key."""
        text = kv.pop(key, *default)
        try:
            return kind(text)
        except ValueError:
            what = {int: "an integer", float: "a number"}.get(kind, "numbers")
            raise ValueError(f"config key {key}: expected {what}, "
                             f"got {text!r}") from None

    domain = kv.pop("domain", "interval").lower()
    if domain == "interval":
        spec = OneBodySpec.interval(bc=kv.pop("bc", "dirichlet"),
                                    m=pop("m", float, 1.0),
                                    grid_points=pop("grid_points", int, 512))
    elif domain == "anharmonic":
        if "a" not in kv or "half_width" not in kv:
            raise ValueError("anharmonic domain needs a and half_width")
        spec = OneBodySpec.anharmonic_line(
            a=pop("a", float), half_width=pop("half_width", float),
            m=pop("m", float, 0.0),
            grid_points=pop("grid_points", int, 1024))
    else:
        raise ValueError(f"unknown domain {domain!r}")

    kernel = InteractionKernel(name=kv.pop("kernel", "delta").lower(),
                               g=pop("g", float, 1.0),
                               width=pop("width", float, 0.0))

    sched = pop("T_schedule", lambda v: tuple(map(float, v.split(","))),
                "5,10,20,40")
    # the int and float fields of ExperimentConfig that the file sets
    nums = {f.name: pop(f.name, {"int": int, "float": float}[f.type])
            for f in fields(ExperimentConfig)
            if f.type in ("int", "float") and f.name in kv}
    out_dir = kv.pop("out_dir", "results")
    if kv:
        raise ValueError(f"unknown config keys: {sorted(kv)}")
    return ExperimentConfig(spec=spec, kernel=kernel, K=nums.pop("K", 2),
                            T_schedule=sched, out_dir=out_dir, **nums)


def read_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


def config_to_dict(cfg: ExperimentConfig) -> dict:
    spec = cfg.spec
    d = {"domain": spec.domain, "m": spec.m, "grid_points": spec.grid_points}
    if spec.domain == "interval":
        d["bc"] = spec.bc
    else:
        d["a"], d["half_width"] = spec.a, spec.half_width
    d.update(kernel=cfg.kernel.name, g=cfg.kernel.g, width=cfg.kernel.width)
    d.update({f.name: getattr(cfg, f.name) for f in fields(cfg)
              if f.name not in ("spec", "kernel")})
    d["T_schedule"] = list(cfg.T_schedule)
    return d


@dataclass(frozen=True)
class DistanceMetric:
    value: float
    stderr: float
    hs: float


@dataclass
class ReportRow:
    """Metrics of one temperature point."""

    T: float
    lam: float
    n_max: int
    tail_mass: float
    dim: int | None = None                          # Fock dim; None if invalid
    widest_block: int | None = None   # rows of the widest Gibbs class block
    distances: dict = field(default_factory=dict)   # k -> DistanceMetric
    f_value: float = math.nan
    f_target: float = math.nan
    f_stderr: float = 0.0
    trial_gap: float | None = None
    trial_tail_mass: float | None = None
    trial_window: list | None = None   # lowest, highest sector of the trial
    fe_identity_defect: float | None = None
    bl: semiclassics.BLGap | None = None
    wall_s: float = 0.0
    stages: dict = field(default_factory=dict)      # stage -> wall seconds
    stage_rss_mb: dict = field(default_factory=dict)  # stage -> peak RSS
    valid: bool = True
    error: str = ""
    notes: str = ""
    block_distances: dict = field(default_factory=dict, repr=False)


@dataclass
class ConvergenceResult:
    config: ExperimentConfig
    rows: list
    z_r: float
    z_r_stderr: float
    ess: float
    eigenvalues: np.ndarray
    mode_parity: list
    degenerate: bool
    wall_s: float
    classical: dict     # wall time and sample counts of the classical side


def resolve(config: ExperimentConfig):
    """Spectral basis and two-body tensor of a config."""
    basis = eigendecompose(build_operator(config.spec), config.K)
    return basis, interaction_elements(basis, config.kernel)


def row_seeds(seed: int, n: int) -> list:
    """Berezin-Lieb sampling seed of each of the first n schedule points."""
    return [int(s.generate_state(1)[0] % (1 << 31))
            for s in np.random.SeedSequence(seed).spawn(n)]


def _classical_side(config: ExperimentConfig, basis: SpectralBasis, tensor):
    """One streamed pass over the ensemble: the measure (its trial rows and
    ESS), Z_r and the moment matrices with their blocks (exact ones and no
    blocks when there is no interaction)."""
    degenerate = config.kernel.is_zero
    measure = classical.sample_measure(
        basis, tensor, config.mc_samples, config.seed,
        0 if degenerate else config.k_max, config.trial_subsample)
    if degenerate:
        moments = {k: classical.free_moments(basis.eigenvalues, k)
                   for k in range(1, config.k_max + 1)}
        blocks = dict.fromkeys(moments)
        z_r, z_err = 1.0, 0.0
    else:
        moments = {k: m for k, (m, _) in measure.moments.items()}
        blocks = {k: b for k, (_, b) in measure.moments.items()}
        z_r, z_err = measure.z_r, measure.z_r_stderr
    return measure, z_r, z_err, moments, blocks, degenerate


def _peak_rss_mb() -> float | None:
    """The process's peak resident size so far (ru_maxrss) in MiB; None
    without the resource module."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2.0**20 if sys.platform == "darwin" else 1024.0)


def _temperature_row(config: ExperimentConfig, basis: SpectralBasis,
                     tensor, ensemble, moments, blocks, degenerate: bool,
                     T: float, row_seed: int) -> ReportRow:
    t0 = time.perf_counter()
    stages, rss, clock = {}, {}, [t0]

    def lap(stage: str) -> None:
        """Add the wall time since the last lap to a stage and record the
        peak RSS after it."""
        now = time.perf_counter()
        stages[stage] = stages.get(stage, 0.0) + now - clock[0]
        rss[stage] = _peak_rss_mb()
        clock[0] = now

    try:
        # only the Berezin-Lieb stage reads the Gibbs blocks; the trial
        # state is built on the point's class layout once they are dropped
        point = fock.solve_point(
            basis.eigenvalues, tensor, T, k_max=config.k_max,
            keep_blocks=config.bl_samples > 0,
            tail=config.n_max_policy, dim_budget=config.dim_budget)
    except ValueError as exc:
        lap("solve_point")
        return ReportRow(T=T, lam=1.0 / T, n_max=-1, tail_mass=math.nan,
                         valid=False, error=str(exc),
                         wall_s=time.perf_counter() - t0, stages=stages,
                         stage_rss_mb=rss)
    lap("solve_point")
    fb, free_state = point.basis, point.free
    row = ReportRow(T=T, lam=point.lam, n_max=fb.n_max,
                    tail_mass=point.tail_mass, dim=fb.dim,
                    widest_block=max(rows.size for _, rows in point.layout),
                    stages=stages, stage_rss_mb=rss)
    notes = []
    if row.tail_mass >= config.n_max_policy:
        notes.append(f"interacting tail mass {row.tail_mass:.3e} is not below "
                     f"n_max_policy {config.n_max_policy:.1e}")
    for k in range(1, config.k_max + 1):
        scaled = math.factorial(k) / T**k * point.marginals[k].entries
        target = moments[k].entries
        d = trace_norm_distance(scaled, target)
        hs = hs_distance(scaled, target)
        db, se = None, 0.0
        if blocks[k] is not None:
            db = np.array([trace_norm_distance(scaled, Mb) for Mb in blocks[k]])
            se = float(db.std(ddof=1) / math.sqrt(len(db)))
        row.distances[k] = DistanceMetric(d, se, hs)
        row.block_distances[k] = db
    row.f_value = point.log_z_free - point.log_z
    pair = point.pair_energy
    # lam tr[W_2 Gamma^(2)] + <H_0> = <H> holds for any state; here W_2
    # comes from the Sym^2 pair matrix and the RDM gather, <H> from
    # two_body_coo through the eigensolve, <H_0> from the solved blocks'
    # diagonal; T f is exactly 0 in the free case, which reads it on the
    # scale of <H>
    scale = abs(point.energy) if degenerate else abs(T * row.f_value)
    row.fe_identity_defect = abs(
        pair + point.one_body_energy - point.energy) / max(scale, 1e-12)
    lap("rdm")

    if config.bl_samples > 0:
        row.bl = semiclassics.BLGap.of(
            point.s_gibbs, semiclassics.husimi_kl_importance(
                point.gibbs, free_state, 1.0 / T, n_samples=config.bl_samples,
                seed=row_seed))
        lap("berezin_lieb")
    fe_gibbs, layout = pair + T * point.s_gibbs, point.layout
    del point  # the Gibbs blocks are not held while the trial state is built
    if config.trial_subsample > 0:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", semiclassics.TailWarning)
            trial = semiclassics.trial_state(
                ensemble, T, fb, layout, n_subsample=config.trial_subsample)
        notes += [str(w.message) for w in caught
                  if issubclass(w.category, semiclassics.TailWarning)]
        probs = trial.sector_probabilities()
        row.trial_tail_mass = float(probs[-2:].sum())
        row.trial_window = [int(i) for i in np.flatnonzero(probs)[[0, -1]]]
        if row.trial_tail_mass >= config.n_max_policy:
            notes.append(f"trial tail mass {row.trial_tail_mass:.3e} is not "
                         f"below n_max_policy {config.n_max_policy:.1e}")
        lap("trial_state")
        row.trial_gap = fock.relative_free_energy(
            trial, free_state, tensor, row.lam, T) - fe_gibbs
        lap("relative_entropy")
    row.notes = "; ".join(notes)
    row.wall_s = time.perf_counter() - t0
    return row


def run_convergence(config: ExperimentConfig,
                    progress=None) -> ConvergenceResult:
    """Run the full sweep, one temperature row after another; progress, if
    given, is called with each row as it finishes. Nothing is printed."""
    t0 = time.perf_counter()
    basis, tensor = resolve(config)
    t1 = time.perf_counter()
    measure, z_r, z_err, moments, blocks, degenerate = _classical_side(
        config, basis, tensor)
    side = {"wall_s": time.perf_counter() - t1,
            "samples": config.mc_samples, "blocks": classical.N_BLOCKS,
            "held_samples": 0 if measure.head is None else measure.head.n}
    seeds = row_seeds(config.seed, len(config.T_schedule))
    rows = []
    for T, seed in zip(config.T_schedule, seeds):
        row = _temperature_row(config, basis, tensor, measure.head, moments,
                               blocks, degenerate, T, seed)
        row.f_target, row.f_stderr = -math.log(z_r), z_err / z_r
        rows.append(row)
        if progress is not None:
            progress(row)
    return ConvergenceResult(config=config, rows=rows, z_r=z_r,
                             z_r_stderr=z_err, ess=measure.ess,
                             eigenvalues=basis.eigenvalues,
                             mode_parity=tensor.parity.tolist(),
                             degenerate=degenerate,
                             wall_s=time.perf_counter() - t0, classical=side)


def evaluate_properties(result: ConvergenceResult) -> dict:
    """Monotone-convergence and ensemble verdicts; a violation fails all."""
    rows = [r for r in result.rows if r.valid]
    out = {"d_monotone": {}, "f_monotone": True, "violations": []}
    for k in range(1, result.config.k_max + 1):
        ok = True
        for a, b in zip(rows[:-1], rows[1:]):
            if k not in a.distances or k not in b.distances:
                continue
            slack = 1e-12
            if a.block_distances.get(k) is not None:
                diff = b.block_distances[k] - a.block_distances[k]
                slack += 2.0 * float(diff.std(ddof=1) / math.sqrt(diff.size))
            gap = b.distances[k].value - a.distances[k].value
            if gap > slack:
                ok = False
                out["violations"].append(
                    f"d_{k} rose by {gap:.3e} (> {slack:.3e}) "
                    f"from T={a.T} to T={b.T}")
        out["d_monotone"][k] = ok
    for a, b in zip(rows[:-1], rows[1:]):
        slack = 1e-12 + 2.0 * math.sqrt(2.0) * a.f_stderr
        gap = abs(b.f_value - b.f_target) - abs(a.f_value - a.f_target)
        if gap > slack:
            out["f_monotone"] = False
            out["violations"].append(
                f"|f + log Z_r| rose by {gap:.3e} from T={a.T} to T={b.T}")
    out["insufficient_points"] = len(rows) < 2
    if out["insufficient_points"]:
        out["violations"].append(
            "monotonicity needs at least 2 valid temperatures")
    ess, n = result.ess, result.config.mc_samples
    cut = classical.DEGENERATE_ESS
    out["ensemble_degenerate"] = not math.isfinite(ess) or ess < cut * n
    if out["ensemble_degenerate"]:
        out["violations"].append(f"classical ensemble is degenerate: ESS "
                                 f"{ess:.1f} of {n} samples, below {cut:.0%}")
    out["all_valid"] = all(r.valid for r in result.rows)
    out["all"] = out["all_valid"] and not out["violations"]
    return out


def _fmt(x) -> str:
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return ""
    return f"{x:.17g}"


def _finite_or_null(x):
    """x with every non-finite float in it replaced by None (JSON null)."""
    if isinstance(x, dict):
        return {k: _finite_or_null(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite_or_null(v) for v in x]
    return None if isinstance(x, float) and not math.isfinite(x) else x


def emit_report(result: ConvergenceResult, out_dir) -> tuple:
    """Write report.csv (one row per (T, k) metric plus one free-energy row
    per T) and summary.json; returns both paths. CSV content is a pure
    function of config + seed; wall-clock and the Python, numpy and scipy
    versions live only in the JSON, where a non-finite value is null."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "report.csv")
    json_path = os.path.join(out_dir, "summary.json")
    header = "T,lambda,n_max,tail_mass,metric,k,value,stderr,hs_value,target"
    lines = [header]
    for row in result.rows:
        base = f"{_fmt(row.T)},{_fmt(row.lam)},{row.n_max},{_fmt(row.tail_mass)}"
        for k in sorted(row.distances):
            m = row.distances[k]
            lines.append(f"{base},trace_distance,{k},{_fmt(m.value)},"
                         f"{_fmt(m.stderr)},{_fmt(m.hs)},")
        lines.append(f"{base},free_energy_delta,,{_fmt(row.f_value)},"
                     f"{_fmt(row.f_stderr)},,{_fmt(row.f_target)}")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    def row_dict(row: ReportRow) -> dict:
        d = {"T": row.T, "lambda": row.lam, "n_max": row.n_max,
             "tail_mass": row.tail_mass, "valid": row.valid, "error": row.error,
             "notes": row.notes,
             "f_value": row.f_value, "f_target": row.f_target,
             "f_stderr": row.f_stderr, "trial_gap": row.trial_gap,
             "fe_identity_defect": row.fe_identity_defect,
             "wall_s": row.wall_s, "stages": row.stages,
             "stage_rss_mb": row.stage_rss_mb,
             "distances": {str(k): {"value": m.value, "stderr": m.stderr,
                                    "hs": m.hs}
                           for k, m in row.distances.items()}}
        if row.dim is not None:
            d["dim"], d["widest_block"] = row.dim, row.widest_block
        if row.trial_tail_mass is not None:
            d["trial_tail_mass"] = row.trial_tail_mass
            d["trial_window"] = row.trial_window
        if row.bl is not None:
            d["berezin_lieb"] = {"quantum": row.bl.quantum,
                                 "classical": row.bl.classical,
                                 "gap": row.bl.gap,
                                 "classical_stderr": row.bl.classical_stderr,
                                 "ess": row.bl.ess,
                                 "degenerate": row.bl.degenerate,
                                 "fallback_points": row.bl.fallback_points,
                                 "n_hi": dict(zip(("min", "median", "max"),
                                                  row.bl.n_hi))}
        return d

    summary = {
        "config": config_to_dict(result.config),
        "z_r": result.z_r,
        "z_r_stderr": result.z_r_stderr,
        "ess": result.ess,
        "degenerate_free_case": result.degenerate,
        "targets": {"neg_log_z_r": -math.log(result.z_r),
                    "eigenvalues": list(result.eigenvalues)},
        "mode_parity": result.mode_parity,
        "rows": [row_dict(r) for r in result.rows],
        "properties": evaluate_properties(result),
        "wall_clock_s": result.wall_s,
        "classical": result.classical,
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__, "scipy": scipy.__version__},
    }
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(_finite_or_null(summary), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")
    return csv_path, json_path


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    note: str = ""


def run_selfchecks(config: ExperimentConfig,
                   corrupt_determinism: bool = False) -> list:
    """Cross-module identity checks; `corrupt_determinism` is a test hook
    that deliberately breaks the seed-splitting contract so the determinism
    check must fail (negative control)."""
    from scipy.integrate import quad

    checks = []
    basis, tensor = resolve(config)
    n_mc = min(config.mc_samples, 20000)

    # Gaussian moment closure at k = 1, 2 on the free ensemble
    free = classical.sample_free(basis, n_mc, config.seed)
    for k in (1, 2):
        est, se = classical.moment_matrix(free, k, with_stderr=True)
        exact = classical.free_moments(basis.eigenvalues, k)
        dev = np.abs(est.entries - exact.entries) / np.clip(se, 1e-30, None)
        worst = float(dev.max())
        checks.append(CheckResult(f"wick_k{k}", worst <= 5.0, worst, 5.0,
                                  "max |estimate - closed form| / stderr"))

    # quantum identities on a random sector-diagonal state
    fb = fock.build_fock_basis(min(config.K, 3), 6)
    state = fock.random_state(fb, config.seed)
    r_pt = fock.reduced_density_matrix(state, 2)
    r_no = fock.reduced_dm_normal_ordered(state, 2)
    diff = float(np.abs(r_pt.entries - r_no.entries).max())
    checks.append(CheckResult("partial_trace_vs_normal_ordered",
                              diff <= 1e-10, diff, 1e-10))
    g1 = fock.reduced_density_matrix(state, 1)
    n_diff = abs(g1.trace() - fock.particle_number(state))
    checks.append(CheckResult("number_identity", n_diff <= 1e-10, n_diff, 1e-10))

    lam_fb = basis.eigenvalues[:fb.K]
    tens_fb = TwoBodyTensor.with_parity(
        tensor.entries[:fb.K, :fb.K, :fb.K, :fb.K],
        tensor.parity[:fb.K])
    split = fock.energy_decomposition(state, lam_fb, tens_fb, 0.7)
    rel = abs(split.total - split.one_body - split.two_body) \
        / max(abs(split.total), 1e-12)
    checks.append(CheckResult("energy_decomposition", rel <= 1e-9, rel, 1e-9))

    # the same two routes on a Gibbs state stored as class blocks, so the
    # ladder route also checks the gather's reads across classes
    H_fb = fock.build_hamiltonian(fb, lam_fb, tens_fb, 0.7)
    gibbs_fb, _, _ = fock.gibbs_state(H_fb, float(lam_fb.sum()))
    diff = float(np.abs(fock.reduced_density_matrix(gibbs_fb, 2).entries
                        - fock.reduced_dm_normal_ordered(gibbs_fb, 2).entries
                        ).max())
    n_cls = np.unique(H_fb.labels).size
    checks.append(CheckResult(
        "partial_trace_vs_normal_ordered_gibbs", diff <= 1e-10, diff, 1e-10,
        f"{n_cls} classes" if n_cls > 1
        else "one class: cross-class reads not exercised"))

    # log Z of the class split, as the sweep's solve_point reports it at the
    # first schedule point, against the default driver on whole sectors
    T0 = config.T_schedule[0]
    point = fock.solve_point(basis.eigenvalues, tensor, T0,
                             keep_blocks=False, tail=config.n_max_policy,
                             dim_budget=config.dim_budget)
    H0 = fock.build_hamiltonian(point.basis, basis.eigenvalues, tensor,
                                point.lam)
    rows = np.arange(point.basis.dim)
    whole = [eigvalsh(H0.class_block(rows[point.basis.sector_slice(n)]))
             for n in range(point.basis.n_max + 1)]
    ref = float(logsumexp(-np.concatenate(whole) / T0))
    dev = abs(point.log_z - ref) / max(abs(ref), 1.0)
    n_cls = np.unique(H0.labels).size
    checks.append(CheckResult(
        "class_split", dev <= 1e-12, dev, 1e-12,
        f"{n_cls} classes" if n_cls > 1 else "one class: split not exercised"))

    # free Gibbs occupancies against the closed form, on at most two modes
    # (as the random-state checks cut K), so tail 1e-12 fits dim_budget
    T_chk = min(config.T_schedule[0], 2.0)
    lam_occ = basis.eigenvalues[:2]
    no_pair = TwoBodyTensor(np.zeros((lam_occ.size,) * 4))
    g_free = fock.solve_point(lam_occ, no_pair, T_chk, keep_blocks=False,
                              tail=1e-12, dim_budget=config.dim_budget).free
    occ = g_free.basis.occupations.T @ g_free.p
    exact_occ = 1.0 / (np.exp(lam_occ / T_chk) - 1.0)
    occ_diff = float(np.abs(occ - exact_occ).max())
    checks.append(CheckResult("free_state_occupation", occ_diff <= 1e-8,
                              occ_diff, 1e-8))

    # mean interaction energy under the free measure
    mi = classical.mean_F_NL_free(basis, tensor, n_samples=n_mc,
                                  seed=config.seed)
    if config.kernel.is_zero:
        mi_dev = abs(mi.mc_value - mi.closed_form)
        checks.append(CheckResult("mean_fnl_identity", mi_dev <= 1e-12,
                                  mi_dev, 1e-12, "zero kernel: vacuous"))
    else:
        mi_dev = abs(mi.mc_value - mi.closed_form) / max(mi.mc_stderr, 1e-30)
        checks.append(CheckResult("mean_fnl_identity", mi_dev <= 3.0,
                                  mi_dev, 3.0, "|MC - closed form| / stderr"))

    # coherent overlap law, tail-corrected; the bound covers the tails the
    # n_max = 30 cut drops, so their warnings are counted, not printed
    rng = np.random.default_rng(config.seed)
    fb_c = fock.build_fock_basis(2, 30)
    worst = 0.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", semiclassics.TailWarning)
        for _ in range(20):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            a = semiclassics.coherent(v, fb_c)
            b = semiclassics.coherent(w, fb_c)
            exact = np.exp(np.vdot(v, w) - 0.5 * np.vdot(v, v)
                           - 0.5 * np.vdot(w, w))
            bound = 1e-8 + math.sqrt(max(a.tail_bound * b.tail_bound, 0.0)) \
                + a.tail_bound + b.tail_bound
            defect = abs(semiclassics.coherent_overlap(a, b) - exact) / bound
            worst = max(worst, defect)
    tails = sum(issubclass(w.category, semiclassics.TailWarning)
                for w in caught)
    checks.append(CheckResult("coherent_overlap", worst <= 1.0, worst, 1.0,
                              f"defect / tail-corrected bound; {tails} "
                              "TailWarning(s) at n_max 30"))

    # Gibbs variational (Jensen) bound 0 <= -log Z_r <= <F_NL>_mu0 (Wick
    # closed form); measured is the signed excess over it in stderrs
    rw = classical.reweight(free, tensor)
    fe = classical.classical_relative_free_energy(rw)
    excess = max(-fe.value, fe.value - mi.closed_form) / max(fe.stderr, 1e-30)
    checks.append(CheckResult(
        "classical_jensen_bound", excess <= 3.0, excess, 3.0,
        "zero kernel: vacuous" if config.kernel.is_zero
        else "excess over [0, <F_NL>_mu0] / stderr"))

    # single-mode closed forms: geometric log Z and the quartic Z_r
    H1 = fock.build_hamiltonian(fock.build_fock_basis(1, 10), np.ones(1),
                                TwoBodyTensor(np.zeros((1,) * 4)), 0.0)
    _, log_z1, _ = fock.gibbs_state(H1, 1.0)
    exact_log_z1 = math.log((1.0 - math.exp(-11.0)) / (1.0 - math.exp(-1.0)))
    z_dev = abs(log_z1 - exact_log_z1)
    checks.append(CheckResult("single_mode_log_z", z_dev <= 1e-10, z_dev, 1e-10))

    quartic, _ = quad(lambda r: math.exp(-r - r * r), 0.0, np.inf)
    lam1 = np.array([1.0])
    occs1 = np.ones((1, basis.grid.n)) / math.sqrt(basis.grid.n * basis.grid.dx)
    synth = SpectralBasis(lam1, occs1, basis.grid, basis.spec)
    i4 = float(np.sum(occs1[0] ** 4) * basis.grid.dx)
    ens1 = classical.sample_free(synth, n_mc, config.seed + 1)
    rw1 = classical.reweight(ens1, interaction_elements(
        synth, InteractionKernel("delta", 2.0 / i4)))
    zq_dev = abs(rw1.z_r - quartic) / max(3.0 * rw1.z_r_stderr, 1e-30)
    checks.append(CheckResult("single_mode_quartic_zr", zq_dev <= 1.0,
                              zq_dev, 1.0, "|MC - quadrature| / 3 stderr"))

    # seed determinism (the corrupt hook changes the second draw's seed)
    e1 = classical.sample_free(basis, 512, config.seed)
    seed2 = config.seed + 1 if corrupt_determinism else config.seed
    e2 = classical.sample_free(basis, 512, seed2)
    identical = bool(np.array_equal(e1.coeffs, e2.coeffs))
    checks.append(CheckResult("seed_determinism", identical,
                              0.0 if identical else 1.0, 0.0))
    return checks

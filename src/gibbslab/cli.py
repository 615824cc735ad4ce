"""Command-line surface.

Subcommands: spectrum, sample, quantum, converge, selfcheck. Every command
takes --config PATH (the key = value experiment file), with --seed and
--out overrides. Exit codes: 0 success, 2 a checked property failed, 1
error (a bad config, a file error or too little memory).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from . import classical, convergence, fock
from .spectral import basis_to_csv, build_operator, eigendecompose, \
    schatten_trace


def _load(args) -> convergence.ExperimentConfig:
    cfg = convergence.read_config(args.config)
    updates = {"seed": args.seed, "out_dir": args.out}
    return dataclasses.replace(
        cfg, **{k: v for k, v in updates.items() if v is not None})


def _temperature(T: float) -> float:
    """A --T override, refused unless finite and positive, as in a schedule."""
    if not 0 < T < math.inf:
        raise ValueError("--T must be a positive finite temperature")
    return T


def _ensure_out(cfg) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return cfg.out_dir


def cmd_spectrum(args) -> int:
    cfg = _load(args)
    basis = eigendecompose(build_operator(cfg.spec), cfg.K)
    out = _ensure_out(cfg)
    path = os.path.join(out, "spectrum.csv")
    basis_to_csv(basis, path)
    tr = schatten_trace(basis, p=1.0)
    print(f"lowest {cfg.K} eigenvalues: "
          + ", ".join(f"{v:.6f}" for v in basis.eigenvalues))
    print(f"tr h^-1 = {tr.partial_sum:.6f} + tail {tr.tail_bound:.2e}"
          + (" (divergent)" if tr.divergent else ""))
    print(f"wrote {path}")
    return 0


def cmd_sample(args) -> int:
    cfg = _load(args)
    basis, tensor = convergence.resolve(cfg)
    ens = classical.sample_free(basis, cfg.mc_samples, cfg.seed)
    ens = classical.reweight(ens, tensor)
    out = _ensure_out(cfg)
    path = os.path.join(out, "ensemble.csv")
    classical.ensemble_to_csv(ens, path)
    fe = classical.classical_relative_free_energy(ens)
    summary = {"z_r": ens.z_r, "z_r_stderr": ens.z_r_stderr, "ess": ens.ess,
               "neg_log_z_r": fe.value, "mean_interaction": fe.mean_interaction,
               "entropy_term": fe.entropy_term}
    with open(os.path.join(out, "ensemble.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    for k, moment in classical.moment_matrices(ens, cfg.k_max).items():
        classical.moments_to_csv(moment, os.path.join(out, f"moments_k{k}.csv"))
    print(f"z_r = {ens.z_r:.6f} +- {ens.z_r_stderr:.2e} (ess {ens.ess:.0f})")
    print(f"wrote {path}")
    return 0


def cmd_quantum(args) -> int:
    cfg = _load(args)
    T = _temperature(args.T) if args.T is not None else cfg.T_schedule[0]
    basis, tensor = convergence.resolve(cfg)
    point = fock.solve_point(basis.eigenvalues, tensor, T, k_max=cfg.k_max,
                             keep_blocks=False, tail=cfg.n_max_policy,
                             dim_budget=cfg.dim_budget)
    out = _ensure_out(cfg)
    fb, n_max = point.basis, point.basis.n_max
    info = {"T": T, "lambda": point.lam, "n_max": n_max, "dim": fb.dim,
            "log_z": point.log_z, "log_z_free": point.log_z_free,
            "tail_mass": point.tail_mass,
            "particle_number": point.particle_number,
            "energy": {"total": point.energy,
                       "one_body": point.one_body_energy,
                       "two_body": point.pair_energy}}
    with open(os.path.join(out, "quantum.json"), "w", encoding="utf-8") as fh:
        json.dump(info, fh, indent=2, sort_keys=True)
    for k in range(1, cfg.k_max + 1):
        classical.moments_to_csv(point.marginals[k],
                                 os.path.join(out, f"quantum_k{k}.csv"))
    print(f"T={T} lambda={point.lam:.6g} n_max={n_max} dim={fb.dim} "
          f"<N>={info['particle_number']:.4f} tail={info['tail_mass']:.2e}")
    return 0


def _row_line(row: convergence.ReportRow) -> str:
    """One line on a finished temperature row."""
    if not row.valid:
        return f"T={row.T}: INVALID ({row.error})"
    dists = " ".join(f"d_{k}={m.value:.5f}+-{m.stderr:.1e}"
                     for k, m in sorted(row.distances.items()))
    return (f"T={row.T} n_max={row.n_max} tail={row.tail_mass:.2e} {dists} "
            f"|f+logZr|={abs(row.f_value - row.f_target):.5f} "
            f"[{row.wall_s:.1f}s]")


def cmd_converge(args) -> int:
    cfg = _load(args)
    result = convergence.run_convergence(
        cfg, progress=lambda row: print(_row_line(row), flush=True))
    csv_path, json_path = convergence.emit_report(result, cfg.out_dir)
    props = convergence.evaluate_properties(result)
    print(f"wrote {csv_path} and {json_path}")
    if not props["all"]:
        for v in props["violations"]:
            print(f"property violation: {v}", file=sys.stderr)
        return 2
    return 0


def cmd_selfcheck(args) -> int:
    cfg = _load(args)
    checks = convergence.run_selfchecks(cfg, corrupt_determinism=args.corrupt)
    width = max(len(c.name) for c in checks)
    failed = 0
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        failed += not c.passed
        print(f"{status} {c.name:<{width}} measured {c.measured:.3e} "
              f"(tolerance {c.tolerance:.3e}) {c.note}")
    return 2 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gibbslab",
        description="Grand-canonical Bose gas vs classical field measure, "
                    "at desk scale")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="key = value file")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=None, help="output directory")

    for name, fn, extra in [
        ("spectrum", cmd_spectrum, None),
        ("sample", cmd_sample, None),
        ("quantum", cmd_quantum, "T"),
        ("converge", cmd_converge, None),
        ("selfcheck", cmd_selfcheck, "corrupt"),
    ]:
        sp = sub.add_parser(name)
        common(sp)
        if extra == "T":
            sp.add_argument("--T", type=float, default=None,
                            help="single temperature instead of the schedule")
        if extra == "corrupt":
            sp.add_argument("--corrupt", action="store_true",
                            help=argparse.SUPPRESS)  # negative-control hook
        sp.set_defaults(fn=fn)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

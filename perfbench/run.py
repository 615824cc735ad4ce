"""Sweep benchmark: the `gibbslab converge` sweep, end to end and per layer.

Run from the root of a gibbslab checkout:

    python3 perfbench/run.py --workload desk --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 20 --trace 0

One sweep is `run_convergence` + `emit_report` on a workload of
workloads.py, each in a fresh child interpreter (child.py) with `src` first
on sys.path and every BLAS/OpenMP pool pinned to one thread. Sweeps repeat
until the next one would overrun --seconds; medians are reported.

--trace 0 reports the end-to-end metrics: sweep_s, setup_s (median time
to import gibbslab and build the config, over SETUP_PROBES set-up-only
interpreters and the sweep children) and peak_rss_mb (ru_maxrss of the
sweep child, in MiB). --trace 1 alternates an
untraced and a traced sweep and reports the per-layer metrics: self time
and call counts of each layer's public functions (tracer.py), shape guards
and health ratios read from summary.json, and trace_overhead_s.

Each sweep's rows go through gate.py; failed rows count in `failed`, and
their share is printed as failed_frac. The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}. Outputs land in
.perfbench_out/ under the current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import gate
from tracer import LAYERS
from workloads import (BASE_CONFIG, REFERENCE_SEED, SCHEDULE_SLOTS,
                       WORKLOADS)

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 900
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

# Per-layer metric -> traced functions whose self times it sums.
SELF_TIME_METRICS = {
    "spectral.resolve_s": ("spectral.build_operator",
                           "spectral.eigendecompose",
                           "spectral.interaction_elements"),
    "classical.sample_free_s": ("classical.sample_free",),
    "classical.reweight_s": ("classical.reweight",),
    "classical.moment_matrix_s": ("classical.moment_matrix",
                                  "classical.moment_matrix_blocks"),
    "fock.choose_n_max_s": ("fock.choose_n_max",),
    "fock.build_fock_basis_s": ("fock.build_fock_basis",),
    "fock.build_hamiltonian_s": ("fock.build_hamiltonian",),
    "fock.gibbs_state_s": ("fock.gibbs_state",),
    "fock.eigh_s": ("fock.eigh",),
    "fock.relative_entropy_s": ("fock.relative_entropy",),
    "fock.reduced_density_matrix_s": ("fock.reduced_density_matrix",),
    "semiclassics.trial_state_s": ("semiclassics.trial_state",),
    "semiclassics.husimi_density_s": ("semiclassics.husimi_density",),
    "semiclassics.berezin_lieb_gap_s": ("semiclassics.berezin_lieb_gap",),
    "kernels.occupation_products_s": ("kernels.occupation_products",),
    "kernels.two_body_coo_s": ("kernels.two_body_coo",),
    "metrics.trace_norm_distance_s": ("metrics.trace_norm_distance",),
    "convergence.glue_self_s": ("convergence.run_convergence",),
    "convergence.emit_report_s": ("convergence.emit_report",),
}
CALL_METRICS = {
    "fock.eigh_calls": "fock.eigh",
    "kernels.occupation_products_calls": "kernels.occupation_products",
    "metrics.trace_norm_distance_calls": "metrics.trace_norm_distance",
}
UNITS = {"_s": "s", "_calls": "count", "_elems": "count", "_mb": "MiB",
         "_ratio": "ratio"}


class BenchError(RuntimeError):
    pass


def unit_of(name: str) -> str:
    """Unit from the name's suffix; per-point metrics end in `.<i>`."""
    head, _, tail = name.rpartition(".")
    base = head if tail.isdigit() else name
    for suffix, unit in UNITS.items():
        if base.endswith(suffix):
            return unit
    return "count"


def git_revision(root: str) -> str:
    """HEAD of root/.git read from its files; 'unknown' outside a repo."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_child(mode: str, workload: str, seed: int, out: str,
              trace: bool = False) -> dict:
    os.makedirs(out, exist_ok=True)
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, os.path.join(HERE, "child.py"), mode,
           "--workload", workload, "--seed", str(seed), "--out", out]
    if trace:
        cmd.append("--trace")
    # The child's stdout goes to our stderr: our last stdout line is the result.
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise BenchError(f"{mode} child for {workload} exited with "
                         f"code {proc.returncode}")
    with open(os.path.join(out, "child.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_sweep(workload, seed: int, out: str, trace: bool) -> dict:
    """One sweep child plus the gate verdict on what it wrote."""
    child = run_child("sweep", workload.name, seed, out, trace)
    with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
        child["summary"] = json.load(fh)
    with open(os.path.join(out, "report.csv"), encoding="utf-8") as fh:
        child["report"] = fh.read()
    reference = None
    if seed == REFERENCE_SEED:
        path = os.path.join(HERE, "reference", workload.name, "report.csv")
        with open(path, encoding="utf-8") as fh:
            reference = fh.read()
    child["reference"] = reference
    dims = child["trace"]["dims"] if trace else None
    child["row_failures"] = gate.row_failures(
        workload, child["summary"], child["report"], reference, dims)
    return child


def repeat(seconds: float, once) -> list:
    """Call once(i) for i = 0, 1, ... until `seconds` have passed."""
    start = time.perf_counter()
    runs = []
    while not runs or time.perf_counter() - start < seconds:
        runs.append(once(len(runs)))
    return runs


def layer_metrics(traced: dict) -> dict:
    """Per-layer metrics of one traced sweep; absent where a traced name no
    longer exists in the package."""
    tr, summary = traced["trace"], traced["summary"]
    self_s, calls, wrapped = tr["self_s"], tr["calls"], set(tr["wrapped"])
    m = {}
    for metric, names in SELF_TIME_METRICS.items():
        if wrapped.intersection(names):
            m[metric] = sum(self_s.get(n, 0.0) for n in names)
    for metric, name in CALL_METRICS.items():
        if name in wrapped:
            m[metric] = calls.get(name, 0)
    if "kernels.occupation_products" in wrapped:
        m["kernels.occupation_products_elems"] = tr["occupation_products_elems"]
    for layer in LAYERS:
        names = [n for n in wrapped if n.split(".", 1)[0] == layer]
        if names:
            m[f"{layer}.self_s"] = sum(self_s.get(n, 0.0) for n in names)
    config, rows = summary["config"], summary["rows"]
    m["classical.ess_ratio"] = summary["ess"] / config["mc_samples"]
    bl = [r["berezin_lieb"]["ess"] for r in rows if "berezin_lieb" in r]
    m["semiclassics.bl_ess_ratio"] = \
        min(bl) / config["bl_samples"] if bl else 0.0
    for i in range(SCHEDULE_SLOTS):
        row = rows[i] if i < len(rows) else {}
        m[f"fock.n_max.{i}"] = max(row.get("n_max", 0), 0)
        if "fock.build_fock_basis" in wrapped:
            m[f"fock.dim.{i}"] = tr["dims"][i] if i < len(tr["dims"]) else 0
        m[f"convergence.row_s.{i}"] = row.get("wall_s", 0.0)
    m["convergence.properties_ok"] = int(bool(summary["properties"]["all"]))
    return m


def median(values) -> float:
    return float(statistics.median(values))


def measure(workload, seed: int, seconds: float, trace: bool,
            out_root: str) -> dict:
    def sweep_dir(i, kind):
        return os.path.join(out_root, f"{kind}{i}")

    if trace:
        def pair(i):
            return (run_sweep(workload, seed, sweep_dir(i, "sweep"), False),
                    run_sweep(workload, seed, sweep_dir(i, "traced"), True))
        pairs = repeat(seconds, pair)
        sweeps = [s for p in pairs for s in p]
        per_run = [layer_metrics(traced) for _, traced in pairs]
        metrics = {name: median(m[name] for m in per_run)
                   for name in per_run[0]}
        metrics["trace_overhead_s"] = (
            median(t["sweep_s"] for _, t in pairs)
            - median(u["sweep_s"] for u, _ in pairs))
    else:
        probes = [run_child("setup", workload.name, seed,
                            os.path.join(out_root, f"setup{i}"))
                  for i in range(SETUP_PROBES + 1)]
        sweeps = repeat(seconds, lambda i: run_sweep(
            workload, seed, sweep_dir(i, "sweep"), False))
        # The first probe also writes the bytecode caches; it is not counted.
        setup = [p["setup_s"] for p in probes[1:] + sweeps]
        metrics = {"sweep_s": median(s["sweep_s"] for s in sweeps),
                   "setup_s": median(setup),
                   "peak_rss_mb": median(s["peak_rss_mb"] for s in sweeps)}

    failures = [f for s in sweeps for f in s["row_failures"]]
    problems = [f"row {i % len(workload.n_max)}: {f}"
                for i, f in enumerate(failures) if f]
    env = sweeps[0]["env"]
    if any(n != 1 for n in env["blas_threads"].values()):
        problems.append(f"BLAS pools not pinned: {env['blas_threads']}")
    for s in sweeps:
        if s.get("trace") and \
                abs(s["trace"]["root_s"] - s["sweep_s"]) > 0.01 * s["sweep_s"]:
            problems.append("traced spans do not cover the sweep")
    if trace:
        metrics["convergence.report_identical"] = int(
            all(s["report"] == s["reference"] for s in sweeps))
    if seed == REFERENCE_SEED and \
            not all(s["summary"]["properties"]["all"] for s in sweeps):
        problems.append("evaluate_properties verdict failed at the "
                        "reference seed")
    return {"workload": workload.name, "seed": seed, "sweeps": len(sweeps),
            "env": env, "attempted": len(failures),
            "failed": sum(1 for f in failures if f),
            "problems": problems, "metrics": metrics,
            "correct": not problems}


def print_result(res: dict) -> None:
    env = res["env"]
    print(f"workload {res['workload']}  seed {res['seed']}  "
          f"sweeps {res['sweeps']}  rev {env['revision']}")
    print(f"  env: BLAS threads {env['blas_threads']} "
          f"(OMP_NUM_THREADS={env['omp_num_threads']}), "
          f"numpy {env['numpy']}, scipy {env['scipy']}, blas {env['blas']}, "
          f"nproc {env['nproc']}, KERNEL_BACKEND {env['kernel_backend']}")
    for name, value in res["metrics"].items():
        print(f"  {name:40s} {value:.6g} {unit_of(name)}")
    frac = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    print(f"  {'failed_frac':40s} {frac:.6g} fraction "
          f"({res['failed']}/{res['attempted']} rows)")
    for p in res["problems"]:
        print(f"  FAILED {p}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    for need in ("src/gibbslab/__init__.py", BASE_CONFIG):
        if not os.path.isfile(os.path.join(root, need)):
            print(f"error: {need} not found; run from the root of a gibbslab "
                  f"checkout", file=sys.stderr)
            return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            out_root = os.path.join(root, OUT_DIR, name)
            shutil.rmtree(out_root, ignore_errors=True)
            res = measure(WORKLOADS[name], args.seed, args.seconds,
                          bool(args.trace), out_root)
            res["env"]["revision"] = git_revision(root)
            with open(os.path.join(out_root, "result.json"), "w",
                      encoding="utf-8") as fh:
                json.dump(res, fh, indent=1, sort_keys=True)
            print_result(res)
            results.append(res)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results
                   for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

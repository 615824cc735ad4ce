"""One fresh interpreter of the sweep benchmark; started by run.py.

    child.py setup --workload W --seed N --out DIR
        import gibbslab and build the workload config, timing both.
    child.py sweep --workload W --seed N --out DIR [--trace]
        the same, then one `run_convergence` + `emit_report` into DIR.

The caller pins the BLAS/OpenMP pools through the environment before this
interpreter starts. Results go to DIR/child.json; report.csv and
summary.json are the program's own output files.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import sys
import time

from workloads import BASE_CONFIG, WORKLOADS

SRC = os.path.abspath("src")


def blas_threads() -> dict:
    """Thread count of each OpenBLAS pool numpy and scipy ship, if found."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  loads scipy's own BLAS

    out = {}
    for pkg in (numpy, scipy):
        libdir = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)),
                              pkg.__name__ + ".libs")
        for path in glob.glob(os.path.join(libdir, "*openblas*")):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[pkg.__name__] = int(fn())
                    break
    return out


def environment(gibbslab) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas_name,
            "blas_threads": blas_threads(), "nproc": nproc,
            "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
            "kernel_backend": getattr(gibbslab, "KERNEL_BACKEND", "absent")}


def trace_observers(counts: dict, dims: list) -> dict:
    def products(args, kwargs, result):
        vs = args[0] if args else kwargs["vs"]
        occs = args[1] if len(args) > 1 else kwargs["occs"]
        counts["occupation_products_elems"] += len(vs) * len(occs)

    def fock_basis(args, kwargs, result):
        dims.append(int(result.dim))

    return {"kernels.occupation_products": products,
            "fock.build_fock_basis": fock_basis}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "sweep"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    sys.path.insert(0, SRC)

    t0 = time.perf_counter()
    import dataclasses

    import gibbslab
    from gibbslab import convergence

    cfg = dataclasses.replace(convergence.read_config(BASE_CONFIG),
                              seed=args.seed, out_dir=args.out,
                              **workload.overrides)
    out = {"setup_s": time.perf_counter() - t0}
    if os.path.dirname(os.path.abspath(gibbslab.__file__)) != \
            os.path.join(SRC, "gibbslab"):
        raise SystemExit(f"imported gibbslab from {gibbslab.__file__}, "
                         f"not from {SRC}")

    if args.mode == "sweep":
        out["env"] = environment(gibbslab)
        tracer = None
        if args.trace:
            from tracer import Tracer

            counts = {"occupation_products_elems": 0}
            dims = []
            tracer = Tracer()
            tracer.install(observers=trace_observers(counts, dims))
        t = time.perf_counter()
        result = convergence.run_convergence(cfg)
        convergence.emit_report(result, args.out)
        out["sweep_s"] = time.perf_counter() - t
        out["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            out["trace"] = {"self_s": tracer.self_times(),
                            "calls": tracer.calls(),
                            "wrapped": sorted(tracer.wrapped),
                            "root_s": tracer.root_time(),
                            "dims": dims, **counts}
    with open(os.path.join(args.out, "child.json"), "w",
              encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Time the numpy kernels of gibbslab.kernels.

Times the two hot loops on realistic shapes: a two-mode Fock basis at the
cutoff a T=40 convergence run needs, and coherent-amplitude batches over
its full dimension. Run as

    python benchmarks/bench_kernels.py [--quick]
"""

import argparse
import time

import numpy as np

from gibbslab import build_fock_basis
from gibbslab.kernels import occupation_products, two_body_coo


def timeit(fn, *args, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true",
                        help="small shapes (used by the test suite)")
    args = parser.parse_args()

    if args.quick:
        fb = build_fock_basis(2, 30)
        n_samples = 200
    else:
        fb = build_fock_basis(2, 197)
        n_samples = 2000

    rng = np.random.default_rng(0)
    vs = rng.standard_normal((n_samples, fb.K)) \
        + 1j * rng.standard_normal((n_samples, fb.K))
    W = rng.uniform(0.2, 1.0, (fb.K,) * 4)
    W = W + W.transpose(2, 3, 0, 1)
    W = W + W.transpose(1, 0, 3, 2)

    print(f"fock dim {fb.dim}, {n_samples} amplitude rows, K={fb.K}")
    print(f"{'kernel':<22} {'time [s]':>12}")
    for name, fn, fn_args in [
        ("occupation_products", occupation_products, (vs, fb.occupations)),
        ("two_body_coo", two_body_coo,
         (fb.occupations, fb.table, fb.strides, W)),
    ]:
        print(f"{name:<22} {timeit(fn, *fn_args):>12.5f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Regenerate reference/<workload>/report.csv at the committed seed.

Run from the root of a gibbslab checkout:

    python3 perfbench/update_reference.py [workload ...]

The gate compares every sweep at REFERENCE_SEED with these files. A change
that alters report.csv on purpose regenerates them and states which rows
changed and why.
"""

from __future__ import annotations

import os
import shutil
import sys

import run
from workloads import REFERENCE_SEED, WORKLOADS


def main(argv=None) -> int:
    names = sys.argv[1:] if argv is None else argv
    for name in names or sorted(WORKLOADS):
        out = os.path.join(run.OUT_DIR, "reference", name)
        run.run_child("sweep", name, REFERENCE_SEED, out)
        dst = os.path.join(run.HERE, "reference", name)
        os.makedirs(dst, exist_ok=True)
        shutil.copyfile(os.path.join(out, "report.csv"),
                        os.path.join(dst, "report.csv"))
        print(f"wrote {os.path.join(dst, 'report.csv')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

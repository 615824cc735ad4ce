"""Correctness gate of the sweep benchmark: which temperature rows failed.

One temperature row is one operation. A row fails when
  * it is missing or invalid;
  * its T, n_max or (when observed) Fock dim differs from the declared
    shape, or the run's config differs from the declared work
    (`Workload.declared`): a speed-up never comes from less work;
  * the trial state or the Berezin-Lieb gap the config asks for is absent;
  * trial_gap < -1e-8 (the variational bound is broken);
  * fe_identity_defect > 1e-10 (the Gibbs free-energy identity is broken);
  * its Berezin-Lieb estimate is degenerate;
  * a reference report is given (the committed seed only) and the row's
    report.csv lines leave it by more than REL_TOL relative (ABS_TOL
    absolute), or differ in any non-numeric field.
"""

from __future__ import annotations

import math

TRIAL_GAP_FLOOR = -1e-8
FE_DEFECT_MAX = 1e-10
REL_TOL = 1e-9
ABS_TOL = 1e-12


def config_mismatches(declared: dict, config: dict) -> list[str]:
    return [f"{key}={config.get(key)!r}, declared {want!r}"
            for key, want in declared.items() if config.get(key) != want]


def _report_groups(text: str):
    """Header and the report.csv lines grouped by their T field, in order."""
    lines = text.splitlines()
    groups = {}
    for line in lines[1:]:
        fields = line.split(",")
        groups.setdefault(fields[0], []).append(fields)
    return (lines[0] if lines else ""), list(groups.values())


def _field_close(a: str, b: str) -> bool:
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    return math.isfinite(x) and math.isfinite(y) and \
        abs(x - y) <= REL_TOL * max(abs(x), abs(y)) + ABS_TOL


def _lines_close(got: list, ref: list) -> bool:
    return len(got) == len(ref) and all(
        len(g) == len(r) and all(map(_field_close, g, r))
        for g, r in zip(got, ref))


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def row_failures(workload, summary: dict, report: str,
                 reference: str | None = None,
                 dims: list | None = None) -> list[str]:
    """One entry per declared schedule point: '' if the row passed, else
    the reasons it failed, joined by '; '."""
    schedule = workload.declared["T_schedule"]
    rows = summary.get("rows", [])
    config_bad = config_mismatches(workload.declared, summary.get("config", {}))
    header, groups = _report_groups(report)
    ref_header, ref_groups = _report_groups(reference or "")
    out = []
    for i, T in enumerate(schedule):
        if i >= len(rows):
            out.append("row missing")
            continue
        row = rows[i]
        why = list(config_bad)
        if not row.get("valid", False):
            why.append(f"invalid: {row.get('error', '')}")
        if row.get("T") != T:
            why.append(f"T={row.get('T')}, declared {T}")
        if row.get("n_max") != workload.n_max[i]:
            why.append(f"n_max={row.get('n_max')}, "
                       f"declared {workload.n_max[i]}")
        if dims is not None and (i >= len(dims)
                                 or dims[i] != workload.dims[i]):
            got = dims[i] if i < len(dims) else None
            why.append(f"Fock dim={got}, declared {workload.dims[i]}")
        gap = row.get("trial_gap")
        defect = row.get("fe_identity_defect")
        if workload.declared["trial_subsample"] > 0 \
                and (gap is None or defect is None):
            why.append("trial state skipped")
        if gap is not None and not (_finite(gap) and gap >= TRIAL_GAP_FLOOR):
            why.append(f"trial_gap={gap} < {TRIAL_GAP_FLOOR}")
        if defect is not None and not (_finite(defect)
                                       and defect <= FE_DEFECT_MAX):
            why.append(f"fe_identity_defect={defect} > {FE_DEFECT_MAX}")
        bl = row.get("berezin_lieb")
        if workload.declared["bl_samples"] > 0 and bl is None:
            why.append("Berezin-Lieb gap skipped")
        if bl is not None and bl.get("degenerate", True):
            why.append("degenerate Berezin-Lieb estimate")
        if reference is not None:
            if header != ref_header:
                why.append("report.csv header differs from the reference")
            elif i >= len(groups) or i >= len(ref_groups) \
                    or not _lines_close(groups[i], ref_groups[i]):
                why.append("report.csv lines leave the reference")
        out.append("; ".join(why))
    return out

"""Negative controls of the benchmark's correctness gate.

Run from the root of a checkout: python3 -m pytest perfbench/tests
"""

import dataclasses
import os

import pytest

import gate
from workloads import WORKLOADS

REFERENCE = os.path.join(os.path.dirname(gate.__file__), "reference")


def reference(name: str) -> str:
    with open(os.path.join(REFERENCE, name, "report.csv"),
              encoding="utf-8") as fh:
        return fh.read()


def passing_summary(workload) -> dict:
    """A summary.json every check of the gate accepts."""
    trial = workload.declared["trial_subsample"] > 0
    rows = []
    for T, n_max in zip(workload.declared["T_schedule"], workload.n_max):
        row = {"T": T, "n_max": n_max, "valid": True, "error": "",
               "trial_gap": 1.0 if trial else None,
               "fe_identity_defect": 1e-15 if trial else None}
        if workload.declared["bl_samples"] > 0:
            row["berezin_lieb"] = {"degenerate": False, "ess": 3900.0}
        rows.append(row)
    return {"config": dict(workload.declared), "rows": rows}


def with_value(report: str, line_no: int, scale: float) -> str:
    """report.csv with the `value` field of one data line multiplied."""
    lines = report.splitlines()
    fields = lines[line_no].split(",")
    fields[6] = repr(float(fields[6]) * scale)
    lines[line_no] = ",".join(fields)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_run_passes(name):
    w = WORKLOADS[name]
    ref = reference(name)
    assert gate.row_failures(w, passing_summary(w), ref, ref,
                             dims=list(w.dims)) == [""] * len(w.n_max)


def test_corrupted_reference_value_fails_its_row_only():
    w = WORKLOADS["desk"]
    ref = reference("desk")
    # Line 7 is the first report line of the third temperature (T=20).
    assert ref.splitlines()[7].startswith("20,")
    got = gate.row_failures(w, passing_summary(w), with_value(ref, 7, 1 + 1e-6),
                            ref)
    assert [bool(f) for f in got] == [False, False, True, False]
    assert "leave the reference" in got[2]


def test_last_digit_noise_is_tolerated():
    w = WORKLOADS["desk"]
    ref = reference("desk")
    noisy = with_value(ref, 7, 1 + 1e-15)
    assert noisy != ref
    assert gate.row_failures(w, passing_summary(w), noisy, ref) == [""] * 4


def test_reference_ignored_off_the_committed_seed():
    w = WORKLOADS["desk"]
    corrupted = with_value(reference("desk"), 7, 2.0)
    assert gate.row_failures(w, passing_summary(w), corrupted) == [""] * 4


@pytest.mark.parametrize("key, value", [("mc_samples", 50_000),
                                        ("bl_samples", 1000),
                                        ("trial_subsample", 256),
                                        ("dim_budget", 10_000),
                                        ("T_schedule", [5.0, 10.0, 20.0])])
def test_shrunk_config_fails_every_row(key, value):
    w = WORKLOADS["desk"]
    summary = passing_summary(w)
    summary["config"][key] = value
    assert all(gate.row_failures(w, summary, ""))


def test_shrunk_shape_fails():
    w = WORKLOADS["ed-k3"]
    summary = passing_summary(w)
    summary["rows"][3]["n_max"] = 41
    got = gate.row_failures(w, summary, "", dims=[816, 4495, 13244, 13244])
    assert [bool(f) for f in got] == [False, False, False, True]
    assert "n_max=41" in got[3] and "Fock dim=13244" in got[3]


def test_shortened_schedule_counts_missing_rows():
    w = WORKLOADS["desk"]
    summary = passing_summary(w)
    summary["rows"] = summary["rows"][:2]
    assert [bool(f) for f in gate.row_failures(w, summary, "")] == \
        [False, False, True, True]


def test_shrunk_workload_declaration_fails_against_full_run():
    """A workload whose declared shape was shrunk rejects the real rows."""
    w = WORKLOADS["classical-k5"]
    shrunk = dataclasses.replace(
        w, declared={**w.declared, "mc_samples": 100_000}, n_max=(4, 7, 8))
    got = gate.row_failures(shrunk, passing_summary(w), reference(w.name),
                            reference(w.name))
    assert all(got)


@pytest.mark.parametrize("field, value, reason", [
    ("valid", False, "invalid"),
    ("trial_gap", -1e-6, "trial_gap"),
    ("trial_gap", float("nan"), "trial_gap"),
    ("fe_identity_defect", 1e-9, "fe_identity_defect"),
    ("trial_gap", None, "trial state skipped"),
    ("berezin_lieb", {"degenerate": True, "ess": 10.0}, "degenerate"),
    ("berezin_lieb", None, "Berezin-Lieb gap skipped"),
])
def test_seed_free_invariants(field, value, reason):
    w = WORKLOADS["desk"]
    summary = passing_summary(w)
    if value is None:
        del summary["rows"][1][field]
    else:
        summary["rows"][1][field] = value
    got = gate.row_failures(w, summary, "")
    assert [bool(f) for f in got] == [False, True, False, False]
    assert reason in got[1]

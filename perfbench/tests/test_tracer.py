"""The tracer wraps layer functions, rebinds imported names and skips
names that no longer exist."""

import json
import os
import subprocess
import sys
import textwrap

import pytest
from tracer import Tracer

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def make_package(tmp_path):
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .upper import top\n")
    (pkg / "lower.py").write_text(textwrap.dedent("""
        from math import sqrt
        __all__ = ["leaf", "Thing"]
        class Thing:
            pass
        def leaf(x):
            return sqrt(x)
        """))
    (pkg / "upper.py").write_text(textwrap.dedent("""
        import time
        from .lower import leaf
        def top(n):
            time.sleep(0.01)
            return sum(leaf(i) for i in range(n))
        def _private():
            return 0
        """))
    sys.path.insert(0, str(tmp_path))
    return pkg


def test_spans_rebinding_and_missing_names(tmp_path):
    make_package(tmp_path)
    try:
        import fakepkg
        from fakepkg import lower, upper

        tracer = Tracer()
        tracer.install("fakepkg", layers=("lower", "upper", "deleted"),
                       foreign={"lower": ("sqrt", "gone")})
        assert tracer.wrapped == {"lower.leaf", "lower.sqrt", "upper.top"}
        assert upper.leaf is lower.leaf and fakepkg.top is upper.top
        assert fakepkg.top(3) == upper.top(3)
    finally:
        sys.path.remove(str(tmp_path))
        for name in [n for n in sys.modules if n.startswith("fakepkg")]:
            del sys.modules[name]

    calls = tracer.calls()
    assert calls == {"upper.top": 2, "lower.leaf": 6, "lower.sqrt": 6}
    by_name = {i: s[0] for i, s in enumerate(tracer.spans)}
    for name, start, end, parent in tracer.spans:
        assert end >= start
        if name == "lower.leaf":
            assert by_name[parent] == "upper.top"
        if name == "lower.sqrt":
            assert by_name[parent] == "lower.leaf"
    self_s = tracer.self_times()
    assert sum(self_s.values()) == pytest.approx(tracer.root_time(), rel=1e-9)
    assert self_s["upper.top"] >= 0.02


def test_gibbslab_names_are_rebound_in_importing_modules():
    script = textwrap.dedent(f"""
        import json, sys
        sys.path[:0] = [{os.path.join(ROOT, 'src')!r}, {BENCH!r}]
        from tracer import Tracer
        from gibbslab import classical, convergence, fock, kernels, semiclassics
        Tracer().install()
        pairs = [(semiclassics.relative_entropy, fock.relative_entropy),
                 (semiclassics.reduced_density_matrix,
                  fock.reduced_density_matrix),
                 (classical.occupation_products, kernels.occupation_products),
                 (semiclassics.occupation_products, kernels.occupation_products),
                 (fock.two_body_coo, kernels.two_body_coo),
                 (convergence.trace_norm_distance,
                  sys.modules["gibbslab.metrics"].trace_norm_distance)]
        print(json.dumps({{
            "same": [a is b for a, b in pairs],
            "traced": [getattr(a, "__traced__", False) for a, _ in pairs],
            "eigh": getattr(fock.eigh, "__traced__", False)}}))
        """)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True, timeout=120)
    got = json.loads(out.stdout.splitlines()[-1])
    assert all(got["same"]) and all(got["traced"]) and got["eigh"]

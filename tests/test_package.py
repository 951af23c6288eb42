"""The package namespace: built from the library modules' ``__all__`` lists."""

import ast
import dataclasses
import importlib.util
import math
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import tiltcomp
import tiltcomp.cli
from tiltcomp import attitude, codec, evaluate, geodesy, kinematics, pipeline, sim

SRC = Path(__file__).resolve().parents[1] / "src"
BENCH = SRC.parent / "bench"
MODULES = (attitude, codec, evaluate, geodesy, kinematics, pipeline, sim)
CONFIG_CLASSES = (
    tiltcomp.FilterConfig,
    tiltcomp.PipelineConfig,
    tiltcomp.NoiseSpec,
    tiltcomp.ScenarioConfig,
    tiltcomp.LeverArms,
    tiltcomp.HelmertParams,
)


def test_package_exports_the_union_of_module_exports():
    names = tiltcomp.__all__
    assert len(names) == len(set(names))
    expected = {name for module in MODULES for name in module.__all__} | {"__version__"}
    assert set(names) == expected
    for module in MODULES:
        for name in module.__all__:
            assert getattr(tiltcomp, name) is getattr(module, name)
    assert isinstance(tiltcomp.__version__, str)


def test_import_leaves_cli_unloaded():
    code = "import sys, tiltcomp; print('tiltcomp.cli' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        cwd=SRC,
        timeout=60,
    )
    assert done.stdout.strip() == "False"


def test_every_open_call_names_its_encoding():
    """Files are read and written as UTF-8 whatever the locale, as the codec
    module promises: no text file is opened with the locale's encoding, and
    no module but the codec opens a file."""
    calls = []
    for path in sorted((SRC / "tiltcomp").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("open", "read_text", "write_text"):
                has_encoding = any(kw.arg == "encoding" for kw in node.keywords)
                calls.append((f"{path.name}:{node.lineno}", has_encoding))
    assert calls
    assert [where for where, has_encoding in calls if not has_encoding] == []
    assert [where for where, _ in calls if not where.startswith("codec.py:")] == []


def test_every_name_the_bench_tracer_wraps_resolves(monkeypatch):
    """bench/run.py traces layers by wrapping the names their callers look up
    (``cli.read_fused_csv``, ``pipeline.poi_position``, ...); a refactor that
    drops one would crash traced benchmark runs. Imported read-only."""
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    loaded = set(sys.modules)
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        for name in {"gauge", "spans"} - loaded:
            sys.modules.pop(name, None)

    wrapped = []

    class LookupTracer:
        def wrap(self, owner, attr, name, on_return=None):
            getattr(owner, attr)
            wrapped.append(name)

    library = SimpleNamespace(cli=tiltcomp.cli, pipeline=pipeline)
    run.install_tracer(library, LookupTracer(), run.new_counters())
    spans = {span for names in run.SPAN_TOTALS.values() for span in names}
    assert spans | set(run.SPAN_SELF.values()) <= set(wrapped)


def test_every_config_number_and_vector_declares_its_rule():
    """A number or array field of a config class declares its rule with its
    default, and the class enforces it, so a new knob cannot skip validation.
    The Helmert rotation alone is checked by hand, as one 3x3 matrix."""
    checked = []
    for cls in CONFIG_CLASSES:
        for f in dataclasses.fields(cls):
            default = f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
            hand_checked = (cls, f.name) == (tiltcomp.HelmertParams, "rotation")
            if type(default) not in (float, int, np.ndarray) or hand_checked:
                continue
            assert {"range", "vector"} & set(f.metadata), f"{cls.__name__}.{f.name}"
            bad = math.nan if "range" in f.metadata else [0.0, math.nan, 0.0]
            with pytest.raises(ValueError, match=f"^{f.name} must be "):
                cls(**{f.name: bad})
            checked.append(cls)
    assert set(checked) == set(CONFIG_CLASSES)

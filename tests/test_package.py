"""The package namespace: built from the library modules' ``__all__`` lists."""

import ast
import copy
import dataclasses
import gc
import importlib.util
import math
import pickle
import subprocess
import sys
import textwrap
import tracemalloc
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import tiltcomp
import tiltcomp.cli
from tiltcomp import attitude, codec, evaluate, geodesy, kinematics, pipeline, sim

SRC = Path(__file__).resolve().parents[1] / "src"
BENCH = SRC.parent / "bench"
ROOT = SRC.parent
MODULES = (attitude, codec, evaluate, geodesy, kinematics, pipeline, sim)
CONFIG_CLASSES = (
    tiltcomp.FilterConfig,
    tiltcomp.PipelineConfig,
    tiltcomp.NoiseSpec,
    tiltcomp.ScenarioConfig,
    tiltcomp.LeverArms,
    tiltcomp.HelmertParams,
)
# One of each value class the library makes per sample or per record.
VALUE_OBJECTS = (
    tiltcomp.Attitude(0.1, -0.2, 3.0),
    tiltcomp.ImuSample(0.01, [0.1, 0.2, 9.8], [1e-3, -2e-3, 3e-3]),
    tiltcomp.RtsObservation(0.2, 12.5, 0.3, 1.4),
    tiltcomp.FusedRecord(0.2, [1.0, 2.0, 3.0], [1.0, 2.0, 1.0], tiltcomp.Attitude(), 0.9, 0.19),
    tiltcomp.CanFrame(0x300, bytes(range(8))),
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


def _bench_run(monkeypatch):
    """bench/run.py, imported read-only."""
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
    return run


def _traced(run) -> list[tuple[object, str, str]]:
    """``(owner, attribute, span)`` of each name the bench tracer wraps,
    each looked up as the tracer looks it up."""
    wrapped = []

    class LookupTracer:
        def wrap(self, owner, attr, name, on_return=None):
            getattr(owner, attr)
            wrapped.append((owner, attr, name))

    library = SimpleNamespace(cli=tiltcomp.cli, pipeline=pipeline)
    run.install_tracer(library, LookupTracer(), run.new_counters())
    return wrapped


def test_every_name_the_bench_tracer_wraps_resolves(monkeypatch):
    """bench/run.py traces layers by wrapping the names their callers look up
    (``cli.read_fused_csv``, ``pipeline.poi_position``, ...); a refactor that
    drops one would crash traced benchmark runs."""
    run = _bench_run(monkeypatch)
    wrapped = {name for _, _, name in _traced(run)}
    spans = {span for names in run.SPAN_TOTALS.values() for span in names}
    assert spans | set(run.SPAN_SELF.values()) <= wrapped


def _imports_and_reads(path: Path) -> tuple[set[str], set[str]]:
    """The names the module at ``path`` imports (``__future__`` and star
    re-exports aside), and the names it reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names if alias.name != "*")
        elif isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return imported, {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("name", sorted(path.stem for path in (SRC / "tiltcomp").glob("*.py")))
def test_an_unused_import_is_only_a_name_the_bench_tracer_wraps(monkeypatch, name):
    """A name kept imported only so that the bench tracer can wrap it is the
    one kind of unused import: every other one is dead, and every wrapped
    name the module neither reads nor defines must be one of these. The
    tracer wraps names in ``cli`` and ``pipeline`` only, so no other module
    of the package may import a name it does not read."""
    module = importlib.import_module("tiltcomp" if name == "__init__" else f"tiltcomp.{name}")
    imported, read = _imports_and_reads(Path(module.__file__))
    wrapped = {attr for owner, attr, _ in _traced(_bench_run(monkeypatch)) if owner is module}
    unused = imported - read
    assert unused == wrapped - read
    assert imported  # the walk does see the module's imports
    if module in (tiltcomp.cli, pipeline):
        assert unused  # and the tracer-only ones
    if module is tiltcomp.cli:
        assert {"read_fused_csv", "read_truth_csv"} <= wrapped & read


def test_a_failing_hypothesis_test_leaves_the_session_running(tmp_path):
    """Under the repo's pytest settings a failing property test is one
    failure, and the tests after it still run: writing the failing example's
    patch must not end the session in an INTERNALERROR."""
    (tmp_path / "test_pair.py").write_text(textwrap.dedent("""\
        from hypothesis import given, settings, strategies as st


        @settings(database=None, deadline=None)
        @given(st.integers())
        def test_fails(n):
            assert n < 0


        def test_passes():
            pass
    """))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), str(tmp_path / "test_pair.py")],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    output = done.stdout + done.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output, output


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


def same_value(a, b) -> bool:
    """Whether ``a`` and ``b`` are of one type and hold the same values: arrays
    of one dtype, shape and bytes, and dataclasses field by field."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if dataclasses.is_dataclass(a):
        return all(same_value(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a))
    return a == b


@pytest.mark.parametrize("obj", VALUE_OBJECTS, ids=lambda obj: type(obj).__name__)
def test_value_objects_are_slotted_and_frozen_and_still_copy(obj):
    """A value object keeps its fields in slots, with no ``__dict__`` and no
    weak reference; it stays frozen, and pickle, deepcopy and
    ``dataclasses.replace`` give an equal object."""
    assert not hasattr(obj, "__dict__")
    with pytest.raises(TypeError):
        vars(obj)
    with pytest.raises(TypeError):
        weakref.ref(obj)
    for f in dataclasses.fields(obj):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, f.name, getattr(obj, f.name))
    # A name that is no field has no slot: Python 3.11's frozen __setattr__
    # raises TypeError for it, later versions FrozenInstanceError.
    with pytest.raises((TypeError, dataclasses.FrozenInstanceError)):
        obj.note = "not a field"
    assert same_value(pickle.loads(pickle.dumps(obj)), obj)
    assert same_value(copy.deepcopy(obj), obj)
    again = dataclasses.replace(obj)
    assert again == obj and same_value(again, obj)


def held_per_item(make) -> float:
    """The bytes per item that the list ``make()`` returns holds, by
    tracemalloc: what deleting the list frees, over its length."""
    gc.collect()
    tracemalloc.start()
    try:
        items = make()
        gc.collect()
        count, held = len(items), tracemalloc.get_traced_memory()[0]
        del items
        gc.collect()
        return (held - tracemalloc.get_traced_memory()[0]) / count
    finally:
        tracemalloc.stop()


def test_stream_samples_and_records_stay_compact():
    """Bytes held per object, with its floats and arrays, pinned a little
    above today's (~361 B per IMU sample, two row views of the stream's
    arrays included; ~536 B per record, its Attitude and two (3,) arrays
    included). Each object's ``__dict__`` cost ~40 B more per sample and
    ~90 B more per record."""
    sample_bytes = held_per_item(lambda: tiltcomp.generate_scenario(
        tiltcomp.ScenarioConfig(duration_s=30.0))[0])
    assert sample_bytes < 372
    imu, rts, _ = tiltcomp.generate_scenario(
        tiltcomp.ScenarioConfig(duration_s=30.0, rts_rate_hz=100.0))
    assert held_per_item(lambda: tiltcomp.Pipeline().replay(imu, rts)) < 552


def _package_imports(path: Path) -> set[str]:
    """The package modules that the module at ``path`` imports, by name:
    ``from .sim import x``, ``from . import sim``, ``from tiltcomp.sim
    import x`` and ``import tiltcomp.sim`` each give ``sim``, and a bare
    ``import tiltcomp`` gives ``tiltcomp``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "tiltcomp":
                continue
            inner = parts if node.level else parts[1:]
            if inner and inner[0]:
                names.add(inner[0])
            else:
                names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "tiltcomp":
                    names.add(parts[1] if len(parts) > 1 else "tiltcomp")
    return names


def test_the_module_layering_holds():
    """The codec reads and writes ground truth as a table, so it needs nothing
    from the simulator; the config field rules serve every module, so they
    import nothing from the package."""
    imports = {path.stem: _package_imports(path) for path in (SRC / "tiltcomp").glob("*.py")}
    assert imports["_fields"] == set()
    assert "sim" not in imports["codec"]
    # The walk does see the package's imports.
    assert {"codec", "sim"} <= imports["cli"]
    assert {"attitude", "geodesy", "pipeline"} <= imports["codec"]
    assert {"attitude", "sim"} <= imports["__init__"]


def test_every_private_helper_is_read():
    """A module-level ``_name`` function or class of the package is read (as
    a name or an attribute) somewhere in the package outside its own
    definition: a helper whose last caller went is dead code."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((SRC / "tiltcomp").glob("*.py"))}
    helpers = {
        (module, node.name): node
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
    }
    assert ("attitude.py", "_step") in helpers  # the walk does see the helpers

    def reads(node):
        for child in ast.walk(node):
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                yield child.id
            elif isinstance(child, ast.Attribute):
                yield child.attr

    read = set()
    for tree in trees.values():
        for node in tree.body:
            if node not in helpers.values():
                read.update(reads(node))
    # A helper read only by another helper counts too, but not by itself.
    for (_, name), node in helpers.items():
        read.update(other for other in reads(node) if other != name)
    assert sorted(f"{module}:{name}" for module, name in helpers if name not in read) == []

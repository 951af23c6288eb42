"""The package namespace: built from the library modules' ``__all__`` lists."""

import ast
import subprocess
import sys
from pathlib import Path

import tiltcomp
from tiltcomp import attitude, codec, evaluate, geodesy, kinematics, pipeline, sim

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = (attitude, codec, evaluate, geodesy, kinematics, pipeline, sim)


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

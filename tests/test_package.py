import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import qcorr


def test_all_lists_public_objects_not_modules():
    assert len(set(qcorr.__all__)) == len(qcorr.__all__)
    for name in qcorr.__all__:
        assert not isinstance(getattr(qcorr, name), types.ModuleType), name


def test_import_loads_no_scipy():
    # the library needs numpy alone; scipy is only a test-extra dependency
    src = Path(qcorr.__file__).resolve().parents[1]
    code = "import sys, qcorr, qcorr.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        "dataclass" in ast.unparse(d.func if isinstance(d, ast.Call) else d) for d in node.decorator_list
    )


def test_small_float_literals_are_named():
    """Every tolerance-sized literal (0 < |x| <= 1e-3) is a named constant or a dataclass field default."""
    offenders = []
    for path in sorted(Path(qcorr.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        named = set()
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                named.add(id(node.value))
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                named.update(id(f.value) for f in node.body if isinstance(f, ast.AnnAssign))
        for node in ast.walk(tree):
            value = getattr(node, "value", None) if isinstance(node, ast.Constant) else None
            if isinstance(value, float) and 0.0 < abs(value) <= 1e-3 and id(node) not in named:
                offenders.append(f"{path.name}:{node.lineno}: {value!r}")
    assert offenders == []


def test_no_module_touches_the_warning_filters():
    """The filters are process-global state: a package function that swaps them races with other threads."""
    global_state = {"catch_warnings", "simplefilter", "filterwarnings", "resetwarnings"}
    offenders = []
    for path in sorted(Path(qcorr.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in global_state:
                    offenders.append(f"{path.name}:{node.lineno}: {name}")
    assert offenders == []

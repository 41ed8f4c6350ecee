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


def test_density_matrices_are_built_only_in_states():
    """Elsewhere a DensityMatrix comes from validate_density, so none skips the density checks."""
    offenders = []
    for path in sorted(Path(qcorr.__file__).parent.glob("*.py")):
        if path.name == "states.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "DensityMatrix":
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def _call_sites(callee: str) -> list:
    """Module and enclosing function, as ``module.Class.function``, of each call to ``callee`` in the package."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Call) and ast.unparse(child.func).split(".")[-1] == callee:
                sites.append(scope)
            visit(child, scope)

    for path in sorted(Path(qcorr.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem)
    return sites


def test_each_input_check_has_one_home():
    """The two-qubit restriction is raised in one place, and the Hermiticity check
    outside linalg runs only where states and measurements are validated."""
    assert _call_sites("UnsupportedDimension") == ["states._require_two_qubits"]
    assert [s for s in _call_sites("hermiticity_defect") if not s.startswith("linalg.")] == [
        "measurement.ProjectiveMeasurement.__post_init__",
        "states.validate_density",
    ]


def test_two_qubit_partial_transpose_has_one_home():
    """linalg._partial_transpose is the only T_B: no other module swaps the axes of a (..., 2, 2, 2, 2) split,
    and quantumness takes only the solver from _ppt."""
    homes, swaps, from_ppt = [], [], []
    for path in sorted(Path(qcorr.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.FunctionDef) and node.name == "_partial_transpose":
                homes.append(path.stem)
            elif isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "swapaxes":
                split = node.func.value
                if isinstance(split, ast.Call) and ast.unparse(split.func).split(".")[-1] == "reshape":
                    if [ast.unparse(a) for a in split.args[-4:]] == ["2"] * 4 and path.stem != "linalg":
                        swaps.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "_ppt" and path.stem == "quantumness":
                from_ppt += [alias.name for alias in node.names]
    assert homes == ["linalg"]
    assert swaps == []
    assert from_ppt == ["_ppt_minimizer"]

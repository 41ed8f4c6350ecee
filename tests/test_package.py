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

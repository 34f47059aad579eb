"""What molecule_check imports, and the caches it shares between calls.

The first call of np.unique imports numpy.ma, 1.6 MB of peak RSS, and
importing scipy.special takes longer than a whole benchmark set-up, so
neither may be reached from the natural certification path.  The check
runs in a fresh interpreter, where no other test has imported them.
"""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from fracbesov import frac_wavelets as fw

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import json, sys
from fracbesov.frac_wavelets import molecule, molecule_check, molecule_params_for, natural_system

nat = natural_system(3)
for s in (0.0, 1.0):
    params = molecule_params_for(2.0, 2.0, s, 1.0, 3.0)
    molecule_check(nat.scale_fn, (0, 0), params)
    molecule_check(molecule(nat.wavelet_fn, (1, 2)), (1, 2), params)
print(json.dumps(sorted(m for m in sys.modules if m == "numpy.ma" or m.startswith("scipy"))))
"""


def test_certification_imports_neither_numpy_ma_nor_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert json.loads(out.stdout.splitlines()[-1]) == []


def test_cached_tables_shared_and_read_only():
    # the reference grid's tables and the (M1) rule are built once and
    # shared by every (nu, tau) after
    params = fw.molecule_params_for(2.0, 2.0, 0.0, 1.0, 3.0)
    nat = fw.natural_system(3)

    def check(nu, tau):
        fw.molecule_check(fw.molecule(nat.wavelet_fn, (nu, tau)), (nu, tau), params)

    def misses():
        return fw._grid_tables.cache_info().misses, fw._moment_rule.cache_info().misses

    check(1, 0)
    before = misses()
    check(2, 5)
    check(1, -7)
    assert misses() == before
    env, ix, iy, weight = fw._grid_tables(params.M, params.delta)
    assert np.all(weight > 0)
    for arr in (fw._GRID_Y, env, ix, iy, weight, *fw._moment_rule()):
        with pytest.raises(ValueError):
            arr[...] = np.zeros_like(arr)

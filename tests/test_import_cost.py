"""What molecule_check imports and calls, and the caches it shares between calls.

The first call of np.unique imports numpy.ma, 1.6 MB of peak RSS, and
importing scipy.special takes longer than a whole benchmark set-up, so
neither may be reached from the natural certification path.  The natural
systems are built from exact integers in closed form, so no root or
eigenvalue solver may be reached either.  The checks run in a fresh
interpreter, where no other test has imported or cached anything.
"""

import json
import math
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


SOLVER_FREE = """
import json
import numpy as np

def refuse(*args, **kwargs):
    raise AssertionError("a root or eigenvalue solver was called")

np.roots = np.linalg.eig = np.linalg.eigvals = refuse
from fracbesov.frac_wavelets import molecule, molecule_check, molecule_params_for, natural_system

for n in range(1, 9):
    nat = natural_system(n)
    nat.scale_fn(np.linspace(-1.0, n + 2.0, 7)), nat.wavelet_fn(np.linspace(-n, n + 1.0, 7))
# one case of the benchmark's bl-certify: order 2 at s = 0, nu = 0 and 1
nat, params = natural_system(2), molecule_params_for(2.0, 2.0, 0.0, 1.0, 2.0)
reports = [molecule_check(nat.scale_fn, (0, 0), params),
           molecule_check(molecule(nat.wavelet_fn, (1, 3)), (1, 3), params)]
print(json.dumps({name: [entry["value"], entry["ratio"]]
                  for rep in reports for name, entry in rep.conditions.items()}))
"""


def test_natural_systems_call_no_solver():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", SOLVER_FREE], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    conditions = json.loads(out.stdout.splitlines()[-1])
    assert sorted(conditions) == ["M1", "M2", "M2*", "M3", "M4", "M4*"]
    assert conditions["M1"][0] <= fw.MOMENT_TOL
    assert all(math.isfinite(v) for entry in conditions.values() for v in entry if v is not None)


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

"""What molecule_check imports and calls, and the caches it shares between calls.

The first call of np.unique imports numpy.ma, 1.6 MB of peak RSS, and
importing scipy.special takes longer than a whole benchmark set-up, so
neither may be reached from the natural certification path.  The natural
systems are built from exact integers in closed form, so no root or
eigenvalue solver may be reached either: not np.roots, not LAPACK's eig,
eigvals, eigh or eigvalsh.  panel_rule finds its Gauss-Legendre nodes by
Newton's method, so the (M1) rule imports nothing from numpy.polynomial,
whose leggauss would add its 9 modules (0.6 MB) and an eigvalsh call
(0.6-0.8 MB).  Python ints carry every exact value, so neither fractions nor
decimal may be imported.  The natural functions build their pp-form tables
once, so repeated certification allocates only the per-call arrays of the
points inside each support.  The checks run in a fresh interpreter, where
no other test has imported or cached anything.
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
from test_natural_oracle import molecule

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# the molecule m_Q of f at Q = (nu, tau), for the scripts below
MOLECULE = """
def molecule(f, Q):
    nu, tau = Q
    return lambda x: 2.0 ** (nu / 2.0) * f(2.0**nu * x - tau)
"""

SCRIPT = MOLECULE + """
import json, sys
from fracbesov.frac_wavelets import molecule_check, molecule_params_for, natural_system

nat = natural_system(3)
for s in (0.0, 1.0):
    params = molecule_params_for(2.0, 2.0, s, 1.0, 3.0)
    molecule_check(nat.scale_fn, (0, 0), params)
    molecule_check(molecule(nat.wavelet_fn, (1, 2)), (1, 2), params)
print(json.dumps(sorted(m for m in sys.modules
                        if m in ("numpy.ma", "fractions", "decimal")
                        or m.startswith(("scipy", "numpy.polynomial")))))
"""


def test_certification_imports_neither_numpy_ma_nor_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert json.loads(out.stdout.splitlines()[-1]) == []


SOLVER_FREE = MOLECULE + """
import json
import numpy as np

def refuse(*args, **kwargs):
    raise AssertionError("a root or eigenvalue solver was called")

np.roots = np.linalg.eig = np.linalg.eigvals = np.linalg.eigh = np.linalg.eigvalsh = refuse
from fracbesov.frac_wavelets import molecule_check, molecule_params_for, natural_system

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
        fw.molecule_check(molecule(nat.wavelet_fn, (nu, tau)), (nu, tau), params)

    def misses():
        return fw._grid_tables.cache_info().misses, fw._moment_rule.cache_info().misses

    check(1, 0)
    before = misses()
    check(2, 5)
    check(1, -7)
    assert misses() == before
    env, weight = fw._grid_tables(params.M, params.delta)
    assert np.all(weight > 0)
    for arr in (fw._GRID_Y, env, weight, *fw._moment_rule()):
        with pytest.raises(ValueError):
            arr[...] = np.zeros_like(arr)


PPFORMS_ONCE = MOLECULE + """
import json, tracemalloc
import numpy as np
from fracbesov import battle_lemarie as bl, splines as sp
from fracbesov.frac_wavelets import molecule_check, molecule_params_for, natural_system

def certify(taus):
    for n in range(1, 5):
        nat = natural_system(n)
        for s in (0.0, 1.0) if n >= 2 else (0.0,):
            params = molecule_params_for(2.0, 2.0, s, 1.0, float(n))
            molecule_check(nat.scale_fn, (0, 0), params)
            for Q in zip((1, 2, 1), taus):
                molecule_check(molecule(nat.wavelet_fn, Q), Q, params)

def misses():
    return [sp._bspline_natural_ppform.cache_info().misses, bl._wavelet_ppform.cache_info().misses]

def refuse(*args, **kwargs):
    raise AssertionError("a pp-form was built again")

certify((0, 3, -7))
first = misses()
sp.bspline_ppform = bl.bspline_ppform = refuse
certify((5, -2, 8))
certify((-8, 0, 1))
forms = [f(n) for n in range(1, 5)
         for f in (sp._bspline_natural_ppform, lambda n: bl._wavelet_ppform(bl.bl_system(n)))]
# one (M1) check of order 3 at s = 0, nu = 1, its caches warm
nat, params = natural_system(3), molecule_params_for(2.0, 2.0, 0.0, 1.0, 3.0)
m_q = molecule(nat.wavelet_fn, (1, 3))
molecule_check(m_q, (1, 3), params)
tracemalloc.start()
rep = molecule_check(m_q, (1, 3), params)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
print(json.dumps({"first": first, "after": misses(), "m1": "M1" in rep.conditions, "peak": peak,
                  "read_only": [not f.table.flags.writeable for f in forms]}))
"""

# per-call temporaries of one (M1) check: 484 KiB when every point was read
# and the table rebuilt per call, 308 KiB with the table built once and only
# the support read, 113 KiB with 1200 (M1) nodes on the half-integer panels
# in place of 4800 on the k/8 lattice.  Above this the heap regrows by page
# faults on every benchmark operation.
M1_CHECK_PEAK = 192 * 1024


def test_natural_ppforms_built_once_and_check_stays_small():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", PPFORMS_ONCE], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    got = json.loads(out.stdout.splitlines()[-1])
    # one B_n and one wavelet per order, none built again after
    assert got["first"] == [4, 4] and got["after"] == [4, 4]
    assert all(got["read_only"])
    assert got["m1"]
    assert got["peak"] <= M1_CHECK_PEAK

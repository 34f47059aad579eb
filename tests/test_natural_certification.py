"""Natural Battle-Lemarie certification against the benchmark's stored values.

fracbench/reference.json holds the (M2)/(M2*) ratios of molecule_check on
the natural systems of orders 1..4 at s = 0, 1 and nu = 0, 1, 2.  The
benchmark's bl-certify check asks for the same ratios to 1e-9 relative,
(M1) within the moment tolerance and reports that agree across (nu, tau);
this runs that check on the evaluators directly, and checks the agreement
across (nu, tau), to 1e-11, as a property over the whole range below.
"""

import json
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracbesov.frac_wavelets import (
    MOMENT_TOL,
    molecule_check,
    molecule_params_for,
    natural_system,
)
from oracles import molecule

REFERENCE = Path(__file__).resolve().parents[1] / "fracbench" / "reference.json"
SEED_M2 = json.loads(REFERENCE.read_text(encoding="utf-8"))["seed_outputs"]["bl_m2"]
REL_TOL = 1e-9
# reports at different (nu, tau) agree to this relative amount: f is read
# at the same exact points of y for every cube, and only 2^(nu/2) and its
# inverse round (7.1e-13 at most at s = 1, measured)
COVARIANT_TOL = 1e-11


def case(key: str) -> tuple[int, int, int]:
    fields = dict(item.split("=") for item in key.split(","))
    return int(fields["n"]), int(fields["s"]), int(fields["nu"])


def report(n: int, s: int, nu: int, tau: int):
    sysn = natural_system(n)
    params = molecule_params_for(2.0, 2.0, float(s), 1.0, float(n))
    if nu == 0:
        return molecule_check(sysn.scale_fn, (0, tau), params)
    return molecule_check(molecule(sysn.wavelet_fn, (nu, tau)), (nu, tau), params)


def rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


@pytest.mark.parametrize("key", sorted(SEED_M2))
def test_matches_stored_ratios(key):
    n, s, nu = case(key)
    taus = (0,) if nu == 0 else (-5, 3)
    reps = [report(n, s, nu, tau) for tau in taus]
    for rep in reps:
        name = "M2" if nu >= 1 else "M2*"
        assert rel(rep.conditions[name]["ratio"], SEED_M2[key]) <= REL_TOL
        if "M1" in rep.conditions:
            assert rep.conditions["M1"]["value"] <= MOMENT_TOL
    # the reports do not depend on where the molecule sits
    for rep in reps[1:]:
        assert set(rep.conditions) == set(reps[0].conditions)
        for name, entry in reps[0].conditions.items():
            if name != "M1":
                assert rel(rep.conditions[name]["ratio"], entry["ratio"]) <= COVARIANT_TOL


@pytest.mark.parametrize("n,s", [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (4, 0), (4, 1)])
def test_ratios_agree_across_levels(n, s):
    r1, r2 = report(n, s, 1, 7), report(n, s, 2, -8)
    assert set(r1.conditions) == set(r2.conditions)
    for name, entry in r1.conditions.items():
        if name != "M1":
            assert rel(r2.conditions[name]["ratio"], entry["ratio"]) <= COVARIANT_TOL


CASES = [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (4, 0), (4, 1)]


@lru_cache(maxsize=None)
def level_one(n: int, s: int):
    return report(n, s, 1, 0)


@settings(max_examples=40, deadline=2000, derandomize=True, database=None)
@given(
    case=st.sampled_from(CASES),
    nu=st.integers(min_value=1, max_value=4),
    tau=st.integers(min_value=-200, max_value=200),
)
def test_reports_covariant_under_shift_and_dilation(case, nu, tau):
    # the molecule reads f at the same exact points of y for every (nu,
    # tau), so only 2^(nu/2) and its inverse round; at s = 1 the central
    # difference turns that rounding into 7.1e-13 at most (measured)
    n, s = case
    ref, rep = level_one(n, s), report(n, s, nu, tau)
    tol = 1e-12 if s == 0 else COVARIANT_TOL
    assert set(rep.conditions) == set(ref.conditions)
    for name, entry in ref.conditions.items():
        if name != "M1":
            assert rel(rep.conditions[name]["ratio"], entry["ratio"]) <= tol

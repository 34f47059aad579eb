"""The three workloads of the fracbesov benchmark.

Each workload builds its reused objects in ``setup`` (timed as ``setup_s``),
derives one operation's inputs from the seed in ``make_input``, performs the
operation in ``run`` (timed as ``op_s``) and validates the operation's output
in ``check``, outside the timed region.  ``check`` returns a dict of
diagnostics or raises ``CheckFailed``.

Every call into the program goes through a module attribute
(``fw.molecule_check``, ``bl.bl_system``, ...) so that the traced run, which
patches those attributes, sees the benchmark's own calls as well as the
program's internal ones.
"""

from __future__ import annotations

import json
import os

import numpy as np

from fracbesov import battle_lemarie as bl
from fracbesov import frac_wavelets as fw
from fracbesov import splines as sp

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# the paper's range of fractional orders, keyed as they appear in reference.json
ALPHAS = {"1/2": 1 / 2, "4/3": 4 / 3, "5/3": 5 / 3, "13/3": 13 / 3}
VARIANTS = ("causal", "anticausal")


class CheckFailed(AssertionError):
    """An operation's output failed the benchmark's correctness check."""


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def op_rng(seed: int, i: int) -> np.random.Generator:
    """Generator for operation ``i`` of the run with workload seed ``seed``."""
    return np.random.default_rng([abs(seed), int(seed < 0), i])


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# ex51-calibrate
# ---------------------------------------------------------------------------

class Ex51Calibrate:
    """Both parameter sets of Example 5.1, calibrated by calibrate_constants.

    The inputs are fixed by the paper, so the seed draws nothing here.
    """

    name = "ex51-calibrate"
    # (set name, smoothness s, spline order alpha); p = q = 2, r_w = 1
    SETS = (("forward", 0.0, 5 / 3), ("inverse", -1 / 3, 4 / 3))
    COMB_N = 2
    TRUNC = 60
    NUS = (0, 1)
    # c0 and c may not fall below the stored seed values by more than this
    # relative amount; an exact (M4) sup can only raise them
    SEED_TOL = 1e-9

    def __init__(self, ref: dict | None = None):
        self.ref = ref
        self._checked: set = set()

    def setup(self) -> None:
        self.params = {
            name: fw.molecule_params_for(2.0, 2.0, s, 1.0, alpha)
            for name, s, alpha in self.SETS
        }
        for _, _, alpha in self.SETS:
            fw.wavelet_filter(alpha, self.TRUNC)
        bl.bl_system(self.COMB_N)

    def make_input(self, seed: int, i: int):
        return None

    def run(self, inp) -> dict:
        return {
            name: fw.calibrate_constants(
                alpha, "causal", self.COMB_N, self.params[name],
                nus=self.NUS, trunc=self.TRUNC,
            )
            for name, _, alpha in self.SETS
        }

    def check(self, inp, out: dict) -> dict:
        # every operation has the same inputs: check each distinct output once
        key = tuple(sorted((k, tuple(v)) for k, v in out.items()))
        if key not in self._checked:
            for name, _, _ in self.SETS:
                self.check_set(name, out[name])
            self._checked.add(key)
        return {}

    def check_set(self, name: str, consts) -> None:
        """Check one set's (c0, c); raises CheckFailed."""
        alpha = {n: a for n, _, a in self.SETS}[name]
        c0, c = consts
        if not (0.0 < c0 <= 1.0 and 0.0 < c <= 1.0):
            raise CheckFailed(f"{name}: constants out of (0, 1]: c0={c0}, c={c}")
        seed_vals = self.ref["seed_outputs"]["ex51"][name]
        for label, got, seed_val in (("c0", c0, seed_vals[0]), ("c", c, seed_vals[1])):
            if got < seed_val * (1.0 - self.SEED_TOL):
                raise CheckFailed(f"{name}: {label}={got!r} below the seed value {seed_val!r}")
        params = self.params[name]
        sysf = fw.fractional_system(alpha, "causal", self.COMB_N, c0=c0, c=c, trunc=self.TRUNC)
        rep0 = fw.molecule_check(sysf.scale_fn, (0, 0), params)

        def m_q(x):
            return 2.0 ** 0.5 * sysf.wavelet_fn(2.0 * x)

        rep1 = fw.molecule_check(m_q, (1, 0), params)
        if not (rep0.passes() and rep1.passes()):
            raise CheckFailed(
                f"{name}: calibrated system fails the molecule conditions: "
                f"nu=0 {rep0.conditions}, nu=1 {rep1.conditions}")


# ---------------------------------------------------------------------------
# frac-eval
# ---------------------------------------------------------------------------

class FracEval:
    """scale_fn and wavelet_fn of fractional systems at seeded points.

    One operation covers every order in ALPHAS and both one-sided variants.
    Each system is evaluated at POINTS seeded uniform points in [-15, 15]
    followed by the points of its order's reference pool, whose outputs are
    checked.  Checking the whole pool includes the largest reference value,
    so a relative corruption of the outputs shows at its full size.
    """

    name = "frac-eval"
    COMB_N = 2
    TRUNC = 80
    POINTS = 100
    LO, HI = -15.0, 15.0
    # deviation from the reference, relative to max |reference| per output;
    # the seed's worst is 7.5e-8 (order 5/3, anticausal wavelet near x = -15,
    # where the spline series loses accuracy in its tail)
    TOL = 3e-7

    def __init__(self, ref: dict | None = None):
        self.ref = ref
        self._pool_ref: dict = {}

    def setup(self) -> None:
        self.systems = {
            (key, variant): fw.fractional_system(
                alpha, variant, self.COMB_N, trunc=self.TRUNC)
            for key, alpha in ALPHAS.items()
            for variant in VARIANTS
        }
        for alpha in ALPHAS.values():
            fw.wavelet_filter(alpha, self.TRUNC)
        bl.bl_system(self.COMB_N)

    def make_input(self, seed: int, i: int) -> dict:
        rng = op_rng(seed, i)
        pools = self.ref["frac_eval"]["pools"]
        inp = {}
        for key, variant in self.systems:
            xs = rng.uniform(self.LO, self.HI, self.POINTS)
            inp[(key, variant)] = np.concatenate([xs, pools[key]["x"]])
        return inp

    def run(self, inp: dict) -> dict:
        return {
            sk: (self.systems[sk].scale_fn(x), self.systems[sk].wavelet_fn(x))
            for sk, x in inp.items()
        }

    def reference_values(self, key: str, variant: str, pick: int) -> tuple[float, float]:
        """Reference scale_fn and wavelet_fn at pool point ``pick``.

        The spline values come from reference.json (mpmath); the filter q_k
        and the weights lambda_j are the program's, so the check isolates
        spline evaluation and the assembly of psi and Psi.
        """
        fe = self.ref["frac_eval"]
        pool = fe["pools"][key]
        m_lo = fe["m_lo"]
        alpha = ALPHAS[key]
        q = fw.wavelet_filter(alpha, self.TRUNC)
        ks = np.arange(-self.TRUNC, self.TRUNC + 1)
        lam = bl.bl_system(self.COMB_N).lam
        if variant == "causal":
            table = np.asarray(pool["plus_2x"][pick])  # beta_+(2x + m)
            scale = pool["plus_x"][pick]                # beta_+(x)

            def psi(shift):
                return float(q @ table[2 * shift - ks - m_lo])
        else:
            table = np.asarray(pool["plus_neg2x"][pick])  # beta_+(-2x + m)
            scale = pool["plus_negx"][pick]                 # beta_+(-x)

            def psi(shift):
                return float(q @ table[ks - 2 * shift - m_lo])

        n = self.COMB_N
        wav = 0.0
        for j in range(n + 1):
            w = lam[j] / (2.0 * (-1.0) ** j)
            wav += w * (psi(n + j) + psi(n - j))
        return scale, wav

    def pool_reference(self, key: str, variant: str) -> np.ndarray:
        """(pool size, 2) reference scale_fn and wavelet_fn values, cached."""
        if (key, variant) not in self._pool_ref:
            size = len(self.ref["frac_eval"]["pools"][key]["x"])
            self._pool_ref[(key, variant)] = np.array(
                [self.reference_values(key, variant, p) for p in range(size)])
        return self._pool_ref[(key, variant)]

    def check(self, inp: dict, out: dict) -> dict:
        worst = 0.0
        for sk, x in inp.items():
            scale, wav = out[sk]
            for label, vals in (("scale_fn", scale), ("wavelet_fn", wav)):
                vals = np.asarray(vals)
                if vals.shape != x.shape or not np.all(np.isfinite(vals)):
                    raise CheckFailed(f"{sk} {label}: bad shape or non-finite values")
            refs = self.pool_reference(*sk)
            got = np.column_stack([scale[self.POINTS:], wav[self.POINTS:]])
            for col, label in enumerate(("scale_fn", "wavelet_fn")):
                err = float(np.max(np.abs(got[:, col] - refs[:, col])))
                err /= float(np.max(np.abs(refs[:, col])))
                worst = max(worst, err)
                if not err <= self.TOL:
                    raise CheckFailed(
                        f"{sk} {label}: deviation {err:.3e} from the mpmath "
                        f"reference exceeds {self.TOL:.0e}")
        return {"max_err": worst}


# ---------------------------------------------------------------------------
# bl-certify
# ---------------------------------------------------------------------------

class BLCertify:
    """molecule_check on natural Battle-Lemarie systems of orders 1..4.

    Per order n and smoothness s (s = 0 always, s = 1 for n >= 2, where the
    order bound allows it): the scaling function at nu = 0 and the dilated
    wavelet 2^(nu/2) wavelet_fn(2^nu x - tau) at nu = 1, 2, with seeded tau.
    """

    name = "bl-certify"
    ORDERS = (1, 2, 3, 4)
    TAU_MAX = 8
    # reports at different (nu, tau) agree to this relative amount; the
    # (M2) ratio matches the stored seed value to it as well
    AGREE_TOL = 1e-9
    MOMENT_TOL = 1e-5

    def __init__(self, ref: dict | None = None):
        self.ref = ref
        self.cases = [(n, s) for n in self.ORDERS for s in ((0, 1) if n >= 2 else (0,))]

    def setup(self) -> None:
        self.systems = {n: fw.natural_system(n) for n in self.ORDERS}
        for n in self.ORDERS:
            bl.bl_system(n)
        self.params = {
            (n, s): fw.molecule_params_for(2.0, 2.0, float(s), 1.0, float(n))
            for n, s in self.cases
        }

    def make_input(self, seed: int, i: int) -> dict:
        rng = op_rng(seed, i)
        return {
            case: tuple(int(t) for t in rng.integers(-self.TAU_MAX, self.TAU_MAX + 1, 2))
            for case in self.cases
        }

    def run(self, inp: dict) -> dict:
        out = {}
        for (n, s), taus in inp.items():
            sysn = self.systems[n]
            params = self.params[(n, s)]
            reps = [fw.molecule_check(sysn.scale_fn, (0, 0), params)]
            for nu, tau in zip((1, 2), taus):
                def m_q(x, nu=nu, tau=tau):
                    return 2.0 ** (nu / 2.0) * sysn.wavelet_fn(2.0**nu * x - tau)

                reps.append(fw.molecule_check(m_q, (nu, tau), params))
            out[(n, s)] = reps
        return out

    def check(self, inp: dict, out: dict) -> dict:
        seed_m2 = self.ref["seed_outputs"]["bl_m2"]
        worst_agree = 0.0
        for (n, s), reps in out.items():
            for rep in reps:
                name = "M2" if rep.nu >= 1 else "M2*"
                got = rep.conditions[name]["ratio"]
                want = seed_m2[f"n={n},s={s},nu={rep.nu}"]
                if not _rel(got, want) <= self.AGREE_TOL:
                    raise CheckFailed(
                        f"n={n} s={s} nu={rep.nu}: (M2) ratio {got!r} differs "
                        f"from the seed value {want!r}")
                m1 = rep.conditions.get("M1")
                if m1 is not None and not m1["value"] <= self.MOMENT_TOL:
                    raise CheckFailed(f"n={n} s={s} nu={rep.nu}: (M1) value {m1['value']:.3e}")
            r1, r2 = reps[1], reps[2]
            if set(r1.conditions) != set(r2.conditions):
                raise CheckFailed(f"n={n} s={s}: condition sets differ across nu")
            for cond, e1 in r1.conditions.items():
                if cond == "M1":
                    continue
                d = _rel(r2.conditions[cond]["ratio"], e1["ratio"])
                worst_agree = max(worst_agree, d)
                if not d <= self.AGREE_TOL:
                    raise CheckFailed(
                        f"n={n} s={s}: {cond} ratios disagree across (nu, tau): "
                        f"{e1['ratio']!r} vs {r2.conditions[cond]['ratio']!r}")
        return {"max_agree_rel": worst_agree}


WORKLOADS = {w.name: w for w in (Ex51Calibrate, FracEval, BLCertify)}


def tail_rel_err(ref: dict) -> float:
    """Max relative error of causal frac_bspline at the stored tail probes."""
    probe = ref["tail_probe"]
    worst = 0.0
    for key, vals in probe["values"].items():
        spec = sp.FractionalSpline(alpha=ALPHAS[key])
        got = sp.frac_bspline(spec, np.asarray(probe["y"]))
        want = np.asarray(vals)
        worst = max(worst, float(np.max(np.abs(got - want) / np.abs(want))))
    return worst

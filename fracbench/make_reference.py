"""Generate fracbench/reference.json, the stored reference of the benchmark.

    python3 fracbench/make_reference.py

It writes three things:

* ``frac_eval``: for each order in ALPHAS, a pool of dyadic points x in
  [-15, 15] and, at each, the causal spline beta_+^alpha at 2x + m and at
  -2x + m for every integer m that the trunc = 80, n = 2 wavelet touches,
  plus beta_+^alpha(x) and beta_+^alpha(-x).  frac-eval's check assembles
  its reference psi and Psi from these values.
* ``tail_probe``: beta_+^alpha far in the tail (y up to 400), the probe
  behind the ``splines.beta_plus.tail_rel_err`` metric.
* ``seed_outputs``: the program's own Example 5.1 constants (c0, c) and the
  natural systems' (M2) ratios, as computed by the code this file was
  generated against.  The checks compare later outputs with them.

The spline values are the truncated-power series evaluated in mpmath at
MP_DPS digits, at the float inputs the program receives (points are dyadic,
so the program's arguments 2(x + s) - k are exact).  Every value is
recomputed at CHECK_DPS digits and the largest relative disagreement is
stored alongside.
"""

from __future__ import annotations

import json
import os
import sys
import time

import mpmath as mp
import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads as wl  # noqa: E402

MP_DPS = 50
CHECK_DPS = 70
POOL_SIZE = 8
POOL_SEED = 51
DYADIC = 2.0**-20
TAIL_Y = (3.3, 12.7, 40.3, 150.6, 250.1, 399.7)


def beta_plus_mp(alpha: float, y: float) -> mp.mpf:
    """beta_+^alpha(y) = sum_k (-1)^k binom(alpha+1, k) (y-k)_+^alpha / Gamma(alpha+1)."""
    a = mp.mpf(alpha)
    y = mp.mpf(y)
    if y <= 0:
        return mp.mpf(0)
    acc = mp.mpf(0)
    coef = mp.mpf(1)  # (-1)^k binom(alpha+1, k)
    for k in range(int(mp.floor(y)) + 1):
        d = y - k
        if d > 0:
            acc += coef * d**a
        coef *= (k - (a + 1)) / (k + 1)
    return acc / mp.gamma(a + 1)


def beta_plus_checked(alpha: float, ys, stats: dict) -> list[float]:
    out = []
    for y in ys:
        with mp.workdps(MP_DPS):
            v = beta_plus_mp(alpha, y)
        with mp.workdps(CHECK_DPS):
            w = beta_plus_mp(alpha, y)
            if w != 0:
                stats["max_rel_diff"] = max(stats["max_rel_diff"], float(abs(v - w) / abs(w)))
            elif v != 0:
                raise RuntimeError(f"precision disagreement at alpha={alpha}, y={y}")
        out.append(float(v))
    return out


def frac_eval_pools(stats: dict) -> dict:
    fe = wl.FracEval
    # m = 2s - k (causal) or k - 2s (anticausal), s in 0..2n, |k| <= trunc
    m_hi = fe.TRUNC + 4 * fe.COMB_N
    ms = np.arange(-m_hi, m_hi + 1)
    rng = np.random.default_rng(POOL_SEED)
    pools = {}
    for key, alpha in wl.ALPHAS.items():
        u = np.concatenate([
            [fe.LO + 0.1 * rng.random(), fe.HI - 0.1 * rng.random()],
            rng.uniform(fe.LO, fe.HI, POOL_SIZE - 2),
        ])
        xs = [float(v) for v in np.round(u / DYADIC) * DYADIC]
        pools[key] = {
            "x": xs,
            "plus_2x": [beta_plus_checked(alpha, 2 * x + ms, stats) for x in xs],
            "plus_neg2x": [beta_plus_checked(alpha, -2 * x + ms, stats) for x in xs],
            "plus_x": beta_plus_checked(alpha, xs, stats),
            "plus_negx": beta_plus_checked(alpha, [-x for x in xs], stats),
        }
        print(f"frac_eval pool {key} done", file=sys.stderr)
    return {"m_lo": int(-m_hi), "m_hi": int(m_hi), "pools": pools}


def tail_probe(stats: dict) -> dict:
    ys = [float(round(y * 1024) / 1024) for y in TAIL_Y]
    return {
        "y": ys,
        "values": {key: beta_plus_checked(a, ys, stats) for key, a in wl.ALPHAS.items()},
    }


def seed_outputs() -> dict:
    ex = wl.Ex51Calibrate()
    ex.setup()
    consts = ex.run(ex.make_input(0, 0))
    blc = wl.BLCertify()
    blc.setup()
    reps = blc.run({case: (0, 0) for case in blc.cases})
    m2 = {}
    for (n, s), rs in reps.items():
        for rep in rs:
            name = "M2" if rep.nu >= 1 else "M2*"
            m2[f"n={n},s={s},nu={rep.nu}"] = rep.conditions[name]["ratio"]
    return {"ex51": {k: list(v) for k, v in consts.items()}, "bl_m2": m2}


def main() -> int:
    t0 = time.perf_counter()
    stats = {"max_rel_diff": 0.0}
    ref = {
        "mp_dps": MP_DPS,
        "check_dps": CHECK_DPS,
        "frac_eval": frac_eval_pools(stats),
        "tail_probe": tail_probe(stats),
        "seed_outputs": seed_outputs(),
    }
    ref["max_rel_diff_between_precisions"] = stats["max_rel_diff"]
    with open(wl.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    print(f"wrote {wl.REFERENCE_PATH} in {time.perf_counter() - t0:.1f} s; "
          f"max relative disagreement {stats['max_rel_diff']:.1e} between "
          f"{MP_DPS} and {CHECK_DPS} digits", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

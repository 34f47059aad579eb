"""Tests of the benchmark itself.

    python3 -m pytest -q fracbench/test_fracbench.py

They show that the program at the commit the reference was generated
against passes every output check at its stated tolerance, that a corrupted
output fails it, that the traced run's counters repeat exactly and that the
tracer leaves the program unpatched.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from fracbesov import frac_wavelets as fw  # noqa: E402

REF = wl.load_reference()
CORRUPTION = 1.0 + 1e-6


def _ready(cls):
    w = cls(REF)
    w.setup()
    return w


def test_metric_tables_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in run.PER_LAYER
    ]


def test_frac_eval_seed_passes_and_corruption_fails():
    w = _ready(wl.FracEval)
    inp = w.make_input(7, 0)
    out = w.run(inp)
    assert w.check(inp, out)["max_err"] <= w.TOL
    for sk in out:
        for col in (0, 1):
            bad = dict(out)
            pair = list(bad[sk])
            pair[col] = pair[col] * CORRUPTION
            bad[sk] = tuple(pair)
            with pytest.raises(wl.CheckFailed):
                w.check(inp, bad)


def test_bl_certify_seed_passes_and_corruption_fails():
    w = _ready(wl.BLCertify)
    inp = w.make_input(7, 0)
    out = w.run(inp)
    w.check(inp, out)
    for case in out:
        for rep_idx, cond in ((0, "M2*"), (1, "M2"), (2, "M4")):
            bad = copy.deepcopy(out)
            entry = bad[case][rep_idx].conditions.get(cond)
            if entry is None:
                continue
            entry["ratio"] *= CORRUPTION
            with pytest.raises(wl.CheckFailed):
                w.check(inp, bad)


def test_ex51_seed_constants_pass_and_corruption_fails():
    seed = {k: tuple(v) for k, v in REF["seed_outputs"]["ex51"].items()}
    w = _ready(wl.Ex51Calibrate)
    w.check(None, seed)
    for name in seed:
        for idx in (0, 1):
            bad = dict(seed)
            vals = list(bad[name])
            vals[idx] /= CORRUPTION
            bad[name] = tuple(vals)
            with pytest.raises(wl.CheckFailed, match="below the seed value"):
                w.check(None, bad)
    # constants raised past the calibration's 2 % margin break the molecule bounds
    bad = dict(seed, inverse=(seed["inverse"][0], seed["inverse"][1] * 1.05))
    with pytest.raises(wl.CheckFailed, match="molecule conditions"):
        w.check_set("inverse", bad["inverse"])


def _op_counts(workload, seed):
    metrics, attempted, failed = run.traced_run(_ready(workload), seed, 0.0, REF)
    assert failed == 0 and attempted == 2
    kinds = ("calls", "count", "ratio", "setup_calls")
    return {name: metrics[name] for name, _, _, src in run.PER_LAYER if src[0] in kinds}


@pytest.mark.parametrize("workload", [wl.FracEval, wl.BLCertify])
def test_counters_repeat_exactly(workload):
    first = _op_counts(workload, 11)
    second = _op_counts(workload, 11)
    assert first == second
    assert first["frac_wavelets.molecule_check.fn_points"] > 0 or (
        first["splines.frac_bspline.series_terms"] > 0
    )


def test_tracer_restores_every_name():
    before = [(m, a, getattr(m, a)) for m, a, _, _ in spans.targets()]
    tracer = spans.Tracer()
    tracer.install()
    assert fw.molecule_check is not before[-1][2]
    tracer.restore()
    assert all(getattr(m, a) is orig for m, a, orig in before)


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    tracer.op = "t"

    def child():
        time.sleep(0.05)

    def parent():
        time.sleep(0.02)
        tracer.call("child", child)

    tracer.call("parent", parent)
    stats, _ = tracer.phase("t")
    assert stats["child"][1] >= 0.05
    assert 0.02 <= stats["parent"][1] < 0.045
    (_, sid_c, parent_c, *_), (_, sid_p, parent_p, *_) = tracer.spans
    assert parent_c == sid_p and parent_p is None


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "fracbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "fracbench/run.py", "--workload", "bl-certify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_reference_records_precision():
    assert REF["mp_dps"] >= 40
    assert REF["max_rel_diff_between_precisions"] < 1e-15
    assert np.all(np.isfinite(REF["tail_probe"]["y"]))

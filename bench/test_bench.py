"""Self-tests of the benchmark at a tiny length.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py

Every workload runs through the command-line entry point with two
simulated seconds per episode, fits capped at one Levenberg-Marquardt
iteration, and scratch files kept in a temporary directory.
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

TINY_DURATION_S = 2.0


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "BUILD", tmp_path)
    workloads = {}
    for name, workload in wl.WORKLOADS.items():
        if isinstance(workload, wl.ClosedLoop):
            workloads[name] = replace(workload, duration=TINY_DURATION_S,
                                      limits=dict(workload.limits))
        else:
            workloads[name] = replace(workload, limits={**workload.limits, "max_iter": 1})
    monkeypatch.setattr(wl, "WORKLOADS", workloads)
    return workloads


def _run(capsys, workload, trace=0, seed=3):
    assert run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.1",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    detail = json.loads(lines[-2][len("DETAIL "):])
    return json.loads(lines[-1]), detail


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_every_metric_emitted_with_unit(tiny, capsys, workload, trace):
    originals = {(owner, attr): owner.__dict__[attr]
                 for owner, attr in tr.all_patched_attributes()}
    result, detail = _run(capsys, workload, trace)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = dict(wl.PER_LAYER if trace else wl.END_TO_END)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    assert detail["environment"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert all(detail["repeats"].values())
    # the tracing wrappers are gone, so a later untraced run is untraced
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr}"


def test_tracer_uninstalls_after_an_error():
    originals = {(owner, attr): owner.__dict__[attr]
                 for owner, attr in tr.all_patched_attributes()}
    with pytest.raises(RuntimeError):
        with tr.Tracer():
            assert wl.md.rk4_step_array is not originals[(wl.md, "rk4_step_array")]
            raise RuntimeError("boom")
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original


def test_forced_correctness_miss_counts_as_failure(tiny, capsys):
    limits = tiny["helix"].limits
    limits.update(settle_time=0.0, e_lat=1e9, e_lon=1e9, v_rmse=1e9)
    passing, _ = _run(capsys, "helix")
    assert passing["correct"] and passing["failed"] == 0

    limits.update(e_lat=-1.0)
    forced, _ = _run(capsys, "helix")
    assert not forced["correct"]
    assert forced["failed"] == forced["attempted"]


def test_run_too_short_for_a_check_window_fails(tiny, capsys):
    result, detail = _run(capsys, "motor_failure")
    assert not result["correct"] and result["failed"] == result["attempted"]
    assert not all(c["ok"] for c in detail["checks"])


def test_sysid_fit_miss_counts_as_failure(tiny, capsys, monkeypatch):
    monkeypatch.setattr(wl, "MIN_REPEATS", 1)
    tiny["sysid"].limits.update(max_iter=35)
    passing, _ = _run(capsys, "sysid")
    assert passing["correct"] and passing["failed"] == 0

    tiny["sysid"].limits.update(rel_tol=-1.0)
    forced, _ = _run(capsys, "sysid")
    assert not forced["correct"]
    assert forced["failed"] == forced["attempted"] == 2


def test_repeats_that_disagree_fail_every_operation(tiny, capsys, monkeypatch):
    tiny["helix"].limits.update(settle_time=0.0, e_lat=1e9, e_lon=1e9, v_rmse=1e9)
    emitted = []

    def differing_csv(log, scratch):
        emitted.append(None)
        return str(len(emitted)).encode()

    monkeypatch.setattr(wl, "csv_bytes", differing_csv)
    result, detail = _run(capsys, "helix")
    assert not detail["repeats"]["episodes_csv"]
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_qp_iteration_limit_fails_its_periods(tiny, capsys, monkeypatch):
    tiny["helix"].limits.update(settle_time=0.0, e_lat=1e9, e_lon=1e9, v_rmse=1e9)
    solve = wl.nmpc_solver.solve_box_qp

    def at_limit(*args, **kwargs):
        return replace(solve(*args, **kwargs), status="iteration_limit")

    monkeypatch.setattr(wl.nmpc_solver, "solve_box_qp", at_limit)
    step = wl.nmpc_solver.NmpcController.__dict__["step"]
    result, detail = _run(capsys, "helix")
    assert detail["qp_iteration_limit_periods"] == detail["counts"]["periods"]
    assert not result["correct"] and result["failed"] == result["attempted"]
    # the probe is gone afterwards
    assert wl.nmpc_solver.solve_box_qp is at_limit
    assert wl.nmpc_solver.NmpcController.__dict__["step"] is step


def test_missing_program_sources_exit_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "helix", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""

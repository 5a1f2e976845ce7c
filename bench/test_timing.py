"""Tests for the benchmark's timing helpers: the tail percentile and the untimed gaps.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    t = run.tail([float(x) for x in range(50)])
    assert t["value"] == 39.0
    assert t["percentile"] == 80.0
    assert t["samples_beyond"] == 10
    assert run.tail([1.0, 2.0])["value"] == 2.0


def test_pauses_keep_gap_time_off_the_clock():
    pauses = workloads.Pauses(lambda: time.sleep(0.02))
    start = time.perf_counter()
    resumed = pauses()
    assert pauses.total >= 0.02
    assert resumed - start >= pauses.total
    idle = workloads.Pauses()
    idle()
    assert idle.total == 0.0


def test_calibration_runs_its_share_after_each_op():
    calibration = run.Calibration()
    time.sleep(0.2)                 # stands in for an op of 200 ms
    t0 = time.perf_counter()
    calibration()
    spent = time.perf_counter() - t0
    assert len(calibration.units) >= 1
    assert spent >= run.CAL_SHARE * 0.2
    assert spent < run.CAL_SHARE * 0.2 + 0.1

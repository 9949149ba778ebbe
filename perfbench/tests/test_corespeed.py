"""The core-speed probe rescales CPU time by its rate and never outlives its user."""

import time

import pytest

from corespeed import REFERENCE_RATE, CoreSpeed


def test_reference_seconds_scale_with_the_probe_rate():
    speed = CoreSpeed()
    # ten chunks at half the reference rate inside [0, 1], one outside
    speed.chunks = [(0.1 * i, 2.0 / REFERENCE_RATE) for i in range(1, 11)] + [(5.0, 1.0)]
    assert speed.reference_seconds(4.0, 0.0, 1.0) == pytest.approx(2.0)
    # too few chunks inside: the whole measurement's rate is used
    whole = 11 / (10 * 2.0 / REFERENCE_RATE + 1.0)
    assert speed.reference_seconds(4.0, 0.0, 0.15) == pytest.approx(4.0 * whole / REFERENCE_RATE)


def test_probe_runs_beside_a_busy_process_and_stops():
    with CoreSpeed() as speed:
        t0, c0 = time.perf_counter(), time.process_time()
        x = 0
        while time.perf_counter() - t0 < 0.5:
            x += 1
        t1, c1 = time.perf_counter(), time.process_time()
        proc = speed._proc
    assert proc.poll() is not None
    assert len(speed.chunks) > 0
    assert speed.reference_seconds(c1 - c0, t0, t1) > 0

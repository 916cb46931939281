"""Timings at the reference speed: the scale factor, the calibration
itself, and the daemon round trips with calibrations taken out."""

import gc

import pytest

from calibrate import REFERENCE_MS, calibrate, scale
from mixed import Record, at_reference_speed


def test_scale_maps_the_reference_calibration_to_one():
    assert scale(REFERENCE_MS / 1000.0) == pytest.approx(1.0)
    # a host twice as slow: its times count half
    assert scale(2 * REFERENCE_MS / 1000.0) == pytest.approx(0.5)


def test_calibration_times_the_work_and_restores_the_collector():
    assert gc.isenabled()
    assert calibrate() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        calibrate()
        assert not gc.isenabled()
    finally:
        gc.enable()


def record(start, rtt):
    return Record(0, 0, None, rtt, {}, None, start + rtt)


def test_round_trips_lose_calibration_time_and_scale_to_reference():
    slow = 2 * REFERENCE_MS / 1000.0  # every calibration: a host 2x slow
    cals = [[0.0, 0.01, slow], [1.0, 1.01, slow], [2.0, 2.01, slow]]
    records = [
        record(0.5, 0.1),  # no calibration inside
        record(0.95, 0.16),  # the calibration at 1.0-1.01 inside
    ]
    rtts, wall = at_reference_speed(records, 0.2, cals)
    assert rtts[0] == pytest.approx(0.05)
    assert rtts[1] == pytest.approx(0.075)
    # wall 0.2 -> 1.11, less 0.01 of calibration, at half speed
    assert wall == pytest.approx(0.45)


def test_round_trips_use_the_calibrations_around_them():
    ref = REFERENCE_MS / 1000.0
    cals = [[0.0, 0.001, ref], [1.0, 1.001, 3 * ref]]
    # between the two: the mean calibration is 2x the reference
    rtts, _wall = at_reference_speed([record(0.4, 0.2)], 0.0, cals)
    assert rtts[0] == pytest.approx(0.1)

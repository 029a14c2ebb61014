import signal
import time

import pytest
from speed import NOMINAL_S, Probe


def test_calibrated_drops_inner_probes_and_scales_by_the_speed_around():
    probe = Probe()
    # the machine runs at half the nominal speed around [0.5, 1.5]; the
    # probe at 50 s is too far away to count
    probe.samples = [(0.0, 2 * NOMINAL_S), (1.0, 2 * NOMINAL_S), (2.0, 2 * NOMINAL_S),
                     (50.0, 10 * NOMINAL_S)]
    assert probe.calibrated(0.5, 1.0) == pytest.approx((1.0 - 2 * NOMINAL_S) / 2)


def test_calibrated_widens_the_window_until_three_probes():
    probe = Probe()
    probe.samples = [(0.0, NOMINAL_S), (10.0, NOMINAL_S), (20.0, 4 * NOMINAL_S)]
    assert probe.calibrated(5.0, 0.1) == pytest.approx(0.1 / 2)


def test_an_inactive_probe_leaves_times_as_they_are():
    assert Probe().calibrated(3.0, 1.25) == 1.25


def test_probe_samples_while_active_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with Probe(interval_s=0.01) as probe:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            sum(range(1000))
    assert len(probe.samples) >= 5
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

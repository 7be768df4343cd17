"""Arithmetic of the speed probe, and that it leaves no timer behind."""
import signal

import pytest

import speed


def _probe(samples):
    p = speed.Probe()
    p.samples = list(samples)
    return p


def test_at_reference_speed_scaled_is_wall_minus_probe_time():
    p = _probe([(0.0, 0.1, 1.0), (1.0, 1.1, 1.0), (2.0, 2.1, 1.0)])
    assert p.scaled(0.0, 2.1) == pytest.approx(1.8)
    assert p.probe_s(0.0, 2.1) == pytest.approx(0.3)
    assert p.scaled(0.5, 1.5) == pytest.approx(0.9)


def test_stretch_between_samples_runs_at_their_mean_speed():
    # half the reference speed at the second sample
    p = _probe([(0.0, 0.0, 1.0), (1.0, 1.0, 0.5)])
    assert p.scaled(0.0, 1.0) == pytest.approx(0.75)
    assert p.scaled(0.25, 0.75) == pytest.approx(0.375)


def test_time_outside_the_samples_takes_the_nearest_speed():
    p = _probe([(1.0, 1.0, 0.5), (2.0, 2.0, 0.25)])
    assert p.scaled(0.0, 1.0) == pytest.approx(0.5)
    assert p.scaled(2.0, 3.0) == pytest.approx(0.25)


def test_scaled_needs_samples():
    with pytest.raises(ValueError):
        speed.Probe().scaled(0.0, 1.0)


def test_probe_samples_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    p = speed.Probe(interval=0.005)
    with p:
        total = 0
        for i in range(3_000_000):
            total += i
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(p.samples) > 2  # entry, exit and at least one alarm
    assert all(s <= e and 0 < v < 100 for s, e, v in p.samples)


def test_an_alarm_during_a_sample_is_dropped():
    p = speed.Probe()
    p._sampling = True
    p._on_alarm(signal.SIGALRM, None)
    assert p.samples == []
    p._sampling = False
    p._on_alarm(signal.SIGALRM, None)
    assert len(p.samples) == 1

"""The speed probe and the scale it gives wall times."""

import pytest

import speed


def test_scale_takes_a_time_to_nominal_speed():
    # Measured where the probe took twice its nominal time: half as long there.
    assert speed.scale([2 * speed.NOMINAL_MS] * 3) == pytest.approx(0.5)
    # The median probe sets the scale, so one outlier does not.
    assert speed.scale([speed.NOMINAL_MS, speed.NOMINAL_MS, 100.0]) == pytest.approx(1.0)


def test_probe_is_a_positive_time():
    samples = speed.probes(3)
    assert len(samples) == 3 and all(s > 0 for s in samples)

"""The reference kernel runs in a child process and reports its time."""

import reference


def test_time_once_reports_a_positive_time():
    t = reference.time_once()
    assert 0.0 < t < reference.TIMEOUT_S

"""Arithmetic the benchmark reports: quartile spreads and failure ratios.

Kept apart from the runner so that `selftest.py` can check it without
importing lyagate.
"""

import statistics


def quartile_spread(values):
    """(q3 - q1) / median, with the quartiles of statistics.quantiles(n=4)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def fail_ratio(failed, attempted):
    """failed / attempted; the base must be positive and hold the failures."""
    if attempted <= 0:
        raise ValueError("fail_ratio needs at least one attempt")
    if not 0 <= failed <= attempted:
        raise ValueError("failed=%d outside [0, attempted=%d]" % (failed, attempted))
    return failed / attempted

"""Machine-speed calibration for a shared, noisy host.

On the reference machine (2 vCPUs shared with other tenants) the same
lyagate operation runs up to 1.7x slower for minutes at a time, with no
run-queue wait and no reported steal: the cores themselves get slower. A
kernel pass tracks the speed of the process that makes it, not of others: a
probe's set-up time correlated 0.8 with passes made in the probe, 0.3 with
passes made in its parent. A run therefore times a fixed calibration kernel
in the process it calibrates, before each operation and in each set-up
probe right after its set-up, and rescales each time by
CAL_NOMINAL_S / (that kernel time): seconds at the machine's nominal speed.
The kernel does the kind of work lyagate's hot paths do (sim's
tuple-building RK4 step through a field function, and small numpy distance
scans, as in partition.locate) and touches no lyagate code, so a change to
the package cannot move it.
"""

import math
import time

import numpy as np

# Median kernel time on the reference machine; it fixes the unit only.
CAL_NOMINAL_S = 0.045

_POINTS = np.linspace(-1.0, 1.0, 2048).reshape(-1, 2)


def _field(x):
    return (x[1], -math.sin(x[0]) - 0.5 * x[1])


def _rk4_step(f, x, h):
    # The same tuple-building shape as lyagate.sim's step, on its own copy.
    k1 = f(x)
    k2 = f(tuple(xi + 0.5 * h * ki for xi, ki in zip(x, k1)))
    k3 = f(tuple(xi + 0.5 * h * ki for xi, ki in zip(x, k2)))
    k4 = f(tuple(xi + h * ki for xi, ki in zip(x, k3)))
    s = h / 6.0
    return tuple(xi + s * (a + 2.0 * b + 2.0 * c + d)
                 for xi, a, b, c, d in zip(x, k1, k2, k3, k4))


def kernel_seconds(steps=5000, scans=700):
    """Wall time of one pass of the fixed calibration kernel."""
    t0 = time.perf_counter()
    x = (1.0, 0.0)
    for _ in range(steps):
        x = _rk4_step(_field, x, 1e-3)
    p = np.array(x)
    for _ in range(scans):
        float(np.min(np.linalg.norm(_POINTS - p, axis=1)))
    return time.perf_counter() - t0

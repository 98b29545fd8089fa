"""A fixed pure-Python kernel that measures the CPU speed of the moment.

The sandboxes this benchmark runs in switch between CPU speeds about 1.5x
apart, for stretches of ten to seventy seconds, so wall-clock op times of
two runs differ by that factor whatever the program does.  Timing this
kernel before, during and after an op tells how fast the CPU was during
the op, and `scale` brings the op time to a reference speed.

The kernel does the kind of work the ops do (sparse polynomial
arithmetic with Fraction coefficients in dicts keyed by exponent tuples)
but no code of the program under test, so a change to the program does
not change it.  The garbage collector is off while it runs, so the heap
the program leaves behind does not change its time either.
"""

import gc
import time
from fractions import Fraction

# kernel time on an Intel Xeon 2.1 GHz sandbox vCPU at its faster speed
# (Python 3.11); scaled times are in seconds at that speed
REFERENCE_S = 0.00042

# The ops slow down less than the kernel when the CPU is slow: over 150 s
# of alternating probes and ops (six op kinds from all three workloads),
# op time varied least when scaled by (REFERENCE_S / probe) ** 0.7 (IQR
# 13.5% of the median per run, against 19% with exponent 1 and 32%
# unscaled).
EXPONENT = 0.7


def scale(seconds, probe_s):
    """A time measured while the kernel took `probe_s`, scaled to the
    reference speed."""
    return seconds * (REFERENCE_S / probe_s) ** EXPONENT


def _kernel():
    p = {
        (i, j, 6 - i - j): Fraction(i - 2 * j + 1, i + j + 2)
        for i in range(7)
        for j in range(7 - i)
    }
    q = {(i, 3 - i, 0): Fraction(2 * i - 3, i + 1) for i in range(4)}
    product = {}
    for (a, b, c), x in p.items():
        for (d, e, f), y in q.items():
            key = (a + d, b + e, c + f)
            value = product.get(key, 0) + x * y
            if value:
                product[key] = value
            else:
                product.pop(key, None)
    keys = sorted(product, reverse=True)
    lead = product[keys[0]]
    total = 0
    for key in keys:
        total += hash(key) % 97 * (product[key] / lead).numerator % 1009
    return total


def measure():
    """Fastest of three kernel runs, in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        if enabled:
            gc.enable()

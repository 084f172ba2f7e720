"""A fixed amount of work that does not depend on sbsched, to gauge machine speed.

bench/run.py spawns this program before every `simulate` run and times it
from spawn to exit, like the runs themselves. Like a `simulate` run, it starts
an interpreter, imports numpy and then runs Python loops over small numpy
arrays, so it slows down when the shared machine does. Nothing in it may
change: every benchmark result is scaled by its running time.
"""
import numpy as np

rng = np.random.default_rng(0)
gain = rng.random((80, 17))
power = rng.random(17)
acc = 0.0
for k in range(800):
    on = (np.arange(17) + k) % 3 > 0
    total = gain @ (power * on)
    own = gain * (power * on)
    sinr = own / (total[:, None] - own + 1e-3)
    counts = np.bincount(np.argmax(sinr, axis=1), minlength=17)
    for j in range(17):
        acc += counts[j] * 0.5 + j
if acc <= 0:
    raise SystemExit("calibration loop computed nothing")

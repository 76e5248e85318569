"""A fixed reference task, timed between CLI calls.

It does what a small corrgeom call does, with code that shares nothing with
corrgeom: start an interpreter, import numpy and the scipy modules corrgeom
imports, then run a fixed loop of small numpy calls and scalar trigonometry
over sliding windows. Its work never changes, so its wall time follows only
the machine's speed. ``run.py`` divides the wall time of each CLI call and
each set-up sample by that of the reference run just before it, which
cancels spells of slower CPU that last longer than one call.
"""

import math

import numpy as np
import scipy.optimize  # noqa: F401  imported for its start-up cost, as corrgeom does
import scipy.signal  # noqa: F401


def main() -> None:
    n, window = 16, 21
    x = np.random.default_rng(0).normal(size=(n, 320))
    acc = 0.0
    for t in range(x.shape[1] - window + 1):
        seg = x[:, t : t + window]
        dev = seg - seg.mean(axis=1, keepdims=True)
        unit = dev / np.linalg.norm(dev, axis=1, keepdims=True)
        d = np.arccos(np.clip(np.abs(unit @ unit.T), 0.0, 1.0)).tolist()
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    s = (d[i][j] + d[i][k] + d[j][k]) / 2
                    acc += math.tan(s / 2) * math.tan(abs(s - d[i][j]) / 2)
    print(f"{acc:.6f}")


if __name__ == "__main__":
    main()

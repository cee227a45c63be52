"""What the benchmark runs, in the terms both its processes need.

``run.py`` and ``checks.py`` import this without importing ``maxaffine``;
``workloads.py`` builds the program's inputs from it.
"""

import hashlib
import json

WORKLOADS = ("lloyd2d-p1", "partition2d-p1.5", "exact1d", "envelope2d")

# lloyd2d-p1 compares the CSV bytes of two repeats in every run
MIN_ROUNDS = {"lloyd2d-p1": 2}

EXACT_CASES = (
    # (label, catalog id, interval, weight, p)
    ("quadratic-const-p1", "quadratic", (0.0, 1.0), "constant", 1.0),
    ("quadratic-exp-p1", "quadratic", (0.0, 1.0), "exp_neg_t", 1.0),
    ("cosh-const-p2", "cosh_quadratic", (-1.0, 1.0), "constant", 2.0),
    ("expsum-exp-p1.5", "exp_sum", (-1.0, 1.0), "exp_neg_t", 1.5),
)

# the standard simplex {x >= 0, y >= 0, x + y <= 1}
TRIANGLE_A = [[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]
TRIANGLE_B = [0.0, 0.0, 1.0]


def digest(outputs):
    """Digest of one round's outputs; equal digests mean equal bytes."""
    text = json.dumps(outputs, sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()

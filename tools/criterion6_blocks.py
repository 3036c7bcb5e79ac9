#!/usr/bin/env python3
"""Print acceptance criterion 6's statistic over 20 blocks of 400 draws.

Criterion 6 (``tests/test_acceptance.py``) compares the mean squared error
of 400 seeded draws of the 200 000-shot matrix sampler (seeds 0-399) with
the first-order prediction, on the acceptance suite's H2O 1.0 A VO basis,
and fails when |emp/pred - 1| reaches 0.15.  One block is one sample of a
noisy statistic, so a change that moves the draws cannot be judged on it
alone.  This script builds the same basis and sampler, with the suite's
own selection settings and fixture (imported from the test module), and
prints emp/pred - 1 for the 20 consecutive blocks of seeds 0-399,
400-799, ..., 7600-7999 (the first is the test's), then the mean over the
blocks and how many reach 0.15 in magnitude.  Beside criterion 6's
prediction it prints the sampler's own predicted error: the first-order
MSE F (``first_order_mse``), the second-order bias B
(``second_order_bias``) and |B|/sqrt(F), the block mean of
emp/(F + B^2) - 1, and the mean error of all 8000 draws, with its
standard error, against B.  The shot budget, block
length and bound are the test's literals; ``tests/test_criterion6_blocks.py``
checks that they still are.  NumPy runs on one BLAS thread.

Run from anywhere:  python3 tools/criterion6_blocks.py
(about 5 s on a 2-core host)
"""

import os
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

import numpy as np  # noqa: E402

from senqse.csfbasis import default_selection_params, select_basis_vo  # noqa: E402
from senqse.fermion import jordan_wigner, load_fcidump  # noqa: E402
from senqse.measure import predicted_mse  # noqa: E402
from senqse.solver import (  # noqa: E402
    SubspaceEngine,
    ground_state,
    make_matrix_sampler,
    vo_optimize,
)
from test_acceptance import FIXTURES, TUNED  # noqa: E402

# criterion 6's shot budget, block length and bound
TOTAL_SHOTS = 200_000
BLOCK = 400
BOUND = 0.15
BLOCKS = 20


def main() -> int:
    ints = load_fcidump(FIXTURES / "h2o_1.0000.fcidump")
    hq = jordan_wigner(ints)
    basis = select_basis_vo(ints, hq, default_selection_params(ints, **TUNED))
    basis, _, _ = vo_optimize(basis, hq, ints.n_elec)
    engine = SubspaceEngine(basis, hq, ints.n_elec)
    sampler = make_matrix_sampler(engine, TOTAL_SHOTS)
    e0, c0 = ground_state(sampler.exact)
    sigma, _ = engine.sigma_matrix(sampler.plan)
    pred = predicted_mse(sigma, c0, {k: sum(v) for k, v in sampler.shots.items()})
    f, bias = sampler.first_order_mse, sampler.second_order_bias
    mses, errs = [], []
    for b in range(BLOCKS):
        seeds = range(b * BLOCK, (b + 1) * BLOCK)
        errs.extend(ground_state(sampler.draw(k))[0] - e0 for k in seeds)
        mses.append(float(np.mean(np.square(errs[-BLOCK:]))))
        stat = mses[-1] / pred - 1.0
        print(f"seeds {seeds.start}-{seeds.stop - 1}  emp/pred-1 {stat:+.4f}", flush=True)
    stats = np.array(mses) / pred - 1.0
    outside = sum(abs(s) >= BOUND for s in stats)
    print(
        f"mean {np.mean(stats):+.4f}  mean |.| {np.mean(np.abs(stats)):.4f}  "
        f"|.| >= {BOUND}: {outside} of {BLOCKS}  (pred {pred:.4e} Ha^2)"
    )
    print(
        f"sampler: F {f:.4e} Ha^2  B {bias * 1e3:+.3f} mHa  "
        f"|B|/sqrt(F) {abs(bias) / np.sqrt(f):.5f}  "
        f"block mean emp/(F+B^2)-1 {np.mean(mses) / (f + bias**2) - 1.0:+.4f}"
    )
    sem = np.std(errs, ddof=1) / np.sqrt(len(errs))
    print(
        f"mean error of {len(errs)} draws {np.mean(errs) * 1e3:+.3f} "
        f"+- {sem * 1e3:.3f} mHa  against B {bias * 1e3:+.3f} mHa"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

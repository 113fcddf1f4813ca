"""Calibrate the sample-complexity constant for the isometry check.

Protocol (all seeds fixed): one union of 20 random 5-dim subspaces at n=256
drawn from Philox(2026), DFT measurements, optimized sampling, delta=0.1.
For each candidate m the isometry condition (deviation <= 1/3) is tested on
200 sample draws seeded 0..199. The calibrated constant is the smallest
C on a 0.05 grid whose implied m reaches a >= 90% hold rate while m//8
still fails on >= 50% of the draws.

Run:  python3 scripts/calibrate_rip_constant.py [--write]
--write rewrites src/vdslab/calibration.py with the result.
"""

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

from vdslab.coherence import coherence_vector
from vdslab.priors import Subspace, SubspaceUnion
from vdslab.recovery import rip_check
from vdslab.sampling import SampledOperator, draw_sample, optimized_probabilities, sample_complexity
from vdslab.transforms import make_dft_operator

N = 256
M = 20
DIM = 5
DELTA = 0.1
SEEDS = 200
UNION_SEED = 2026


def make_union():
    rng = np.random.Generator(np.random.Philox(UNION_SEED))
    subs = []
    for _ in range(M):
        g = rng.standard_normal((N, DIM))
        q, _ = np.linalg.qr(g)
        subs.append(Subspace(q))
    return SubspaceUnion(subs)


def hold_rate(plan, op, union, m):
    held = 0
    for seed in range(SEEDS):
        rng = np.random.Generator(np.random.Philox(seed))
        sample = draw_sample(plan, m, rng)
        if rip_check(SampledOperator(op, sample), union)["holds"]:
            held += 1
    return held / SEEDS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--write", action="store_true", help="rewrite calibration.py")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    op = make_dft_operator(N)
    union = make_union()
    alpha = coherence_vector(op, union)
    plan = optimized_probabilities(alpha)
    mu = float(np.linalg.norm(alpha.alpha))
    log_term = math.log(DIM) + math.log(M) + math.log(1.0 / DELTA)
    print(f"mu = ||alpha||_2 = {mu:.6f}, mu^2 = {mu * mu:.4f}, log term = {log_term:.4f}")

    # coarse sweep so the bisection brackets are visible in the log
    for m in (25, 50, 100, 150, 200, 300, 400):
        print(f"  m={m:4d}  hold rate {hold_rate(plan, op, union, m):.3f}")

    lo, hi = 1, 400
    while hold_rate(plan, op, union, hi) < 0.90:
        lo, hi = hi, hi * 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if hold_rate(plan, op, union, mid) >= 0.90:
            hi = mid
        else:
            lo = mid
    m_star = hi
    print(f"smallest m with hold rate >= 0.90: {m_star}")

    c = math.ceil(m_star / (mu * mu * log_term) / 0.05) * 0.05
    while True:
        m = sample_complexity(mu, DIM, math.log(M), DELTA, c)
        rate_hold = hold_rate(plan, op, union, m)
        rate_fail = 1.0 - hold_rate(plan, op, union, max(1, m // 8))
        print(
            f"C={c:.2f}: m={m}, hold rate {rate_hold:.3f}, "
            f"fail rate at m//8={max(1, m // 8)}: {rate_fail:.3f}"
        )
        if rate_hold >= 0.90 and rate_fail >= 0.50:
            break
        c = round(c + 0.05, 2)
        if c > 20:
            print("no constant found below 20; aborting")
            return 1
    print(f"calibrated C = {c:.2f} in {time.perf_counter() - started:.1f}s")

    if args.write:
        target = Path(__file__).resolve().parents[1] / "src" / "vdslab" / "calibration.py"
        target.write_text(
            '"""Empirically calibrated constants; see scripts/calibrate_rip_constant.py."""\n'
            "\n"
            "# Smallest C on a 0.05 grid such that m = sample_complexity(mu, ell, log M,\n"
            "# delta, C) gives a >= 90% isometry hold rate over 200 seeded draws\n"
            f"# (n={N}, M={M} random {DIM}-dim subspaces, DFT rows, optimized sampling,\n"
            f"# delta={DELTA}) while m//8 fails on >= 50% of the same draws.\n"
            f"ISOMETRY_COMPLEXITY_CONSTANT = {c:.2f}\n"
        )
        print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Kernel section: best-of-repeats timings of single layer calls on fixed inputs.

Each case calls one public vdslab function on inputs drawn from a fixed
Philox stream, so the figures compare across commits and workloads. The
value is the minimum over repeats of the mean time per call, in
microseconds, which filters out interference from other processes.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Reference figures from the project roadmap, measured on a 2-core x86-64 box
# before this benchmark existed (microseconds); written beside the live
# figures for orientation. The last one is the adjoint (scatter plus adjoint
# transform), the case named here is the forward gather at the same size.
REFERENCE_US = {
    "kernel.transforms.dft1d_1024_fwd_b1_us": (18.0, "FFT at n=1024"),
    "kernel.transforms.dft_haar5_1024_fwd_b1_us": (51.0, "composed DFT.Haar forward at n=1024"),
    "kernel.sampling.apply_measurement_n1024_m1815_us": (
        113.0, "adjoint measurement (scatter + adjoint transform) at m=1815",
    ),
}


def _best_us(fn, repeats: int, min_block_s: float) -> float:
    number = 1
    while True:
        started = time.perf_counter()
        for _ in range(number):
            fn()
        if time.perf_counter() - started >= min_block_s:
            break
        number *= 2
    best = math.inf
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, (time.perf_counter() - started) / number)
    return best * 1e6


def _cases(v):
    rng = np.random.Generator(np.random.Philox(0))
    tf = v.transforms
    ops = {
        "dft1d_64": tf.make_dft_operator(64),
        "dft1d_1024": tf.make_dft_operator(1024),
        "dft_haar5_1024": tf.compose_measurement_basis(
            tf.make_dft_operator(1024), tf.make_haar_operator(1024, 5)
        ),
        "dft2_haar2_4096": tf.compose_measurement_basis(
            tf.make_dft_operator(4096, two_dim=True), tf.make_haar_operator(4096, 3, two_dim=True)
        ),
    }
    cases = {}
    for label, op in ops.items():
        for batch in (1, 40):
            x = rng.standard_normal(op.n if batch == 1 else (op.n, batch))
            y = op.forward(x)
            cases[f"kernel.transforms.{label}_fwd_b{batch}_us"] = lambda op=op, x=x: op.forward(x)
            cases[f"kernel.transforms.{label}_adj_b{batch}_us"] = lambda op=op, y=y: op.adjoint(y)

    sp = v.sampling
    for label, m in (("dft_haar5_1024", 1815), ("dft2_haar2_4096", 2048)):
        op = ops[label]
        sample = sp.draw_sample(sp.uniform_plan(op.n), m, rng)
        x = rng.standard_normal(op.n)
        name = f"kernel.sampling.apply_measurement_n{op.n}_m{m}_us"
        cases[name] = lambda op=op, sample=sample, x=x: sp.apply_measurement(
            op, sample, x, preconditioned=True
        )

    pr = v.priors
    for n, k in ((1024, 10), (4096, 40)):
        prior = pr.SparsePrior(n, k)
        x = rng.standard_normal(n)
        cases[f"kernel.priors.project_sparse_n{n}_k{k}_us"] = lambda prior=prior, x=x: pr.project(prior, x)

    net_rng = np.random.Generator(np.random.Philox(11))
    net = pr.GenerativeNetwork(
        [
            net_rng.standard_normal((16, 3)) / math.sqrt(3),
            net_rng.standard_normal((64, 16)) / math.sqrt(16),
        ]
    )
    z = rng.standard_normal(3)
    gx = rng.standard_normal(64)

    def pullback_and_vjp():
        _, vjp = pr.generative_pullback(net, z)
        return vjp(gx)

    cases["kernel.priors.generative_pullback_vjp_3_16_64_us"] = pullback_and_vjp
    return cases


def kernel_metrics(v, *, tiny: bool) -> dict:
    """(microseconds per call, repeats) for every kernel case, keyed by metric name."""
    repeats, block = (1, 0.0) if tiny else (5, 0.005)
    return {name: (_best_us(fn, repeats, block), repeats) for name, fn in _cases(v).items()}

"""Executable checks for the symmetry and periodicity identities of the
Max-Cut expectation landscape, plus the non-adiabatic branch harness.

Each check evaluates |F(phi) - F(transform(phi))| with the evaluator of a
concrete graph; the identities are exact, so any deviation beyond
accumulated roundoff indicates a simulator or transform bug.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import Graph, GraphClass, classify, gen_erdos_renyi, gen_random_regular
# maximize_bounded is not called here, but stays a module binding: the
# benchmark's tracer (bench/tracing.py) wraps each module's binding of it.
from .optimize import GENERAL_BOUNDS, OptimizerConfig, maximize_bounded  # noqa: F401
from .simulator import ExpectationEvaluator, Parameters
from .strategies import DepthRecord, StrategyConfig, _fixing_starts, _progress

__all__ = [
    "SymmetryReport",
    "check_angle_reversal",
    "check_periodicity",
    "check_general_point_symmetry",
    "check_even_regular",
    "check_odd_regular",
    "tilde_beta",
    "run_symmetry_suite",
    "non_adiabatic_progression",
    "DEVIATION_TOLERANCE",
]

# Identities are exact; 1e-9 leaves ample room for roundoff at n <= 10, p <= 4.
DEVIATION_TOLERANCE = 1e-9


@dataclass(frozen=True)
class SymmetryReport:
    transform: str
    max_abs_deviation: float
    samples: int


def _pair(ev: ExpectationEvaluator, phi: Parameters, phi2: Parameters) -> float:
    return abs(ev.expectation(phi) - ev.expectation(phi2))


def check_angle_reversal(ev: ExpectationEvaluator, phi: Parameters) -> float:
    """|F(gamma, beta) - F(-gamma, -beta)|; zero for any graph."""
    negated = Parameters(
        gammas=tuple(-x for x in phi.gammas), betas=tuple(-x for x in phi.betas)
    )
    return _pair(ev, phi, negated)


def check_periodicity(
    ev: ExpectationEvaluator,
    phi: Parameters,
    gamma_shift: Sequence[int] = (),
    beta_shift: Sequence[int] = (),
) -> float:
    """Shift selected angles by their periods (2*pi per gamma, pi/2 per beta)
    and compare. Indices are 0-based; any subset of either kind may shift."""
    gammas = list(phi.gammas)
    betas = list(phi.betas)
    for j in gamma_shift:
        gammas[j] += 2.0 * math.pi
    for j in beta_shift:
        betas[j] += math.pi / 2.0
    return _pair(ev, phi, Parameters(gammas=tuple(gammas), betas=tuple(betas)))


def check_general_point_symmetry(ev: ExpectationEvaluator, phi: Parameters) -> float:
    """|F(gamma, beta) - F(2*pi - gamma, pi/2 - beta)|, element-wise transform."""
    mapped = Parameters(
        gammas=tuple(2.0 * math.pi - x for x in phi.gammas),
        betas=tuple(math.pi / 2.0 - x for x in phi.betas),
    )
    return _pair(ev, phi, mapped)


def check_even_regular(ev: ExpectationEvaluator, phi: Parameters) -> float:
    """Even-regular graphs have a pi period in gamma and the point symmetry
    (pi - gamma, pi/2 - beta); returns the larger of the two deviations."""
    if classify(ev.graph) is not GraphClass.EVEN_REGULAR:
        raise ValueError("graph is not even-regular")
    shifted = Parameters(
        gammas=tuple(x + math.pi for x in phi.gammas), betas=phi.betas
    )
    mirrored = Parameters(
        gammas=tuple(math.pi - x for x in phi.gammas),
        betas=tuple(math.pi / 2.0 - x for x in phi.betas),
    )
    f = ev.expectation(phi)
    return max(abs(f - ev.expectation(shifted)), abs(f - ev.expectation(mirrored)))


def tilde_beta(betas: Sequence[float]) -> tuple[float, ...]:
    """Leave odd-indexed betas (1-based: beta_1, beta_3, ...) unchanged and map
    even-indexed ones to pi/2 - beta. Applying it twice is the identity."""
    return tuple(
        b if i % 2 == 0 else math.pi / 2.0 - b for i, b in enumerate(betas)
    )


def check_odd_regular(ev: ExpectationEvaluator, phi: Parameters) -> float:
    """|F(gamma, beta) - F(pi - gamma, tilde(beta))| for odd-regular graphs."""
    if classify(ev.graph) is not GraphClass.ODD_REGULAR:
        raise ValueError("graph is not odd-regular")
    mapped = Parameters(
        gammas=tuple(math.pi - x for x in phi.gammas),
        betas=tilde_beta(phi.betas),
    )
    return _pair(ev, phi, mapped)


def _random_phi(rng: np.random.Generator, p: int) -> Parameters:
    # Full-period draws, wider than any optimization box: the identities are
    # global, so the checks should not be confined to the search bounds.
    return Parameters(
        gammas=tuple(rng.uniform(0.0, 2.0 * math.pi, p)),
        betas=tuple(rng.uniform(0.0, math.pi, p)),
    )


def _suite_graphs(rng: np.random.Generator, max_n: int) -> dict[str, list[Graph]]:
    """Instance pools per graph class, n <= max_n; 3-regular sizes round down
    to even. The 4-regular graph needs max_n >= 5."""
    seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=8)]
    general = [
        gen_erdos_renyi(min(6, max_n), 0.5, seeds[0]),
        gen_erdos_renyi(min(8, max_n), 0.7, seeds[1]),
        gen_erdos_renyi(min(10, max_n), 0.4, seeds[2]),
        gen_random_regular(min(10, max_n) // 2 * 2, 3, seeds[3]),
    ]
    even = [
        Graph(n=3, edges=((0, 1), (1, 2), (0, 2))),  # triangle, 2-regular
        gen_random_regular(min(9, max_n), 2, seeds[4]),
        gen_random_regular(min(10, max_n), 4, seeds[5]),
    ]
    odd = [
        Graph(n=4, edges=((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),  # K4
        gen_random_regular(min(8, max_n) // 2 * 2, 3, seeds[6]),
        gen_random_regular(min(10, max_n) // 2 * 2, 3, seeds[7]),
    ]
    return {"general": general, "even_regular": even, "odd_regular": odd}


def run_symmetry_suite(
    samples: int = 100, seed: int = 0, max_n: int = 10, max_p: int = 3
) -> list[SymmetryReport]:
    """Run every check over `samples` random (graph, phi, p) draws each and
    report the worst deviation per transform."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if max_p < 1:
        raise ValueError(f"max_p must be >= 1, got {max_p}")
    if max_n < 5:
        raise ValueError(f"max_n must be >= 5 for the 4-regular pool graph, got {max_n}")
    rng = np.random.default_rng(seed)
    pools = {
        name: [ExpectationEvaluator(g) for g in pool]
        for name, pool in _suite_graphs(rng, max_n).items()
    }

    def sweep(name: str, pool: list[ExpectationEvaluator], fn) -> SymmetryReport:
        worst = 0.0
        for _ in range(samples):
            ev = pool[rng.integers(len(pool))]
            phi = _random_phi(rng, int(rng.integers(1, max_p + 1)))
            worst = max(worst, fn(ev, phi))
        return SymmetryReport(transform=name, max_abs_deviation=worst, samples=samples)

    def periodicity_full(ev: ExpectationEvaluator, phi: Parameters) -> float:
        return check_periodicity(
            ev, phi, gamma_shift=range(phi.p), beta_shift=range(phi.p)
        )

    def periodicity_masked(ev: ExpectationEvaluator, phi: Parameters) -> float:
        mask_g = [j for j in range(phi.p) if rng.random() < 0.5]
        mask_b = [j for j in range(phi.p) if rng.random() < 0.5]
        return check_periodicity(ev, phi, gamma_shift=mask_g, beta_shift=mask_b)

    return [
        sweep("angle_reversal", pools["general"], check_angle_reversal),
        sweep("periodicity_full", pools["general"], periodicity_full),
        sweep("periodicity_masked", pools["general"], periodicity_masked),
        sweep("general_point_symmetry", pools["general"], check_general_point_symmetry),
        sweep("even_regular", pools["even_regular"], check_even_regular),
        sweep("odd_regular", pools["odd_regular"], check_odd_regular),
    ]


def non_adiabatic_progression(
    g: Graph,
    max_depth: int,
    trials: int = 20,
    seed: int = 0,
    optimizer: OptimizerConfig = OptimizerConfig(),
    grid: int = 24,
) -> list[Parameters]:
    """Depth-wise optima of an odd-regular graph traced from the redundant
    half of the over-wide box (gamma in [0, pi), beta in [0, pi/2)).

    The p=1 start is the best grid point with gamma_1 in [pi/2, pi), refined
    by bounded optimization. Later depths follow the parameters-fixing
    policy from that optimum: keep the previous branch optimum for the first
    p-1 layers and try `trials` new-layer starts over the whole box (one at
    (0, 0), the rest seeded uniform draws), optimizing all angles. Every
    optimization runs in the full over-wide box, so staying on the
    non-adiabatic branch is the landscape's doing, not the harness's.
    Returns the per-depth optimal parameters.
    """
    if classify(g) is not GraphClass.ODD_REGULAR:
        raise ValueError("non-adiabatic branch exists for odd-regular graphs")
    if grid < 1:
        raise ValueError(f"grid must be >= 1, got {grid}")
    b = GENERAL_BOUNDS
    ev = ExpectationEvaluator(g)

    points = itertools.product(
        np.linspace(math.pi / 2.0, b.gamma_max, grid, endpoint=False),
        np.linspace(b.beta_min, b.beta_max, grid, endpoint=False),
    )
    # max keeps the first of equal values, so ties go to the earliest point.
    best_start = max(
        (Parameters(gammas=(float(gamma),), betas=(float(beta),)) for gamma, beta in points),
        key=ev.expectation,
    )
    cfg = StrategyConfig(
        max_depth=max_depth, bounds=b, trials=trials, rng_seed=seed, optimizer=optimizer
    )

    def starts(p: int, records: list[DepthRecord]) -> list[Parameters]:
        return _fixing_starts(records[-1].phi_star, p, cfg) if records else [best_start]

    return [r.phi_star for r in _progress(g, cfg, "non_adiabatic", starts)]

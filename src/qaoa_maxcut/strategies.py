"""Depth-progressive parameter initialization strategies and their runners.

Every runner produces its DepthRecords from the same depth loop, `_progress`,
and differs only in its start policy: the starts it optimizes from at each
depth. A start of fewer layers than its depth keeps the earlier layers
frozen at the previous optimum. The bilinear strategy extrapolates the next
depth's start from the previous two optima and performs a single
optimization per depth; parameters fixing and layerwise are multistart
baselines whose nfev totals sum over all trials.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .graphs import Graph, _require_count, _require_number
from .optimize import Bounds, OptResult, OptimizerConfig, clamp, maximize_bounded
from .simulator import ExpectationEvaluator, Parameters, advance_probes

__all__ = [
    "DepthRecord",
    "StrategyConfig",
    "bilinear_predict",
    "base_exhaustion",
    "run_bilinear",
    "run_parameters_fixing",
    "run_layerwise",
    "run_linear_ramp",
    "linear_ramp_init",
    "STRATEGIES",
]

DEFAULT_LINEAR_RAMP_DT = 0.75


@dataclass(frozen=True)
class DepthRecord:
    """Optimization outcome at one circuit depth."""

    depth: int
    phi_star: Parameters
    f_star: float
    alpha: float
    nfev_total: int
    strategy: str
    converged: bool = True

    def __post_init__(self) -> None:
        if self.phi_star.p != self.depth:
            raise ValueError(
                f"record depth {self.depth} != parameter depth {self.phi_star.p}"
            )


@dataclass(frozen=True)
class StrategyConfig:
    max_depth: int
    bounds: Bounds
    trials: int = 20
    rng_seed: int = 0
    optimizer: OptimizerConfig = OptimizerConfig()

    def __post_init__(self) -> None:
        for name, least in (("max_depth", 1), ("trials", 1), ("rng_seed", 0)):
            _require_count(name, getattr(self, name), least)


def bilinear_predict(
    phi_prev: Parameters, phi_prev2: Parameters, b: Bounds
) -> Parameters:
    """Extrapolate depth-p starting angles from the optima at depths p-1 and p-2.

    For gammas and betas independently, with 1-based index j:

      j <= p-2:  phi_j      = 2*phi_j[p-1] - phi_j[p-2]      (depth-wise trend)
      j  = p-1:  phi_{p-1}  = phi_{p-1}[p-1] + (phi_{p-2}[p-1] - phi_{p-2}[p-2])
      j  = p:    phi_p      = 2*phi_{p-1} - phi_{p-2}        (index-wise trend,
                                                              on the new values)

    Out-of-box results are replaced by the nearer boundary, after all three
    rules have been applied.
    """
    if phi_prev.p != phi_prev2.p + 1:
        raise ValueError(
            f"need consecutive depths: got p-1 with {phi_prev.p} angles "
            f"and p-2 with {phi_prev2.p}"
        )

    def extend(prev: tuple[float, ...], prev2: tuple[float, ...]) -> tuple[float, ...]:
        out = [2.0 * prev[j] - prev2[j] for j in range(len(prev2))]
        out.append(prev[-1] + (prev[-2] - prev2[-1]))
        out.append(2.0 * out[-1] - out[-2])
        return tuple(out)

    raw = Parameters(
        gammas=extend(phi_prev.gammas, phi_prev2.gammas),
        betas=extend(phi_prev.betas, phi_prev2.betas),
    )
    return clamp(raw, b)


def linear_ramp_init(p: int, delta_t: float) -> Parameters:
    """Discretized-annealing start: gamma_j = (j/p)*dt ramps up,
    beta_j = (1 - j/p)*dt ramps down, j = 1..p."""
    _require_count("depth", p, 1)
    _require_number("delta_t", delta_t)
    if not 0 < delta_t < math.inf:
        raise ValueError(f"delta_t must be positive and finite, got {delta_t}")
    gammas = tuple(j / p * delta_t for j in range(1, p + 1))
    betas = tuple((1.0 - j / p) * delta_t for j in range(1, p + 1))
    return Parameters(gammas=gammas, betas=betas)


def _stack(frozen: Parameters | None, layers: Parameters) -> Parameters:
    if frozen is None:
        return layers
    return Parameters(gammas=frozen.gammas + layers.gammas, betas=frozen.betas + layers.betas)


def _objective(
    evaluator: ExpectationEvaluator, frozen: Parameters | None
) -> Callable[[Parameters], float]:
    """F at the frozen layers followed by the optimized ones, with a
    `prefetch` that advances each request's rows behind the frozen layers."""

    def objective(phi: Parameters) -> float:
        return evaluator.expectation(_stack(frozen, phi))

    def prefetch(angles: np.ndarray) -> None:
        if frozen is not None:
            front = np.array((frozen.gammas, frozen.betas))[None].repeat(len(angles), axis=0)
            angles = np.concatenate((front, angles), axis=2)
        advance_probes(evaluator, angles)

    objective.prefetch = prefetch
    return objective


def _progress(
    g: Graph,
    cfg: StrategyConfig,
    label: str,
    starts: Callable[[int, list[DepthRecord]], list[Parameters]],
) -> list[DepthRecord]:
    """The depth-progressive loop shared by every strategy: one DepthRecord
    per depth 1..max_depth whose start policy `starts(p, records so far)`
    returns any start.

    At each depth p, optimize from every start; the best objective wins,
    ties go to the earliest start, and nfev sums over all starts. A start
    with fewer than p layers extends the previous depth's optimum, which
    stays frozen in front of it.
    """
    evaluator = ExpectationEvaluator(g)
    if evaluator.c_max < 1:
        raise ValueError(f"graph has no edges: C_max must be >= 1, got {evaluator.c_max}")
    records: list[DepthRecord] = []
    for p in range(1, cfg.max_depth + 1):
        best: OptResult | None = None
        nfev_total = 0
        for phi0 in starts(p, records):
            frozen = records[-1].phi_star if phi0.p < p else None
            res = maximize_bounded(_objective(evaluator, frozen), phi0, cfg.bounds, cfg.optimizer)
            nfev_total += res.nfev
            if best is None or res.f_star > best.f_star:
                best = replace(res, phi_star=_stack(frozen, res.phi_star))
        if best is not None:
            records.append(
                DepthRecord(
                    depth=p,
                    phi_star=best.phi_star,
                    f_star=best.f_star,
                    alpha=best.f_star / evaluator.c_max,
                    nfev_total=nfev_total,
                    strategy=label,
                    converged=best.converged,
                )
            )
    return records


def _halton(count: int, d: int, seed: list[int]) -> np.ndarray:
    """`count` Owen-scrambled Halton points in [0, 1)^d (arXiv:1706.02808),
    byte for byte scipy 1.17's `qmc.Halton(d, scramble=True,
    seed=np.random.default_rng(seed)).random(count)`: per prime base b, one
    shuffled digit permutation per b^-k a double resolves, drawn from a
    child of that generator."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    primes = (b for b in itertools.count(2) if all(b % q for q in range(2, b)))
    columns = []
    for b in itertools.islice(primes, d):
        perms = [np.arange(b) for _ in range(math.ceil(54 / math.log2(b)) - 1)]
        for perm in perms:
            rng.shuffle(perm)
        digits = [perm.tolist() for perm in perms]
        column = []
        for i in range(count):
            x, scale = 0.0, 1.0 / b
            for perm in digits:
                x += perm[i % b] * scale
                scale /= b
                i //= b
            column.append(x)
        columns.append(column)
    return np.array(columns).T


def _multistart(p: int, cfg: StrategyConfig, unit: np.ndarray) -> list[Parameters]:
    """p-layer starts: the zero point clamped into the box, then each row of
    `unit`, a point of [0, 1)^2p, scaled into the box."""
    lower, upper = cfg.bounds.box(p)
    zero = clamp(Parameters(gammas=(0.0,) * p, betas=(0.0,) * p), cfg.bounds)
    return [zero] + [Parameters.from_array(u * (upper - lower) + lower) for u in unit]


def _exhaustion_starts(p: int, cfg: StrategyConfig) -> list[Parameters]:
    """The zero corner, then a seeded low-discrepancy set: `trials` in all."""
    return _multistart(p, cfg, _halton(cfg.trials - 1, 2 * p, [cfg.rng_seed, p]))


def _new_layer_starts(p: int, cfg: StrategyConfig, random_count: int) -> list[Parameters]:
    """Starts for the new layer (gamma_p, beta_p): (0, 0) first, then
    `random_count` uniform draws over the box, seeded per depth."""
    draws = np.random.default_rng([cfg.rng_seed, p]).random((random_count, 2))
    return _multistart(1, cfg, draws)


def _fixing_starts(prev: Parameters, p: int, cfg: StrategyConfig) -> list[Parameters]:
    """The previous optimum extended by each of `trials` new-layer starts."""
    return [_stack(prev, layer) for layer in _new_layer_starts(p, cfg, cfg.trials - 1)]


def base_exhaustion(g: Graph, p: int, cfg: StrategyConfig) -> DepthRecord:
    """Best of a seeded multistart at depth 1 or 2, establishing the base
    optima that the depth-progressive strategies build on."""
    _require_count("depth", p, 1)
    if p not in (1, 2):
        raise ValueError(f"base exhaustion is for depths 1 and 2, got {p}")

    def starts(depth: int, records: list[DepthRecord]) -> list[Parameters]:
        return _exhaustion_starts(depth, cfg) if depth == p else []

    return _progress(g, replace(cfg, max_depth=p), "exhaustion", starts)[0]


def run_bilinear(g: Graph, cfg: StrategyConfig) -> list[DepthRecord]:
    """Depth progression with a single extrapolated start per depth from p=3 on.

    Depths 1 and 2 come from base exhaustion; afterwards each depth costs
    exactly one prediction plus one bounded optimization.
    """

    def starts(p: int, records: list[DepthRecord]) -> list[Parameters]:
        if p <= 2:
            return _exhaustion_starts(p, cfg)
        return [bilinear_predict(records[-1].phi_star, records[-2].phi_star, cfg.bounds)]

    return _progress(g, cfg, "bilinear", starts)


def run_parameters_fixing(g: Graph, cfg: StrategyConfig) -> list[DepthRecord]:
    """Multistart baseline: each depth reuses the previous optimum for the
    first p-1 layers and tries `trials` starts for the new layer, optimizing
    all 2p angles. The (0, 0) new-layer start reproduces the previous optimum
    exactly, which makes the approximation ratio non-decreasing in depth.
    """

    def starts(p: int, records: list[DepthRecord]) -> list[Parameters]:
        if p == 1:
            return _exhaustion_starts(1, cfg)
        return _fixing_starts(records[-1].phi_star, p, cfg)

    return _progress(g, cfg, "parameters_fixing", starts)


def run_layerwise(g: Graph, cfg: StrategyConfig) -> list[DepthRecord]:
    """Baseline that freezes all previous angles and optimizes only the newest
    layer's (gamma_p, beta_p): a 2-variable search at every depth, over
    `trials` random starts plus the (0, 0) start."""

    def starts(p: int, records: list[DepthRecord]) -> list[Parameters]:
        if p == 1:
            return _exhaustion_starts(1, cfg)
        return _new_layer_starts(p, cfg, cfg.trials)

    return _progress(g, cfg, "layerwise", starts)


def run_linear_ramp(g: Graph, cfg: StrategyConfig) -> list[DepthRecord]:
    """Baseline seeded from the discretized-annealing ramp: one optimization
    per depth, started at linear_ramp_init with DEFAULT_LINEAR_RAMP_DT
    clamped into the box."""

    def starts(p: int, records: list[DepthRecord]) -> list[Parameters]:
        return [clamp(linear_ramp_init(p, DEFAULT_LINEAR_RAMP_DT), cfg.bounds)]

    return _progress(g, cfg, "linear_ramp", starts)


STRATEGIES: dict[str, Callable[[Graph, StrategyConfig], list[DepthRecord]]] = {
    "bilinear": run_bilinear,
    "parameters_fixing": run_parameters_fixing,
    "layerwise": run_layerwise,
    "linear_ramp": run_linear_ramp,
}

"""Box-constrained maximization with exact objective-evaluation accounting.

The optimizer is scipy's L-BFGS-B. `scipy.optimize` takes most of a cold
start to import, so `maximize_flat` imports it on its first call rather than
when the package loads: code that only simulates, such as the `landscape`,
`verify`, `gen`, `table` and `trace` commands, never loads scipy.

The gradient is by central finite differences, 2 probes per coordinate, all
counted in nfev. Each L-BFGS-B request is the value and the gradient at one
point, built once as rows: the point, then its probe pairs in coordinate
order. The optimizer knows nothing of what the coordinates mean; an
objective that can share work between rows orders that work itself. An
objective may carry a `prefetch` attribute, which gets each request's rows;
the objective is then called on each row in that order, so the counts, the
best point and the errors do not depend on `prefetch`.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import Callable, Sequence

import numpy as np

from .graphs import GraphClass, _require_count, _require_number
from .simulator import Parameters

__all__ = [
    "Bounds",
    "OptimizerConfig",
    "OptResult",
    "OptimizationError",
    "bounds_for_graph",
    "clamp",
    "maximize_flat",
    "maximize_bounded",
    "REGULAR_BOUNDS",
    "GENERAL_BOUNDS",
    "DEFAULT_GRADIENT_STEP",
]

DEFAULT_GRADIENT_STEP = 1e-6

# Projected-gradient stopping threshold (infinity norm), alongside the
# relative-objective tolerance carried in OptimizerConfig.
_PGTOL = 1e-6


@dataclass(frozen=True)
class Bounds:
    """Per-angle box constraints, applied uniformly to every gamma_j / beta_j."""

    gamma_min: float
    gamma_max: float
    beta_min: float
    beta_max: float

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            _require_number(name, value)
        if not all(map(math.isfinite, astuple(self))):
            raise ValueError(f"bounds must be finite: {self}")
        if not (self.gamma_min < self.gamma_max and self.beta_min < self.beta_max):
            raise ValueError(f"degenerate bounds: {self}")

    def box(self, p: int) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) arrays for the flat layout [gammas..., betas...]."""
        lower = np.array([self.gamma_min] * p + [self.beta_min] * p)
        upper = np.array([self.gamma_max] * p + [self.beta_max] * p)
        return lower, upper

    def contains(self, phi: Parameters) -> bool:
        lower, upper = self.box(phi.p)
        x = phi.to_array()
        return bool(np.all(x >= lower) and np.all(x <= upper))


# Half-open search regions, realized as closed boxes for the optimizer: the
# upper endpoint is equivalent to the lower one by periodicity, so closing the
# box loses no optimum.
REGULAR_BOUNDS = Bounds(0.0, math.pi / 2, 0.0, math.pi / 2)
GENERAL_BOUNDS = Bounds(0.0, math.pi, 0.0, math.pi / 2)


def bounds_for_graph(c: GraphClass) -> Bounds:
    """Redundancy-free search box for the graph class: regular graphs get
    gamma, beta in [0, pi/2); all other graphs gamma in [0, pi), beta in [0, pi/2)."""
    if c in (GraphClass.ODD_REGULAR, GraphClass.EVEN_REGULAR):
        return REGULAR_BOUNDS
    return GENERAL_BOUNDS


def clamp(phi: Parameters, b: Bounds) -> Parameters:
    """Replace every out-of-box angle by the nearer boundary value."""
    gammas = tuple(min(max(g, b.gamma_min), b.gamma_max) for g in phi.gammas)
    betas = tuple(min(max(x, b.beta_min), b.beta_max) for x in phi.betas)
    return Parameters(gammas=gammas, betas=betas)


@dataclass(frozen=True)
class OptimizerConfig:
    gradient_step: float = DEFAULT_GRADIENT_STEP
    convergence_tolerance: float = 1e-9  # relative objective change
    max_iterations: int = 500

    def __post_init__(self) -> None:
        _require_count("max_iterations", self.max_iterations, 1)
        _require_number("gradient_step", self.gradient_step)
        _require_number("convergence_tolerance", self.convergence_tolerance)
        # Written as a range test so that NaN, which compares false, fails it.
        if not all(0 < x < math.inf for x in astuple(self)):
            raise ValueError(f"optimizer settings must be positive and finite: {self}")


@dataclass(frozen=True)
class OptResult:
    phi_star: Parameters
    f_star: float
    nfev: int
    converged: bool


class OptimizationError(RuntimeError):
    """The objective returned a non-finite value.

    `nfev` counts the objective calls made up to and including the failing
    one; `best_x` and `best_f` are the best feasible flat point seen before
    the failure and its value (None and -inf when no finite value was seen).
    """

    def __init__(self, message: str, nfev: int, best_x: np.ndarray | None, best_f: float):
        super().__init__(message)
        self.nfev = nfev
        self.best_x = best_x
        self.best_f = best_f


def _probes(x: np.ndarray, lower: np.ndarray, upper: np.ndarray, step: float) -> np.ndarray:
    """The request at x, in calling order: row 0 is x, and rows 2k + 1 and
    2k + 2 are x + h e_k and x - h e_k, coordinate by coordinate."""
    # Probes are clamped into the box, so every counted evaluation is at a
    # feasible point; at an active bound this degrades to a one-sided
    # difference over the actual spread.
    rows = np.repeat(x[None], 1 + 2 * x.size, axis=0)
    for k in range(x.size):
        rows[2 * k + 1, k] = min(x[k] + step, upper[k])
        rows[2 * k + 2, k] = max(x[k] - step, lower[k])
    return rows


def _fd_gradient(rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The central-difference gradient from a request `_probes` returned and
    the objective's values at its rows."""
    # A probe pair differs in one coordinate, so its difference sums to the spread exactly.
    return (values[1::2] - values[2::2]) / (rows[1::2] - rows[2::2]).sum(axis=1)


def maximize_flat(
    fun: Callable[[np.ndarray], float],
    x0: np.ndarray,
    lower: Sequence[float],
    upper: Sequence[float],
    config: OptimizerConfig = OptimizerConfig(),
) -> tuple[np.ndarray, float, int, bool]:
    """Maximize `fun` over the box [lower, upper] with a bounded quasi-Newton
    (L-BFGS-B) routine.

    Returns (x_star, f_star, nfev, converged). nfev counts every call to
    `fun`, including the finite-difference gradient probes (2 per dimension
    per gradient). The best evaluated point is returned, so f_star never
    falls below fun(x0). Deterministic for fixed inputs. A non-finite value
    of `fun` raises OptimizationError. A box that is not finite and
    non-degenerate in every coordinate (the rule `Bounds` applies), a start
    outside it, or a gradient step that moves no angle at the box's largest
    bound raises ValueError before `fun` is called. A `fun.prefetch` gets
    each request's rows, the point and then its probe pairs in coordinate
    order, one flat point per row, and `fun` is then called on each row in
    that order.
    """
    from scipy.optimize import minimize  # deferred: see the module docstring

    x0 = np.asarray(x0, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if x0.ndim != 1 or x0.size == 0:
        raise ValueError(f"start must be a non-empty 1-D array, got shape {x0.shape}")
    if lower.shape != x0.shape or upper.shape != x0.shape:
        raise ValueError(
            f"box shapes {lower.shape} and {upper.shape} differ from start shape {x0.shape}"
        )
    if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
        raise ValueError(f"bounds must be finite: [{lower}, {upper}]")
    if np.any(lower >= upper):
        raise ValueError(f"degenerate box: need lower < upper, got [{lower}, {upper}]")
    # Written as a range test so that a NaN start, which compares false, fails it.
    if not np.all((lower <= x0) & (x0 <= upper)):
        raise ValueError(f"start {x0} outside box [{lower}, {upper}]")

    # A step of at most half an ulp of the largest bound rounds x ± h to x: 0 / 0.
    step = config.gradient_step
    if np.any(2 * step <= np.spacing(np.maximum(abs(lower), abs(upper)))):
        raise ValueError(f"gradient_step {step} moves no angle in box [{lower}, {upper}]")

    prefetch = getattr(fun, "prefetch", None)
    nfev, best_x, best_f = 0, None, -math.inf

    def neg_and_grad(x: np.ndarray) -> tuple[float, np.ndarray]:
        # With jac=True scipy asks for both at once, so one request serves them.
        nonlocal nfev, best_x, best_f
        rows = _probes(x, lower, upper, step)
        if prefetch is not None:
            prefetch(rows)
        values = np.empty(len(rows))
        for i, y in enumerate(rows):
            nfev += 1
            values[i] = value = float(fun(y))
            if not math.isfinite(value):
                message = f"objective returned non-finite value {value} at {y}"
                raise OptimizationError(message, nfev, best_x, best_f)
            if value > best_f:
                best_f, best_x = value, y.copy()
        return -values[0], -_fd_gradient(rows, values)

    res = minimize(
        neg_and_grad,
        x0,
        jac=True,
        method="L-BFGS-B",
        bounds=list(zip(lower, upper)),
        options={
            "ftol": config.convergence_tolerance,
            "gtol": _PGTOL,
            "maxiter": config.max_iterations,
        },
    )
    assert best_x is not None
    return best_x, best_f, nfev, bool(res.success)


def maximize_bounded(
    objective: Callable[[Parameters], float],
    phi0: Parameters,
    b: Bounds,
    config: OptimizerConfig = OptimizerConfig(),
) -> OptResult:
    """Local maximization of a parameter objective within the box `b`.

    `phi0` must already lie inside the box (callers clamp first). The
    reported nfev is exactly the number of `objective` calls made. A
    non-finite objective value raises maximize_flat's OptimizationError.
    An `objective.prefetch` gets each request's rows, the point and then its
    probes, as a (k, 2, p) array of (gammas, betas) rows, and `objective` is
    then called on each row in that order; see `maximize_flat`.
    """
    if not b.contains(phi0):
        raise ValueError(f"start {phi0} violates bounds {b}; clamp first")
    lower, upper = b.box(phi0.p)

    def fun(x: np.ndarray) -> float:
        return objective(Parameters.from_array(x))

    prefetch = getattr(objective, "prefetch", None)
    if prefetch is not None:
        fun.prefetch = lambda rows: prefetch(rows.reshape(len(rows), 2, phi0.p))

    x, f, nfev, converged = maximize_flat(fun, phi0.to_array(), lower, upper, config)
    return OptResult(
        phi_star=Parameters.from_array(x), f_star=f, nfev=nfev, converged=converged
    )

"""Experiment configuration, execution, persistence, and CSV emitters.

An experiment is a set of seeded graph instances crossed with initialization
strategies. Results are a single JSON document (full fidelity) plus CSV
emitters for plotting with external tools; runs are deterministic for fixed
seeds, so re-running a config reproduces the results byte for byte apart
from the timestamp.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from datetime import datetime, timezone
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .graphs import Graph, _check_prob, _check_regular, _require_count, classify, gen_erdos_renyi, gen_random_regular
from .optimize import Bounds, OptimizerConfig, bounds_for_graph
from .simulator import MAX_QUBITS, ExpectationEvaluator, Parameters
from .strategies import STRATEGIES, DepthRecord, StrategyConfig
from .symmetry import SymmetryReport, run_symmetry_suite

__all__ = [
    "ConfigError",
    "InstanceSpec",
    "ExperimentConfig",
    "ResultSet",
    "run_experiment",
    "emit_alpha_table",
    "emit_params_trace",
    "emit_landscape",
]


class ConfigError(ValueError):
    """An experiment configuration is invalid or unsatisfiable."""


def _decode(cls: type, d: object, what: str):
    """Build the dataclass `cls` from the JSON object `d`, checking every key
    against the field types; `what` names `d` in error messages."""
    if not isinstance(d, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(d).__name__}")
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"{what} has unknown key(s) {', '.join(map(repr, unknown))}")
    hints = get_type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        if f.name in d:
            kwargs[f.name] = _decode_value(hints[f.name], d[f.name], f"{what}.{f.name}")
        elif f.default is MISSING:
            raise ConfigError(f"{what} is missing the required key {f.name!r}")
    return cls(**kwargs)


# JSON value types accepted for each scalar field type (bools are not ints),
# and how an error message describes them.
_SCALARS = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    bool: ((bool,), "true or false"),
    dict: ((dict,), "a JSON object"),
}


# JSON has no NaN or infinity. A results file writes a non-finite number as
# one of these strings, which a float field reads back; every float field of
# a config must be finite and refuses them after decoding.
_NON_FINITE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}


def _text_non_finite(v: object) -> object:
    """`v` with each non-finite float in it replaced by its key in _NON_FINITE."""
    if isinstance(v, float) and not math.isfinite(v):
        return str(v)
    if isinstance(v, (list, tuple)):
        return [_text_non_finite(x) for x in v]
    if isinstance(v, dict):
        return {k: _text_non_finite(x) for k, x in v.items()}
    return v


def _decode_value(tp: object, v: object, what: str):
    if get_origin(tp) is UnionType:  # `X | None`, the only union in use
        if v is None:
            return None
        tp = get_args(tp)[0]
    if is_dataclass(tp):
        return _decode(tp, v, what)
    if get_origin(tp) is tuple:
        if not isinstance(v, list):
            raise ConfigError(f"{what} must be a JSON list, got {json.dumps(v)}")
        return tuple(_decode_value(get_args(tp)[0], x, f"{what}[{i}]") for i, x in enumerate(v))
    if tp is float and type(v) is str and v in _NON_FINITE:
        return _NON_FINITE[v]
    accepted, description = _SCALARS[tp]
    if type(v) not in accepted:
        raise ConfigError(f"{what} must be {description}, got {json.dumps(v)}")
    try:
        return float(v) if tp is float else v
    except OverflowError:
        raise ConfigError(f"{what} is an integer too large for a float") from None


def _read_json(path: str | Path) -> object:
    try:
        return json.loads(Path(path).read_text())
    except ValueError as exc:  # not UTF-8, not JSON, or an integer of too many digits
        raise ConfigError(f"{path}: not valid JSON ({exc})") from None


@dataclass(frozen=True)
class InstanceSpec:
    """Seeded recipe for one graph instance."""

    kind: str  # "regular" | "erdos_renyi"
    n: int
    seed: int
    degree: int | None = None
    prob: float | None = None

    def __post_init__(self) -> None:
        try:
            _require_count("n", self.n, 1)
            _require_count("seed", self.seed, 0)
            if self.kind == "erdos_renyi" and self.prob is not None:
                _check_prob(self.prob)
        except ValueError as exc:
            raise ConfigError(f"{self}: {exc}") from None
        if self.kind == "regular":
            if self.degree is None:
                raise ConfigError(f"{self}: regular instance needs a degree")
            if self.prob is not None:
                raise ConfigError(f"{self}: regular instance takes no 'prob'")
            # Only a graph that exists can be built; `build` still fails when
            # the pairing model finds none in its tries.
            try:
                _check_regular(self.n, self.degree)
            except ValueError as exc:
                raise ConfigError(f"instance {self.instance_id} is unsatisfiable: {exc}") from None
        elif self.kind == "erdos_renyi":
            if self.prob is None:
                raise ConfigError(f"{self}: erdos_renyi instance needs an edge probability")
            if self.degree is not None:
                raise ConfigError(f"{self}: erdos_renyi instance takes no 'degree'")
        else:
            raise ConfigError(f"{self}: unknown instance kind {self.kind!r}")
        if self.n > MAX_QUBITS:
            raise ConfigError(
                f"instance {self.instance_id}: n={self.n} exceeds the simulator "
                f"limit of {MAX_QUBITS} qubits"
            )

    @property
    def instance_id(self) -> str:
        if self.kind == "regular":
            return f"reg{self.degree}-n{self.n}-s{self.seed}"
        return f"er{self.prob:g}-n{self.n}-s{self.seed}"

    def build(self) -> Graph:
        if self.kind == "regular":
            return gen_random_regular(self.n, self.degree, self.seed)
        return gen_erdos_renyi(self.n, self.prob, self.seed)

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


@dataclass(frozen=True)
class ExperimentConfig:
    instances: tuple[InstanceSpec, ...]
    strategies: tuple[str, ...]
    max_depth: int = 10
    trials: int = 20
    rng_seed: int = 0
    optimizer: OptimizerConfig = OptimizerConfig()
    bounds: Bounds | None = None  # None = per-class defaults
    symmetry_samples: int = 0

    def __post_init__(self) -> None:
        if not self.instances:
            raise ConfigError("config has no instances")
        if not self.strategies:
            raise ConfigError("config has no strategies")
        unknown = [s for s in self.strategies if s not in STRATEGIES]
        if unknown:
            raise ConfigError(
                f"unknown strategies {unknown}; available: {sorted(STRATEGIES)}"
            )
        if len(set(self.strategies)) != len(self.strategies):
            raise ConfigError(f"duplicate strategies in config: {self.strategies}")
        minimums = {"max_depth": 1, "trials": 1, "rng_seed": 0, "symmetry_samples": 0}
        try:
            for name, least in minimums.items():
                _require_count(name, getattr(self, name), least)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        ids = [spec.instance_id for spec in self.instances]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"duplicate instance ids in config: {ids}")

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "instances": [spec.to_dict() for spec in self.instances],
            "strategies": list(self.strategies),
        }

    @classmethod
    def from_dict(cls, d: dict) -> ExperimentConfig:
        return _decode(cls, d, "config")

    @classmethod
    def from_file(cls, path: str | Path) -> ExperimentConfig:
        return cls.from_dict(_read_json(path))

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass(frozen=True)
class _Row:
    """One stored record, as a row of the results file."""

    instance: str
    strategy: str
    depth: int
    gammas: tuple[float, ...]
    betas: tuple[float, ...]
    f_star: float
    alpha: float
    nfev: int
    converged: bool


@dataclass(frozen=True)
class _Document:
    """The results file: rows sorted by (instance, strategy, depth)."""

    meta: dict
    records: tuple[_Row, ...]
    symmetry_reports: tuple[SymmetryReport, ...] = ()


@dataclass
class ResultSet:
    """All records of one experiment, keyed by (instance id, strategy, depth)."""

    meta: dict
    records: dict[tuple[str, str, int], DepthRecord] = field(default_factory=dict)
    symmetry_reports: list[SymmetryReport] = field(default_factory=list)

    def add(self, instance_id: str, record: DepthRecord) -> None:
        key = (instance_id, record.strategy, record.depth)
        if key in self.records:
            raise ValueError(f"duplicate record key {key}")
        self.records[key] = record

    def to_json(self) -> str:
        rows = tuple(
            _Row(*key, rec.phi_star.gammas, rec.phi_star.betas, rec.f_star, rec.alpha,
                 rec.nfev_total, rec.converged)
            for key, rec in sorted(self.records.items())
        )
        doc = asdict(_Document(self.meta, rows, tuple(self.symmetry_reports)))
        # meta is an untyped object that would read a string back as a
        # string, so a non-finite number there is refused, not written.
        doc["records"] = _text_non_finite(doc["records"])
        doc["symmetry_reports"] = _text_non_finite(doc["symmetry_reports"])
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> ResultSet:
        return cls._from_dict(json.loads(text))

    @classmethod
    def _from_dict(cls, d: object) -> ResultSet:
        doc = _decode(_Document, d, "results")
        rs = cls(meta=doc.meta, symmetry_reports=list(doc.symmetry_reports))
        for i, r in enumerate(doc.records):
            try:
                phi = Parameters(r.gammas, r.betas)
                record = DepthRecord(r.depth, phi, r.f_star, r.alpha, r.nfev, r.strategy, r.converged)
                rs.add(r.instance, record)
            except ValueError as exc:
                raise ConfigError(f"results.records[{i}]: {exc}") from None
        return rs

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str | Path) -> ResultSet:
        return cls._from_dict(_read_json(path))


def _strategy_seed(base: int, instance_idx: int, strategy_idx: int) -> int:
    seq = np.random.SeedSequence(entropy=base, spawn_key=(instance_idx, strategy_idx))
    return int(seq.generate_state(1)[0])


def run_experiment(cfg: ExperimentConfig) -> ResultSet:
    """Execute every (instance x strategy) run in the config.

    Deterministic for fixed seeds; per-run strategy seeds are derived from the
    config seed and the instance/strategy positions.
    """
    graphs = [(spec.instance_id, spec.build()) for spec in cfg.instances]
    for instance_id, g in graphs:
        if g.m == 0:
            raise ConfigError(f"instance {instance_id} has no edges: C_max must be >= 1, got 0")
    rs = ResultSet(
        meta={
            "config": cfg.to_dict(),
            "config_hash": cfg.config_hash(),
            "created_at": datetime.now(timezone.utc).isoformat(),
        }
    )
    for i, (instance_id, g) in enumerate(graphs):
        bounds = cfg.bounds if cfg.bounds is not None else bounds_for_graph(classify(g))
        for s, name in enumerate(cfg.strategies):
            scfg = StrategyConfig(
                max_depth=cfg.max_depth,
                bounds=bounds,
                trials=cfg.trials,
                rng_seed=_strategy_seed(cfg.rng_seed, i, s),
                optimizer=cfg.optimizer,
            )
            for record in STRATEGIES[name](g, scfg):
                rs.add(instance_id, record)
    if cfg.symmetry_samples > 0:
        rs.symmetry_reports = run_symmetry_suite(
            samples=cfg.symmetry_samples, seed=cfg.rng_seed
        )
    return rs


def _csv(header: list[str], rows) -> str:
    """CSV text of the header row and then `rows`, one line each."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([header, *rows])
    return out.getvalue()


def emit_alpha_table(rs: ResultSet) -> str:
    """CSV of approximation ratios and cumulative evaluation counts:
    instance, strategy, p, F_star, alpha, nfev_cumulative, sorted by key."""
    if not rs.records:
        raise ValueError("empty result set")
    cumulative: dict[tuple[str, str], int] = {}
    rows = []
    for key in sorted(rs.records):
        instance_id, strategy, depth = key
        rec = rs.records[key]
        group = (instance_id, strategy)
        cumulative[group] = cumulative.get(group, 0) + rec.nfev_total
        rows.append(
            [instance_id, strategy, depth, repr(rec.f_star), repr(rec.alpha), cumulative[group]]
        )
    return _csv(["instance", "strategy", "p", "F_star", "alpha", "nfev_cumulative"], rows)


def emit_params_trace(rs: ResultSet, instance: str, strategy: str) -> str:
    """Long-format CSV of optimal angles for one (instance, strategy):
    one row (p, j, gamma_j, beta_j) per angle index j = 1..p per depth."""
    selected = {
        key: rec
        for key, rec in rs.records.items()
        if key[0] == instance and key[1] == strategy
    }
    if not selected:
        raise ValueError(f"no records for instance={instance!r} strategy={strategy!r}")
    rows = (
        [rec.depth, j + 1, repr(rec.phi_star.gammas[j]), repr(rec.phi_star.betas[j])]
        for rec in (selected[key] for key in sorted(selected))
        for j in range(rec.depth)
    )
    return _csv(["p", "j", "gamma_j", "beta_j"], rows)


def emit_landscape(g: Graph, resolution: int) -> str:
    """CSV grid of the depth-1 normalized expectation, `resolution` points per
    axis: gamma in [0, 2*pi), one period of gamma, and beta in [0, pi), two
    periods of beta (whose period is pi/2; see symmetry.check_periodicity).
    A value that is not finite raises ValueError naming its point."""
    _require_count("resolution", resolution, 2)
    ev = ExpectationEvaluator(g)
    if ev.c_max < 1:
        raise ValueError("graph has no edges; landscape is undefined")
    rows = []
    for i in range(resolution):
        gamma = 2.0 * math.pi * i / resolution
        for j in range(resolution):
            beta = math.pi * j / resolution
            alpha = ev.expectation(Parameters(gammas=(gamma,), betas=(beta,))) / ev.c_max
            if not math.isfinite(alpha):
                raise ValueError(f"alpha is {alpha} at (gamma, beta) = ({gamma!r}, {beta!r})")
            rows.append([repr(gamma), repr(beta), repr(alpha)])
    return _csv(["gamma", "beta", "alpha"], rows)

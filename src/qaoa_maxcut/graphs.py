"""Undirected unweighted graphs: seeded generators, cut arithmetic, exact Max-Cut."""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Graph",
    "GraphClass",
    "gen_random_regular",
    "gen_erdos_renyi",
    "cut_value",
    "cut_table",
    "max_cut_brute_force",
    "classify",
    "read_edge_list",
    "write_edge_list",
]

# 2^24 basis states is the largest enumeration we allow for the exact solver.
BRUTE_FORCE_MAX_VERTICES = 24

# Restarts of each regular-graph sampler, the pairing model and then Steger
# and Wormald's, before giving up.
_REGULAR_MAX_TRIES = 2000


def _require_count(name: str, value: object, least: int) -> None:
    """Raise ValueError naming the count `name` unless `value` is an integer,
    not a bool, of at least `least`; numpy integers pass."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def _require_number(name: str, value: object) -> None:
    """Raise ValueError naming `name` unless `value` is a number, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")


class GraphClass(enum.Enum):
    """Degree-based classification that selects the optimization bounds."""

    ODD_REGULAR = "odd_regular"
    EVEN_REGULAR = "even_regular"
    NON_REGULAR = "non_regular"


@dataclass(frozen=True)
class Graph:
    """Simple undirected unweighted graph on vertices 0..n-1.

    Edges are stored canonically as sorted (lo, hi) pairs in sorted order.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        _require_count("vertex count", self.n, 1)
        canonical = []
        seen = set()
        for j, k in self.edges:
            _require_count("edge endpoint", j, 0)
            _require_count("edge endpoint", k, 0)
            if j == k:
                raise ValueError(f"self-loop at vertex {j}")
            if not (0 <= j < self.n and 0 <= k < self.n):
                raise ValueError(f"edge ({j},{k}) out of range for n={self.n}")
            e = (j, k) if j < k else (k, j)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            canonical.append(e)
        canonical.sort()
        object.__setattr__(self, "edges", tuple(canonical))

    @property
    def m(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for j, k in self.edges:
            deg[j] += 1
            deg[k] += 1
        return deg


def _check_regular(n: int, d: int) -> None:
    """Raise ValueError when n or d is not a count (n >= 1, d >= 0) or no
    simple d-regular graph on n vertices exists (d >= n, or n*d odd)."""
    _require_count("n", n, 1)
    _require_count("degree", d, 0)
    if d >= n:
        raise ValueError(f"degree d={d} must be smaller than n={n}")
    if (n * d) % 2 != 0:
        raise ValueError(f"n*d must be even for a d-regular graph, got n={n}, d={d}")


def gen_random_regular(n: int, d: int, seed: int) -> Graph:
    """Sample a simple d-regular graph on n vertices: the pairing model with
    restarts, then, should all of its tries fail, Steger and Wormald's
    sampler on the same generator.

    Deterministic for a fixed seed. Raises ValueError when no d-regular graph
    exists (see `_check_regular`), and RuntimeError when neither sampler
    finds one in its tries.
    """
    _require_count("seed", seed, 0)
    _check_regular(n, d)
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n), d)
    for _ in range(_REGULAR_MAX_TRIES):
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for i in range(0, stubs.size, 2):
            u, v = int(stubs[i]), int(stubs[i + 1])
            if u == v:
                ok = False
                break
            e = (u, v) if u < v else (v, u)
            if e in edges:
                ok = False
                break
            edges.add(e)
        if ok:
            return Graph(n=n, edges=tuple(edges))
    # The pairing model succeeds with probability about exp((1 - d^2) / 4),
    # so for d >= 6 or so its tries all fail; Steger and Wormald's sampler
    # rejects only the one pair it draws, not the whole pairing.
    for _ in range(_REGULAR_MAX_TRIES):
        edges = _steger_wormald(n, d, rng)
        if edges is not None:
            return Graph(n=n, edges=edges)
    raise RuntimeError(f"failed to sample a simple {d}-regular graph on {n} vertices")


def _steger_wormald(n: int, d: int, rng: np.random.Generator) -> tuple | None:
    """One run of Steger & Wormald's sampler (Combin. Probab. Comput. 8,
    1999): draw two unpaired stubs at a time, pair them when they join two
    vertices not yet adjacent, and stop when every stub is paired. The
    edges, or None when the stubs left allow no such pair."""
    free = [v for v in range(n) for _ in range(d)]
    adjacent: list[set[int]] = [set() for _ in range(n)]
    edges = []
    while free:
        i, j = (int(k) for k in rng.integers(len(free), size=2))
        u, v = free[i], free[j]
        if u != v and v not in adjacent[u]:
            adjacent[u].add(v)
            adjacent[v].add(u)
            edges.append((u, v))
            for k in sorted((i, j), reverse=True):
                free[k] = free[-1]
                free.pop()
            continue
        left = set(free)
        if not any(w not in adjacent[t] for t in left for w in left if w != t):
            return None
    return tuple(edges)


def _check_prob(prob: float) -> None:
    """Raise ValueError naming `prob` unless it is a number in [0, 1], not a bool."""
    if isinstance(prob, bool) or not isinstance(prob, numbers.Real) or not 0.0 <= prob <= 1.0:
        raise ValueError(f"prob must be a number in [0, 1], got {prob!r}")


def gen_erdos_renyi(n: int, prob: float, seed: int) -> Graph:
    """Sample G(n, prob): each pair (u, v), u < v in lexicographic order, is an
    edge independently with probability `prob`. Deterministic for a fixed seed."""
    _require_count("seed", seed, 0)
    _require_count("n", n, 1)
    _check_prob(prob)
    rng = np.random.default_rng(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < prob:
                edges.append((u, v))
    return Graph(n=n, edges=tuple(edges))


def cut_value(g: Graph, assignment: str) -> int:
    """Number of edges whose endpoints get different sides.

    `assignment` is a 0/1 string of length n; character i is vertex i's side.
    """
    if len(assignment) != g.n:
        raise ValueError(f"assignment length {len(assignment)} != n={g.n}")
    if any(c not in "01" for c in assignment):
        raise ValueError("assignment must contain only '0' and '1'")
    return sum(1 for j, k in g.edges if assignment[j] != assignment[k])


def _cut_values(g: Graph, fixed: int) -> np.ndarray:
    """Cut value of every assignment with vertex `fixed` on side 0, in
    increasing basis-state index (bit j is vertex j's side). Length 2^(n-1).

    The assignments form an (n-1)-axis grid, one axis per free vertex with
    the lowest vertex last; each edge adds the XOR of its endpoints' side
    planes, broadcast over the grid, into a one- or two-byte accumulator.
    """
    free = [v for v in reversed(range(g.n)) if v != fixed]
    sides = dict(zip(free, np.ix_(*[np.arange(2, dtype=np.uint8)] * len(free))))
    sides[fixed] = np.uint8(0)
    acc = np.zeros((2,) * len(free), dtype=np.uint8 if g.m <= 255 else np.uint16)
    for j, k in g.edges:
        acc += sides[j] ^ sides[k]
    return acc.reshape(-1)


def cut_table(g: Graph) -> np.ndarray:
    """Cut value of every basis state, indexed with vertex 0 as the least
    significant bit. Length 2^n, dtype float64 (ready to dot with probabilities).

    Only the low half (vertex n-1 on side 0) is enumerated: the complement of
    index z < 2^(n-1) is 2^n - 1 - z, so the high half is the low half reversed.
    """
    half = _cut_values(g, g.n - 1).astype(np.float64)
    return np.concatenate((half, half[::-1]))


def max_cut_brute_force(g: Graph) -> tuple[int, str]:
    """Exact maximum cut by enumeration; returns (C_max, one maximizing assignment).

    Only assignments with vertex 0 on side 0 are enumerated (2^(n-1) states);
    the complement of a cut has the same value.
    """
    if g.n > BRUTE_FORCE_MAX_VERTICES:
        raise ValueError(
            f"brute force supports n <= {BRUTE_FORCE_MAX_VERTICES}, got n={g.n}"
        )
    cuts = _cut_values(g, 0)
    best = int(np.argmax(cuts))
    z = 2 * best
    assignment = "".join(str(z >> i & 1) for i in range(g.n))
    return int(cuts[best]), assignment


def classify(g: Graph) -> GraphClass:
    """odd_regular / even_regular when all degrees are equal, else non_regular."""
    degs = g.degrees()
    d = degs[0]
    if any(deg != d for deg in degs):
        return GraphClass.NON_REGULAR
    return GraphClass.ODD_REGULAR if d % 2 == 1 else GraphClass.EVEN_REGULAR


def write_edge_list(g: Graph, path: str | Path) -> None:
    """Persist as text: first line "n m", then one "j k" line per edge."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{j} {k}" for j, k in g.edges)
    Path(path).write_text("\n".join(lines) + "\n")


def read_edge_list(path: str | Path) -> Graph:
    """Parse the edge-list text format written by `write_edge_list`. Any
    error, from reading the text to building the graph, names the file."""
    try:
        tokens = Path(path).read_text().split()
        if len(tokens) < 2:
            raise ValueError("missing 'n m' header")
        bad = next((t for t in tokens if not t.isdecimal()), None)
        if bad is not None:
            raise ValueError(f"expected non-negative integers, found {bad!r}")
        n, m, *ends = map(int, tokens)
        if len(ends) != 2 * m:
            raise ValueError(f"expected {m} edges, found {len(ends) // 2}")
        return Graph(n=n, edges=tuple(zip(ends[::2], ends[1::2])))
    except ValueError as exc:  # text that is not UTF-8 and int()'s digit limit included
        raise ValueError(f"{path}: {exc}") from None

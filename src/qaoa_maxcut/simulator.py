"""Exact statevector simulation of the alternating-operator Max-Cut ansatz.

Basis-state index convention: vertex 0 is the least significant bit, so the
amplitude at index z belongs to the assignment whose vertex-j side is bit j
of z. States are dense complex128 arrays of length 2^n.

Swapping every vertex's side leaves each cut value and |+>^n unchanged, so
every ansatz state has amp(z) = amp(z^) for the complement z^ of z, and the
kernels build the two from the same products, bit for bit. The evaluator
therefore stores and updates only the low half, the 2^(n-1) amplitudes with
vertex n-1 on side 0; the high half is the low half reversed. `prepare`
returns the full 2^n state, mirrored from the half.

A half state of 2 MiB or more (n >= 18) has each mixer pass split into two
disjoint halves, one of them run by a single helper thread, when the process
may run on at least 2 CPUs. Every amplitude gets the same operations either
way, so results are bit-identical. The helper thread is started on the first
split and serves the whole process; a forked child starts its own.

`advance_probes` computes the finite-difference gradient probes of one
point ahead, as rows of one 2-D state array (at most about 1 MiB, so only
up to n = 15), with per-row angles and one kernel call per layer for all
rows. Its values are kept by the evaluator and returned by `expectation`,
so every value still passes through `expectation`, bit-identical to the
one-row path.
"""

from __future__ import annotations

import bisect
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, cut_table

__all__ = [
    "Parameters",
    "ExpectationEvaluator",
    "advance_probes",
    "expectation_dense_oracle",
    "MAX_QUBITS",
    "DENSE_ORACLE_MAX_QUBITS",
]

# 2^20 complex amplitudes = 16 MiB; instances beyond that are out of scope.
MAX_QUBITS = 20

# The dense oracle builds explicit 2^n x 2^n matrices.
DENSE_ORACLE_MAX_QUBITS = 8

# Half states of at least this many amplitudes (2 MiB, n >= 18) split each
# mixer pass over two threads. One whole mixer on a shared 2-CPU host, split
# time over unsplit time (medians of three runs): 0.54-0.67 at n = 20,
# 0.53-0.66 at n = 18, 0.64-0.92 at n = 17, 0.87-1.2 at n = 16 and 2.3-3.0
# at n = 14, where handing work to the helper costs more than it saves.
_SPLIT_MIN_AMPLITUDES = 1 << 17

# The executor of the one helper thread, made on the first split. Like a BLAS
# thread pool, it serves the whole process.
_helper = None
_helper_lock = threading.Lock()


def _forget_helper() -> None:
    # A forked child has no helper thread, but would inherit the executor,
    # which takes work and never runs it.
    global _helper, _helper_lock
    _helper, _helper_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def _cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has it
        return os.cpu_count() or 1


def _in_two(task, low: tuple, high: tuple) -> None:
    """`task(*low)` on this thread and `task(*high)` on the helper thread, at once."""
    global _helper
    with _helper_lock:
        if _helper is None:
            from concurrent.futures import ThreadPoolExecutor

            _helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="qaoa-mixer")
        future = _helper.submit(task, *high)
    try:
        task(*low)
    except BaseException:
        # The helper writes into the caller's arrays: let it finish first.
        future.exception()
        raise
    future.result()


@dataclass(frozen=True)
class Parameters:
    """The 2p variational angles (gamma_1..gamma_p, beta_1..beta_p), in radians."""

    gammas: tuple[float, ...]
    betas: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "gammas", tuple(float(x) for x in self.gammas))
        object.__setattr__(self, "betas", tuple(float(x) for x in self.betas))
        if len(self.gammas) != len(self.betas):
            raise ValueError(
                f"gammas and betas must have equal length, "
                f"got {len(self.gammas)} and {len(self.betas)}"
            )
        if not self.gammas:
            raise ValueError("depth must be >= 1")

    @property
    def p(self) -> int:
        return len(self.gammas)

    def to_array(self) -> np.ndarray:
        """Flatten to [gamma_1..gamma_p, beta_1..beta_p]."""
        return np.array(self.gammas + self.betas, dtype=float)

    @classmethod
    def from_array(cls, x: np.ndarray) -> Parameters:
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.size % 2 != 0:
            raise ValueError(f"flat parameter array must have even length, got shape {x.shape}")
        p = x.size // 2
        values = x.tolist()
        return cls(gammas=tuple(values[:p]), betas=tuple(values[p:]))


def _phase_kernel(state: np.ndarray, cuts: np.ndarray, gamma) -> None:
    """In place: multiply the amplitude of each basis state z by exp(-i * gamma * cut(z)).

    `cuts` holds the cut values as integers, so the phase is computed once
    per distinct value and gathered. A 2-D state holds one state per row,
    and `gamma` then holds one angle per row.
    """
    state *= np.exp(np.multiply.outer(-1j * gamma, np.arange(cuts.max() + 1.0)))[..., cuts]


def _passes(state: np.ndarray, scratch: np.ndarray, c, s, qubits: int) -> None:
    """One pass for each of the qubits 0..qubits-1 of `state`: each pair
    (a, b) of amplitudes 2^q apart becomes c * (a, b) + s * (b, a). A 2-D
    state holds one state per row, with c and s of shape (rows, 1, 1, 1)."""
    rows = state.shape[:-1]
    for q in range(qubits):
        shape = (*rows, -1, 2, 1 << q)
        view = state.reshape(shape)
        swapped = scratch.reshape(shape)
        np.multiply(view[..., ::-1, :], s, out=swapped)
        view *= c
        view += swapped


def _straddling_pass(view: np.ndarray, swapped: np.ndarray, c: float, s: complex) -> None:
    """The pass of `_passes` on pairs (view[0, j], view[1, j]) of a 2-row view."""
    np.multiply(view[::-1], s, out=swapped)
    view *= c
    view += swapped


def _combine(state: np.ndarray, scratch: np.ndarray, c: float) -> None:
    state *= c
    state += scratch


def _mixer_rows(block: np.ndarray, betas: list[float], n: int) -> None:
    """`_mixer_kernel` on each row of a (rows, 2^(n-1)) block, row r with
    angle betas[r], by the same operations on every amplitude."""
    # math, not np.cos: numpy's vector cos may round differently.
    c = np.array([math.cos(b) for b in betas], dtype=complex)[:, None]
    s = np.array([-1j * math.sin(b) for b in betas])[:, None]
    scratch = np.empty_like(block)
    _passes(block, scratch, c[..., None, None], s[..., None, None], n - 1)
    np.multiply(block[:, ::-1], s, out=scratch)
    _combine(block, scratch, c)


def _mixer_kernel(state: np.ndarray, beta: float, n: int) -> None:
    """In place: apply exp(-i * beta * X) to each of the n qubits of a
    flip-symmetric state, given as its low half (length 2^(n-1))."""
    # One pass per qubit with the 2x2 kernel [[cos b, -i sin b], [-i sin b, cos b]]:
    # each pair (a, b) becomes c * (a, b) + s * (b, a), in three whole-state ops.
    # One scratch state serves every pass; a fresh one per pass raised the
    # peak memory at n = 20 by a state's size.
    c = math.cos(beta)
    s = -1j * math.sin(beta)
    scratch = np.empty_like(state)
    if state.size < _SPLIT_MIN_AMPLITUDES or _cpus() < 2:
        _passes(state, scratch, c, s, n - 1)
        # Qubit n-1 pairs z with z + 2^(n-1), whose amplitude is that of its
        # complement 2^(n-1) - 1 - z: the low half reversed.
        np.multiply(state[::-1], s, out=scratch)
        _combine(state, scratch, c)
        return
    # The same operations on two disjoint halves of every pass, one half on
    # the helper thread, so each amplitude gets the same bits as above.
    m = state.size // 2
    # Qubits 0..n-3 pair amplitudes within each half of the state.
    _in_two(_passes, (state[:m], scratch[:m], c, s, n - 2), (state[m:], scratch[m:], c, s, n - 2))
    if n >= 2:
        # Qubit n-2 pairs z in one half with z + m in the other: split the pairs.
        k = m // 2
        view, swapped = state.reshape(2, m), scratch.reshape(2, m)
        low = (view[:, :k], swapped[:, :k], c, s)
        _in_two(_straddling_pass, low, (view[:, k:], swapped[:, k:], c, s))
    # Qubit n-1 reads each half's partner from the other half, so every
    # partner is read before any amplitude changes.
    reverse = state[::-1]
    _in_two(np.multiply, (reverse[:m], s, scratch[:m]), (reverse[m:], s, scratch[m:]))
    _in_two(_combine, (state[:m], scratch[:m], c), (state[m:], scratch[m:], c))


# The states of one block of rows in `advance_probes`, with the mixer's
# scratch: rows * 2^(n-1) * 32 bytes, at most 64 rows at n = 10, 4 at n = 14
# and 1 from n = 16. On a shared 2-CPU host (medians of nine, G(n, 1/2)),
# one gradient's probes took 0.44 of the one-row time at n = 10, p = 8,
# 0.98 at n = 12, p = 8, 0.85-0.97 at n = 14, p = 6 and 0.83-0.91 at
# n = 15, p = 6. Per-call overhead, which the rows share, is most of a
# layer's cost at n = 10 only.
_PROBE_BLOCK_BYTES = 1 << 20


class ExpectationEvaluator:
    """Repeated expectation evaluation on one graph.

    The cut-value table is computed once and reused by every layer and every
    call; this dominates the cost of strategy runs, where one graph is
    evaluated thousands of times across depths. `c_max`, the maximum cut,
    is read off the same table.

    Consecutive calls mostly share leading layers: each finite-difference
    probe moves one angle, and the layerwise strategy freezes every layer
    but the last. So the evaluator keeps the last call's angles and its
    states after layers 1..p-1, and a call resumes from the deepest layer
    whose (gamma_j, beta_j) pairs, and all before it, are bit-equal to the
    last call's (a NaN angle never matches). A resumed state comes from the
    same kernel calls on the same bits, so every result is bit-identical to
    a fresh evaluator's. States are held as their low half (see the module
    docstring), so the stored ones cost up to (p-1) * 2^(n-1) * 16 bytes at
    the deepest p seen, 56 MiB at n = 20, p = 8. Because calls read and
    write them, an evaluator must not be shared between threads.

    It also keeps the values that `advance_probes` last computed ahead,
    keyed by the exact bits of their angles, and `expectation` returns one
    of them when called at those angles.
    """

    def __init__(self, g: Graph):
        if g.n > MAX_QUBITS:
            raise ValueError(f"n={g.n} exceeds the simulator guard of {MAX_QUBITS} qubits")
        self.graph = g
        self._cuts = cut_table(g)
        # A simple graph on at most MAX_QUBITS = 20 vertices has at most 190
        # edges, so every cut value fits in one byte. The phase kernel needs
        # the low half only; it holds every value, as cut(z) = cut(z^).
        self._cut_index = self._cuts[: 1 << (g.n - 1)].astype(np.uint8)
        self.c_max = int(self._cut_index.max())
        # Rows (gammas, betas) of the last call, and _after[j], the state
        # after its layers 1..j+1, for j < p - 1. Buffers are reused in place.
        # Before the first call, one NaN layer: nothing to resume.
        self._angles = np.full((2, 1), np.nan)
        self._after: list[np.ndarray] = []
        # Values computed ahead by `advance_probes`, keyed by the bytes of
        # their (gammas, betas) array.
        self._kept: dict[bytes, float] = {}

    def _shared_layers(self, angles: np.ndarray) -> int:
        """How many leading layers of `angles` can be resumed from the last call."""
        m = min(angles.shape[1], self._angles.shape[1]) - 1
        new, old = angles[:, :m], self._angles[:, :m]
        same = ((new.view(np.int64) == old.view(np.int64)) & (new == new)).all(axis=0)
        return int(np.logical_and.accumulate(same).sum())

    def _half(self, angles: np.ndarray) -> np.ndarray:
        """The low half of the ansatz state at the (gammas, betas) rows
        `angles`, in a new array."""
        n, p = self.graph.n, angles.shape[1]
        k = self._shared_layers(angles)
        if k:
            state = self._after[k - 1].copy()
        else:
            state = np.full(1 << (n - 1), 2.0 ** (-n / 2), dtype=complex)
        # The loop overwrites stored states from k on; should it raise, the
        # next call must resume from at most the first k.
        self._angles = angles[:, : k + 1]
        gammas, betas = angles.tolist()
        for j in range(k, p):
            _phase_kernel(state, self._cut_index, gammas[j])
            _mixer_kernel(state, betas[j], n)
            if j == p - 1:
                break
            if j == len(self._after):
                self._after.append(np.empty_like(state))
            np.copyto(self._after[j], state)
        self._angles = angles
        return state

    def prepare(self, phi: Parameters) -> np.ndarray:
        """|+>^n followed by p alternating (phase separator, mixer) layers.

        The returned full state is new on every call; the caller owns it.
        """
        half = self._half(np.array((phi.gammas, phi.betas)))
        return np.concatenate((half, half[::-1]))

    def expectation(self, phi: Parameters) -> float:
        """Mean cut value of the ansatz state: sum_z |amp(z)|^2 * cut(z).

        A value that `advance_probes` computed ahead at bit-equal angles is
        returned as it is, and the stored states stay those of the last call
        computed here.
        """
        angles = np.array((phi.gammas, phi.betas))
        if self._kept:
            kept = self._kept.get(angles.tobytes())
            if kept is not None:
                return kept
        half = self._half(angles)
        return self._value(half.real**2 + half.imag**2)

    def _value(self, probs: np.ndarray) -> float:
        """The expectation from the probabilities of the low half."""
        # The full vector, summed in index order: 2 * (probs @ low cuts) would
        # round differently and move the optimizer's path.
        return float(np.concatenate((probs, probs[::-1])) @ self._cuts)


def advance_probes(evaluator: ExpectationEvaluator, angles: np.ndarray) -> None:
    """Compute ahead, together, the expectations at those rows of `angles`
    that differ from the evaluator's last call in exactly one layer.

    `angles` has shape (k, 2, p): row r is the (gammas, betas) array of one
    point, such as a finite-difference gradient probe. The rows that qualify
    (same depth as the last call, every angle but the pair of one layer j
    bit-equal to it, no NaN) are sorted by j, and each starts from the state
    that the evaluator stored before layer j. Every later layer then runs
    once on all rows started so far, as a 2-D state of one probe per row
    with per-row angles. Each element gets the same operations as on the
    one-row path, so every value is bit-identical to `expectation`'s. The
    values replace the evaluator's kept ones, and `expectation` returns one
    when called with bit-equal angles; nothing else of the evaluator
    changes, so the other rows are computed one at a time, as before.

    Rows run in blocks of at most 1 MiB of states and scratch; from n = 16
    a block has room for one row only and nothing is computed ahead.
    """
    evaluator._kept = {}
    n = evaluator.graph.n
    rows_max = _PROBE_BLOCK_BYTES // (32 << (n - 1))
    angles = np.ascontiguousarray(angles, dtype=float)
    last = evaluator._angles
    if rows_max < 2 or angles.ndim != 3 or angles.shape[1:] != last.shape:
        return
    same = (angles.view(np.int64) == last.view(np.int64)).all(axis=1)
    qualify = ((~same).sum(axis=1) == 1) & ~np.isnan(angles).any(axis=(1, 2))
    layer = same.argmin(axis=1)
    picked = np.flatnonzero(qualify)
    picked = picked[np.argsort(layer[picked], kind="stable")]
    kept = {}
    for first in range(0, picked.size, rows_max):
        block = picked[first : first + rows_max]
        values = _advance(evaluator, angles[block], layer[block].tolist())
        kept.update(zip((angles[r].tobytes() for r in block), values))
    evaluator._kept = kept


def _advance(evaluator: ExpectationEvaluator, angles: np.ndarray, layer: list[int]) -> list[float]:
    """The values at the rows of `angles`, row r differing from the last
    call in layer `layer[r]` only; `layer` is sorted."""
    n, p = evaluator.graph.n, angles.shape[2]
    gammas, betas = angles.transpose(1, 2, 0).tolist()
    states = np.empty((len(layer), 1 << (n - 1)), dtype=complex)
    started = 0
    for j in range(layer[0], p):
        # The rows that differ in layer j start here, from the stored state.
        stop = bisect.bisect_right(layer, j, started)
        states[started:stop] = evaluator._after[j - 1] if j else 2.0 ** (-n / 2)
        started = stop
        _phase_kernel(states[:started], evaluator._cut_index, np.array(gammas[j][:started]))
        _mixer_rows(states[:started], betas[j][:started], n)
    # One 1-D product per row, as in `expectation`: a matrix product rounds
    # differently.
    return [evaluator._value(probs) for probs in states.real**2 + states.imag**2]


def expectation_dense_oracle(g: Graph, phi: Parameters) -> float:
    """Same value as `ExpectationEvaluator.expectation`, via explicit 2^n x 2^n matrices.

    Kept deliberately independent of the fast kernels: the phase separator is
    a diagonal matrix exponential and the mixer is an n-fold Kronecker power
    of the 2x2 kernel, applied as dense matrix-vector products.
    """
    if g.n > DENSE_ORACLE_MAX_QUBITS:
        raise ValueError(
            f"dense oracle supports n <= {DENSE_ORACLE_MAX_QUBITS}, got n={g.n}"
        )
    cuts = cut_table(g)
    state = np.full(1 << g.n, 2.0 ** (-g.n / 2), dtype=complex)
    for gamma, beta in zip(phi.gammas, phi.betas):
        phase = np.diag(np.exp(-1j * gamma * cuts))
        kernel = np.array(
            [
                [math.cos(beta), -1j * math.sin(beta)],
                [-1j * math.sin(beta), math.cos(beta)],
            ]
        )
        mixer = np.array([[1.0]], dtype=complex)
        for _ in range(g.n):
            mixer = np.kron(mixer, kernel)
        state = mixer @ (phase @ state)
    probs = np.abs(state) ** 2
    return float(probs @ cuts)


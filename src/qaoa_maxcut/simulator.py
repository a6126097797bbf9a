"""Exact statevector simulation of the alternating-operator Max-Cut ansatz.

Basis-state index convention: vertex 0 is the least significant bit, so the
amplitude at index z belongs to the assignment whose vertex-j side is bit j
of z. States are dense complex128 arrays of length 2^n.

Swapping every vertex's side leaves each cut value and |+>^n unchanged, so
every ansatz state has amp(z) = amp(z^) for the complement z^ of z, and the
kernels build the two from the same products, bit for bit. The evaluator
therefore stores and updates only the low half, the 2^(n-1) amplitudes with
vertex n-1 on side 0; the high half is the low half reversed. `prepare`
returns the full 2^n state, mirrored from the half, in a new array.

Every evaluation runs through the evaluator's one layer loop on a block of
half states, one per row, with per-row angles. A call of `expectation` or
`prepare` is a block of one row, which resumes from its stored prefix state
and stores its own. `advance_probes` computes a point's finite-difference
gradient probes ahead in blocks of many rows (at most about 1 MiB, so only
up to n = 15), each row starting at the one layer it changes; the evaluator
keeps their values and `expectation` returns them. A row gets the same
operations on the same bits whatever the block's size, so every value is
bit-identical to a one-row call's.

The loop computes in the evaluator's working states and one scratch, which
serves in turn as the phase gather buffer, the mixer's scratch and the full
probability vector. They hold one row (16 MiB together at n = 20) until the
first `advance_probes` block grows them, so a warm evaluation allocates no
state, apart from a prefix state stored for the first time.

A one-row block of 2 MiB or more (n >= 18) has each mixer pass split into
two disjoint halves, one of them run by a single helper thread, when the
process may run on at least 2 CPUs. Every amplitude gets the same
operations either way, so results are bit-identical. The helper thread is
started on the first split and serves the whole process; a forked child
starts its own.
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


def _phase_table(gamma, c_max: int) -> np.ndarray:
    """exp(-i * gamma * c) for each cut value c = 0..c_max, along the last
    axis, so the phase is computed once per distinct value; `gamma` may be
    an array of angles."""
    return np.exp(np.multiply.outer(-1j * gamma, np.arange(c_max + 1.0)))


def _phase_kernel(
    state: np.ndarray, cuts: np.ndarray, table: np.ndarray, out: np.ndarray | None = None
) -> None:
    """In place: multiply the amplitude of each basis state z by its phase
    table[..., cut(z)] from `_phase_table`, gathered by the intp indices
    `cuts` into `out`, an array of the state's shape (without it one is
    made). A 2-D state holds one state per row, and `table` one row each."""
    if out is None:
        out = np.empty_like(state)
    # "wrap", not the default "raise", which gathers into a copy of `out`;
    # every index is in range, so it changes no value.
    state *= np.take(table, cuts, axis=-1, out=out, mode="wrap")


def _pass(view: np.ndarray, swapped: np.ndarray, c, s) -> None:
    """Each pair (a, b) = (view[..., 0, j], view[..., 1, j]) becomes
    c * (a, b) + s * (b, a); `swapped`, of the view's shape, is overwritten."""
    np.multiply(view[..., ::-1, :], s, out=swapped)
    view *= c
    view += swapped


def _passes(block: np.ndarray, scratch: np.ndarray, c, s, qubits: int) -> None:
    """`_pass` for each of the qubits 0..qubits-1 of each row of `block`,
    whose pairs are amplitudes 2^q apart."""
    for q in range(qubits):
        shape = (len(block), -1, 2, 1 << q)
        _pass(block.reshape(shape), scratch.reshape(shape), c, s)


def _combine(state: np.ndarray, scratch: np.ndarray, c) -> None:
    state *= c
    state += scratch


def _mixer_kernel(
    block: np.ndarray, betas, n: int, scratch: np.ndarray | None = None
) -> None:
    """In place: apply exp(-i * betas[r] * X) to each of the n qubits of row
    r of `block`, a (rows, 2^(n-1)) array of flip-symmetric states, each
    given as its low half. `scratch`, an array of the block's shape, is
    overwritten; without it one is made."""
    # One pass per qubit with the 2x2 kernel [[cos b, -i sin b], [-i sin b, cos b]]:
    # each pair (a, b) becomes c * (a, b) + s * (b, a), in three whole-block
    # ops. One scratch serves every pass; a fresh one per pass raised the
    # peak memory at n = 20 by a state's size. math, not np.cos: numpy's
    # vector cos may round differently.
    if len(betas) == 1:
        # Scalars broadcast over the one row, and cost less to make than arrays.
        c, s = math.cos(betas[0]), -1j * math.sin(betas[0])
        c_pass, s_pass = c, s
    else:
        # (rows, 1) for whole rows, (rows, 1, 1, 1) for the passes' 4-D views.
        c = np.array([math.cos(b) for b in betas], dtype=complex)[:, None]
        s = np.array([-1j * math.sin(b) for b in betas])[:, None]
        c_pass, s_pass = c[..., None, None], s[..., None, None]
    if scratch is None:
        scratch = np.empty_like(block)
    # Qubit n-1 pairs z with z + 2^(n-1), whose amplitude is that of its
    # complement 2^(n-1) - 1 - z: the row reversed.
    reverse = block[:, ::-1]
    if len(block) > 1 or block.size < _SPLIT_MIN_AMPLITUDES or _cpus() < 2:
        _passes(block, scratch, c_pass, s_pass, n - 1)
        np.multiply(reverse, s, out=scratch)
        _combine(block, scratch, c)
        return
    # The same operations on two disjoint halves of every pass of the one
    # row, one half on the helper thread, so each amplitude gets the same
    # bits as above.
    m = block.size // 2
    lo, hi = np.s_[:, :m], np.s_[:, m:]
    # Qubits 0..n-3 pair amplitudes within each half of the row.
    _in_two(_passes, (block[lo], scratch[lo], c, s, n - 2), (block[hi], scratch[hi], c, s, n - 2))
    if n >= 2:
        # Qubit n-2 pairs z in one half with z + m in the other: split the pairs.
        k = m // 2
        view, swapped = block.reshape(2, m), scratch.reshape(2, m)
        _in_two(_pass, (view[:, :k], swapped[:, :k], c, s), (view[:, k:], swapped[:, k:], c, s))
    # Qubit n-1 reads each half's partner from the other half, so every
    # partner is read before any amplitude changes.
    _in_two(np.multiply, (reverse[lo], s, scratch[lo]), (reverse[hi], s, scratch[hi]))
    _in_two(_combine, (block[lo], scratch[lo], c), (block[hi], scratch[hi], c))


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
    the deepest p seen, 56 MiB at n = 20, p = 8.

    Every evaluation runs through one layer loop, `_layers`, in working
    states that grow from one row to a probe block (see the module
    docstring). Because calls read and write all of these, an evaluator
    must not be shared between threads.

    It also keeps the values that `advance_probes` last computed ahead,
    keyed by the exact bits of their angles, and `expectation` returns one
    of them when called at those angles.
    """

    def __init__(self, g: Graph):
        if g.n > MAX_QUBITS:
            raise ValueError(f"n={g.n} exceeds the simulator guard of {MAX_QUBITS} qubits")
        self.graph = g
        self._cuts = cut_table(g)
        # The phase kernel needs the low half only; it holds every value, as
        # cut(z) = cut(z^). Held as the intp indices that np.take gathers by,
        # so a gather makes no widened copy.
        self._cut_index = self._cuts[: 1 << (g.n - 1)].astype(np.intp)
        self.c_max = int(self._cut_index.max())
        # Rows (gammas, betas) of the last call, and _after[j], the state
        # after its layers 1..j+1, for j < p - 1. Buffers are reused in place.
        # Before the first call, one NaN layer: nothing to resume.
        self._angles = np.full((2, 1), np.nan)
        self._after: list[np.ndarray] = []
        # The working states of `_layers`, one per row, and its scratch. One
        # row until the first probe block grows them.
        self._states = np.empty((1, 1 << (g.n - 1)), dtype=complex)
        self._scratch = np.empty_like(self._states)
        # Values computed ahead by `advance_probes`, keyed by the bytes of
        # their (gammas, betas) array.
        self._kept: dict[bytes, float] = {}

    def _shared_layers(self, angles: np.ndarray) -> int:
        """How many leading layers of `angles` can be resumed from the last call."""
        m = min(angles.shape[1], self._angles.shape[1]) - 1
        new, old = angles[:, :m], self._angles[:, :m]
        same = ((new.view(np.int64) == old.view(np.int64)) & (new == new)).all(axis=0)
        return int(np.logical_and.accumulate(same).sum())

    def _layers(self, angles: np.ndarray, starts: list[int], store: bool) -> np.ndarray:
        """The low halves of the ansatz states at the (gammas, betas) arrays
        angles[r], as rows of the working states, which the next call
        overwrites. Row r resumes after its first starts[r] layers (sorted),
        shared with the last call; every later layer runs once on all rows
        started so far. With `store`, the one row is the new last call, and
        its states after layers 1..p-1 are stored."""
        n, (rows, _, p) = self.graph.n, angles.shape
        if rows > len(self._states):
            self._states = np.empty((rows, 1 << (n - 1)), dtype=complex)
            self._scratch = np.empty_like(self._states)
        states, scratch = self._states[:rows], self._scratch[:rows]
        gammas, betas = angles.transpose(1, 2, 0)
        # The phases of every layer at once: one table per layer and row.
        first = starts[0]
        tables = _phase_table(gammas[first:], self.c_max)
        started = 0
        for j in range(first, p):
            if started < rows:
                # The rows that share j layers start here, from the stored state.
                stop = bisect.bisect_right(starts, j, started)
                states[started:stop] = self._after[j - 1] if j else 2.0 ** (-n / 2)
                started = stop
                block, work = states[:started], scratch[:started]
            _phase_kernel(block, self._cut_index, tables[j - first, :started], work)
            _mixer_kernel(block, betas[j, :started], n, work)
            if store and j < p - 1:
                if j == len(self._after):
                    self._after.append(np.empty_like(block[0]))
                np.copyto(self._after[j], block[0])
        return states

    def _half(self, angles: np.ndarray) -> np.ndarray:
        """The low half of the ansatz state at the (gammas, betas) rows
        `angles`, in the evaluator's own array, which the next call
        overwrites."""
        k = self._shared_layers(angles)
        # The loop overwrites stored states from k on; should it raise, the
        # next call must resume from at most the first k.
        self._angles = angles[:, : k + 1]
        half = self._layers(angles[None], [k], store=True)[0]
        self._angles = angles
        return half

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
        return self._value(self._half(angles))

    def _value(self, half: np.ndarray) -> float:
        """The expectation of the state whose low half is `half`."""
        # The full probability vector, the low half then its reverse, in the
        # scratch, and summed in index order: 2 * (low half @ low cuts) would
        # round differently and move the optimizer's path.
        probs = self._scratch[0].view(np.float64)
        low, high = probs[: half.size], probs[half.size :]
        np.square(half.real, out=low)
        low += np.square(half.imag, out=high)
        np.copyto(high, low[::-1])
        return float(probs @ self._cuts)


def advance_probes(evaluator: ExpectationEvaluator, angles: np.ndarray) -> None:
    """Compute ahead, together, the expectations at those rows of `angles`
    that differ from the evaluator's last call in exactly one layer.

    `angles` has shape (k, 2, p): row r is the (gammas, betas) array of one
    point, such as a finite-difference gradient probe. The rows that qualify
    (same depth as the last call, every angle but the pair of one layer j
    bit-equal to it, no NaN) are sorted by j and run as blocks of the
    evaluator's layer loop, each row starting from the state stored after
    layer j and storing nothing. Each element gets the same operations as
    in a one-row call, so every value is bit-identical to `expectation`'s.
    The values replace the evaluator's kept ones, and `expectation` returns
    one when called with bit-equal angles; nothing else of the evaluator
    changes, apart from its working states, so the other rows are computed
    one at a time, as before.

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
        states = evaluator._layers(angles[block], layer[block].tolist(), store=False)
        # One 1-D product per row, as in `expectation`: a matrix product
        # rounds differently.
        values = [evaluator._value(state) for state in states]
        kept.update(zip((angles[r].tobytes() for r in block), values))
    evaluator._kept = kept


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


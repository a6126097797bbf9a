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

Every evaluation runs through one routine, the evaluator's `_advance`, on a
stack of points, one row each; `ExpectationEvaluator` says which callers
hand it which stacks, and what it keeps of them. Each distinct row runs
once: a row bit-equal to an earlier one, such as a probe clamped back onto
its point, takes that row's value. Row 0 becomes the last call: it resumes
after the leading layers it shares bit for bit with the last call, and its
prefix states are stored as the loop computes them. Every other row resumes
from them, and the rows run through the one layer loop in blocks of half
states, one per row, with per-row angles, of at most about 1 MiB of states
and scratch each: up to 64 rows at n = 10, one from n = 16. The mixer mixes
each run of rows with a bit-equal angle by scalar coefficients; a block of
several rows of two-lane size (below) takes per-row coefficient arrays. A
row gets the same operations on the same bits whatever the block's size, so
every value is bit-identical to a one-row call's.

A mixer pass is three ufunc calls on views of the working arrays: the
pairs of the pass with each pair swapped, multiplied into their place in
the scratch, then the pairs. The evaluator builds the views of every pass
once for each range of rows of those arrays a run or block takes, on first
use, and keeps them, one list per range, until the arrays grow or more than
`_MAX_VIEW_LISTS` lists are kept; rebuilding them, two reshapes and a
reversed slice per pass, was about 10 of the 40 us of a one-row mixer at
n = 10. On qubits 0 and 1 a pair is 2 or 4 amplitudes long, and numpy's
inner loop over the swapped pairs would be that short; their views put the
pair index first, and the multiply runs in C order, one long loop per row
and pair index (on a 9-row block at n = 10, qubit 1's pass took 14 against
22 us).

Once a block's last layer has run, one pass squares the probabilities of
all its rows, real^2 plus imag^2, and mirrors each row's into the high
half, in the scratch rows of its states; the dot product with the cut
table is then one 1-D product per row.

Which loop numpy picks, strided or vector, cannot move a bit. In every
multiply of a mixer pass one factor has a zero real or imaginary part
(c = cos b + 0i, s = -i sin b), so a loop with fused multiply-adds and one
without round alike; only the sign of a zero can differ, and squaring
removes it. The squares and sums of the probabilities are elementwise.

The loop computes in rows of one pair of working arrays, the states and a
scratch, which serves in turn as the phase gather buffer, the mixer's
scratch and the full probability vector. They hold one row (16 MiB together
at n = 20) until the first block of several rows grows them, so a warm
evaluation allocates no state, apart from a prefix state stored anew.

One helper thread serves two jobs, when the process may run on at least 2
CPUs. A one-row block of 2 MiB or more (n >= 18) is split into a low and a
high half through the whole layer: the phase gather and multiply, each
mixer pass and the probability squares with their mirror image each run on
both halves at once, the high half on the helper, so each thread works on
the half it last wrote. The dot product of the probabilities with the cut
table stays one call on the calling thread. At 13 <= n <= 17, a stack of
three rows or more runs row 0 alone, then deals the other rows to two lanes,
each a range of rows of the same working arrays, and the helper runs lane
1; a lane's rows are too small to split, so the helper never submits to
itself. From n = 18 the rows run on one lane, one at a time, each split
like a one-row call.
Every amplitude gets the same operations either way, so results are
bit-identical. The helper thread is started on first use and serves the
whole process; a forked child starts its own.

A row of more than 2^15 amplitudes, the one row of a block from n = 17 or
each thread's half of a split one from n = 18, runs the mixer's passes on
qubits 0..14 one tile of 2^15 amplitudes (512 KiB) at a time, so a tile and
its scratch stay in a 2 MiB L2 through those passes; the higher qubits' passes
run over the whole row (Haner & Steiger 2017, arXiv:1704.01127). A tile is a
view of the row that starts on a multiple of 2^15 amplitudes, and a pass on
qubit q <= 14 pairs amplitudes within one tile, so every amplitude gets the
same operations on the same bits in the same order: bit-identical. A whole
mixer took 0.81-0.84 of the untiled time at n = 17, 18 and 20 (tile sizes
2^13-2^16 are compared at `_TILE_QUBITS`). Blocks of several rows hold at
most 2^15 amplitudes (`_PROBE_BLOCK_BYTES`), so they never tile.
"""

from __future__ import annotations

import bisect
import math
import os
import struct
import threading
from dataclasses import dataclass
from functools import cached_property

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
# layer over two threads (see `_split`). One whole mixer on a shared 2-CPU
# host, split time over unsplit time (medians of three runs): 0.54-0.67 at
# n = 20, 0.53-0.66 at n = 18, 0.64-0.92 at n = 17, 0.87-1.2 at n = 16 and
# 2.3-3.0 at n = 14, where handing work to the helper costs more than it
# saves.
_SPLIT_MIN_AMPLITUDES = 1 << 17

# A row longer than 2^_TILE_QUBITS amplitudes runs its mixer passes on qubits
# below _TILE_QUBITS one tile of that many amplitudes at a time (see
# `_passes`): 512 KiB of state and 512 KiB of scratch stay in a 2 MiB L2
# through the tile's passes, where each pass over the whole row streams it
# through L3. One whole mixer on a shared 2-CPU host with 2 MiB of L2 per
# core, tiled time over untiled (medians of nine, n = 17 / 18 / 20, split
# from n = 18): 0.81 / 0.84 / 0.82 with tiles of 2^15; 0.94 / 0.94 / 1.27
# with 2^13, 0.84 / 0.87 / 0.95 with 2^14 and 0.97 / 0.98 / 0.94 with 2^16.
_TILE_QUBITS = 15

# The executor of the one helper thread, made on the first split or two-lane
# probe advance. Like a BLAS thread pool, it serves the whole process. Code
# running on it must never submit to it: the one worker would wait on itself.
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


def _split(block: np.ndarray) -> bool:
    """Whether a kernel runs on `block`, a (rows, size) block or one 1-D row,
    in a low and a high half at once, the high half on the helper thread:
    one row of at least _SPLIT_MIN_AMPLITUDES amplitudes, on a process that
    may run on 2 CPUs. Only the calling thread may reach a split: lane 1's
    rows are smaller, so the helper never submits to itself."""
    # The size tests come first, so smaller states make no syscall.
    return block.size == block.shape[-1] >= _SPLIT_MIN_AMPLITUDES and _cpus() >= 2


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
        object.__setattr__(self, "gammas", tuple(map(float, self.gammas)))
        object.__setattr__(self, "betas", tuple(map(float, self.betas)))
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
        if not x.size:
            raise ValueError("depth must be >= 1")
        # The checks of __post_init__ hold, and tolist() gives floats: set
        # the fields as they are.
        p, values = x.size // 2, x.tolist()
        phi = object.__new__(cls)
        object.__setattr__(phi, "gammas", tuple(values[:p]))
        object.__setattr__(phi, "betas", tuple(values[p:]))
        return phi


def _phase_table(gamma, ramp: np.ndarray) -> np.ndarray:
    """exp(-i * gamma * c) for each cut value c of `ramp`, the floats
    0..c_max, along the last axis, so the phase is computed once per
    distinct value; `gamma` may be an array of angles."""
    return np.exp(np.multiply.outer(-1j * gamma, ramp))


def _phase(state: np.ndarray, cuts: np.ndarray, table: np.ndarray, out) -> None:
    # "wrap", not the default "raise", which gathers into a copy of `out`;
    # every index is in range, so it changes no value.
    if out is None:
        np.take(table, cuts, axis=-1, out=state, mode="wrap")
    else:
        state *= np.take(table, cuts, axis=-1, out=out, mode="wrap")


def _phase_kernel(state: np.ndarray, cuts: np.ndarray, table: np.ndarray, out) -> None:
    """In place: multiply the amplitude of each basis state z by its phase
    table[..., cut(z)] from `_phase_table`, gathered by the intp indices
    `cuts` into `out`, an array of the state's shape; with `out` None, the
    state is overwritten by the gathered phases. A 2-D state holds one state
    per row, and `table` one row each."""
    if not _split(state):
        _phase(state, cuts, table, out)
        return
    m = cuts.size // 2
    low, high = (
        (state[..., part], cuts[part], table, None if out is None else out[..., part])
        for part in (np.s_[:m], np.s_[m:])
    )
    _in_two(_phase, low, high)


def _pass_views(block: np.ndarray, scratch: np.ndarray, qubits: int) -> list[tuple]:
    """(partner, into, view, swapped) for the pass on each of the qubits
    0..qubits-1 of each row of `block`, in order: `view` pairs amplitudes
    2^q apart as (view[..., 0, j], view[..., 1, j]), `partner` is the view
    with each pair swapped, `swapped` the view's place in `scratch`, and
    `into` the same place in the layout of `partner`. On qubits 0 and 1,
    `partner` and `into` put the pair index before the pairs, so a multiply
    in C order runs one long inner loop per row and pair index, not one of
    2 or 4 amplitudes per pair. In rows longer than a tile, the qubits
    below _TILE_QUBITS pair amplitudes within one tile, and run one tile at
    a time; the others run over the whole rows."""
    views, low, tile = [], 0, 1 << _TILE_QUBITS
    if block.shape[-1] > tile:
        low = min(qubits, _TILE_QUBITS)
        for first in range(0, block.shape[-1], tile):
            part = np.s_[..., first : first + tile]
            views += _pass_views(block[part], scratch[part], low)
    for q in range(low, qubits):
        shape = (len(block), -1, 2, 1 << q)
        view, swapped = block.reshape(shape), scratch.reshape(shape)
        partner, into = view[..., ::-1, :], swapped
        if q < 2:
            partner, into = partner.transpose(0, 2, 3, 1), into.transpose(0, 2, 3, 1)
        views.append((partner, into, view, swapped))
    return views


def _mixer_views(block: np.ndarray, scratch: np.ndarray, n: int) -> list[tuple]:
    """The views of every mixer pass on `block`, a (rows, 2^(n-1)) array of
    low halves: `_pass_views` for qubits 0..n-2, then qubit n-1, which pairs
    z with z + 2^(n-1), whose amplitude is that of its complement
    2^(n-1) - 1 - z: the row reversed. Every view is 4-D, so per-row
    coefficients of shape (rows, 1, 1, 1) broadcast over each."""
    rows, swapped = block[:, None, None], scratch[:, None, None]
    return _pass_views(block, scratch, n - 1) + [(rows[..., ::-1], swapped, rows, swapped)]


def _split_views(block: np.ndarray, scratch: np.ndarray, n: int) -> tuple:
    """The views of the split mixer on the one row of `block`: a list of
    stages, each a (low, high) pair of `_pass_views` lists whose passes run
    at once, the high one on the helper thread, then the (partner, view,
    swapped) of qubit n-1 for each half, whose partners lie in the other
    half."""
    m = block.size // 2
    halves = np.s_[:, :m], np.s_[:, m:]
    # Qubits 0..n-3 pair amplitudes within each half of the row.
    within = tuple(_pass_views(block[half], scratch[half], n - 2) for half in halves)
    # Qubit n-2 pairs z in one half with z + m in the other: split the pairs.
    k = m // 2
    view, swapped = block.reshape(2, m), scratch.reshape(2, m)
    across = tuple(
        [(view[::-1, part], swapped[:, part], view[:, part], swapped[:, part])]
        for part in (np.s_[:k], np.s_[k:])
    )
    reverse = block[:, ::-1]
    return [within, across], tuple((reverse[h], block[h], scratch[h]) for h in halves)


def _passes(views: list[tuple], c, s) -> None:
    """Each pass of `views` from `_pass_views`: every pair (a, b) becomes
    c * (a, b) + s * (b, a), its swapped image overwritten first."""
    for partner, into, view, swapped in views:
        np.multiply(partner, s, out=into, order="C")
        view *= c
        view += swapped


def _combine(state: np.ndarray, scratch: np.ndarray, c) -> None:
    state *= c
    state += scratch


def _runs(betas):
    """(first, stop, beta) for each run betas[first:stop] of bit-equal angles,
    so 0.0 and -0.0 start different runs."""
    betas = np.asarray(betas, dtype=float)
    bits, first = betas.view(np.int64).tolist(), 0
    for stop in range(1, len(bits) + 1):
        if stop == len(bits) or bits[stop] != bits[first]:
            yield first, stop, float(betas[first])
            first = stop


def _mixer_kernel(
    block: np.ndarray,
    betas,
    n: int,
    scratch: np.ndarray,
    views: dict | None = None,
    offset: int = 0,
) -> None:
    """In place: apply exp(-i * betas[r] * X) to each of the n qubits of row
    r of `block`, a (rows, 2^(n-1)) array of flip-symmetric states, each
    given as its low half. `scratch`, an array of the block's shape, is
    overwritten. With `views`, `block` and `scratch` are the rows from row
    `offset` on of an evaluator's working arrays, and `views` its dict of
    view lists on them: the `_mixer_views` of rows first..stop under
    (first, stop), and the `_split_views` of row r under r. Lists the call
    needs and does not find are built and added; without `views`, each call
    builds its own."""
    # One pass per qubit with the 2x2 kernel [[cos b, -i sin b], [-i sin b, cos b]]:
    # each pair (a, b) becomes c * (a, b) + s * (b, a), in three whole-block
    # ops. One scratch serves every pass; a fresh one per pass raised the
    # peak memory at n = 20 by a state's size. math, not np.cos: numpy's
    # vector cos may round differently.
    if len(betas) > 1 and block.shape[1] >= _LANE_MIN_AMPLITUDES:
        # Rows of two-lane size take per-row coefficients of shape (rows, 1,
        # 1, 1). Runs of scalars, as below, made the bilinear-n14 benchmark
        # 8% slower (shared 2-CPU host, slower in 18 of 20 alternating pairs).
        c = np.array([math.cos(b) for b in betas], dtype=complex)[:, None, None, None]
        s = np.array([-1j * math.sin(b) for b in betas])[:, None, None, None]
        _passes(_views(views, block, scratch, n, offset, 0, len(block)), c, s)
        return
    if not _split(block):
        # Each run of rows that share a beta, by Python scalars: numpy
        # multiplies by a scalar 1.7-2.4 times as fast as by a (rows, 1, 1,
        # 1) array.
        for first, stop, beta in _runs(betas):
            run = _views(views, block, scratch, n, offset, first, stop)
            _passes(run, math.cos(beta), -1j * math.sin(beta))
        return
    # The same operations on two disjoint halves of every pass of the one
    # row, one half on the helper thread, so each amplitude gets the same
    # bits as above. The last pass leaves each half with the thread that
    # gathers its next phases and squares its probabilities.
    c, s = math.cos(betas[0]), -1j * math.sin(betas[0])
    split = None if views is None else views.get(offset)
    if split is None:
        split = _split_views(block, scratch, n)
        if views is not None:
            views[offset] = split
    stages, (low, high) = split
    for lows, highs in stages:
        _in_two(_passes, (lows, c, s), (highs, c, s))
    # Qubit n-1 reads each half's partner from the other half, so every
    # partner is read before any amplitude changes.
    _in_two(np.multiply, (low[0], s, low[2]), (high[0], s, high[2]))
    _in_two(_combine, (low[1], low[2], c), (high[1], high[2], c))


def _views(views, block, scratch, n: int, offset: int, first: int, stop: int) -> list[tuple]:
    """The `_mixer_views` of rows first..stop of `block`, which starts on row
    `offset` of the arrays `views` serves (see `_mixer_kernel`): kept under
    (offset + first, offset + stop), built on first use."""
    key = (offset + first, offset + stop)
    got = None if views is None else views.get(key)
    if got is None:
        got = _mixer_views(block[first:stop], scratch[first:stop], n)
        if views is not None:
            views[key] = got
    return got


def _probabilities(states: np.ndarray, low: np.ndarray, mirror: np.ndarray) -> None:
    """|amplitude|^2 of each element of `states`, one row or a block of
    rows, into `low`, and each row of it reversed into the row of `mirror`,
    all of one shape."""
    np.square(states.real, out=low)
    low += np.square(states.imag, out=mirror)
    # A ufunc, not np.copyto: between rows of one array that interleave,
    # np.copyto cannot rule out overlap and copies its source first.
    np.positive(low[..., ::-1], out=mirror)


# The states of one block of rows of one lane of `advance_probes`, with the
# mixer's scratch: rows * 2^(n-1) * 32 bytes, at most 64 rows at n = 10, 4 at
# n = 14, 2 at n = 15 and 1 from n = 16.
# On a shared 2-CPU host (medians of nine, G(n, 1/2)), one gradient's probes
# on one lane took 0.44 of the one-row time at n = 10, p = 8, 0.98 at n = 12,
# p = 8, 0.85-0.97 at n = 14, p = 6 and 0.83-0.91 at n = 15, p = 6. Per-call
# overhead, which the rows share, is most of a layer's cost at n = 10 only.
# Each lane has its own cap: with 512 KiB each, one gradient on two lanes
# took 1.05-1.19 times as long at n = 13-15.
_PROBE_BLOCK_BYTES = 1 << 20

# Rows of at least this many amplitudes (n >= 13), and below
# _SPLIT_MIN_AMPLITUDES, run each gradient's probes on two lanes, one on the
# helper thread. One FD gradient, in back-to-back batches as an optimization
# runs them, two lanes over one (medians of six, G(n, 1/2), shared 2-CPU
# host): 1.22 at n = 10, p = 8; 0.70-0.74 at n = 12; 0.76 at n = 13; 0.60-0.72
# at n = 14; 0.56 at n = 15; 0.64 at n = 16 and 0.54 at n = 17. An earlier
# series read 1.01-1.10 at n = 12, so the lanes start at n = 13.
_LANE_MIN_AMPLITUDES = 1 << 12

# The most mixer view lists an evaluator keeps from one stack to the next; it
# drops them all when it has more. A list takes 5.5 KiB at n = 10, where the
# row ranges of a 64-row block could make 2,080 of them (11 MiB); the
# desk-n10 benchmark keeps at most 37 per evaluator.
_MAX_VIEW_LISTS = 64


class ExpectationEvaluator:
    """Repeated expectation evaluation on one graph.

    The cut-value table is computed once and reused by every layer and every
    call; this dominates the cost of strategy runs, where one graph is
    evaluated thousands of times across depths. `c_max`, the maximum cut,
    is read off the same table.

    One rule says what an evaluator remembers between calls. Every
    evaluation is a stack of k >= 1 points, which `_advance` alone runs:
    `expectation` (on a miss) and `prepare` hand it one row, and
    `advance_probes` a stack such as a point followed by its
    finite-difference gradient probes; an empty stack is refused. Row 0 of
    the last stack is the last call, whose angles and states after layers
    1..p-1 are kept. The values of the last stack computed with values are
    kept, keyed by the exact bits of their angles; `prepare`'s stack has
    none, so it keeps none. `expectation` returns a kept value at bit-equal
    angles as it is, and the last call stays as it was.

    Within a stack, each distinct row runs once: the values of bit-equal
    rows are one kept value.

    Consecutive stacks mostly share leading layers: each finite-difference
    probe moves one angle, and the layerwise strategy freezes every layer
    but the last. So row 0 resumes from the deepest layer whose
    (gamma_j, beta_j) pairs, and all before it, are bit-equal to the last
    call's (a NaN angle never matches). A resumed state comes from the same
    kernel calls on the same bits, so every result is bit-identical to a
    fresh evaluator's. States are held as their low half (see the module
    docstring), so the stored ones cost up to (p-1) * 2^(n-1) * 16 bytes at
    the deepest p seen, 56 MiB at n = 20, p = 8. Calls read and write these
    and the evaluator's working arrays, so an evaluator must not be shared
    between threads. The views of the mixer's passes on those arrays are
    kept, one list per range of rows, built on first use and dropped when
    the arrays grow or too many are kept (see the module docstring).
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
        # The working states of `_layers`, one per row, and its scratch; a
        # probe lane is a range of their rows. They hold one row until the
        # first probe block grows them, and are not made larger here: an
        # array over 128 KiB made here and freed in set-up moves glibc's
        # mmap threshold, and with it the cost of later allocations.
        self._states = np.empty((1, 1 << (g.n - 1)), dtype=complex)
        self._scratch = np.empty_like(self._states)
        # The mixer's view lists on the rows of these arrays, keyed by row
        # range (see `_mixer_kernel`). Dropped when the arrays grow or when
        # more than _MAX_VIEW_LISTS are kept.
        self._views: dict = {}
        # The values of the last stack computed with values, keyed by the
        # bytes of their (gammas, betas) array.
        self._kept: dict[bytes, float] = {}

    @cached_property
    def _ramp(self) -> np.ndarray:
        """The cut values 0..c_max as floats, for `_phase_table`; made on the
        first evaluation, not in set-up."""
        return np.arange(self.c_max + 1.0)

    @staticmethod
    def _shared_layers(angles: np.ndarray, reference: np.ndarray) -> np.ndarray:
        """How many leading layers of the (gammas, betas) array `angles`, or
        of each array of a stack of them, are bit-equal to those of the
        (gammas, betas) array `reference`: at most one fewer than either
        depth."""
        m = min(angles.shape[-1], reference.shape[1]) - 1
        new, old = angles[..., :m], reference[:, :m]
        same = ((new.view(np.int64) == old.view(np.int64)) & (new == new)).all(axis=-2)
        return np.logical_and.accumulate(same, axis=-1).sum(axis=-1)

    def _advance(self, angles: np.ndarray, value: bool = True) -> None:
        """Run the (gammas, betas) arrays angles[r] of a (k >= 1, 2, p) stack
        by the class docstring's rule, computing no value with `value` False.
        The other rows run in order of the layers they share with row 0.
        Should the loop raise, nothing is kept and the stored states are
        those of at most the layers row 0 shares with the last call."""
        row = self._cut_index.size
        # Each distinct row runs once, the first of its bit-equal rows; a probe
        # clamped back onto its point takes that point's value.
        places: dict[bytes, int] = {}
        for r, key in enumerate(a.tobytes() for a in angles):
            places.setdefault(key, r)
        distinct = list(places.values())
        # Two lanes for two rows or more after row 0, where a row pays for the
        # hand-off and is too small for the mixer to split: on the helper lane a
        # split would wait on itself. The size tests come first, so they make no
        # syscall.
        small = _LANE_MIN_AMPLITUDES <= row < _SPLIT_MIN_AMPLITUDES and len(distinct) > 2
        lanes = 2 if small and _cpus() >= 2 else 1
        head = angles[0].copy()
        shared = [int(self._shared_layers(head, self._angles))]
        # A lone point skips an empty comparison, 6 of its 120 us at n = 10.
        if len(angles) > 1:
            shared += self._shared_layers(angles[1:], head).tolist()
        # The loop overwrites stored states from shared[0] on; should it raise,
        # the next call must resume from at most the first shared[0].
        self._angles = head[:, : shared[0] + 1]
        self._kept = {}
        while len(self._after) < head.shape[1] - 1:  # room for row 0's states
            self._after.append(np.empty(row, dtype=complex))
        # A stable sort puts row 0 first among the rows that share its layers.
        order = sorted(distinct, key=shared.__getitem__)
        if lanes == 2:
            # Row 0 first and alone: a lane must not read the states it stores.
            order.remove(0)
        # Lane l's blocks take the working arrays' rows from l * size on.
        size = max(1, min(_PROBE_BLOCK_BYTES // (32 * row), -(-len(order) // lanes)))
        grow = lanes * size > len(self._states)
        if grow:
            self._states = np.empty((lanes * size, row), dtype=complex)
            self._scratch = np.empty_like(self._states)
        if grow or len(self._views) > _MAX_VIEW_LISTS:
            self._views = {}
        values = np.empty(len(angles))

        def run(rows: list[int], offset: int) -> None:
            for first in range(0, len(rows), size):
                block = rows[first : first + size]
                stored = block.index(0) if 0 in block else None
                starts = [shared[r] for r in block]
                states = self._layers(angles.take(block, axis=0), starts, stored, offset)
                if value:
                    values.put(block, self._values(states, offset))

        if lanes == 2:
            run([0], 0)
            _in_two(run, (order[0::2], 0), (order[1::2], size))
        else:
            run(order, 0)
        self._angles = head
        if value:
            self._kept = dict(zip(places, values[distinct].tolist()))

    def _layers(
        self, angles: np.ndarray, starts: list[int], stored: int | None, offset: int
    ) -> np.ndarray:
        """The low halves of the ansatz states at the (gammas, betas) arrays
        angles[r], as the working states' rows from row `offset` on, which
        the next call on those rows overwrites; `_advance` has given them
        room.
        Row r resumes after its first starts[r] layers (sorted), shared with
        the last call; every later layer runs once on all rows started so
        far. Row `stored`, if any, is the new last call: its states after
        layers starts[stored] + 1..p-1 are stored as they are computed, so
        the rows that start after it resume from them."""
        n, (rows, _, p) = self.graph.n, angles.shape
        states, scratch = self._states[offset:][:rows], self._scratch[offset:][:rows]
        gammas, betas = angles.transpose(1, 2, 0)
        # The phases of every layer at once: one table per layer and row.
        first = starts[0]
        tables = _phase_table(gammas[first:], self._ramp)
        if first == 0:
            # |+>^n's amplitude times each phase: the products of a fill and
            # a phase kernel, bit for bit, from one gather of the scaled table.
            tables[0] *= 2.0 ** (-n / 2)
        store = p - 1 if stored is None else starts[stored]
        started = 0
        for j in range(first, p):
            if started < rows:
                # The rows that share j layers start here, from the stored state.
                stop = bisect.bisect_right(starts, j, started)
                if j:
                    states[started:stop] = self._after[j - 1]
                started = stop
                block, work = states[:started], scratch[:started]
            _phase_kernel(block, self._cut_index, tables[j - first, :started], work if j else None)
            _mixer_kernel(block, betas[j, :started], n, work, self._views, offset)
            if store <= j < p - 1:
                np.copyto(self._after[j], block[stored])
        return states

    def prepare(self, phi: Parameters) -> np.ndarray:
        """|+>^n followed by p alternating (phase separator, mixer) layers.

        The returned full state is new on every call; the caller owns it.
        No expectation value is computed.
        """
        self._advance(np.array((phi.gammas, phi.betas))[None], value=False)
        half = self._states[0]
        return np.concatenate((half, half[::-1]))

    def expectation(self, phi: Parameters) -> float:
        """Mean cut value of the ansatz state: sum_z |amp(z)|^2 * cut(z); a
        kept value at bit-equal angles is returned as it is, and otherwise
        the point runs as a one-row stack (see the class docstring)."""
        # The bytes of np.array((phi.gammas, phi.betas)), without the array.
        key = struct.pack(f"{2 * len(phi.gammas)}d", *phi.gammas, *phi.betas)
        if key not in self._kept:
            self._advance(np.array((phi.gammas, phi.betas))[None])
        return self._kept[key]

    def _values(self, states: np.ndarray, offset: int) -> list[float]:
        """The expectations of the states whose low halves are the rows of
        `states`, the working states' rows from row `offset` on."""
        # Each row's full probability vector, the low half then its reverse,
        # in the scratch row of its state, all squared in one pass, and each
        # summed in index order: 2 * (low half @ low cuts) would round
        # differently and move the optimizer's path.
        probs = self._scratch[offset:][: len(states)].view(np.float64)
        size = states.shape[1]
        low, high = probs[:, :size], probs[:, size:]
        if _split(states):
            # Each thread squares its half of the low half, and mirrors it
            # into the high half's other end; the dot product stays whole,
            # as a split one would sum in another order.
            m = size // 2
            _in_two(
                _probabilities,
                (states[:, :m], low[:, :m], high[:, m:]),
                (states[:, m:], low[:, m:], high[:, :m]),
            )
        else:
            _probabilities(states, low, high)
        return [self._value(row) for row in probs]

    def _value(self, probs: np.ndarray) -> float:
        """The expectation from the full probability vector `probs`: one 1-D
        product per row, as a matrix product rounds differently."""
        return float(probs @ self._cuts)


def advance_probes(evaluator: ExpectationEvaluator, angles: np.ndarray) -> None:
    """Compute ahead, together, the expectations at the rows of `angles`.

    `angles` has shape (k, 2, p) with k >= 1 and p >= 1: row r is the
    (gammas, betas) array of one point, such as a point followed by its
    finite-difference gradient probes. The stack runs through the
    evaluator's one evaluation routine (see `ExpectationEvaluator`), so row
    0 becomes the last call and the k values become the kept ones, which
    `expectation` returns at bit-equal angles; every value is bit-identical
    to a one-row call's. Input of any other shape, an empty stack included,
    raises ValueError and changes nothing.
    """
    angles = np.ascontiguousarray(angles, dtype=float)
    if angles.ndim != 3 or angles.shape[0] < 1 or angles.shape[1] != 2 or angles.shape[2] < 1:
        raise ValueError(f"probe angles must have shape (k >= 1, 2, p >= 1), got {angles.shape}")
    evaluator._advance(angles)


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


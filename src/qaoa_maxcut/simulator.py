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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, cut_table

__all__ = [
    "Parameters",
    "ExpectationEvaluator",
    "expectation_dense_oracle",
    "MAX_QUBITS",
    "DENSE_ORACLE_MAX_QUBITS",
]

# 2^20 complex amplitudes = 16 MiB; instances beyond that are out of scope.
MAX_QUBITS = 20

# The dense oracle builds explicit 2^n x 2^n matrices.
DENSE_ORACLE_MAX_QUBITS = 8


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
        return cls(gammas=tuple(x[:p]), betas=tuple(x[p:]))


def _phase_kernel(state: np.ndarray, cuts: np.ndarray, gamma: float) -> None:
    """In place: multiply the amplitude of each basis state z by exp(-i * gamma * cut(z)).

    `cuts` holds the cut values as integers, so the phase is computed once
    per distinct value and gathered.
    """
    state *= np.exp(-1j * gamma * np.arange(cuts.max() + 1.0))[cuts]


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
    for q in range(n - 1):
        shape = (-1, 2, 1 << q)
        view = state.reshape(shape)
        swapped = scratch.reshape(shape)
        np.multiply(view[:, ::-1, :], s, out=swapped)
        view *= c
        view += swapped
    # Qubit n-1 pairs z with z + 2^(n-1), whose amplitude is that of its
    # complement 2^(n-1) - 1 - z: the low half reversed.
    np.multiply(state[::-1], s, out=scratch)
    state *= c
    state += scratch


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

    def _shared_layers(self, angles: np.ndarray) -> int:
        """How many leading layers of `angles` can be resumed from the last call."""
        m = min(angles.shape[1], self._angles.shape[1]) - 1
        new, old = angles[:, :m], self._angles[:, :m]
        same = ((new.view(np.int64) == old.view(np.int64)) & (new == new)).all(axis=0)
        return int(np.logical_and.accumulate(same).sum())

    def _half(self, phi: Parameters) -> np.ndarray:
        """The low half of the ansatz state, in a new array."""
        n = self.graph.n
        angles = np.array((phi.gammas, phi.betas))
        k = self._shared_layers(angles)
        if k:
            state = self._after[k - 1].copy()
        else:
            state = np.full(1 << (n - 1), 2.0 ** (-n / 2), dtype=complex)
        # The loop overwrites stored states from k on; should it raise, the
        # next call must resume from at most the first k.
        self._angles = angles[:, : k + 1]
        for j in range(k, phi.p):
            _phase_kernel(state, self._cut_index, phi.gammas[j])
            _mixer_kernel(state, phi.betas[j], n)
            if j == phi.p - 1:
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
        half = self._half(phi)
        return np.concatenate((half, half[::-1]))

    def expectation(self, phi: Parameters) -> float:
        """Mean cut value of the ansatz state: sum_z |amp(z)|^2 * cut(z)."""
        half = self._half(phi)
        probs = half.real**2 + half.imag**2
        # The full vector, summed in index order: 2 * (probs @ low cuts) would
        # round differently and move the optimizer's path.
        return float(np.concatenate((probs, probs[::-1])) @ self._cuts)


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


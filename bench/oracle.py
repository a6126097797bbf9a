"""Reference values computed without the library's kernels.

The benchmark checks the program's outputs against these: an exact Max-Cut
by enumeration, a statevector simulation written on a (2,)*n tensor instead
of the library's strided views, and the depth-1 closed form of Wang,
Hadfield, Jiang and Rieffel (PRA 97, 022304, 2018), which needs no
statevector at all.
"""

from __future__ import annotations

import math

import numpy as np


def cut_values(n: int, edges) -> np.ndarray:
    """Cut value of every basis state; bit j of the index is vertex j's side."""
    index = np.arange(1 << n)
    cuts = np.zeros(1 << n)
    for u, v in edges:
        cuts += (index >> u & 1) != (index >> v & 1)
    return cuts


def max_cut(n: int, edges) -> int:
    return int(cut_values(n, edges).max())


def expectation(n: int, edges, gammas, betas) -> float:
    """Mean cut value of the depth-p ansatz state."""
    cuts = cut_values(n, edges)
    state = np.full(1 << n, 2.0 ** (-n / 2), dtype=complex)
    for gamma, beta in zip(gammas, betas):
        state = state * np.exp(-1j * gamma * cuts)
        kernel = np.array(
            [[math.cos(beta), -1j * math.sin(beta)], [-1j * math.sin(beta), math.cos(beta)]]
        )
        # Every qubit gets the same kernel, so which axis is which qubit does not matter.
        tensor = state.reshape((2,) * n)
        for axis in range(n):
            tensor = np.moveaxis(np.tensordot(kernel, tensor, axes=([1], [axis])), 0, axis)
        state = tensor.reshape(-1)
    return float(np.abs(state) ** 2 @ cuts)


def depth_one(n: int, edges, gamma: float, beta: float) -> float:
    """Closed-form depth-1 expectation, summed edge by edge.

    For edge (u, v) with d = deg(u) - 1, e = deg(v) - 1 and f common
    neighbours: 1/2 + sin(4b) sin(g) (cos^d g + cos^e g) / 4
    - sin^2(2b) cos^(d+e-2f)(g) (1 - cos^f(2g)) / 4.
    """
    neighbours = [set() for _ in range(n)]
    for u, v in edges:
        neighbours[u].add(v)
        neighbours[v].add(u)
    c = math.cos(gamma)
    total = 0.0
    for u, v in edges:
        d, e = len(neighbours[u]) - 1, len(neighbours[v]) - 1
        f = len(neighbours[u] & neighbours[v])
        total += (
            0.5
            + 0.25 * math.sin(4 * beta) * math.sin(gamma) * (c**d + c**e)
            - 0.25 * math.sin(2 * beta) ** 2 * c ** (d + e - 2 * f) * (1 - math.cos(2 * gamma) ** f)
        )
    return total

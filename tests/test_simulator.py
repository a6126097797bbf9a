import concurrent.futures
import hashlib
import math
import os
import signal
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaoa_maxcut import simulator
from qaoa_maxcut.graphs import (
    Graph,
    cut_table,
    gen_erdos_renyi,
    gen_random_regular,
    max_cut_brute_force,
)
from qaoa_maxcut.optimize import (
    DEFAULT_GRADIENT_STEP,
    GENERAL_BOUNDS,
    Bounds,
    _fd_gradient,
    maximize_bounded,
)
from qaoa_maxcut.simulator import (
    ExpectationEvaluator,
    Parameters,
    _mixer_kernel,
    _phase_kernel,
    _phase_table,
    advance_probes,
    expectation_dense_oracle,
)

K2 = Graph(n=2, edges=((0, 1),))
K3 = Graph(n=3, edges=((0, 1), (1, 2), (0, 2)))
ZERO = Parameters(gammas=(0.0,), betas=(0.0,))


def plus_state(n: int) -> np.ndarray:
    # Zero angles leave the initial |+>^n state unchanged.
    return ExpectationEvaluator(Graph(n=n, edges=())).prepare(ZERO)


def phased(state: np.ndarray, g: Graph, gamma: float) -> np.ndarray:
    out = state.copy()
    cuts = cut_table(g).astype(np.intp)
    _phase_kernel(out, cuts, _phase_table(gamma, int(cuts.max())))
    return out


def mixed(state: np.ndarray, beta: float) -> np.ndarray:
    # The kernel takes a flip-symmetric state, amp(z) = amp(z^), as its low
    # half; the complement of z is 2^n - 1 - z, so the state is a palindrome.
    assert np.array_equal(state, state[::-1]), "mixer input must be flip-symmetric"
    out = state[None, : state.size // 2].copy()
    _mixer_kernel(out, [beta], state.size.bit_length() - 1)
    return np.concatenate((out[0], out[0, ::-1]))


def mirrored(v: np.ndarray) -> np.ndarray:
    """The flip-symmetric state whose low half is v, normalized."""
    state = np.concatenate((v, v[::-1]))
    return state / np.linalg.norm(state)


def fd_gradient(g: Graph, phi: Parameters, step: float = DEFAULT_GRADIENT_STEP) -> np.ndarray:
    # The optimizer's clamped central differences, over an unbounded box.
    ev = ExpectationEvaluator(g)
    x = phi.to_array()
    unbounded = np.full(x.size, np.inf)
    return _fd_gradient(
        lambda y: ev.expectation(Parameters.from_array(y)), x, -unbounded, unbounded, step
    )


def k2_closed_form(gamma: float, beta: float) -> float:
    # Single-edge depth-1 expectation, from a 2x2-kernel hand calculation.
    return 0.5 * (1.0 + math.sin(4.0 * beta) * math.sin(gamma))


def depth_one_closed_form(g: Graph, gamma: float, beta: float) -> float:
    # Wang, Hadfield, Jiang and Rieffel 2018 (arXiv:1706.02998): the p = 1
    # expectation of one edge (u, v) depends only on a = deg(u) - 1,
    # b = deg(v) - 1 and the number t of triangles on the edge.
    adjacent = [set() for _ in range(g.n)]
    for u, v in g.edges:
        adjacent[u].add(v)
        adjacent[v].add(u)
    cos_g = math.cos(gamma)
    total = 0.0
    for u, v in g.edges:
        a, b = len(adjacent[u]) - 1, len(adjacent[v]) - 1
        t = len(adjacent[u] & adjacent[v])
        linear = math.sin(4 * beta) * math.sin(gamma) * (cos_g**a + cos_g**b)
        triangles = math.sin(2 * beta) ** 2 * cos_g ** (a + b - 2 * t) * (1 - math.cos(2 * gamma) ** t)
        total += 0.5 + 0.25 * linear - 0.25 * triangles
    return total


def light_cone_expectation(g: Graph, phi: Parameters) -> float:
    """The expectation as a sum over edges (j, k) of <(1 - Z_j Z_k) / 2>.

    After p layers that term depends only on the vertices within distance p
    of the edge (Farhi, Goldstone & Gutmann 2014, arXiv:1411.4028), so each
    edge is simulated on its own cone: a (2,)*m tensor with one axis per cone
    vertex, each cone edge's phase applied on its own, and the 2x2 mixer
    applied to every axis by tensordot. It shares no code with the kernels.
    """
    adjacent = [set() for _ in range(g.n)]
    for u, v in g.edges:
        adjacent[u].add(v)
        adjacent[v].add(u)
    total = 0.0
    for j, k in g.edges:
        cone = frontier = {j, k}
        for _ in range(phi.p):
            frontier = set().union(*(adjacent[v] for v in frontier)) - cone
            cone = cone | frontier
        axis = {v: a for a, v in enumerate(sorted(cone))}
        m = len(axis)
        bits = np.indices((2,) * m)
        cut_edges = [(axis[u], axis[v]) for u, v in g.edges if u in cone and v in cone]
        psi = np.full((2,) * m, 2.0 ** (-m / 2), dtype=complex)
        for gamma, beta in zip(phi.gammas, phi.betas):
            for a, b in cut_edges:
                psi = psi * np.exp(-1j * gamma * (bits[a] != bits[b]))
            kernel = np.array(
                [[math.cos(beta), -1j * math.sin(beta)], [-1j * math.sin(beta), math.cos(beta)]]
            )
            for a in range(m):
                psi = np.moveaxis(np.tensordot(kernel, psi, axes=([1], [a])), 0, a)
        zz = np.where(bits[axis[j]] == bits[axis[k]], 1.0, -1.0)
        total += 0.5 * (1.0 - float(np.sum(np.abs(psi) ** 2 * zz)))
    return total


def random_phi(rng, p, gamma_hi=2 * math.pi, beta_hi=math.pi) -> Parameters:
    return Parameters(
        gammas=tuple(rng.uniform(0, gamma_hi, p)),
        betas=tuple(rng.uniform(0, beta_hi, p)),
    )


class TestParameters:
    def test_round_trip_through_flat_array(self):
        phi = Parameters(gammas=(0.1, 0.2), betas=(0.3, 0.4))
        assert Parameters.from_array(phi.to_array()) == phi

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            Parameters(gammas=(0.1,), betas=())

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="depth"):
            Parameters(gammas=(), betas=())


class TestInitialState:
    def test_single_qubit(self):
        np.testing.assert_allclose(plus_state(1), [2**-0.5] * 2)

    def test_two_qubits(self):
        np.testing.assert_allclose(plus_state(2), [0.5] * 4)

    def test_ten_qubits(self):
        state = plus_state(10)
        np.testing.assert_allclose(state, 2.0**-5)
        assert abs(np.linalg.norm(state) - 1.0) < 1e-12

    def test_guard(self):
        with pytest.raises(ValueError, match="guard"):
            ExpectationEvaluator(Graph(n=21, edges=()))


class TestPhaseSeparator:
    def test_gamma_zero_is_identity(self):
        state = plus_state(3)
        np.testing.assert_array_equal(phased(state, K3, 0.0), state)

    def test_gamma_two_pi_is_identity(self):
        state = plus_state(3)
        out = phased(state, K3, 2.0 * math.pi)
        np.testing.assert_allclose(out, state, atol=1e-12)

    def test_k2_half_pi_phases_cut_states(self):
        out = phased(plus_state(2), K2, math.pi / 2)
        # Basis order (vertex 0 = LSB): 00, 10, 01, 11; cut-1 states get -i/2.
        np.testing.assert_allclose(out, [0.5, -0.5j, -0.5j, 0.5], atol=1e-15)


class TestMixer:
    def test_beta_zero_is_identity(self):
        state = plus_state(3)
        np.testing.assert_array_equal(mixed(state, 0.0), state)

    def test_beta_half_pi_flips_all_bits(self):
        # On (|z> + |z^>)/sqrt(2), X on every qubit swaps the two terms.
        n = 3
        for z in (0, 3, 5):
            state = np.zeros(2**n, dtype=complex)
            state[z] = state[z ^ (2**n - 1)] = 2**-0.5
            out = mixed(state, math.pi / 2)
            expected = np.zeros(2**n, dtype=complex)
            expected[z ^ (2**n - 1)] = expected[z] = (-1j) ** n * 2**-0.5
            np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_single_qubit_quarter_pi(self):
        state = np.array([2**-0.5, 2**-0.5], dtype=complex)
        out = mixed(state, math.pi / 4)
        kernel = np.array(
            [
                [math.cos(math.pi / 4), -1j * math.sin(math.pi / 4)],
                [-1j * math.sin(math.pi / 4), math.cos(math.pi / 4)],
            ]
        )
        np.testing.assert_allclose(out, kernel @ state, atol=1e-15)

    def test_matches_explicit_kron_oracle(self):
        rng = np.random.default_rng(4)
        beta = 0.7312
        n = 3
        state = mirrored(rng.normal(size=2 ** (n - 1)) + 1j * rng.normal(size=2 ** (n - 1)))
        kernel = np.array(
            [
                [math.cos(beta), -1j * math.sin(beta)],
                [-1j * math.sin(beta), math.cos(beta)],
            ]
        )
        mixer = np.kron(np.kron(kernel, kernel), kernel)
        np.testing.assert_allclose(mixed(state, beta), mixer @ state, atol=1e-12)


class TestAnsatz:
    def test_zero_angles_stay_uniform(self):
        np.testing.assert_allclose(
            ExpectationEvaluator(K3).prepare(ZERO), np.full(8, 2.0**-1.5)
        )

    def test_k2_optimum_concentrates_on_cut_states(self):
        phi = Parameters(gammas=(math.pi / 2,), betas=(math.pi / 8,))
        probs = np.abs(ExpectationEvaluator(K2).prepare(phi)) ** 2
        np.testing.assert_allclose(probs, [0.0, 0.5, 0.5, 0.0], atol=1e-12)

    def test_two_pi_gamma_shift_gives_identical_state(self):
        rng = np.random.default_rng(9)
        phi = random_phi(rng, 2)
        shifted = Parameters(
            gammas=(phi.gammas[0] + 2 * math.pi, phi.gammas[1]), betas=phi.betas
        )
        ev = ExpectationEvaluator(K3)
        np.testing.assert_allclose(ev.prepare(phi), ev.prepare(shifted), atol=1e-12)


class TestExpectation:
    def test_zero_angles_give_half_the_edges(self):
        for g in (K2, K3, gen_erdos_renyi(8, 0.6, 3)):
            phi = Parameters(gammas=(0.0, 0.0), betas=(0.0, 0.0))
            assert abs(ExpectationEvaluator(g).expectation(phi) - g.m / 2) < 1e-12

    def test_k2_closed_form_on_grid(self):
        for gamma in np.linspace(0, 2 * math.pi, 5, endpoint=False):
            for beta in np.linspace(0, math.pi, 5, endpoint=False):
                phi = Parameters(gammas=(gamma,), betas=(beta,))
                f = ExpectationEvaluator(K2).expectation(phi)
                assert abs(f - k2_closed_form(gamma, beta)) < 1e-12

    def test_k2_exact_maximum(self):
        phi = Parameters(gammas=(math.pi / 2,), betas=(math.pi / 8,))
        assert abs(ExpectationEvaluator(K2).expectation(phi) - 1.0) < 1e-12

    def test_bounded_by_max_cut(self):
        rng = np.random.default_rng(17)
        for seed in range(5):
            g = gen_erdos_renyi(7, 0.5, seed)
            if g.m == 0:
                continue
            c_max = max_cut_brute_force(g)[0]
            for p in (1, 2, 3):
                f = ExpectationEvaluator(g).expectation(random_phi(rng, p))
                assert -1e-9 <= f <= c_max + 1e-9


class TestDenseOracle:
    def test_agrees_with_fast_kernel(self):
        rng = np.random.default_rng(23)
        worst = 0.0
        for seed in range(10):
            g = gen_erdos_renyi(5, 0.6, seed)
            ev = ExpectationEvaluator(g)
            for p in (1, 2, 3):
                phi = random_phi(rng, p)
                worst = max(
                    worst, abs(ev.expectation(phi) - expectation_dense_oracle(g, phi))
                )
        assert worst <= 1e-10

    def test_agrees_on_triangle(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            phi = random_phi(rng, 2)
            f = ExpectationEvaluator(K3).expectation(phi)
            diff = abs(f - expectation_dense_oracle(K3, phi))
            assert diff <= 1e-10

    def test_zero_angles(self):
        phi = Parameters(gammas=(0.0,), betas=(0.0,))
        assert abs(expectation_dense_oracle(K3, phi) - 1.5) < 1e-12

    def test_k2_exact_maximum(self):
        phi = Parameters(gammas=(math.pi / 2,), betas=(math.pi / 8,))
        assert abs(expectation_dense_oracle(K2, phi) - 1.0) < 1e-12

    def test_size_guard(self):
        g = gen_erdos_renyi(9, 0.5, 1)
        with pytest.raises(ValueError, match="n <= 8"):
            expectation_dense_oracle(g, Parameters(gammas=(0.1,), betas=(0.2,)))


class TestClosedFormOracle:
    """Checks independent of the dense oracle, at sizes it cannot reach."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 16),
        q=st.floats(0.0, 1.0),
        seed=st.integers(0, 1000),
        gamma=st.floats(0.0, 2 * math.pi),
        beta=st.floats(0.0, math.pi),
    )
    def test_depth_one_matches_closed_form(self, n, q, seed, gamma, beta):
        g = gen_erdos_renyi(n, q, seed)
        phi = Parameters(gammas=(gamma,), betas=(beta,))
        f = ExpectationEvaluator(g).expectation(phi)
        assert abs(f - depth_one_closed_form(g, gamma, beta)) <= 1e-9

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.sampled_from([16, 18, 20]),
        seed=st.integers(0, 1000),
        p=st.integers(1, 2),
        data=st.data(),
    )
    def test_large_states_match_the_light_cone_oracle(self, n, seed, p, data):
        # From n = 18 every mixer pass is split over two threads where the
        # process has two CPUs.
        g = gen_random_regular(n, 3, seed)
        phi = Parameters(
            gammas=data.draw(st.tuples(*[st.floats(0.0, 2 * math.pi)] * p), label="gammas"),
            betas=data.draw(st.tuples(*[st.floats(0.0, math.pi)] * p), label="betas"),
        )
        f = ExpectationEvaluator(g).expectation(phi)
        assert abs(f - light_cone_expectation(g, phi)) <= 1e-9

    # Values of the full 2^n-state computation, which the half-state kernels
    # must reproduce bit for bit: a variant that is close but not bit-equal
    # would move optimizer paths, and so nfev.
    @pytest.mark.parametrize(
        "n, p, expected",
        [
            (12, 1, "0x1.32971842092c8p+3"),
            (12, 3, "0x1.788d2f2681e77p+3"),
            (16, 1, "0x1.a2b1ca7d0f3a0p+3"),
            (16, 3, "0x1.082fa187c90e4p+4"),
            (20, 1, "0x1.03d38ea738f48p+4"),
            (20, 3, "0x1.3f2d8696c0a18p+4"),
        ],
    )
    def test_pinned_values_are_bit_exact(self, n, p, expected):
        phi = Parameters(
            gammas=tuple(0.3 + 0.1 * j for j in range(p)),
            betas=tuple(0.7 - 0.2 * j for j in range(p)),
        )
        assert ExpectationEvaluator(gen_random_regular(n, 3, 1)).expectation(phi).hex() == expected


class TestGradient:
    def test_k2_stationary_at_origin(self):
        phi = Parameters(gammas=(0.0,), betas=(0.0,))
        np.testing.assert_allclose(fd_gradient(K2, phi), [0.0, 0.0], atol=1e-6)

    def test_k2_beta_derivative_closed_form(self):
        # dF/dbeta = 2 cos(4 beta) sin(gamma) = sqrt(2) at (pi/2, pi/16).
        phi = Parameters(gammas=(math.pi / 2,), betas=(math.pi / 16,))
        grad = fd_gradient(K2, phi)
        assert abs(grad[1] - math.sqrt(2)) < 1e-6
        assert abs(grad[0]) < 1e-6  # dF/dgamma = 0.5 cos(gamma) sin(4 beta)

    def test_vanishes_at_interior_optimum(self):
        g = gen_erdos_renyi(6, 0.7, 2)
        ev = ExpectationEvaluator(g)
        res = maximize_bounded(
            ev.expectation,
            Parameters(gammas=(0.4, 0.5), betas=(0.35, 0.2)),
            Bounds(0.0, math.pi, 0.0, math.pi / 2),
        )
        x = res.phi_star.to_array()
        interior = np.all(x > 1e-3) and np.all(
            x < np.array([math.pi] * 2 + [math.pi / 2] * 2) - 1e-3
        )
        if interior:
            assert np.linalg.norm(fd_gradient(g, res.phi_star)) <= 1e-4

    def test_step_halving_is_second_order(self):
        g = K3
        phi = Parameters(gammas=(0.8, 0.3), betas=(0.5, 0.9))
        g1 = fd_gradient(g, phi, step=0.2)
        g2 = fd_gradient(g, phi, step=0.1)
        g3 = fd_gradient(g, phi, step=0.05)
        for k in range(4):
            d12, d23 = abs(g1[k] - g2[k]), abs(g2[k] - g3[k])
            if d12 < 1e-9:
                continue
            ratio = d12 / d23
            assert 4.0 / 8.0 <= ratio <= 4.0 * 8.0


class TestInvariants:
    def test_norm_preserved_through_layers(self):
        rng = np.random.default_rng(31)
        g = gen_erdos_renyi(8, 0.5, 6)
        state = plus_state(8)
        for _ in range(6):
            state = phased(state, g, rng.uniform(0, 2 * math.pi))
            state = mixed(state, rng.uniform(0, math.pi))
            assert abs(np.linalg.norm(state) - 1.0) <= 1e-12

    def test_phase_separator_composes_additively(self):
        state = plus_state(3)
        a = phased(phased(state, K3, 0.7), K3, 0.4)
        b = phased(state, K3, 1.1)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_mixer_composes_additively(self):
        rng = np.random.default_rng(5)
        state = mirrored(rng.normal(size=4) + 1j * rng.normal(size=4))
        a = mixed(mixed(state, 0.3), 0.9)
        b = mixed(state, 1.2)
        np.testing.assert_allclose(a, b, atol=1e-12)


# Angles for the prefix-reuse checks: ordinary values plus the two zeros,
# which are equal as floats but not as bits, and NaN, which is neither.
_angle = st.floats(-7.0, 7.0) | st.sampled_from([0.0, -0.0, math.nan])


def _layers(p: int):
    return st.lists(st.tuples(_angle, _angle), min_size=p, max_size=p)


def _phi(layers) -> Parameters:
    return Parameters(gammas=tuple(g for g, _ in layers), betas=tuple(b for _, b in layers))


class TestPrefixReuse:
    """An evaluator resumes each call from the layers it shares with the last
    one; every result must equal a fresh evaluator's bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_call_sequences_match_a_fresh_evaluator(self, data):
        n = data.draw(st.integers(2, 6), label="n")
        g = gen_erdos_renyi(n, 0.6, data.draw(st.integers(0, 50), label="graph seed"))
        ev = ExpectationEvaluator(g)
        layers = data.draw(_layers(data.draw(st.integers(1, 5))), label="first call")
        for _ in range(data.draw(st.integers(1, 12), label="calls")):
            phi = _phi(layers)
            assert ev.expectation(phi).hex() == ExpectationEvaluator(g).expectation(phi).hex()
            assert ev.prepare(phi).tobytes() == ExpectationEvaluator(g).prepare(phi).tobytes()
            move = data.draw(
                st.sampled_from(["coordinate", "repeat", "deeper", "shallower", "fresh"])
            )
            if move == "coordinate":
                j = data.draw(st.integers(0, len(layers) - 1))
                pair = list(layers[j])
                pair[data.draw(st.integers(0, 1))] = data.draw(_angle)
                layers = layers[:j] + [tuple(pair)] + layers[j + 1 :]
            elif move == "deeper":
                layers = layers + data.draw(_layers(1))
            elif move == "shallower" and len(layers) > 1:
                layers = layers[:-1]
            elif move == "fresh":
                layers = data.draw(_layers(data.draw(st.integers(1, 5))))

    @pytest.mark.parametrize("zero", [0.0, -0.0], ids=["plus-zero", "minus-zero"])
    def test_signed_zero_prefix_is_not_confused(self, zero):
        g = gen_erdos_renyi(5, 0.6, 1)
        ev = ExpectationEvaluator(g)
        ev.expectation(Parameters(gammas=(-zero, 0.3, 0.5), betas=(0.2, -zero, 0.1)))
        phi = Parameters(gammas=(zero, 0.3, 0.4), betas=(0.2, zero, 0.1))
        assert ev.expectation(phi).hex() == ExpectationEvaluator(g).expectation(phi).hex()
        assert ev.prepare(phi).tobytes() == ExpectationEvaluator(g).prepare(phi).tobytes()

    def test_nan_layer_is_never_resumed(self, monkeypatch):
        ev = ExpectationEvaluator(K3)
        phi = Parameters(gammas=(math.nan, 0.3), betas=(0.2, 0.1))
        assert math.isnan(ev.expectation(phi))
        calls = []
        monkeypatch.setattr(simulator, "_mixer_kernel", lambda *a: calls.append(a))
        ev.expectation(phi)
        assert len(calls) == 2

    def test_writing_into_a_returned_state_changes_no_later_result(self):
        g = gen_erdos_renyi(6, 0.6, 3)
        phi = random_phi(np.random.default_rng(37), 4)
        nudged = Parameters(gammas=phi.gammas, betas=phi.betas[:-1] + (0.25,))
        ev = ExpectationEvaluator(g)
        for call in (phi, phi, nudged, phi):
            ev.prepare(call)[:] = 7.0
            assert ev.prepare(call).tobytes() == ExpectationEvaluator(g).prepare(call).tobytes()
            assert ev.expectation(call) == ExpectationEvaluator(g).expectation(call)

    def test_frozen_prefix_applies_one_mixer_per_call(self, monkeypatch):
        # The layerwise strategy's calls: p - 1 frozen layers, the last one varying.
        kernel = simulator._mixer_kernel
        calls = []

        def counting(state, beta, n, scratch=None):
            calls.append(beta)
            kernel(state, beta, n, scratch)

        monkeypatch.setattr(simulator, "_mixer_kernel", counting)
        rng = np.random.default_rng(41)
        frozen = random_phi(rng, 5)
        ev = ExpectationEvaluator(gen_erdos_renyi(6, 0.6, 4))
        for gamma, beta in rng.uniform(0, 1, (10, 2)):
            ev.expectation(
                Parameters(gammas=frozen.gammas + (gamma,), betas=frozen.betas + (beta,))
            )
        assert len(calls) == 6 + 9

    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_gradient_probes_resume_from_the_base_point(self, p, monkeypatch):
        # After an objective call at x, each of the 4 probes of layer j
        # (1-based) computes layers j..p: 4 * (p + (p - 1) + ... + 1) in all.
        ev = ExpectationEvaluator(gen_erdos_renyi(6, 0.6, 4))
        x = random_phi(np.random.default_rng(43), p).to_array()

        def objective(y):
            return ev.expectation(Parameters.from_array(y))

        objective(x)
        kernel = simulator._mixer_kernel
        calls = []

        def counting(state, beta, n, scratch=None):
            calls.append(beta)
            kernel(state, beta, n, scratch)

        monkeypatch.setattr(simulator, "_mixer_kernel", counting)
        unbounded = np.full(x.size, np.inf)
        _fd_gradient(objective, x, -unbounded, unbounded, DEFAULT_GRADIENT_STEP)
        assert len(calls) == 2 * p * (p + 1)

    def test_a_call_that_raises_leaves_no_stale_prefix(self, monkeypatch):
        g = gen_erdos_renyi(6, 0.6, 5)
        ev = ExpectationEvaluator(g)
        ev.expectation(Parameters(gammas=(0.1, 0.2, 0.3), betas=(0.4, 0.5, 0.6)))
        kernel = simulator._mixer_kernel
        calls = []

        def failing_second(state, beta, n, scratch=None):
            calls.append(beta)
            if len(calls) == 2:
                raise MemoryError
            kernel(state, beta, n, scratch)

        monkeypatch.setattr(simulator, "_mixer_kernel", failing_second)
        with pytest.raises(MemoryError):
            ev.expectation(Parameters(gammas=(0.9, 0.2, 0.3), betas=(0.4, 0.5, 0.6)))
        monkeypatch.setattr(simulator, "_mixer_kernel", kernel)
        # Shares layer 1 with the call that completed, not with the one that raised.
        phi = Parameters(gammas=(0.1, 0.7, 0.3), betas=(0.4, 0.5, 0.6))
        assert ev.expectation(phi) == ExpectationEvaluator(g).expectation(phi)


def probe_rows(x: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """The optimizer's gradient probes at x, one per row, in calling order."""
    rows = []
    _fd_gradient(lambda y: rows.append(y.copy()) or 0.0, x, lower, upper, DEFAULT_GRADIENT_STEP)
    return np.array(rows)


def one_layer_probes(x: np.ndarray, rows: np.ndarray) -> set[bytes]:
    """The (gammas, betas) bytes of the rows without NaN that differ from x
    in exactly one layer."""
    p = x.size // 2
    out = set()
    for y in rows:
        moved = (y.view(np.int64) != x.view(np.int64)).reshape(2, p).any(axis=0)
        if moved.sum() == 1 and not np.isnan(y).any():
            out.add(y.reshape(2, p).tobytes())
    return out


class TestAdvanceProbes:
    """Gradient probes advanced together as rows of one state array; every
    value served from them must equal a fresh evaluator's bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_served_values_match_a_fresh_evaluator(self, data):
        n = data.draw(st.integers(2, 12), label="n")
        p = data.draw(st.integers(1, 8), label="p")
        g = gen_erdos_renyi(n, 0.6, data.draw(st.integers(0, 50), label="graph seed"))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="point seed"))
        lower, upper = GENERAL_BOUNDS.box(p)
        x = rng.uniform(lower, upper)
        # Some angles on a box face, where one probe of the pair is x itself.
        faces = data.draw(st.lists(st.integers(0, 2 * p - 1), max_size=3), label="on a face")
        for k in faces:
            x[k] = (lower if k % 2 else upper)[k]
        rows = probe_rows(x, lower, upper)
        extra = [rows[data.draw(st.integers(0, len(rows) - 1), label="duplicate")], x.copy()]
        if p > 1:
            two = x.copy()
            two[[0, p - 1]] += 1e-3  # gamma_1 and gamma_p: two layers
            extra.append(two)
        nan = rows[data.draw(st.integers(0, len(rows) - 1), label="NaN row")].copy()
        nan[data.draw(st.integers(0, 2 * p - 1), label="NaN angle")] = math.nan
        extra.append(nan)
        rows = np.concatenate((rows, extra))
        rows = rows[data.draw(st.permutations(range(len(rows))), label="order")]
        ev = ExpectationEvaluator(g)
        # Cached elsewhere, a probe differs in every layer, unless p = 1.
        elsewhere = data.draw(st.booleans(), label="cached at another point")
        cached = rng.uniform(lower, upper) if elsewhere else x
        ev.expectation(Parameters.from_array(cached))
        advance_probes(ev, rows.reshape(len(rows), 2, p))
        assert set(ev._kept) == one_layer_probes(cached, rows)
        for y in rows:
            phi = Parameters.from_array(y)
            assert ev.expectation(phi).hex() == ExpectationEvaluator(g).expectation(phi).hex()

    def test_fourteen_qubits_in_blocks_of_four(self, monkeypatch):
        g = gen_erdos_renyi(14, 0.5, 5)
        p = 5
        lower, upper = GENERAL_BOUNDS.box(p)
        x = np.random.default_rng(7).uniform(lower, upper)
        x[p] = lower[p]
        rows = probe_rows(x, lower, upper)
        ev = ExpectationEvaluator(g)
        ev.expectation(Parameters.from_array(x))
        kernel, blocks = simulator._mixer_kernel, []

        def counting(block, betas, n, scratch=None):
            blocks.append(len(block))
            kernel(block, betas, n, scratch)

        monkeypatch.setattr(simulator, "_mixer_kernel", counting)
        advance_probes(ev, rows.reshape(len(rows), 2, p))
        assert set(ev._kept) == one_layer_probes(x, rows)
        assert max(blocks) == 4
        for y in rows:
            phi = Parameters.from_array(y)
            assert ev.expectation(phi).hex() == ExpectationEvaluator(g).expectation(phi).hex()

    def test_no_room_for_two_rows_keeps_nothing(self):
        # From n = 16 a 1 MiB block holds one row: every probe is computed alone.
        g = gen_random_regular(16, 3, 1)
        lower, upper = GENERAL_BOUNDS.box(1)
        x = np.array([0.4, 0.3])
        rows = probe_rows(x, lower, upper)
        ev = ExpectationEvaluator(g)
        ev.expectation(Parameters.from_array(x))
        advance_probes(ev, rows.reshape(len(rows), 2, 1))
        assert ev._kept == {}

    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_gradient_probes_advance_2p_p_plus_1_row_layers(self, p, monkeypatch):
        # The plain path's count (test_gradient_probes_resume_from_the_base_point),
        # now as rows of p kernel calls on blocks and no one-row call.
        ev = ExpectationEvaluator(gen_erdos_renyi(6, 0.6, 4))
        x = random_phi(np.random.default_rng(43), p).to_array()

        def objective(y):
            return ev.expectation(Parameters.from_array(y))

        objective(x)
        kernel, rows, one_row = simulator._mixer_kernel, [], []

        def counting(block, betas, n, scratch=None):
            (rows if len(betas) > 1 else one_row).append(len(betas))
            kernel(block, betas, n, scratch)

        monkeypatch.setattr(simulator, "_mixer_kernel", counting)
        unbounded = np.full(x.size, np.inf)
        _fd_gradient(
            objective,
            x,
            -unbounded,
            unbounded,
            DEFAULT_GRADIENT_STEP,
            lambda probes: advance_probes(ev, probes.reshape(len(probes), 2, p)),
        )
        assert sum(rows) == 2 * p * (p + 1)
        assert len(rows) == p
        assert one_row == []

    def test_a_batch_that_raises_keeps_nothing(self, monkeypatch):
        g = gen_erdos_renyi(6, 0.6, 5)
        lower, upper = GENERAL_BOUNDS.box(3)
        x = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        ev = ExpectationEvaluator(g)
        ev.expectation(Parameters.from_array(x))
        rows = probe_rows(x, lower, upper)
        advance_probes(ev, rows.reshape(len(rows), 2, 3))
        assert len(ev._kept) == len(rows)
        kernel, calls = simulator._mixer_kernel, []

        def failing_second(block, betas, n, scratch=None):
            calls.append(betas)
            if len(calls) == 2:
                raise MemoryError
            kernel(block, betas, n, scratch)

        monkeypatch.setattr(simulator, "_mixer_kernel", failing_second)
        with pytest.raises(MemoryError):
            advance_probes(ev, rows.reshape(len(rows), 2, 3))
        monkeypatch.setattr(simulator, "_mixer_kernel", kernel)
        assert ev._kept == {}
        # The stored states are still x's: a probe of the last layer computes one layer.
        phi = Parameters.from_array(rows[0])
        fresh = ExpectationEvaluator(g).expectation(phi)
        one_row = []

        def counting(block, betas, n, scratch=None):
            one_row.append(betas)
            kernel(block, betas, n, scratch)

        monkeypatch.setattr(simulator, "_mixer_kernel", counting)
        assert ev.expectation(phi).hex() == fresh.hex()
        assert len(one_row) == 1


class TestSplitMixer:
    """Large states split each mixer pass over two threads; every amplitude
    must get the same bits as on one thread."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 12),
        betas=st.lists(st.floats(-7.0, 7.0), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_split_matches_one_thread_bit_for_bit(self, n, betas, seed):
        # A block of one row is split; a block of several is not, and each
        # of its rows must still get the bits of that row mixed alone.
        rng = np.random.default_rng(seed)
        shape = (len(betas), 1 << (n - 1))
        block = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        one, split = block.copy(), block.copy()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulator, "_cpus", lambda: 1)
            for row, beta in zip(one, betas):
                _mixer_kernel(row[None], [beta], n)
            patch.setattr(simulator, "_SPLIT_MIN_AMPLITUDES", 1)
            patch.setattr(simulator, "_cpus", lambda: 2)
            _mixer_kernel(split, betas, n)
        assert split.tobytes() == one.tobytes()

    @pytest.mark.parametrize("side", ["caller", "helper"])
    def test_an_error_in_either_half_reaches_the_caller(self, side):
        def task(which):
            if which == side:
                raise ArithmeticError(which)

        with pytest.raises(ArithmeticError, match=side):
            simulator._in_two(task, ("caller",), ("helper",))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")  # fork with a live thread
    def test_forked_child_completes_a_split_mixer(self, monkeypatch):
        monkeypatch.setattr(simulator, "_SPLIT_MIN_AMPLITUDES", 1)
        monkeypatch.setattr(simulator, "_cpus", lambda: 2)
        state = plus_state(6)[None, :32]
        _mixer_kernel(state, [0.3], 6)
        assert simulator._helper is not None
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                _mixer_kernel(state, [0.3], 6)
                code = 0
            finally:
                os._exit(code)
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.01)
        else:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung in a split mixer")
        assert os.waitstatus_to_exitcode(status) == 0

    def test_concurrent_callers_share_one_helper(self, monkeypatch):
        # More calling threads than cores, switching as often as possible.
        made = []

        class Counting(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counting)
        monkeypatch.setattr(simulator, "_SPLIT_MIN_AMPLITUDES", 1)
        monkeypatch.setattr(simulator, "_helper", None)
        rng = np.random.default_rng(53)
        starts = [rng.normal(size=(1, 256)) + 1j * rng.normal(size=(1, 256)) for _ in range(6)]
        expected = []
        for start in starts:
            one = start.copy()
            with monkeypatch.context() as patch:
                patch.setattr(simulator, "_cpus", lambda: 1)
                for beta in (0.4, 1.1, 2.5):
                    _mixer_kernel(one, [beta], 9)
            expected.append(one.tobytes())
        monkeypatch.setattr(simulator, "_cpus", lambda: 2)
        results = [None] * len(starts)

        def caller(i):
            state = starts[i].copy()
            for beta in (0.4, 1.1, 2.5):
                _mixer_kernel(state, [beta], 9)
            results[i] = state.tobytes()

        threads = [threading.Thread(target=caller, args=(i,)) for i in range(len(starts))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for executor in made:
            executor.shutdown()
        assert results == expected
        assert len(made) == 1

    def test_one_cpu_starts_no_helper_thread(self, monkeypatch):
        monkeypatch.setattr(simulator, "_SPLIT_MIN_AMPLITUDES", 1)
        monkeypatch.setattr(simulator, "_cpus", lambda: 1)
        monkeypatch.setattr(simulator, "_helper", None)
        threads = threading.active_count()
        _mixer_kernel(plus_state(6)[None, :32], [0.3], 6)
        assert simulator._helper is None
        assert threading.active_count() == threads


class TestWorkArrays:
    """A warm evaluator computes into its own working states and scratch,
    for one point or a block of probes, and `prepare` hands out a new
    array."""

    @pytest.fixture(params=["one thread", "split"])
    def path(self, request, monkeypatch):
        if request.param == "split":
            monkeypatch.setattr(simulator, "_SPLIT_MIN_AMPLITUDES", 1)
            monkeypatch.setattr(simulator, "_cpus", lambda: 2)

    def test_a_warm_call_allocates_less_than_half_a_state(self, path):
        g = gen_random_regular(16, 3, 1)
        x = random_phi(np.random.default_rng(59), 3)
        resumed = Parameters(gammas=x.gammas, betas=x.betas[:-1] + (0.4,))
        missed = Parameters(gammas=(0.9,) + x.gammas[1:], betas=x.betas)
        fresh = Parameters(gammas=(0.2,), betas=(0.6,))
        calls = [(resumed, 2), (missed, 0), (fresh, 0)]
        expected = [ExpectationEvaluator(g).expectation(phi).hex() for phi, _ in calls]
        ev = ExpectationEvaluator(g)
        ev.expectation(x)
        got = []
        tracemalloc.start()
        try:
            for phi, shared in calls:
                assert ev._shared_layers(np.array((phi.gammas, phi.betas))) == shared
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                got.append(ev.expectation(phi).hex())
                assert tracemalloc.get_traced_memory()[1] - before < (1 << 15) * 16
        finally:
            tracemalloc.stop()
        assert got == expected

    def test_a_warm_resumed_call_gathers_without_a_widened_index(self, path):
        # The phase gather reads the cut index as it is held: no 2^(n-1)
        # intp copy of it per layer.
        g = gen_random_regular(16, 3, 1)
        x = random_phi(np.random.default_rng(59), 3)
        resumed = Parameters(gammas=x.gammas, betas=x.betas[:-1] + (0.4,))
        ev = ExpectationEvaluator(g)
        ev.expectation(x)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            value = ev.expectation(resumed)
            assert tracemalloc.get_traced_memory()[1] - before < (1 << 15) * 8
        finally:
            tracemalloc.stop()
        assert value.hex() == ExpectationEvaluator(g).expectation(resumed).hex()

    def test_a_warm_probe_block_allocates_less_than_a_row(self):
        # The first block grows the working states to the block; the next
        # one computes in them. numpy's ufuncs buffer strided operands in
        # arrays of up to np.getbufsize() elements (128 KiB by default), at
        # any block size; with those capped at 4 KiB, the peak shows the
        # evaluator's own arrays.
        g = gen_erdos_renyi(12, 0.5, 5)
        x = random_phi(np.random.default_rng(67), 2).to_array()
        lower, upper = GENERAL_BOUNDS.box(2)
        rows = probe_rows(x, lower, upper).reshape(-1, 2, 2)
        ev = ExpectationEvaluator(g)
        ev.expectation(Parameters.from_array(x))
        advance_probes(ev, rows)
        with np.errstate():
            np.setbufsize(256)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                advance_probes(ev, rows)
                assert tracemalloc.get_traced_memory()[1] - before < (1 << 11) * 16
            finally:
                tracemalloc.stop()
        assert len(ev._kept) == len(rows)
        for y in rows:
            phi = Parameters(gammas=tuple(y[0]), betas=tuple(y[1]))
            assert ev.expectation(phi).hex() == ExpectationEvaluator(g).expectation(phi).hex()

    def test_writing_into_a_prepared_state_changes_no_later_value(self, path):
        g = gen_random_regular(16, 3, 2)
        x = random_phi(np.random.default_rng(61), 3)
        nudged = Parameters(gammas=x.gammas, betas=x.betas[:-1] + (0.4,))
        fresh = {phi: ExpectationEvaluator(g).prepare(phi).tobytes() for phi in (x, nudged)}
        ev = ExpectationEvaluator(g)
        for phi in (x, x, nudged, x):
            state = ev.prepare(phi)
            assert state.tobytes() == fresh[phi]
            for own in [ev._states, ev._scratch, *ev._after]:
                assert not np.shares_memory(state, own)
            state[:] = 7.0
            value = ev.expectation(phi)
            assert value.hex() == ExpectationEvaluator(g).expectation(phi).hex()


# sha256 of `_digest_sweep()`, recorded before the evaluator kept its own
# work arrays.
SWEEP_DIGEST = "47d479b8c543c1cb552b100ac884539021f988e778ce8ce1511967ca2b3a1423"


def _digest_sweep() -> str:
    """sha256 over the value hex of a fixed sequence of evaluator calls, and
    over the prepared states' bytes up to n = 12."""
    h = hashlib.sha256()
    rng = np.random.default_rng(29)
    unbounded = np.full(8, np.inf)
    for n in [*range(2, 17), 18, 20]:
        g = gen_random_regular(n, 3, 7) if n >= 16 else gen_erdos_renyi(n, 0.5, n)
        depths = range(1, 5) if n <= 12 else (1, 3) if n <= 16 else (2,)
        for p in depths:
            ev = ExpectationEvaluator(g)
            x = random_phi(rng, p).to_array()
            nudged = x.copy()
            nudged[-1] += 0.25
            broken = x.copy()
            broken[0] = math.nan
            # A base call, repeated; one-layer probes; the last beta alone;
            # a NaN angle; a shallower call; the base point again.
            calls = [x, x]
            if n <= 16:
                calls.extend(probe_rows(x, -unbounded[: x.size], unbounded[: x.size]))
            shallower = np.concatenate((x[: p - 1], x[p:-1])) if p > 1 else nudged
            calls += [nudged, x, broken, shallower, x]
            for y in calls:
                phi = Parameters.from_array(y)
                h.update(ev.expectation(phi).hex().encode())
                if n <= 12:
                    h.update(ev.prepare(phi).tobytes())
            if n <= 12:
                # The same probes advanced together, then served.
                rows = probe_rows(x, -unbounded[: x.size], unbounded[: x.size])
                ev.expectation(Parameters.from_array(x))
                advance_probes(ev, rows.reshape(len(rows), 2, p))
                for y in rows:
                    h.update(ev.expectation(Parameters.from_array(y)).hex().encode())
    return h.hexdigest()


class TestBitIdentityDigest:
    def test_sweep_digest_is_unchanged(self):
        """A regression pin, not an oracle: the digest was recorded from the
        code itself, so it shows only that a change moved some value or
        prepared state by one bit or more, not which one is right."""
        assert _digest_sweep() == SWEEP_DIGEST

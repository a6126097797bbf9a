import concurrent.futures
import hashlib
import math
import os
import signal
import subprocess
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
    _probes,
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
    _phase_kernel(out, cuts, _phase_table(gamma, np.arange(cuts.max() + 1.0)), np.empty_like(out))
    return out


def mixed(state: np.ndarray, beta: float) -> np.ndarray:
    # The kernel takes a flip-symmetric state, amp(z) = amp(z^), as its low
    # half; the complement of z is 2^n - 1 - z, so the state is a palindrome.
    assert np.array_equal(state, state[::-1]), "mixer input must be flip-symmetric"
    out = state[None, : state.size // 2].copy()
    _mixer_kernel(out, [beta], state.size.bit_length() - 1, np.empty_like(out))
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
    rows = _probes(x, -unbounded, unbounded, step)
    values = [ev.expectation(Parameters.from_array(y)) for y in rows]
    return _fd_gradient(rows, np.array(values))


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

    @pytest.mark.parametrize(
        "x,match",
        [(np.empty(0), "depth"), (np.zeros(3), "even length"), (np.zeros((2, 2)), "even length")],
    )
    def test_from_array_rejects_an_empty_odd_or_2d_array(self, x, match):
        with pytest.raises(ValueError, match=match):
            Parameters.from_array(x)

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_from_array_equals_the_constructor(self, half):
        # from_array sets its fields without __post_init__: the result must
        # be the constructor's, field for field, by == and by hash.
        x = np.array(half + half[::-1])
        p = len(half)
        phi = Parameters.from_array(x)
        built = Parameters(gammas=tuple(x[:p]), betas=tuple(x[p:]))
        assert type(phi.gammas[0]) is float and type(built.gammas[0]) is float
        assert np.array(phi.gammas + phi.betas).tobytes() == x.tobytes()
        assert np.array(built.gammas + built.betas).tobytes() == x.tobytes()
        if not np.isnan(x).any():  # NaN != NaN, by == on tuples too
            assert phi == built and hash(phi) == hash(built)

    @pytest.mark.parametrize("odd", [-0.0, math.nan, -math.nan])
    def test_expectation_finds_each_kept_row_by_its_bytes(self, odd, monkeypatch):
        # The key expectation builds for a point equals the bytes _advance
        # keeps for its row: each kept row is found without a computation,
        # and -0.0 or a NaN of another sign is another point.
        rows = np.array([[[0.3, 0.2], [0.5, 0.1]], [[0.3, odd], [0.5, 0.1]], [[odd, 0.2], [odd, 0.1]]])
        ev = ExpectationEvaluator(K3)
        advance_probes(ev, rows)
        kept = dict(ev._kept)
        assert list(kept) == [row.tobytes() for row in rows]
        with monkeypatch.context() as patch:
            patch.setattr(ExpectationEvaluator, "_advance", None)
            for row in rows:
                value = ev.expectation(Parameters.from_array(row.ravel()))
                assert value is kept[row.tobytes()]
        other = rows[1].copy()
        other[0, 1] = 0.0 if odd == 0 else -odd
        assert ev.expectation(Parameters.from_array(other.ravel())).hex() == ExpectationEvaluator(
            K3
        ).expectation(Parameters.from_array(other.ravel())).hex()
        assert other.tobytes() not in kept


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


def _coordinate(data, layers):
    """`layers` with one angle drawn anew."""
    j = data.draw(st.integers(0, len(layers) - 1))
    pair = list(layers[j])
    pair[data.draw(st.integers(0, 1))] = data.draw(_angle)
    return layers[:j] + [tuple(pair)] + layers[j + 1 :]


class TestPrefixReuse:
    """An evaluator resumes each call from the layers it shares with the last
    one; every result must equal a fresh evaluator's bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_call_sequences_match_a_fresh_evaluator(self, data):
        # `expectation`, `prepare` and `advance_probes` interleaved, on one
        # lane or two; a stack is the point and some of its coordinate moves.
        n = data.draw(st.integers(2, 6), label="n")
        g = gen_erdos_renyi(n, 0.6, data.draw(st.integers(0, 50), label="graph seed"))
        ev = ExpectationEvaluator(g)
        layers = data.draw(_layers(data.draw(st.integers(1, 5))), label="first call")
        with pytest.MonkeyPatch.context() as patch:
            if data.draw(st.booleans(), label="two lanes"):
                patch.setattr(simulator, "_LANE_MIN_AMPLITUDES", 1)
                patch.setattr(simulator, "_cpus", lambda: 2)
            for _ in range(data.draw(st.integers(1, 12), label="calls")):
                phi = _phi(layers)
                call = data.draw(st.sampled_from(["expectation", "prepare", "advance_probes"]))
                if call == "expectation":
                    fresh = ExpectationEvaluator(g).expectation(phi)
                    assert ev.expectation(phi).hex() == fresh.hex()
                elif call == "prepare":
                    fresh = ExpectationEvaluator(g).prepare(phi)
                    assert ev.prepare(phi).tobytes() == fresh.tobytes()
                else:
                    probes = data.draw(st.integers(0, 6), label="rows after the point")
                    rows = [layers] + [_coordinate(data, layers) for _ in range(probes)]
                    advance_probes(ev, np.array(rows).transpose(0, 2, 1))
                    for row in map(_phi, rows):
                        fresh = ExpectationEvaluator(g).expectation(row)
                        assert ev.expectation(row).hex() == fresh.hex()
                move = data.draw(
                    st.sampled_from(["coordinate", "repeat", "deeper", "shallower", "fresh"])
                )
                if move == "coordinate":
                    layers = _coordinate(data, layers)
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
        assert math.isnan(ev.expectation(Parameters(gammas=(math.nan, 0.3), betas=(0.2, 0.1))))
        calls = []
        monkeypatch.setattr(simulator, "_mixer_kernel", lambda *a: calls.append(a))
        # Shares the NaN layer 1 with the last call, but not layer 2.
        ev.expectation(Parameters(gammas=(math.nan, 0.3), betas=(0.2, 0.7)))
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

        def counting(state, beta, n, scratch, *rest):
            calls.append(beta)
            kernel(state, beta, n, scratch, *rest)

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
        # After an objective call at x, probes called one at a time in
        # coordinate order (gammas, then betas) resume from the call before
        # each: x + h e_k shares the layers before both k's and the previous
        # probe's, x - h e_k those before k's. That is fewer layers than with
        # no reuse, 4p probes of p layers each, though more than probing
        # layer by layer from the last would compute, 2p(p + 1).
        ev = ExpectationEvaluator(gen_erdos_renyi(6, 0.6, 4))
        x = random_phi(np.random.default_rng(43), p).to_array()

        def objective(y):
            return ev.expectation(Parameters.from_array(y))

        objective(x)
        kernel = simulator._mixer_kernel
        calls = []

        def counting(state, beta, n, scratch, *rest):
            calls.append(beta)
            kernel(state, beta, n, scratch, *rest)

        monkeypatch.setattr(simulator, "_mixer_kernel", counting)
        unbounded = np.full(x.size, np.inf)
        # Row 0 is x again, whose value the evaluator kept.
        rows = _probes(x, -unbounded, unbounded, DEFAULT_GRADIENT_STEP)
        _fd_gradient(rows, np.array([objective(y) for y in rows]))
        assert len(calls) == {2: 14, 4: 46, 8: 158}[p]
        assert len(calls) < 4 * p * p

    def test_a_call_that_raises_leaves_no_stale_prefix(self, monkeypatch):
        g = gen_erdos_renyi(6, 0.6, 5)
        ev = ExpectationEvaluator(g)
        ev.expectation(Parameters(gammas=(0.1, 0.2, 0.3), betas=(0.4, 0.5, 0.6)))
        kernel = simulator._mixer_kernel
        calls = []

        def failing_second(state, beta, n, scratch, *rest):
            calls.append(beta)
            if len(calls) == 2:
                raise MemoryError
            kernel(state, beta, n, scratch, *rest)

        monkeypatch.setattr(simulator, "_mixer_kernel", failing_second)
        with pytest.raises(MemoryError):
            ev.expectation(Parameters(gammas=(0.9, 0.2, 0.3), betas=(0.4, 0.5, 0.6)))
        monkeypatch.setattr(simulator, "_mixer_kernel", kernel)
        # Shares layer 1 with the call that completed, not with the one that raised.
        phi = Parameters(gammas=(0.1, 0.7, 0.3), betas=(0.4, 0.5, 0.6))
        assert ev.expectation(phi) == ExpectationEvaluator(g).expectation(phi)


def probe_rows(x: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """The optimizer's gradient probes at x, one per row, with the pairs
    taken layer by layer from the last: the stacks these tests pin."""
    pairs = _probes(x, lower, upper, DEFAULT_GRADIENT_STEP)[1:].reshape(-1, 2, x.size)
    p = max(1, x.size // 2)
    return pairs[sorted(range(x.size), key=lambda k: -(k % p))].reshape(-1, x.size)


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
        # Cached elsewhere, a probe shares no layer with the last call.
        elsewhere = data.draw(st.booleans(), label="cached at another point")
        cached = rng.uniform(lower, upper) if elsewhere else x
        ev.expectation(Parameters.from_array(cached))
        # Two lanes from n = 2, with the threads that computed rows recorded.
        lanes = data.draw(st.booleans(), label="two lanes")
        kernel, threads = simulator._mixer_kernel, set()

        def recording(block, betas, n, scratch, *rest):
            threads.add(threading.current_thread())
            kernel(block, betas, n, scratch, *rest)

        with pytest.MonkeyPatch.context() as patch:
            if lanes:
                patch.setattr(simulator, "_LANE_MIN_AMPLITUDES", 1)
                patch.setattr(simulator, "_cpus", lambda: 2)
            patch.setattr(simulator, "_mixer_kernel", recording)
            advance_probes(ev, rows.reshape(len(rows), 2, p))
        # Every row is kept: NaN, duplicate, two-layer and face rows too.
        assert set(ev._kept) == {y.reshape(2, p).tobytes() for y in rows}
        assert len(threads) == (2 if lanes else 1)
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

        def counting(block, betas, n, scratch, *rest):
            blocks.append(len(block))
            kernel(block, betas, n, scratch, *rest)

        monkeypatch.setattr(simulator, "_mixer_kernel", counting)
        advance_probes(ev, rows.reshape(len(rows), 2, p))
        assert set(ev._kept) == {y.reshape(2, p).tobytes() for y in rows}
        assert max(blocks) == 4
        for y in rows:
            phi = Parameters.from_array(y)
            assert ev.expectation(phi).hex() == ExpectationEvaluator(g).expectation(phi).hex()

    def test_one_row_blocks_keep_every_row(self, monkeypatch):
        # From n = 16 a 1 MiB block holds one row: on one lane the probes run
        # one row at a time. From n = 18 each row splits its layers on the
        # calling thread instead, so two CPUs run one lane too.
        lower, upper = GENERAL_BOUNDS.box(1)
        x = np.array([0.4, 0.3])
        rows = probe_rows(x, lower, upper).reshape(-1, 2, 1)
        kernel, blocks = simulator._mixer_kernel, []

        def counting(block, betas, n, scratch, *rest):
            blocks.append(len(block))
            kernel(block, betas, n, scratch, *rest)

        for n, cpus in [(16, 1), (18, 2)]:
            monkeypatch.setattr(simulator, "_cpus", lambda cpus=cpus: cpus)
            g = gen_random_regular(n, 3, 1)
            ev = ExpectationEvaluator(g)
            ev.expectation(Parameters.from_array(x))
            with monkeypatch.context() as patch:
                patch.setattr(simulator, "_mixer_kernel", counting)
                advance_probes(ev, rows)
            assert blocks == [1] * len(rows)
            blocks.clear()
            assert set(ev._kept) == {y.tobytes() for y in rows}
            # Row 0 is the new last call.
            assert ev._angles.tobytes() == rows[0].tobytes()
            for y in rows:
                phi = Parameters(gammas=tuple(y[0]), betas=tuple(y[1]))
                assert ev._kept[y.tobytes()].hex() == ExpectationEvaluator(g).expectation(phi).hex()

    def test_input_that_is_not_a_stack_of_angle_arrays_raises(self, monkeypatch):
        g = gen_erdos_renyi(8, 0.6, 6)
        x = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        stack = probe_rows(x, *GENERAL_BOUNDS.box(3)).reshape(-1, 2, 3)
        ev = ExpectationEvaluator(g)
        ev.expectation(Parameters.from_array(x))
        kernel, calls = simulator._mixer_kernel, []

        def counting(block, betas, n, scratch, *rest):
            calls.append(betas)
            kernel(block, betas, n, scratch, *rest)

        monkeypatch.setattr(simulator, "_mixer_kernel", counting)
        flat = stack.reshape(len(stack), -1)
        three = np.concatenate((stack, stack[:, :1]), axis=1)
        kept = dict(ev._kept)
        for bad in (flat, three, stack[..., :0], stack[0], stack[None]):
            with pytest.raises(ValueError, match="shape"):
                advance_probes(ev, bad)
            assert ev._kept == kept
            assert calls == []
        # The stored states are still x's: a probe of the last layer computes one layer.
        phi = Parameters(gammas=tuple(stack[0, 0]), betas=tuple(stack[0, 1]))
        fresh = ExpectationEvaluator(g).expectation(phi)
        calls.clear()
        assert ev.expectation(phi).hex() == fresh.hex()
        assert len(calls) == 1
        # Nor do the values kept ahead change.
        advance_probes(ev, stack)
        kept = dict(ev._kept)
        with pytest.raises(ValueError, match="shape"):
            advance_probes(ev, flat)
        assert ev._kept == kept

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_an_empty_stack_raises_and_runs_no_kernel(self, lanes, monkeypatch):
        g = gen_erdos_renyi(8, 0.6, 6)
        x = np.array([0.1, 0.2, 0.3, 0.4])
        stack = probe_rows(x, *GENERAL_BOUNDS.box(2)).reshape(-1, 2, 2)
        ev = ExpectationEvaluator(g)
        ev.expectation(Parameters.from_array(x))
        advance_probes(ev, stack)
        if lanes == 2:
            monkeypatch.setattr(simulator, "_LANE_MIN_AMPLITUDES", 1)
            monkeypatch.setattr(simulator, "_cpus", lambda: 2)
        kept, last = dict(ev._kept), ev._angles.tobytes()
        calls = []
        monkeypatch.setattr(simulator, "_phase_kernel", lambda *a: calls.append(a))
        monkeypatch.setattr(simulator, "_mixer_kernel", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match="k >= 1"):
            advance_probes(ev, stack[:0])
        assert ev._kept == kept
        assert ev._angles.tobytes() == last
        assert calls == []

    def test_rows_of_other_depths_and_two_changed_layers_are_kept(self, monkeypatch):
        # Row 0 resumes after the layers it shares with the last call, as a
        # call of `expectation` would: at most p - 1 of its own p, and of
        # the last call's 3, whose states after layers 1 and 2 are stored.
        # It becomes the last call, and every other row resumes from it.
        g = gen_erdos_renyi(8, 0.6, 6)
        base = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
        ev = ExpectationEvaluator(g)
        ev.expectation(Parameters(tuple(base[0]), tuple(base[1])))
        deeper = np.concatenate((base, [[0.7], [0.8]]), axis=1)
        deepest = deeper.copy()
        deepest[0, 3] = 0.9
        shallower = base[:, :2].copy()
        shallower[1, 1] = 0.9
        one_and_three, two_and_three = base.copy(), base.copy()
        one_and_three[0, 0] += 1e-3
        one_and_three[1, 2] += 1e-3
        two_and_three[0, 1:] += 1e-3
        # Each stack with the row-layers its rows compute, in this order.
        stacks = [
            (np.array([deeper, deepest]), 2 + 1),
            (np.array([base[:, :2], shallower]), 1 + 1),
            (base[None, :, :1], 1),
            (np.array([one_and_three, two_and_three]), 3 + 3),
        ]
        kernel = simulator._mixer_kernel
        for stack, row_layers in stacks:
            calls = []

            def counting(block, betas, n, scratch, *rest):
                calls.append(len(betas))
                kernel(block, betas, n, scratch, *rest)

            with monkeypatch.context() as patch:
                patch.setattr(simulator, "_mixer_kernel", counting)
                advance_probes(ev, stack)
            assert sum(calls) == row_layers
            assert set(ev._kept) == {y.tobytes() for y in stack}
            for y in stack:
                phi = Parameters(gammas=tuple(y[0]), betas=tuple(y[1]))
                assert ev.expectation(phi).hex() == ExpectationEvaluator(g).expectation(phi).hex()

    @pytest.mark.parametrize("n", [16, 17])
    def test_two_lanes_keep_probes_of_one_row_blocks(self, n, monkeypatch):
        monkeypatch.setattr(simulator, "_cpus", lambda: 2)
        g = gen_random_regular(n, 3, 3) if n % 2 == 0 else gen_erdos_renyi(n, 0.3, 3)
        p = 2
        lower, upper = GENERAL_BOUNDS.box(p)
        x = np.random.default_rng(n).uniform(lower, upper)
        rows = probe_rows(x, lower, upper)
        ev = ExpectationEvaluator(g)
        ev.expectation(Parameters.from_array(x))
        kernel, blocks = simulator._mixer_kernel, []

        def counting(block, betas, n, scratch, *rest):
            blocks.append(len(block))
            kernel(block, betas, n, scratch, *rest)

        monkeypatch.setattr(simulator, "_mixer_kernel", counting)
        advance_probes(ev, rows.reshape(len(rows), 2, p))
        assert set(ev._kept) == {y.reshape(2, p).tobytes() for y in rows}
        assert set(blocks) == {1}
        monkeypatch.setattr(simulator, "_mixer_kernel", kernel)
        for y in rows:
            phi = Parameters.from_array(y)
            assert ev.expectation(phi).hex() == ExpectationEvaluator(g).expectation(phi).hex()

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

        def counting(block, betas, n, scratch, *rest):
            (rows if len(betas) > 1 else one_row).append(len(betas))
            kernel(block, betas, n, scratch, *rest)

        monkeypatch.setattr(simulator, "_mixer_kernel", counting)
        unbounded = np.full(x.size, np.inf)
        probes = probe_rows(x, -unbounded, unbounded)
        advance_probes(ev, probes.reshape(len(probes), 2, p))
        assert sum(rows) == 2 * p * (p + 1)
        assert len(rows) == p
        assert one_row == []

    @pytest.mark.parametrize("n", [2, 5, 10])
    @pytest.mark.parametrize("p", [1, 3])
    def test_runs_of_bit_equal_betas_match_one_row_calls(self, n, p, monkeypatch):
        # A long run, two single rows and a 0.0 / -0.0 pair, in every layer;
        # the gammas differ, so every row starts at layer 1.
        column = [0.3] * 5 + [0.7, 1.1, 0.0, -0.0]
        assert [(a, b, math.copysign(1.0, beta)) for a, b, beta in simulator._runs(column)] == [
            (0, 5, 1.0), (5, 6, 1.0), (6, 7, 1.0), (7, 8, 1.0), (8, 9, -1.0)
        ]
        g = gen_erdos_renyi(n, 0.6, n)
        stack = np.empty((len(column), 2, p))
        stack[:, 0] = np.random.default_rng(p).uniform(0.0, 2.0, (len(column), p))
        stack[:, 1] = np.array(column)[:, None]
        kernel, columns = simulator._mixer_kernel, []

        def recording(block, betas, n, scratch, *rest):
            columns.append(np.array(betas).tobytes())
            kernel(block, betas, n, scratch, *rest)

        ev = ExpectationEvaluator(g)
        with monkeypatch.context() as patch:
            patch.setattr(simulator, "_mixer_kernel", recording)
            advance_probes(ev, stack)
        assert columns == [np.array(column).tobytes()] * p
        for y in stack:
            phi = Parameters(gammas=tuple(y[0]), betas=tuple(y[1]))
            assert ev.expectation(phi).hex() == ExpectationEvaluator(g).expectation(phi).hex()
        # The kernel alone: each row of a block as if mixed on its own.
        rng = np.random.default_rng(n)
        block = rng.normal(size=(len(column), 1 << (n - 1))) + 0j
        one = block.copy()
        for row, beta in zip(one, column):
            _mixer_kernel(row[None], [beta], n, np.empty_like(row[None]))
        _mixer_kernel(block, np.array(column), n, np.empty_like(block))
        assert block.tobytes() == one.tobytes()

    @pytest.mark.parametrize("lanes", [1, 2])
    @pytest.mark.parametrize("near", [False, True], ids=["cached elsewhere", "cached near"])
    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_row_zero_becomes_the_last_call(self, k, near, lanes, monkeypatch):
        if lanes == 2:
            monkeypatch.setattr(simulator, "_LANE_MIN_AMPLITUDES", 1)
            monkeypatch.setattr(simulator, "_cpus", lambda: 2)
        g = gen_erdos_renyi(8, 0.6, 9)
        p = 4
        rng = np.random.default_rng(k)
        lower, upper = GENERAL_BOUNDS.box(p)
        x = rng.uniform(lower, upper)
        stack = np.concatenate(([x], probe_rows(x, lower, upper))).reshape(-1, 2, p)
        # Cached near, the last call shares 2 layers with row 0: the probes
        # of layers 1-2 sort before it, sharing fewer, and those of layer 4
        # resume from the state it stores after layer 3.
        cached = x.copy() if near else rng.uniform(lower, upper)
        cached[2] += 0.01
        ev = ExpectationEvaluator(g)
        ev.expectation(Parameters.from_array(cached))
        advance_probes(ev, stack)
        assert ev._angles.tobytes() == stack[0].tobytes()
        head = Parameters.from_array(x)
        assert ev.prepare(head).tobytes() == ExpectationEvaluator(g).prepare(head).tobytes()
        # A call that shares k layers with row 0 computes the other p - k.
        y = stack[0].copy()
        y[1, k] += 0.01
        phi = Parameters(gammas=tuple(y[0]), betas=tuple(y[1]))
        kernel, calls = simulator._mixer_kernel, []

        def counting(block, betas, n, scratch, *rest):
            calls.append(len(betas))
            kernel(block, betas, n, scratch, *rest)

        fresh = ExpectationEvaluator(g).expectation(phi)
        with monkeypatch.context() as patch:
            patch.setattr(simulator, "_mixer_kernel", counting)
            assert ev.expectation(phi).hex() == fresh.hex()
        assert calls == [1] * (p - k)

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_a_block_that_raises_keeps_at_most_row_zeros_shared_layers(self, lanes, monkeypatch):
        if lanes == 2:
            monkeypatch.setattr(simulator, "_LANE_MIN_AMPLITUDES", 1)
            monkeypatch.setattr(simulator, "_cpus", lambda: 2)
        g = gen_erdos_renyi(7, 0.6, 8)
        p = 4
        lower, upper = GENERAL_BOUNDS.box(p)
        last = np.array([[0.1, 0.2, 0.3, 0.35], [0.4, 0.5, 0.6, 0.65]])
        head = last.copy()
        head[0, 1] = 0.9  # row 0 shares layer 1 with the last call
        stack = np.concatenate(([head.ravel()], probe_rows(head.ravel(), lower, upper)))
        ev = ExpectationEvaluator(g)
        ev.expectation(Parameters(tuple(last[0]), tuple(last[1])))
        before = ev._after[1].copy()
        kernel = simulator._mixer_kernel

        def failing(block, betas, n, scratch, *rest):
            # Once row 0 has stored its state after layer 2, not yet after 3.
            if not np.array_equal(ev._after[1], before):
                raise MemoryError
            kernel(block, betas, n, scratch, *rest)

        with monkeypatch.context() as patch:
            patch.setattr(simulator, "_mixer_kernel", failing)
            with pytest.raises(MemoryError):
                advance_probes(ev, stack.reshape(-1, 2, p))
        assert ev._kept == {}
        near_last, near_head = last.copy(), head.copy()
        near_last[1, 3] = near_head[1, 3] = 0.7
        points = np.array([near_head, near_last, head, last])
        assert max(ExpectationEvaluator._shared_layers(points, ev._angles)) <= 1
        phi = Parameters(gammas=tuple(near_head[0]), betas=tuple(near_head[1]))
        assert ev.expectation(phi).hex() == ExpectationEvaluator(g).expectation(phi).hex()
        for y in (last, near_last, head):
            phi = Parameters(gammas=tuple(y[0]), betas=tuple(y[1]))
            assert ev.expectation(phi).hex() == ExpectationEvaluator(g).expectation(phi).hex()

    @pytest.mark.parametrize("failing", ["one lane", "caller lane", "helper lane"])
    def test_a_batch_that_raises_keeps_nothing(self, failing, monkeypatch):
        g = gen_erdos_renyi(6, 0.6, 5)
        lower, upper = GENERAL_BOUNDS.box(3)
        x = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        if failing != "one lane":
            monkeypatch.setattr(simulator, "_LANE_MIN_AMPLITUDES", 1)
            monkeypatch.setattr(simulator, "_cpus", lambda: 2)
        ev = ExpectationEvaluator(g)
        ev.expectation(Parameters.from_array(x))
        rows = probe_rows(x, lower, upper)
        advance_probes(ev, rows.reshape(len(rows), 2, 3))
        assert len(ev._kept) == len(rows)
        kernel, calls, written, caller = simulator._mixer_kernel, [], [], threading.current_thread()

        def failing_second(block, betas, n, scratch, *rest):
            lane = "caller lane" if threading.current_thread() is caller else "helper lane"
            if failing in ("one lane", lane):
                calls.append(betas)
                if len(calls) == 2:
                    raise MemoryError
            elif lane == "helper lane":
                time.sleep(0.02)  # still writing, should the caller not wait
            kernel(block, betas, n, scratch, *rest)
            written.append(lane)

        monkeypatch.setattr(simulator, "_mixer_kernel", failing_second)
        with pytest.raises(MemoryError):
            advance_probes(ev, rows.reshape(len(rows), 2, 3))
        # The helper finished writing before the error reached the caller.
        done = len(written)
        time.sleep(0.1)
        assert len(written) == done
        monkeypatch.setattr(simulator, "_mixer_kernel", kernel)
        assert ev._kept == {}
        # The stored states are still x's: a probe of the last layer computes one layer.
        phi = Parameters.from_array(rows[0])
        fresh = ExpectationEvaluator(g).expectation(phi)
        one_row = []

        def counting(block, betas, n, scratch, *rest):
            one_row.append(betas)
            kernel(block, betas, n, scratch, *rest)

        monkeypatch.setattr(simulator, "_mixer_kernel", counting)
        assert ev.expectation(phi).hex() == fresh.hex()
        assert len(one_row) == 1

    def test_a_lane_never_submits_to_the_helper(self, monkeypatch):
        # With both thresholds at 1 every row is big enough for a lane, and
        # every one-row block (n = 16) for a split: a split on a helper lane
        # would submit to the one helper and wait on itself. So the rows run
        # on one lane, each split on the calling thread.
        monkeypatch.setattr(simulator, "_LANE_MIN_AMPLITUDES", 1)
        monkeypatch.setattr(simulator, "_SPLIT_MIN_AMPLITUDES", 1)
        monkeypatch.setattr(simulator, "_cpus", lambda: 2)
        g = gen_random_regular(16, 3, 4)
        lower, upper = GENERAL_BOUNDS.box(2)
        x = np.array([0.4, 0.7, 0.3, 0.2])
        rows = probe_rows(x, lower, upper).reshape(-1, 2, 2)
        # Before the guard: these evaluations split on this thread.
        fresh = [
            ExpectationEvaluator(g).expectation(Parameters(tuple(y[0]), tuple(y[1]))).hex()
            for y in rows
        ]
        ev = ExpectationEvaluator(g)
        ev.expectation(Parameters.from_array(x))
        in_two, submitters, errors = simulator._in_two, [], []

        def guarded(task, low, high):
            submitters.append(threading.current_thread())
            if threading.current_thread() is not worker:
                # Fail here rather than hang on the helper.
                raise RuntimeError("the helper submitted to itself")
            in_two(task, low, high)

        def advance():
            try:
                advance_probes(ev, rows)
            except BaseException as error:
                errors.append(error)

        monkeypatch.setattr(simulator, "_in_two", guarded)
        worker = threading.Thread(target=advance)
        worker.start()
        worker.join(timeout=60.0)
        assert not worker.is_alive(), "advance_probes did not finish"
        assert errors == []
        assert set(submitters) == {worker}
        assert len(ev._kept) == len(rows) == 8
        assert [ev._kept[y.tobytes()].hex() for y in rows] == fresh

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_each_distinct_row_runs_once(self, lanes, monkeypatch):
        # Rows bit-equal to row 0, as a probe clamped back onto its point
        # is, and to each other take the value of the first of them.
        if lanes == 2:
            monkeypatch.setattr(simulator, "_LANE_MIN_AMPLITUDES", 1)
            monkeypatch.setattr(simulator, "_cpus", lambda: 2)
        g = gen_erdos_renyi(7, 0.6, 2)
        p = 3
        rng = np.random.default_rng(61)
        x, y, z, w = (rng.uniform(0.0, 2.0, (2, p)) for _ in range(4))
        stack = np.array([x, y, x, z, y, w, z, x])
        ev = ExpectationEvaluator(g)
        kernel, calls = simulator._mixer_kernel, []

        def counting(block, betas, n, scratch, *rest):
            calls.append(len(betas))
            kernel(block, betas, n, scratch, *rest)

        with monkeypatch.context() as patch:
            patch.setattr(simulator, "_mixer_kernel", counting)
            advance_probes(ev, stack)
        # Four distinct rows of p layers each, as no row shares a layer.
        assert sum(calls) == 4 * p
        assert set(ev._kept) == {a.tobytes() for a in (x, y, z, w)}
        assert ev._angles.tobytes() == x.tobytes()
        for a in stack:
            phi = Parameters(gammas=tuple(a[0]), betas=tuple(a[1]))
            assert ev.expectation(phi).hex() == ExpectationEvaluator(g).expectation(phi).hex()

    def test_lanes_match_one_lane_under_the_default_blas_pool(self):
        # The values' last bits depend on the BLAS thread count from n = 15
        # (the probability sum's dot product), which this suite pins to 1;
        # unpinned, two lanes and one lane must still agree bit for bit.
        code = """
import numpy as np
from qaoa_maxcut import simulator
from qaoa_maxcut.graphs import gen_erdos_renyi
from qaoa_maxcut.optimize import DEFAULT_GRADIENT_STEP, GENERAL_BOUNDS, _probes
p = 3
lower, upper = GENERAL_BOUNDS.box(p)
x = np.random.default_rng(3).uniform(lower, upper)
rows = _probes(x, lower, upper, DEFAULT_GRADIENT_STEP)[1:].reshape(-1, 2, p)
g = gen_erdos_renyi(15, 0.5, 2)
for cpus in (2, 1):
    simulator._cpus = lambda: cpus
    ev = simulator.ExpectationEvaluator(g)
    ev.expectation(simulator.Parameters.from_array(x))
    simulator.advance_probes(ev, rows)
    print(len(ev._kept), *(ev._kept[y.tobytes()].hex() for y in rows))
"""
        src = os.path.dirname(os.path.dirname(simulator.__file__))
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        two, one = out.stdout.splitlines()
        assert two.split()[0] == "12"
        assert two == one


class TestSplitMixer:
    """Large states split each layer's phase, mixer passes and probability
    squares over two threads; every amplitude must get the same bits as on
    one thread."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(2, 12),
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
                _mixer_kernel(row[None], [beta], n, np.empty_like(row[None]))
            patch.setattr(simulator, "_SPLIT_MIN_AMPLITUDES", 1)
            patch.setattr(simulator, "_cpus", lambda: 2)
            _mixer_kernel(split, betas, n, np.empty_like(split))
        assert split.tobytes() == one.tobytes()

    # Not n = 1, whose one amplitude has no halves, nor n = 2: its halves are
    # single amplitudes, and numpy multiplies one complex element in place
    # in its reduction loop, without the fused multiply-add of its vector
    # loop, so the last bit can differ from that element's in the whole row.
    # A split half holds 2^16 or more.
    @pytest.mark.parametrize("n", [3, 4, 5, 8])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_split_layers_match_one_thread_bit_for_bit(self, n, p, monkeypatch):
        # Every one-row block splits its phase gather, mixer and probability
        # squares; zero gammas, of either sign, give signed zeros.
        g = gen_erdos_renyi(n, 0.6, n)
        x = random_phi(np.random.default_rng(10 * n + p), p)
        resumed = Parameters(gammas=x.gammas, betas=x.betas[:-1] + (0.4,))
        zero = Parameters(gammas=(0.0,) + x.gammas[1:], betas=x.betas)
        negative_zero = Parameters(gammas=(-0.0,) * p, betas=x.betas)
        calls = [x, x, resumed, zero, negative_zero, zero, x]
        in_two, tasks = simulator._in_two, []

        def recorded(task, low, high):
            tasks.append(task)
            in_two(task, low, high)

        def run(cpus):
            monkeypatch.setattr(simulator, "_cpus", lambda: cpus)
            ev = ExpectationEvaluator(g)
            return [(ev.expectation(phi).hex(), ev.prepare(phi).tobytes()) for phi in calls]

        monkeypatch.setattr(simulator, "_SPLIT_MIN_AMPLITUDES", 1)
        monkeypatch.setattr(simulator, "_in_two", recorded)
        one = run(1)
        assert tasks == []
        split = run(2)
        assert {simulator._phase, simulator._passes, simulator._probabilities} <= set(tasks)
        assert split == one

    @pytest.mark.parametrize("side", ["caller", "helper"])
    def test_an_error_in_either_half_reaches_the_caller(self, side):
        def task(which):
            if which == side:
                raise ArithmeticError(which)

        with pytest.raises(ArithmeticError, match=side):
            simulator._in_two(task, ("caller",), ("helper",))

    @pytest.mark.parametrize("side", ["caller", "helper"])
    def test_an_error_in_either_half_of_a_split_value_reaches_the_caller(self, side, monkeypatch):
        monkeypatch.setattr(simulator, "_SPLIT_MIN_AMPLITUDES", 1)
        monkeypatch.setattr(simulator, "_cpus", lambda: 2)
        g = gen_erdos_renyi(6, 0.5, 3)
        phi = Parameters(gammas=(0.3, 0.8), betas=(0.5, 0.1))
        expected = ExpectationEvaluator(g).expectation(phi)
        caller, probabilities = threading.current_thread(), simulator._probabilities

        def failing(half, low, mirror):
            if (threading.current_thread() is caller) == (side == "caller"):
                raise ArithmeticError(side)
            probabilities(half, low, mirror)

        ev = ExpectationEvaluator(g)
        with monkeypatch.context() as patch:
            patch.setattr(simulator, "_probabilities", failing)
            with pytest.raises(ArithmeticError, match=side):
                ev.expectation(phi)
        # The other half finished before the error was raised; the next call
        # recomputes the last layer and the value.
        assert ev.expectation(phi).hex() == expected.hex()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")  # fork with a live thread
    def test_forked_child_completes_a_split_mixer(self, monkeypatch):
        # A one-row block of 32 amplitudes (n = 6) splits its mixer, and an
        # evaluation at n = 6 its whole layer and value; at n = 5 rows of 16
        # run on two lanes.
        monkeypatch.setattr(simulator, "_SPLIT_MIN_AMPLITUDES", 32)
        monkeypatch.setattr(simulator, "_LANE_MIN_AMPLITUDES", 1)
        monkeypatch.setattr(simulator, "_cpus", lambda: 2)
        g = gen_erdos_renyi(5, 0.6, 1)
        x = np.array([0.3, 0.9, 0.5, 0.2])
        rows = probe_rows(x, *GENERAL_BOUNDS.box(2)).reshape(-1, 2, 2)
        ev = ExpectationEvaluator(g)
        ev.expectation(Parameters.from_array(x))
        expected = {
            y.tobytes(): ExpectationEvaluator(g).expectation(Parameters(tuple(y[0]), tuple(y[1])))
            for y in rows
        }
        state = plus_state(6)[None, :32]
        _mixer_kernel(state, [0.3], 6, np.empty_like(state))
        six, phi = gen_erdos_renyi(6, 0.5, 2), Parameters(gammas=(0.7, 0.1), betas=(0.2, 0.9))
        value = ExpectationEvaluator(six).expectation(phi)
        assert simulator._helper is not None
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                advance_probes(ev, rows)
                _mixer_kernel(state, [0.3], 6, np.empty_like(state))
                same = ExpectationEvaluator(six).expectation(phi) == value
                code = 0 if ev._kept == expected and same else 2
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
            pytest.fail("the forked child hung in a split layer or on two lanes")
        assert os.waitstatus_to_exitcode(status) == 0

    def test_concurrent_callers_share_one_helper(self, monkeypatch):
        # More calling threads than cores, switching as often as possible.
        made = []

        class Counting(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counting)
        # One row of 256 amplitudes (n = 9) splits; probe rows of 32 (n = 6),
        # each caller's on its own evaluator, run on two lanes.
        monkeypatch.setattr(simulator, "_SPLIT_MIN_AMPLITUDES", 256)
        monkeypatch.setattr(simulator, "_LANE_MIN_AMPLITUDES", 1)
        monkeypatch.setattr(simulator, "_helper", None)
        rng = np.random.default_rng(53)
        starts = [rng.normal(size=(1, 256)) + 1j * rng.normal(size=(1, 256)) for _ in range(6)]
        g = gen_erdos_renyi(6, 0.6, 8)
        points = [rng.uniform(*GENERAL_BOUNDS.box(2)) for _ in starts]
        probes = [probe_rows(x, *GENERAL_BOUNDS.box(2)).reshape(-1, 2, 2) for x in points]
        expected = []
        for start, x, rows in zip(starts, points, probes):
            one = start.copy()
            with monkeypatch.context() as patch:
                patch.setattr(simulator, "_cpus", lambda: 1)
                for beta in (0.4, 1.1, 2.5):
                    _mixer_kernel(one, [beta], 9, np.empty_like(one))
                ev = ExpectationEvaluator(g)
                ev.expectation(Parameters.from_array(x))
                advance_probes(ev, rows)
            expected.append((one.tobytes(), ev._kept))
        monkeypatch.setattr(simulator, "_cpus", lambda: 2)
        results = [None] * len(starts)

        def caller(i):
            state = starts[i].copy()
            for beta in (0.4, 1.1, 2.5):
                _mixer_kernel(state, [beta], 9, np.empty_like(state))
            ev = ExpectationEvaluator(g)
            ev.expectation(Parameters.from_array(points[i]))
            advance_probes(ev, probes[i])
            results[i] = (state.tobytes(), ev._kept)

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
        monkeypatch.setattr(simulator, "_helper", None)
        threads = threading.active_count()
        with monkeypatch.context() as patch:
            patch.setattr(simulator, "_SPLIT_MIN_AMPLITUDES", 1)
            patch.setattr(simulator, "_cpus", lambda: 1)
            state = plus_state(6)[None, :32]
            _mixer_kernel(state, [0.3], 6, np.empty_like(state))
        assert simulator._helper is None
        assert threading.active_count() == threads
        # Nor does advance_probes: on one CPU at n = 13, and at n = 12, where
        # the row is too small for the CPUs to be asked.
        asked = []
        x = np.array([0.4, 0.3])
        rows = probe_rows(x, *GENERAL_BOUNDS.box(1)).reshape(-1, 2, 1)
        for n, cpus in [(13, 1), (12, 2)]:
            monkeypatch.setattr(simulator, "_cpus", lambda n=n, cpus=cpus: asked.append(n) or cpus)
            ev = ExpectationEvaluator(gen_erdos_renyi(n, 0.3, 1))
            ev.expectation(Parameters.from_array(x))
            advance_probes(ev, rows)
            assert len(ev._kept) == len(rows)
        assert asked == [13]
        assert simulator._helper is None
        assert threading.active_count() == threads


class TestTiledMixer:
    """A row longer than a tile, from n = 17, runs the passes on the low
    qubits one tile at a time; every amplitude must get the bits of the
    passes over the whole row."""

    @pytest.mark.parametrize("n", [17, 18, 20])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_tiles_match_whole_row_passes_bit_for_bit(self, n, cpus, monkeypatch):
        rng = np.random.default_rng(n)
        size = 1 << (n - 1)
        start = rng.normal(size=size) + 1j * rng.normal(size=size)
        monkeypatch.setattr(simulator, "_cpus", lambda: cpus)
        passes, sizes = simulator._passes, []

        def one_pass(view, swapped, c, s):
            np.multiply(view[..., ::-1, :], s, out=swapped)
            view *= c
            view += swapped

        def recorded(views, c, s):
            sizes.extend(view.size for _, _, view, _ in views)
            passes(views, c, s)

        for beta in (0.3, -1.7, 0.0, -0.0):
            # One pass per qubit over the whole row, then qubit n-1 from the
            # row reversed, as the mixer's docstring states it.
            c, s = math.cos(beta), -1j * math.sin(beta)
            expected, work = start.copy(), np.empty_like(start)
            for q in range(n - 1):
                shape = (1, -1, 2, 1 << q)
                one_pass(expected.reshape(shape), work.reshape(shape), c, s)
            np.multiply(expected[::-1], s, out=work)
            expected *= c
            expected += work
            block = start.copy()[None]
            with monkeypatch.context() as patch:
                patch.setattr(simulator, "_passes", recorded)
                _mixer_kernel(block, [beta], n, np.empty_like(block))
            assert block.tobytes() == expected.tobytes()
        # Each tile got the passes of qubits 0..14, and every other pass ran
        # on a whole row or half.
        tile = 1 << simulator._TILE_QUBITS
        assert sizes.count(tile) == 4 * (size // tile) * simulator._TILE_QUBITS
        assert min(x for x in sizes if x != tile) > tile


class TestPassViews:
    """The evaluator builds the views of each mixer pass once per row range
    of its working arrays, and drops them when the arrays grow."""

    @pytest.mark.parametrize("n", [10, 14, 18])
    def test_views_are_dropped_when_the_arrays_grow(self, n):
        # A 1-row stack, a 33-row one, which grows the working arrays below
        # n = 16 (two lanes at n = 14 on 2 CPUs), then a 1-row one again:
        # stale views would mix rows of the old arrays.
        g = gen_random_regular(n, 3, 2)
        p = 8
        lower, upper = GENERAL_BOUNDS.box(p)
        x = np.random.default_rng(n).uniform(lower, upper)
        probes = _probes(x, lower, upper, DEFAULT_GRADIENT_STEP).reshape(-1, 2, p)
        assert len(probes) == 33
        other = probes[5].copy()
        other[0, 0] += 0.5
        ev = ExpectationEvaluator(g)
        for stack in (probes[3:4], probes, other[None]):
            advance_probes(ev, stack)
            for y in stack:
                phi = Parameters(gammas=tuple(y[0]), betas=tuple(y[1]))
                expected = ExpectationEvaluator(g).expectation(phi)
                assert ev.expectation(phi).hex() == expected.hex()
        assert (len(ev._states) > 1) == (n < 16)

    def test_view_lists_beyond_the_bound_are_dropped(self, monkeypatch):
        # Each stack of rows with distinct betas keeps one list per row and
        # per block prefix; with room for two, the next stack starts afresh.
        monkeypatch.setattr(simulator, "_MAX_VIEW_LISTS", 2)
        g = gen_random_regular(10, 3, 2)
        rng = np.random.default_rng(5)
        ev = ExpectationEvaluator(g)
        for _ in range(3):
            before = ev._views
            stack = rng.uniform(0.0, 1.0, (6, 2, 2))
            advance_probes(ev, stack)
            assert len(ev._views) > 2
            assert ev._views is not before
            for y in stack:
                phi = Parameters(gammas=tuple(y[0]), betas=tuple(y[1]))
                expected = ExpectationEvaluator(g).expectation(phi)
                assert ev.expectation(phi).hex() == expected.hex()


class TestWorkArrays:
    """A warm evaluator computes into its own working states and scratch,
    for one point or a block of probes, and `prepare` hands out a new
    array."""

    @pytest.fixture(params=["one thread", "split"])
    def path(self, request, monkeypatch):
        if request.param == "split":
            monkeypatch.setattr(simulator, "_SPLIT_MIN_AMPLITUDES", 1)
            monkeypatch.setattr(simulator, "_cpus", lambda: 2)
        return request.param

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
                angles = np.array((phi.gammas, phi.betas))
                assert ExpectationEvaluator._shared_layers(angles, ev._angles) == shared
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                got.append(ev.expectation(phi).hex())
                assert tracemalloc.get_traced_memory()[1] - before < (1 << 15) * 16
        finally:
            tracemalloc.stop()
        assert got == expected

    def test_a_warm_resumed_call_gathers_without_a_widened_index(self, path, monkeypatch):
        # The phase gather reads the cut index as it is held: no 2^(n-1)
        # intp copy of it per layer. The peak is taken around each gather
        # alone, both halves of a split one included: a split mixer's passes
        # on the helper thread allocate ufunc buffers of up to 128 KiB, but
        # the helper is idle between kernels, as `_in_two` returns only once
        # it has finished.
        g = gen_random_regular(16, 3, 1)
        x = random_phi(np.random.default_rng(59), 3)
        resumed = Parameters(gammas=x.gammas, betas=x.betas[:-1] + (0.4,))
        ev = ExpectationEvaluator(g)
        ev.expectation(x)
        kernel, peaks = simulator._phase_kernel, []
        phase, threads = simulator._phase, []

        def measured(state, cuts, table, out):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            kernel(state, cuts, table, out)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)

        def gathering(state, cuts, table, out):
            threads.append(threading.current_thread())
            phase(state, cuts, table, out)

        with monkeypatch.context() as patch:
            patch.setattr(simulator, "_phase_kernel", measured)
            patch.setattr(simulator, "_phase", gathering)
            tracemalloc.start()
            try:
                value = ev.expectation(resumed)
            finally:
                tracemalloc.stop()
        assert len(peaks) == 1
        assert peaks[0] < (1 << 15) * 8
        # Each gather ran inside the measured kernel, on both threads when split.
        assert len(set(threads)) == len(threads) == (2 if path == "split" else 1)
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

    def test_prepare_computes_no_value(self, path, monkeypatch):
        g = gen_random_regular(16, 3, 2)
        x = random_phi(np.random.default_rng(71), 3)
        nudged = Parameters(gammas=x.gammas, betas=x.betas[:-1] + (0.4,))
        calls = [x, x, nudged, ZERO, x]
        fresh = [ExpectationEvaluator(g).prepare(phi).tobytes() for phi in calls]
        ev, values = ExpectationEvaluator(g), []
        with monkeypatch.context() as patch:
            patch.setattr(ExpectationEvaluator, "_value", lambda *args: values.append(args))
            assert [ev.prepare(phi).tobytes() for phi in calls] == fresh
        assert values == []
        # The states stored along the way are those an expectation stores.
        value = ev.expectation(nudged)
        assert value.hex() == ExpectationEvaluator(g).expectation(nudged).hex()

    def test_writing_into_a_prepared_state_changes_no_later_value(self, path):
        g = gen_random_regular(16, 3, 2)
        x = random_phi(np.random.default_rng(61), 3)
        nudged = Parameters(gammas=x.gammas, betas=x.betas[:-1] + (0.4,))
        fresh = {phi: ExpectationEvaluator(g).prepare(phi).tobytes() for phi in (x, nudged)}
        ev = ExpectationEvaluator(g)
        for phi in (x, x, nudged, x):
            state = ev.prepare(phi)
            assert state.tobytes() == fresh[phi]
            for own in [*ev._states, *ev._scratch, *ev._after]:
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

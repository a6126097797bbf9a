import math

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
from qaoa_maxcut.optimize import DEFAULT_GRADIENT_STEP, Bounds, _fd_gradient, maximize_bounded
from qaoa_maxcut.simulator import (
    ExpectationEvaluator,
    Parameters,
    _mixer_kernel,
    _phase_kernel,
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
    _phase_kernel(out, cut_table(g).astype(np.intp), gamma)
    return out


def mixed(state: np.ndarray, beta: float) -> np.ndarray:
    # The kernel takes a flip-symmetric state, amp(z) = amp(z^), as its low
    # half; the complement of z is 2^n - 1 - z, so the state is a palindrome.
    assert np.array_equal(state, state[::-1]), "mixer input must be flip-symmetric"
    out = state[: state.size // 2].copy()
    _mixer_kernel(out, beta, state.size.bit_length() - 1)
    return np.concatenate((out, out[::-1]))


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

        def counting(state, beta, n):
            calls.append(beta)
            kernel(state, beta, n)

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

        def counting(state, beta, n):
            calls.append(beta)
            kernel(state, beta, n)

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

        def failing_second(state, beta, n):
            calls.append(beta)
            if len(calls) == 2:
                raise MemoryError
            kernel(state, beta, n)

        monkeypatch.setattr(simulator, "_mixer_kernel", failing_second)
        with pytest.raises(MemoryError):
            ev.expectation(Parameters(gammas=(0.9, 0.2, 0.3), betas=(0.4, 0.5, 0.6)))
        monkeypatch.setattr(simulator, "_mixer_kernel", kernel)
        # Shares layer 1 with the call that completed, not with the one that raised.
        phi = Parameters(gammas=(0.1, 0.7, 0.3), betas=(0.4, 0.5, 0.6))
        assert ev.expectation(phi) == ExpectationEvaluator(g).expectation(phi)

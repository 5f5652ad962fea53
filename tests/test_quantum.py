"""Gate construction, Bell algebra, and trace-payoff invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtremble import (
    StrategyParams,
    bell_projectors,
    builtin_game,
    classical_payoff,
    expected_payoff,
    final_state,
    gate_distance,
    initial_state,
    payoff_operators,
    strategy,
    su2,
    su2_angles,
)
from qtremble.quantum import _BELL_KETS, BELL_FORMS, BELL_ORDER, quaternion

TWO_PI = 2.0 * math.pi

C = su2(strategy("C"))
D = su2(strategy("D"))
Q = su2(strategy("Q"))

GAMES = [builtin_game(n) for n in ("PD", "EG", "SH")]


def random_params(rng, dims=3):
    return StrategyParams(
        rng.uniform(-math.pi, math.pi),
        rng.uniform(0, TWO_PI) if dims >= 2 else 0.0,
        rng.uniform(0, TWO_PI) if dims >= 3 else 0.0,
        dims,
    )


def bell_probabilities(pa: StrategyParams, pb: StrategyParams) -> np.ndarray:
    """Closed-form Bell-outcome probabilities, derived by hand from the amplitudes.

    Independent of the matrix pipeline: written directly from expanding
    <psi_xy| (A (x) B) |psi_CC> in half-angle trigonometry.
    """
    ca, sa = math.cos(pa.theta / 2), math.sin(pa.theta / 2)
    cb, sb = math.cos(pb.theta / 2), math.sin(pb.theta / 2)
    u = (pa.alpha + pb.alpha) / 2
    v = (pa.beta + pb.beta) / 2
    w = (pa.alpha - pb.beta) / 2
    z = (pa.beta - pb.alpha) / 2
    amp_cc = ca * cb * math.cos(u) - sa * sb * math.sin(v)
    amp_cd = ca * sb * math.cos(w) + sa * cb * math.sin(z)
    amp_dc = sa * cb * math.cos(z) - ca * sb * math.sin(w)
    amp_dd = sa * sb * math.cos(v) + ca * cb * math.sin(u)
    return np.array([amp_cc, amp_cd, amp_dc, amp_dd]) ** 2


class TestStrategyParams:
    def test_theta_wraps_to_symmetric_interval(self):
        assert StrategyParams(3 * math.pi).theta == pytest.approx(-math.pi)
        assert StrategyParams(math.pi).theta == math.pi
        assert StrategyParams(-math.pi).theta == -math.pi

    def test_phases_wrap_to_positive_interval(self):
        p = StrategyParams(0.0, -0.1, TWO_PI + 0.3)
        assert p.alpha == pytest.approx(TWO_PI - 0.1)
        assert p.beta == pytest.approx(0.3)
        assert StrategyParams(0.0, TWO_PI, 0.0).alpha == 0.0

    @given(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0), st.floats(-50.0, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_canonicalization_keeps_the_gate_up_to_sign(self, theta, alpha, beta):
        params = StrategyParams(theta, alpha, beta)
        assert 0.0 <= params.alpha < TWO_PI and 0.0 <= params.beta < TWO_PI
        assert -math.pi <= params.theta <= math.pi
        assert gate_distance(su2(params), su2_angles(theta, alpha, beta)) <= 1e-12

    def test_one_wrap_negates_theta(self):
        # U(theta, alpha + 2*pi, beta) = -U(-theta, alpha, beta); two wraps cancel.
        assert StrategyParams(0.5, -1.0, 0.0).theta == -0.5
        assert StrategyParams(0.5, 0.0, TWO_PI + 1.0).theta == -0.5
        assert StrategyParams(0.5, -1.0, TWO_PI + 1.0).theta == 0.5
        assert StrategyParams(0.5, 4 * math.pi + 1.0, 0.0).theta == 0.5

    def test_inactive_dims_must_be_zero(self):
        with pytest.raises(ValueError):
            StrategyParams(0.0, 1.0, 0.0, dims=1)
        with pytest.raises(ValueError):
            StrategyParams(0.0, 0.0, 1.0, dims=2)
        with pytest.raises(ValueError):
            StrategyParams(0.0, dims=4)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_non_finite_angles_rejected(self, bad, axis):
        angles = [0.0, 0.0, 0.0]
        angles[axis] = bad
        with pytest.raises(ValueError, match="finite"):
            StrategyParams(*angles)

    @given(
        st.floats(-50, 50),
        st.floats(-50, 50),
        st.floats(-50, 50),
    )
    @settings(deadline=None)
    def test_canonicalization_is_idempotent(self, theta, alpha, beta):
        p = StrategyParams(theta, alpha, beta)
        assert -math.pi <= p.theta <= math.pi
        assert 0.0 <= p.alpha < TWO_PI
        assert 0.0 <= p.beta < TWO_PI
        again = StrategyParams(p.theta, p.alpha, p.beta)
        assert again == p

    def test_named_strategies(self):
        assert strategy("D", 1).theta == math.pi
        assert strategy("Q").alpha == math.pi
        with pytest.raises(ValueError):
            strategy("Q", 1)  # alpha = pi is inactive at dims=1
        with pytest.raises(ValueError):
            strategy("X")


class TestSu2:
    def test_basic_gates(self):
        assert np.allclose(C, np.eye(2), atol=1e-12)
        assert np.allclose(D, np.array([[0, 1], [-1, 0]]), atol=1e-12)
        assert np.allclose(Q, np.diag([1j, -1j]), atol=1e-12)

    def test_unitarity_and_determinant_for_random_params(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            gate = su2(random_params(rng))
            assert np.abs(gate.conj().T @ gate - np.eye(2)).max() <= 1e-12
            assert abs(np.linalg.det(gate) - 1.0) <= 1e-12

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(11)
        thetas = rng.uniform(-math.pi, math.pi, 17)
        alphas = rng.uniform(0, TWO_PI, 17)
        betas = rng.uniform(0, TWO_PI, 17)
        batch = su2_angles(thetas, alphas, betas)
        for k in range(17):
            single = su2(StrategyParams(thetas[k], alphas[k], betas[k]))
            assert np.allclose(batch[k], single, atol=0)

    def test_beta_is_gauge_at_theta_zero(self):
        left = su2(StrategyParams(0.0, math.pi, 0.7))
        right = su2(StrategyParams(0.0, math.pi, 0.0))
        assert gate_distance(left, right) <= 1e-12


class TestBellBasis:
    def test_projectors_idempotent_and_rank_one(self):
        for proj in bell_projectors():
            assert np.allclose(proj @ proj, proj, atol=1e-12)
            assert np.allclose(proj, proj.conj().T, atol=1e-12)
            assert np.trace(proj).real == pytest.approx(1.0, abs=1e-12)

    def test_projectors_mutually_orthogonal(self):
        projs = bell_projectors()
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert np.abs(projs[i] @ projs[j]).max() <= 1e-12

    def test_projectors_complete(self):
        assert np.allclose(sum(bell_projectors()), np.eye(4), atol=1e-12)

    def test_initial_state(self):
        rho = initial_state()
        assert np.allclose(np.diag(rho), [0.5, 0, 0, 0.5], atol=1e-12)
        assert rho[0, 3] == pytest.approx(-0.5j, abs=1e-12)
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)


_any_angle = st.floats(-4 * math.pi, 4 * math.pi)


class TestQuaternionForm:
    def test_forms_are_signed_permutations(self):
        for r in BELL_FORMS:
            assert set(np.abs(r).ravel()) == {0.0, 1.0}
            assert (np.abs(r).sum(axis=0) == 1).all() and (np.abs(r).sum(axis=1) == 1).all()

    @given(st.tuples(_any_angle, _any_angle, _any_angle),
           st.tuples(_any_angle, _any_angle, _any_angle))
    @settings(deadline=None, max_examples=200)
    def test_bell_amplitudes_are_quaternion_forms(self, angles_a, angles_b):
        # <k|(U_A (x) U_B)|psi_0> = p^T R_k q, with sign +1 for every k under these kets.
        pa, pb = StrategyParams(*angles_a), StrategyParams(*angles_b)
        state = np.kron(su2(pa), su2(pb)) @ _BELL_KETS["CC"]
        p, q = np.array(quaternion(pa)), np.array(quaternion(pb))
        for k, r in zip(BELL_ORDER, BELL_FORMS):
            assert abs(_BELL_KETS[k].conj() @ state - p @ r @ q) <= 1e-14

    @pytest.mark.parametrize("game", GAMES, ids=lambda g: g.name)
    def test_payoff_is_sum_of_squared_forms(self, game):
        rng = np.random.default_rng(41)
        for _ in range(50):
            pa, pb = random_params(rng), random_params(rng)
            p, q = np.array(quaternion(pa)), np.array(quaternion(pb))
            probs = np.array([(p @ r @ q) ** 2 for r in BELL_FORMS])
            got = (game.payoff_a.ravel() @ probs, game.payoff_b.ravel() @ probs)
            assert got == pytest.approx(expected_payoff(game, su2(pa), su2(pb)), abs=1e-12)


class TestFinalState:
    def test_identity_play_returns_initial_state(self):
        assert np.allclose(final_state(C, C), initial_state(), atol=1e-12)

    def test_joint_defection_lands_on_dd_projector(self):
        # (D (x) D)|psi_CC> = (|11> + i|00>)/sqrt(2), worked out by hand
        assert np.allclose(final_state(D, D), bell_projectors()[3], atol=1e-12)

    def test_joint_q_returns_initial_projector(self):
        # Q (x) Q flips only the global sign of |psi_CC>
        assert np.allclose(final_state(Q, Q), bell_projectors()[0], atol=1e-12)

    def test_rejects_non_unitary_input(self):
        with pytest.raises(ValueError):
            final_state(1.001 * np.eye(2), C)
        with pytest.raises(ValueError):
            final_state(C, np.ones((2, 2)))

    def test_outputs_are_valid_density_matrices(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            rho = final_state(su2(random_params(rng)), su2(random_params(rng)))
            assert np.abs(rho - rho.conj().T).max() <= 1e-12
            assert abs(np.trace(rho) - 1.0) <= 1e-12
            assert np.linalg.eigvalsh(rho).min() >= -1e-10
            assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)


class TestExpectedPayoff:
    @pytest.mark.parametrize("game", GAMES, ids=lambda g: g.name)
    def test_corners_reproduce_bimatrix(self, game):
        gates = {"C": C, "D": D}
        for i, row in enumerate("CD"):
            for j, col in enumerate("CD"):
                pay_a, pay_b = expected_payoff(game, gates[row], gates[col])
                assert pay_a == pytest.approx(game.payoff_a[i, j], abs=1e-12)
                assert pay_b == pytest.approx(game.payoff_b[i, j], abs=1e-12)

    def test_eg_defect_vs_q(self):
        # (D (x) Q)|psi_CC> = |psi_CD>, so payoffs are the CD entries (2, 0)
        eg = builtin_game("EG")
        assert expected_payoff(eg, D, Q) == pytest.approx((2.0, 0.0), abs=1e-12)

    def test_global_phase_invariance(self):
        game = builtin_game("PD")
        rng = np.random.default_rng(3)
        for _ in range(20):
            ga, gb = su2(random_params(rng)), su2(random_params(rng))
            base = expected_payoff(game, ga, gb)
            shifted = expected_payoff(game, np.exp(0.7j) * ga, gb)
            assert shifted[0] == pytest.approx(base[0], abs=1e-12)
            assert shifted[1] == pytest.approx(base[1], abs=1e-12)

    @pytest.mark.parametrize("game", GAMES, ids=lambda g: g.name)
    def test_payoffs_stay_inside_bimatrix_range(self, game):
        rng = np.random.default_rng(5)
        lo_a, hi_a = game.payoff_a.min(), game.payoff_a.max()
        lo_b, hi_b = game.payoff_b.min(), game.payoff_b.max()
        for _ in range(1000):
            pay_a, pay_b = expected_payoff(game, su2(random_params(rng)), su2(random_params(rng)))
            assert lo_a - 1e-12 <= pay_a <= hi_a + 1e-12
            assert lo_b - 1e-12 <= pay_b <= hi_b + 1e-12

    def test_theta_sector_reproduces_classical_mixing(self):
        rng = np.random.default_rng(9)
        for game in GAMES:
            for _ in range(50):
                ta, tb = rng.uniform(-math.pi, math.pi, 2)
                quantum = expected_payoff(game, su2_angles(ta, 0, 0), su2_angles(tb, 0, 0))
                classical = classical_payoff(game, math.cos(ta / 2) ** 2, math.cos(tb / 2) ** 2)
                assert quantum[0] == pytest.approx(classical[0], abs=1e-12)
                assert quantum[1] == pytest.approx(classical[1], abs=1e-12)

    def test_matches_closed_form_probability_oracle(self):
        rng = np.random.default_rng(13)
        for game in GAMES:
            for _ in range(50):
                pa, pb = random_params(rng), random_params(rng)
                probs = bell_probabilities(pa, pb)
                assert probs.sum() == pytest.approx(1.0, abs=1e-12)
                want_a = float(probs @ game.payoff_a.reshape(-1))
                want_b = float(probs @ game.payoff_b.reshape(-1))
                got_a, got_b = expected_payoff(game, su2(pa), su2(pb))
                assert got_a == pytest.approx(want_a, abs=1e-12)
                assert got_b == pytest.approx(want_b, abs=1e-12)


class TestPayoffOperators:
    @pytest.mark.parametrize("game", GAMES, ids=lambda g: g.name)
    def test_hermitian_with_bimatrix_spectrum(self, game):
        for op, table in zip(payoff_operators(game), (game.payoff_a, game.payoff_b)):
            assert np.abs(op - op.conj().T).max() <= 1e-12
            eigs = np.sort(np.linalg.eigvalsh(op))
            assert np.allclose(eigs, np.sort(table.reshape(-1)), atol=1e-10)


class TestGateDistance:
    def test_zero_up_to_global_phase(self):
        assert gate_distance(Q, np.exp(1.2j) * Q) <= 1e-12

    def test_separates_named_strategies(self):
        assert gate_distance(C, D) >= 1.0
        assert gate_distance(C, Q) >= 0.5
        assert gate_distance(D, Q) >= 0.5

    def test_small_parameter_motion_gives_small_distance(self):
        near = su2(StrategyParams(0.02, math.pi + 0.03, 0.0))
        assert gate_distance(near, Q) <= 0.05

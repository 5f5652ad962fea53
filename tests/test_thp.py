"""Best responses, equilibrium verdicts, kappa scans, threshold bisection."""

import math

import numpy as np
import pytest

from qtremble import (
    GameSpec,
    NoBracketError,
    StrategyDistribution,
    StrategyParams,
    TrembleSpec,
    best_response,
    builtin_game,
    check_equilibrium,
    classical_thp_check,
    gate_distance,
    strategy,
    su2,
    thp_scan,
    threshold_search,
)
from qtremble.integration import payoff_forms
from qtremble.quantum import form_value, quaternions

PD = builtin_game("PD")
EG = builtin_game("EG")
SH = builtin_game("SH")


def pure(name, dims=2):
    return StrategyDistribution.from_pure(strategy(name, dims))


def trembled(name, kappa, dims=2):
    return StrategyDistribution.from_tremble(TrembleSpec(strategy(name, dims), kappa))


def classical_tremble(name, eps):
    other = "D" if name == "C" else "C"
    return StrategyDistribution.from_mixture([
        (1.0 - eps, pure(name, 1)),
        (eps, pure(other, 1)),
    ])


class TestBestResponse:
    def test_eg_bob_answers_classical_tremble_with_c(self):
        br = best_response(EG, "B", classical_tremble("C", 0.01), dims=1)
        assert gate_distance(su2(br.params), su2(strategy("C"))) <= 0.05
        assert br.value == pytest.approx(1.01, abs=1e-9)

    def test_pd_alice_answers_pure_q_with_q(self):
        br = best_response(PD, "A", pure("Q"), dims=2)
        assert gate_distance(su2(br.params), su2(strategy("Q"))) <= 0.05
        assert br.value == pytest.approx(3.0, abs=1e-9)
        assert br.runner_up_gap > 1e-3

    def test_sh_bob_prefers_q_below_threshold(self):
        br = best_response(SH, "B", trembled("C", 1.0), dims=2)
        assert gate_distance(su2(br.params), su2(strategy("Q"))) <= 0.05
        assert gate_distance(su2(br.params), su2(strategy("C"))) > 0.5

    def test_sh_bob_returns_to_c_above_threshold(self):
        br = best_response(SH, "B", trembled("C", 1.75), dims=2)
        assert gate_distance(su2(br.params), su2(strategy("C"))) <= 0.05

    def test_value_dominates_random_probes(self):
        opponent = trembled("D", 2.0)
        br = best_response(EG, "B", opponent, dims=2)
        _, form = payoff_forms(EG, "B", opponent)
        rng = np.random.default_rng(23)
        angles = np.stack([rng.uniform(-math.pi, math.pi, 1000),
                           rng.uniform(0, 2 * math.pi, 1000),
                           np.zeros(1000)], axis=1)
        probes = form_value(form, quaternions(angles))
        assert br.value >= probes.max() - 1e-9

    def test_refinement_beats_grid_resolution(self):
        # shift the optimum off-grid by trembling around a generic center
        center = StrategyParams(0.15, math.pi - 0.2, 0.0, 2)
        opponent = StrategyDistribution.from_tremble(TrembleSpec(center, 40.0))
        coarse = best_response(PD, "A", opponent, dims=2, refine=False, grid_nodes=16)
        fine = best_response(PD, "A", opponent, dims=2, refine=True, grid_nodes=16)
        assert fine.value >= coarse.value

    def test_dims_validation(self):
        with pytest.raises(ValueError):
            best_response(PD, "A", pure("Q"), dims=5)
        with pytest.raises(ValueError):
            best_response(PD, "X", pure("Q"), dims=2)


class TestCheckEquilibrium:
    def test_eg_profiles(self):
        d = strategy("D", 2)
        c = strategy("C", 2)
        assert check_equilibrium(EG, (d, d), dims=2) == "weak"
        assert check_equilibrium(EG, (c, c), dims=2) == "not-equilibrium"

    def test_pd_quantum_equilibrium_is_strict(self):
        q = strategy("Q", 2)
        assert check_equilibrium(PD, (q, q), dims=2) == "strict"

    def test_sh_profiles(self):
        c = strategy("C", 2)
        d = strategy("D", 2)
        q = strategy("Q", 2)
        assert check_equilibrium(SH, (c, c), dims=2) == "strict"
        assert check_equilibrium(SH, (q, q), dims=2) == "strict"
        assert check_equilibrium(SH, (d, d), dims=2) == "not-equilibrium"

    def test_pd_classical_equilibrium_dissolves_in_quantum_space(self):
        d = strategy("D", 2)
        assert check_equilibrium(PD, (d, d), dims=2) == "not-equilibrium"


class TestThpScan:
    def test_pd_q_profile_holds_for_two_parameter_trembles(self):
        q = strategy("Q", 2)
        verdicts = thp_scan(PD, (q, q), 2, [0.5, 1.0, 5.0])
        assert all(v.holds for v in verdicts)
        assert all(v.distance <= 0.05 for v in verdicts)

    def test_pd_q_profile_survives_three_parameter_trembles(self):
        q = strategy("Q", 3)
        verdicts = thp_scan(PD, (q, q), 3, [0.5, 1.0, 5.0], response_dims=2)
        assert all(v.holds for v in verdicts)

    def test_eg_d_profile_fails_two_parameter_trembles(self):
        d = strategy("D", 2)
        verdicts = thp_scan(EG, (d, d), 2, [1.0, 5.0])
        assert all(not v.holds for v in verdicts)
        assert all(v.margin < -1e-3 for v in verdicts)
        # analytic margin: deviating to C beats D by (1 - R^2)/4
        br = best_response(EG, "B", trembled("D", 1.0), dims=2)
        assert gate_distance(su2(br.params), su2(strategy("C"))) <= 0.05

    def test_eg_d_profile_survives_three_parameter_trembles_at_unit_kappa(self):
        d = strategy("D", 3)
        (verdict,) = thp_scan(EG, (d, d), 3, [1.0], response_dims=2)
        assert verdict.holds
        assert verdict.margin >= -1e-9

    def test_eg_three_parameter_tremble_scan_set(self):
        # Against a 2-parameter responder the C/D ridge stays exactly tied, so
        # (D,D) survives the whole scan; a 3-parameter responder finds the
        # anti-diagonal gate U(pi, ., pi) once the tremble is diffuse enough
        # (resultant length below 1/3, i.e. kappa below ~0.7).
        d = strategy("D", 3)
        flags_d2 = [v.holds for v in thp_scan(EG, (d, d), 3, [0.5, 1.0, 5.0], response_dims=2)]
        assert flags_d2 == [True, True, True]
        verdicts_d3 = thp_scan(EG, (d, d), 3, [0.5, 1.0, 5.0], response_dims=3)
        assert [v.holds for v in verdicts_d3] == [False, True, True]
        assert verdicts_d3[0].margin == pytest.approx(-0.033, abs=0.002)

    def test_verdict_fields_satisfy_the_holds_definition(self):
        batches = [
            thp_scan(PD, (strategy("Q", 2),) * 2, 2, [1.0, 5.0]),
            thp_scan(EG, (strategy("D", 2),) * 2, 2, [1.0, 5.0]),
            thp_scan(SH, (strategy("C", 2),) * 2, 2, [1.0, 5.0]),
        ]
        for verdicts in batches:
            for v in verdicts:
                assert v.holds == (v.distance <= 0.05 or v.margin >= -1e-9)

    def test_both_sides_flag_matches_single_side_on_symmetric_profile(self):
        q = strategy("Q", 2)
        one = thp_scan(PD, (q, q), 2, [1.0])[0]
        both = thp_scan(PD, (q, q), 2, [1.0], both_sides=True)[0]
        assert one.holds == both.holds
        assert both.margin == pytest.approx(one.margin, abs=1e-12)

    def test_kappa_list_validation(self):
        q = strategy("Q", 2)
        with pytest.raises(ValueError):
            thp_scan(PD, (q, q), 2, [1.0, 0.5])
        with pytest.raises(ValueError):
            thp_scan(PD, (q, q), 2, [0.0, 1.0])

    def test_large_kappa_matches_pure_verdicts(self):
        # trembles are negligible at kappa = 200, so the scan verdict agrees
        # with the pure-opponent classification wherever that verdict is not
        # knife-edge (strict maxima and clear failures)
        cases = [
            (PD, strategy("Q", 2), True),
            (EG, strategy("C", 2), False),
            (SH, strategy("D", 2), False),
        ]
        for game, point, expected in cases:
            (verdict,) = thp_scan(game, (point, point), 2, [200.0])
            assert verdict.holds == expected
            pure_verdict = check_equilibrium(game, (point, point), dims=2)
            assert (pure_verdict != "not-equilibrium") == expected

    def test_weak_equilibrium_stays_imperfect_at_any_concentration(self):
        # EG (D,D) is weak against a pure opponent, yet deviating to C beats D
        # by (1 - R^2)/4 ~ 1/(4*kappa) against any finite tremble, so the scan
        # keeps failing no matter how sharp the tremble gets
        d = strategy("D", 2)
        assert check_equilibrium(EG, (d, d), dims=2) == "weak"
        (verdict,) = thp_scan(EG, (d, d), 2, [200.0])
        assert not verdict.holds
        assert verdict.margin == pytest.approx(-1.25e-3, rel=0.05)

    def test_payoff_shift_leaves_argmax_and_shifts_value(self):
        shifted = GameSpec("EG+10", EG.payoff_a, EG.payoff_b + 10.0)
        opponent = trembled("D", 1.0)
        base = best_response(EG, "B", opponent, dims=2)
        moved = best_response(shifted, "B", opponent, dims=2)
        assert gate_distance(su2(base.params), su2(moved.params)) <= 1e-6
        assert moved.value == pytest.approx(base.value + 10.0, abs=1e-9)

    def test_classical_embedding(self):
        # one-parameter trembles at high concentration behave like the
        # epsilon-mixture test: (C,C) perfect, (D,D) not
        c = strategy("C", 1)
        d = strategy("D", 1)
        (cc,) = thp_scan(EG, (c, c), 1, [50.0], response_dims=1)
        (dd,) = thp_scan(EG, (d, d), 1, [50.0], response_dims=1)
        assert cc.holds == classical_thp_check(EG, ("C", "C"), 0.01) == True
        assert dd.holds == classical_thp_check(EG, ("D", "D"), 0.01) == False


class TestThresholdSearch:
    def test_sh_two_parameter_threshold(self):
        c = strategy("C", 2)
        result = threshold_search(SH, (c, c), 2, 1.0, 5.0, tol=0.01)
        assert not result.holds_lo and result.holds_hi
        assert 1.5 < result.kappa_star <= 1.75
        assert result.kappa_hi - result.kappa_lo <= 0.01

    def test_sh_three_parameter_threshold(self):
        c = strategy("C", 3)
        result = threshold_search(SH, (c, c), 3, 0.5, 5.0, tol=0.01, response_dims=2)
        assert 1.0 < result.kappa_star <= 1.5

    def test_pd_has_no_bracket(self):
        q = strategy("Q", 3)
        with pytest.raises(NoBracketError):
            threshold_search(PD, (q, q), 3, 0.5, 5.0, response_dims=2)

    def test_argument_validation(self):
        c = strategy("C", 2)
        with pytest.raises(ValueError):
            threshold_search(SH, (c, c), 2, 5.0, 1.0)
        with pytest.raises(ValueError):
            threshold_search(SH, (c, c), 2, 1.0, 5.0, tol=-0.1)

    def test_sh_verdict_is_monotone_on_grid(self):
        c = strategy("C", 2)
        verdicts = thp_scan(SH, (c, c), 2, [1.0, 1.25, 1.5, 1.75, 2.0, 5.0])
        flags = [v.holds for v in verdicts]
        first_true = flags.index(True)
        assert all(flags[first_true:])
        assert not any(flags[:first_true])


class TestClassicalThp:
    def test_eg(self):
        assert classical_thp_check(EG, ("C", "C"), 0.01) is True
        assert classical_thp_check(EG, ("D", "D"), 0.01) is False

    def test_sh_both_equilibria_are_perfect(self):
        assert classical_thp_check(SH, ("C", "C"), 0.01) is True
        assert classical_thp_check(SH, ("D", "D"), 0.01) is True

    def test_pd_dominant_profile(self):
        assert classical_thp_check(PD, ("D", "D"), 0.01) is True
        assert classical_thp_check(PD, ("C", "C"), 0.01) is False

    def test_epsilon_bounds(self):
        with pytest.raises(ValueError):
            classical_thp_check(EG, ("C", "C"), 0.0)
        with pytest.raises(ValueError):
            classical_thp_check(EG, ("C", "C"), 0.6)
        with pytest.raises(ValueError):
            classical_thp_check(EG, ("C", "X"), 0.01)


class TestSearchGridValidation:
    @pytest.mark.parametrize("nodes", [0, -3, 1, 7])
    def test_too_few_search_nodes(self, nodes):
        with pytest.raises(ValueError, match="at least 8 search nodes"):
            best_response(PD, "A", pure("Q"), dims=2, grid_nodes=nodes)

    @pytest.mark.parametrize("dims, nodes", [(1, 2**20 + 1), (2, 1025), (3, 102)])
    def test_oversized_search_mesh(self, dims, nodes):
        c = strategy("C", 3)
        with pytest.raises(ValueError, match="search nodes exceed"):
            thp_scan(SH, (c, c), 2, [1.0], response_dims=dims, grid_nodes=nodes)

    def test_nan_tol(self):
        c = strategy("C", 2)
        with pytest.raises(ValueError, match="tol"):
            threshold_search(SH, (c, c), 2, 1.0, 5.0, tol=float("nan"))

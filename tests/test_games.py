"""Game tables, classical analysis, and payoff landscapes."""

import json
import math

import numpy as np
import pytest

from qtremble import (
    GameSpec,
    StrategyDistribution,
    StrategyParams,
    Surface,
    TrembleSpec,
    builtin_game,
    classical_equilibria,
    classical_payoff,
    load_game,
    expected_payoff,
    payoff_surface,
    strategy,
    su2,
    su2_angles,
)
from qtremble.games import game_from_dict, game_to_dict, surface_axes

PD = builtin_game("PD")
EG = builtin_game("EG")
SH = builtin_game("SH")


class TestGameSpec:
    def test_builtin_tables(self):
        assert np.array_equal(PD.payoff_a, [[3, 0], [5, 1]])
        assert np.array_equal(PD.payoff_b, [[3, 5], [0, 1]])
        assert np.array_equal(EG.payoff_a, [[1, 2], [0, 2]])
        assert np.array_equal(EG.payoff_b, [[1, 0], [2, 2]])
        assert np.array_equal(SH.payoff_a, [[10, 0], [8, 7]])
        assert np.array_equal(SH.payoff_b, [[10, 8], [0, 7]])

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin_game("chicken")

    def test_case_insensitive(self):
        assert builtin_game("pd").name == "PD"

    def test_symmetry_flags(self):
        assert PD.is_symmetric and EG.is_symmetric and SH.is_symmetric
        lopsided = GameSpec("X", [[1, 2], [3, 4]], [[0, 0], [0, 0]])
        assert not lopsided.is_symmetric

    def test_validation(self):
        with pytest.raises(ValueError):
            GameSpec("bad", [[1, 2]], [[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            GameSpec("bad", [[1, math.inf], [0, 0]], [[0, 0], [0, 0]])

    def test_json_round_trip(self, tmp_path):
        doc = game_to_dict(SH)
        again = game_from_dict(json.loads(json.dumps(doc)))
        assert again.name == "SH"
        assert np.array_equal(again.payoff_a, SH.payoff_a)

        path = tmp_path / "game.json"
        path.write_text(json.dumps(doc))
        assert np.array_equal(load_game(path).payoff_b, SH.payoff_b)

    def test_missing_key(self):
        with pytest.raises(ValueError):
            game_from_dict({"name": "x", "a": [[1, 2], [3, 4]]})

    @pytest.mark.parametrize("doc", [
        [1, 2],
        "PD",
        {"name": "x", "a": {"C": 1}, "b": [[1, 2], [3, 4]]},
        {"name": "x", "a": [[1, 2], [3, 4]], "b": [[None, 2], [3, 4]]},
        # Sums of payoffs this large overflow to inf and nan in the answers.
        {"name": "x", "a": [[1e301, 2], [3, 4]], "b": [[1, 2], [3, -1e308]]},
    ], ids=["list", "string", "object-payoffs", "null-payoff", "huge-payoff"])
    def test_malformed_documents_are_value_errors(self, doc):
        with pytest.raises(ValueError):
            game_from_dict(doc)


class TestClassicalPayoff:
    def test_pure_corner(self):
        for game in (PD, EG, SH):
            assert classical_payoff(game, 1.0, 1.0) == (game.payoff_a[0, 0], game.payoff_b[0, 0])

    def test_eg_tremble_line(self):
        eps = 0.01
        pay_a, pay_b = classical_payoff(EG, 1.0 - eps, 1.0)
        assert pay_b == pytest.approx(1.0 + eps, abs=1e-15)

    def test_even_mixture_pd(self):
        assert classical_payoff(PD, 0.5, 0.5) == pytest.approx((9 / 4, 9 / 4), abs=1e-15)

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            classical_payoff(PD, -0.1, 0.5)
        with pytest.raises(ValueError):
            classical_payoff(PD, 0.5, 1.1)


def brute_force_equilibria(game):
    """All-deviation inequality check written independently of the library."""
    out = []
    for i in range(2):
        for j in range(2):
            a_dev = game.payoff_a[1 - i, j] - game.payoff_a[i, j]
            b_dev = game.payoff_b[i, 1 - j] - game.payoff_b[i, j]
            if a_dev <= 1e-9 and b_dev <= 1e-9:
                weak = a_dev >= -1e-9 or b_dev >= -1e-9
                out.append((("CD"[i], "CD"[j]), "weak" if weak else "strict"))
    return out


class TestClassicalEquilibria:
    def test_eg(self):
        assert classical_equilibria(EG) == [(("C", "C"), "strict"), (("D", "D"), "weak")]

    def test_pd(self):
        assert classical_equilibria(PD) == [(("D", "D"), "strict")]

    def test_sh(self):
        assert classical_equilibria(SH) == [(("C", "C"), "strict"), (("D", "D"), "strict")]

    @pytest.mark.parametrize("game", [PD, EG, SH], ids=lambda g: g.name)
    def test_agrees_with_brute_force(self, game):
        assert classical_equilibria(game) == brute_force_equilibria(game)

    def test_random_games_agree_with_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            game = GameSpec("rnd", rng.integers(0, 4, (2, 2)), rng.integers(0, 4, (2, 2)))
            assert classical_equilibria(game) == brute_force_equilibria(game)


class TestPayoffSurface:
    def test_shape_and_axes(self):
        surf = payoff_surface(PD, "A", 2, StrategyDistribution.from_pure(strategy("Q", 2)),
                              grid_nodes=33)
        assert surf.values_a.shape == (33, 33)
        assert [name for name, _ in surf.axes] == ["theta", "alpha"]
        theta = surf.axes[0][1]
        assert theta[0] == -math.pi and theta[-1] == math.pi

    def test_pd_alice_vs_pure_q_peaks_at_q(self):
        surf = payoff_surface(PD, "A", 2, StrategyDistribution.from_pure(strategy("Q", 2)),
                              grid_nodes=65)
        idx = np.unravel_index(np.argmax(surf.values_a), surf.values_a.shape)
        assert surf.axes[0][1][idx[0]] == pytest.approx(0.0, abs=1e-12)
        assert surf.axes[1][1][idx[1]] == pytest.approx(math.pi, abs=1e-12)
        assert surf.values_a[idx] == pytest.approx(3.0, abs=1e-9)

    def test_eg_bob_vs_classically_trembled_c_peaks_at_theta_zero(self):
        mix = StrategyDistribution.from_mixture([
            (0.99, StrategyDistribution.from_pure(strategy("C", 1))),
            (0.01, StrategyDistribution.from_pure(strategy("D", 1))),
        ])
        surf = payoff_surface(EG, "B", 1, mix, grid_nodes=65)
        idx = int(np.argmax(surf.values_b))
        assert surf.axes[0][1][idx] == pytest.approx(0.0, abs=1e-12)

    def test_constant_game_is_flat(self):
        flat = GameSpec("flat", np.ones((2, 2)), np.ones((2, 2)))
        opp = StrategyDistribution.from_tremble(TrembleSpec(strategy("C", 2), 1.0))
        surf = payoff_surface(flat, "A", 2, opp, grid_nodes=17)
        assert np.abs(surf.values_a - 1.0).max() <= 1e-12
        assert np.abs(surf.values_b - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("game", [PD, SH], ids=lambda g: g.name)
    def test_symmetric_game_surfaces_mirror(self, game):
        fixed = StrategyDistribution.from_tremble(TrembleSpec(strategy("Q", 2), 2.0))
        alice = payoff_surface(game, "A", 2, fixed, grid_nodes=17)
        bob = payoff_surface(game, "B", 2, fixed, grid_nodes=17)
        assert np.abs(alice.values_a - bob.values_b).max() <= 1e-10
        assert np.abs(alice.values_b - bob.values_a).max() <= 1e-10

    def test_theta_axis_matches_classical_mixing(self):
        surf = payoff_surface(EG, "B", 1, StrategyDistribution.from_pure(strategy("C", 1)),
                              grid_nodes=33)
        for theta, got in zip(surf.axes[0][1], surf.values_b):
            want = classical_payoff(EG, 1.0, math.cos(theta / 2) ** 2)[1]
            assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("varying", ["A", "B"])
    def test_rows_match_gate_payoffs_at_raw_angles(self, varying):
        # alpha = 2*pi rows keep their own gate -Z U Z instead of wrapping to alpha = 0.
        fixed = StrategyParams(0.9, 2.2, 4.0)
        surf = payoff_surface(SH, varying, 2, StrategyDistribution.from_pure(fixed),
                              grid_nodes=9)
        for i, theta in enumerate(surf.axes[0][1]):
            for j, alpha in enumerate(surf.axes[1][1]):
                gates = (su2_angles(theta, alpha, 0.0), su2(fixed))
                want = expected_payoff(SH, *(gates if varying == "A" else gates[::-1]))
                got = (surf.values_a[i, j], surf.values_b[i, j])
                assert got == pytest.approx(want, abs=1e-12)
        # ... which pays differently from the alpha = 0 rows here.
        assert np.abs(surf.values_a[:, -1] - surf.values_a[:, 0]).max() > 0.1

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            payoff_surface(PD, "A", 4, StrategyDistribution.from_pure(strategy("C")))

    def test_surface_shape_validation(self):
        with pytest.raises(ValueError):
            Surface(
                axes=(("theta", np.zeros(3)),),
                values_a=np.zeros(4),
                values_b=np.zeros(3),
            )


class TestSurfaceAxes:
    def test_mesh_cap(self):
        assert len(surface_axes(2, 1024)[0][1]) == 1024
        assert len(surface_axes(3, 101)[2][1]) == 101
        with pytest.raises(ValueError, match="plot nodes"):
            surface_axes(2, 1025)
        with pytest.raises(ValueError, match="plot nodes"):
            surface_axes(3, 102)

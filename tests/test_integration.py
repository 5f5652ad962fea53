"""Quadrature vs Monte Carlo vs direct summation for smeared payoffs."""

import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtremble import (
    GameSpec,
    GridResolutionError,
    QuadratureGrid,
    StrategyDistribution,
    StrategyParams,
    TrembleSpec,
    bessel_i,
    builtin_game,
    default_grid,
    discrete_mixture_payoff,
    expected_payoff,
    smeared_payoff,
    smeared_payoff_direct,
    smeared_payoff_mc,
    strategy,
    su2,
    su2_angles,
    thp_scan,
)
from qtremble.distributions import _MOMENT_SERIES_KAPPA, bessel_i_scaled, vm_moments
from qtremble.integration import MAX_NODES_PER_AXIS, side_moment, tremble_nodes
from qtremble.quantum import quaternions

TWO_PI = 2.0 * math.pi

PD = builtin_game("PD")
EG = builtin_game("EG")
SH = builtin_game("SH")


def pure(name, dims=2):
    return StrategyDistribution.from_pure(strategy(name, dims))


def trembled(name, kappa, dims=2):
    return StrategyDistribution.from_tremble(TrembleSpec(strategy(name, dims), kappa))


def bessel_ratio(kappa):
    return bessel_i(1, kappa) / bessel_i(0, kappa)


_payoff_table = st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4)


@st.composite
def _distribution(draw, dims, trembled):
    """A pure side, an off-axis tremble, or a two-component mixture, on ``dims`` axes."""

    def component(trembles):
        angles = [draw(st.floats(-10.0, 10.0)) if k < dims else 0.0 for k in range(3)]
        center = StrategyParams(*angles, dims)
        if not trembles:
            return StrategyDistribution.from_pure(center)
        return StrategyDistribution.from_tremble(TrembleSpec(center, draw(st.floats(0.0, 50.0))))

    if not trembled:
        return component(False)
    if draw(st.booleans()):
        return component(True)
    weight = draw(st.floats(0.0, 1.0))
    return StrategyDistribution.from_mixture([(weight, component(True)),
                                              (1.0 - weight, component(draw(st.booleans())))])


class TestQuadratureGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureGrid(4, 2)
        with pytest.raises(ValueError):
            QuadratureGrid(16, 4)

    def test_nodes_and_weights(self):
        # Midpoint nodes on the window centred on the tremble centre, every axis.
        grid = QuadratureGrid(16, 2)
        offsets, weights = grid.mesh()
        assert offsets.shape == (256, 2)
        assert weights == pytest.approx(np.full(256, (2 * math.pi / 16) ** 2))
        step = 2 * math.pi / 16
        for axis in range(2):
            assert grid.axis(axis)[0] == pytest.approx(-math.pi + step * (np.arange(16) + 0.5))
        spec = TrembleSpec(StrategyParams(0.7, 6.0, 0.0, 2), 1.0)
        angles, _ = tremble_nodes(spec, grid)
        assert (angles[:, 2] == 0).all()
        for axis, centre in enumerate((0.7, 6.0)):
            assert np.abs(angles[:, axis] - centre).max() < math.pi
            assert angles[:, axis].mean() == pytest.approx(centre, abs=1e-12)

    def test_default_grid_is_legendre_on_alpha_beta(self):
        grid = default_grid(2, 1.0)
        x, w = np.polynomial.legendre.leggauss(64)
        assert grid.axis(0)[0] == pytest.approx(QuadratureGrid(64, 2).axis(0)[0])
        assert grid.axis(1)[0] == pytest.approx(math.pi * x)
        assert grid.axis(1)[1] == pytest.approx(math.pi * w)
        # Past _LEGENDRE_KAPPA the window edge carries no mass and midpoint nodes serve.
        assert not default_grid(2, 1e4).legendre
        with pytest.raises(ValueError, match="at most 1024"):
            QuadratureGrid(4096, 1, legendre=True)

    @pytest.mark.parametrize("nodes,kappa,dims", [(8, 1e4, 1), (9, 1e300, 3), (8, 1.7e308, 2)])
    def test_grid_far_too_coarse_is_refused(self, nodes, kappa, dims):
        # Every node weight underflows, the node at the mode overflows the
        # product over three axes, or the normalization itself underflows.
        with pytest.raises(ValueError, match="cannot integrate"):
            side_moment(trembled("C", kappa, dims), grid=nodes)

    def test_default_grid_scales_with_concentration(self):
        assert default_grid(2, 0.0).nodes_per_dim == 64
        assert default_grid(3, 0.0).nodes_per_dim == 48
        assert default_grid(2, 200.0).nodes_per_dim >= 104

    def test_node_cap(self):
        assert QuadratureGrid(MAX_NODES_PER_AXIS, 3).nodes_per_dim == MAX_NODES_PER_AXIS
        with pytest.raises(ValueError, match="exceed"):
            QuadratureGrid(MAX_NODES_PER_AXIS + 1, 1)
        for kappa in (1e13, 1e308, math.inf):
            with pytest.raises(ValueError, match="exceed"):
                default_grid(2, kappa)


def mesh_side_moment(spec, grid):
    """E[q q^T] summed over the full N^d node mesh, quaternion by quaternion.

    Each entry is an ``np.sum`` (pairwise summation): a plain einsum loop over
    a 96^3 mesh accumulates about 1e-12 of roundoff on its own.
    """
    angles, weights = tremble_nodes(spec, grid)
    quats = quaternions(angles)
    out = np.empty((4, 4))
    for m, n in np.ndindex(out.shape):
        out[m, n] = np.sum(weights * quats[m] * quats[n])
    return out


class TestSideMoment:
    @given(
        dims=st.integers(1, 3),
        center=st.tuples(st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10)),
        kappa=st.floats(0.0, 300.0),
        nodes=st.integers(8, 96),
    )
    @example(dims=3, center=(0.0, math.pi, 0.0), kappa=300.0, nodes=8)
    @example(dims=3, center=(math.pi, 0.0, 0.0), kappa=0.0, nodes=96)
    @example(dims=1, center=(0.0, 0.0, 0.0), kappa=5.0, nodes=64)
    @example(dims=2, center=(1.5, 2.5, 0.0), kappa=5.0, nodes=32)
    @settings(max_examples=40, deadline=None)
    def test_matches_mesh_reference(self, dims, center, kappa, nodes):
        angles = [c if axis < dims else 0.0 for axis, c in enumerate(center)]
        spec = TrembleSpec(StrategyParams(*angles, dims), kappa)
        grid = QuadratureGrid(nodes, dims)
        got = side_moment(StrategyDistribution.from_tremble(spec), grid)
        assert np.abs(got - mesh_side_moment(spec, grid)).max() <= 1e-12

    def test_sharp_three_dim_tremble_needs_no_mesh(self):
        # default_grid puts 2368 nodes on each axis here: a 1.3e10-node mesh.
        kappa = 1e5
        start = time.perf_counter()
        moment = side_moment(trembled("C", kappa, dims=3))
        elapsed = time.perf_counter() - start
        # S00 + S11 = E[cos^2(theta/2)] = (1 + I1/I0)/2; the Bessel backend is good to 1e-10.
        r = bessel_i_scaled(1, kappa) / bessel_i_scaled(0, kappa)
        assert moment[0, 0] + moment[1, 1] == pytest.approx((1 + r) / 2, abs=1e-10)
        assert elapsed < 0.5


def centred_reference(kappa):
    """(E[cos phi], E[cos(phi/2)]) for phi ~ vM(0, kappa) on (-pi, pi], by quadrature.

    Both integrands are even, so only [0, pi] is summed: 40 Gauss-Legendre
    nodes on each of 60 panels that halve toward the mode, which resolves the
    peak at any kappa up to about 1e30.  The density is exp(-2 kappa sin^2(phi/2)).
    """
    x, w = np.polynomial.legendre.leggauss(40)
    edges = math.pi * np.concatenate([[0.0], 2.0 ** -np.arange(60.0, -1.0, -1.0)])
    lo, width = edges[:-1, None], np.diff(edges)[:, None]
    phi = (lo + width * (x + 1.0) / 2.0).ravel()
    weights = (width * w / 2.0).ravel() * np.exp(-2.0 * kappa * np.sin(phi / 2.0) ** 2)
    return (float(weights @ np.cos(phi) / weights.sum()),
            float(weights @ np.cos(phi / 2.0) / weights.sum()))


# Off-axis centres, several with alpha or beta a hair from -pi, pi or 2*pi.
_EDGE = st.sampled_from([-math.pi, math.pi, TWO_PI, -TWO_PI]).flatmap(
    lambda edge: st.floats(edge - 1e-6, edge + 1e-6))
_CENTRE_ANGLE = st.one_of(st.floats(-10.0, 10.0), _EDGE)

# Fixed Monte Carlo cases: (game, centre, dims, kappa, opponent, seed).
_MC_CASES = [
    (SH, (1.5, 0.0, 0.0), 2, 5.0, (0.4, 1.0, 0.0), 1),
    (SH, (0.7, 0.3, 0.0), 2, 1.0, (0.4, 1.0, 0.0), 2),
    (PD, (0.4, math.pi - 1e-7, 0.0), 2, 0.5, (2.0, 0.3, 0.0), 3),
    (EG, (-2.0, -3.1, 6.2), 3, 2.0, (0.4, 1.0, 2.0), 4),
    (SH, (2.5, TWO_PI - 1e-7, -math.pi + 1e-7), 3, 1e-3, (1.0, 4.0, 0.5), 5),
    (PD, (3.0, 6.2, 3.2), 3, 40.0, (0.2, 2.0, 3.0), 6),
    (EG, (1.1, -math.pi, 0.0), 2, 1e4, (0.6, 2.5, 0.0), 7),
]


class TestClosedForm:
    @pytest.mark.parametrize("kappa", [1e-3, 0.01, 0.3, 1.0, 2.5, 7.0, 14.99, 15.0, 15.01,
                                       40.0, 300.0, 3e3, 1e4, 1e5])
    def test_moments_match_centred_quadrature(self, kappa):
        assert vm_moments(kappa) == pytest.approx(centred_reference(kappa), abs=1e-11)

    def test_moment_limits(self):
        assert vm_moments(0.0) == (0.0, 2.0 / math.pi)
        assert vm_moments(1e-300) == pytest.approx((0.0, 2.0 / math.pi), abs=1e-15)
        for kappa in (1e9, 1e15, 1e300, 1.7e308, np.finfo(float).max):
            m1, m_h = vm_moments(kappa)
            assert math.isfinite(m1) and math.isfinite(m_h)
            assert 1.0 - 0.5 / kappa == m1 and 1.0 - 0.125 / kappa == m_h

    def test_moments_continuous_across_series_cutoff(self):
        below = vm_moments(math.nextafter(_MOMENT_SERIES_KAPPA, 0.0))
        above = vm_moments(math.nextafter(_MOMENT_SERIES_KAPPA, math.inf))
        assert below == pytest.approx(above, abs=1e-15)

    @given(
        dims=st.integers(1, 3),
        centre=st.tuples(st.floats(-10.0, 10.0), _CENTRE_ANGLE, _CENTRE_ANGLE),
        log_kappa=st.floats(-3.0, 4.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_default(self, dims, centre, log_kappa):
        # The oracle's converged quadrature, summed per axis for speed.
        angles = [c if axis < dims else 0.0 for axis, c in enumerate(centre)]
        spec = TrembleSpec(StrategyParams(*angles, dims), 10.0**log_kappa)
        dist = StrategyDistribution.from_tremble(spec)
        grid = default_grid(dims, spec.kappa)
        assert np.abs(side_moment(dist) - side_moment(dist, grid)).max() <= 1e-10

    @pytest.mark.parametrize("game,centre,dims,kappa,other,seed", _MC_CASES)
    def test_matches_direct_sum_and_monte_carlo(self, game, centre, dims, kappa, other, seed):
        shaky = StrategyDistribution.from_tremble(
            TrembleSpec(StrategyParams(*centre[:dims], *[0.0] * (3 - dims), dims), kappa))
        fixed = StrategyDistribution.from_pure(StrategyParams(*other))
        closed = smeared_payoff(game, shaky, fixed)
        if kappa <= 100.0:
            assert closed == pytest.approx(smeared_payoff_direct(game, shaky, fixed), abs=1e-10)
        pay_a, pay_b, se_a, se_b = smeared_payoff_mc(game, shaky, fixed, 40_000, seed=seed)
        assert abs(closed[0] - pay_a) <= 4 * max(se_a, 1e-12)
        assert abs(closed[1] - pay_b) <= 4 * max(se_b, 1e-12)

    def test_both_sides_trembled_off_axis_against_monte_carlo(self):
        side_a = StrategyDistribution.from_tremble(
            TrembleSpec(StrategyParams(1.5, 0.0, 0.0, 2), 5.0))
        side_b = StrategyDistribution.from_tremble(
            TrembleSpec(StrategyParams(0.4, 3.0, 6.0, 3), 2.0))
        closed = smeared_payoff(SH, side_a, side_b)
        pay_a, pay_b, se_a, se_b = smeared_payoff_mc(SH, side_a, side_b, 40_000, seed=8)
        assert abs(closed[0] - pay_a) <= 4 * se_a
        assert abs(closed[1] - pay_b) <= 4 * se_b

    def test_off_axis_regression_case(self):
        # Quadrature on [0, 2*pi) gave (7.6420, 6.0138); centred Monte Carlo with
        # 4e5 draws gives 8.1866 +- 0.0010 and 5.7436 +- 0.0024.
        alice = StrategyDistribution.from_tremble(
            TrembleSpec(StrategyParams(1.5, 0.0, 0.0, 2), 5.0))
        bob = StrategyDistribution.from_pure(StrategyParams(0.4, 1.0, 0.0, 2))
        assert smeared_payoff(SH, alice, bob) == pytest.approx((8.18636, 5.74470), abs=1e-5)

    def test_verdict_cost_is_flat_in_kappa(self):
        profile = (strategy("C", 3), strategy("C", 3))

        def best_time(kappa):
            times = []
            for _ in range(7):
                start = time.perf_counter()
                thp_scan(SH, profile, 3, [kappa], response_dims=3)
                times.append(time.perf_counter() - start)
            return min(times)

        best_time(1.0)  # warm-up
        assert best_time(1e9) <= 1.5 * best_time(1.0)


class TestStrategyDistribution:
    def test_mixture_weight_validation(self):
        with pytest.raises(ValueError):
            StrategyDistribution.from_mixture([(0.6, pure("C")), (0.6, pure("D"))])
        with pytest.raises(ValueError):
            StrategyDistribution.from_mixture([(-0.2, pure("C")), (1.2, pure("D"))])
        with pytest.raises(ValueError):
            StrategyDistribution.from_mixture([])
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                StrategyDistribution.from_mixture([(bad, pure("C")), (0.5, pure("D"))])

    def test_no_nested_mixtures(self):
        mix = StrategyDistribution.from_mixture([(1.0, pure("C"))])
        with pytest.raises(ValueError):
            StrategyDistribution.from_mixture([(1.0, mix)])

    def test_kind_payload_consistency(self):
        with pytest.raises(ValueError):
            StrategyDistribution(kind="pure")
        with pytest.raises(ValueError):
            StrategyDistribution(kind="nonsense")


class TestSmearedPayoff:
    def test_pure_pure_reduces_to_expected_payoff(self):
        for game in (PD, EG, SH):
            for a in ("C", "D", "Q"):
                for b in ("C", "D", "Q"):
                    got = smeared_payoff(game, pure(a), pure(b))
                    want = expected_payoff(game, su2(strategy(a)), su2(strategy(b)))
                    assert got == pytest.approx(want, abs=1e-12)

    def test_delta_limit_recovers_pure_payoff(self):
        # Trembling Alice around Q against pure Q: payoff_A has the closed form
        # (1+R)(2+R)/2 with R = I1/I0, approaching 3 like 5/(4*kappa); payoff_B
        # converges quadratically and is already inside 1e-3 at kappa = 200.
        pay_200 = smeared_payoff(PD, trembled("Q", 200.0), pure("Q"))
        r = bessel_ratio(200.0)
        assert pay_200[0] == pytest.approx((1 + r) * (2 + r) / 2, abs=1e-9)
        assert pay_200[0] == pytest.approx(3.0, abs=1e-2)
        assert pay_200[1] == pytest.approx(3.0, abs=1e-3)
        pay_600 = smeared_payoff(PD, trembled("Q", 600.0), pure("Q"))
        assert abs(pay_600[0] - 3.0) < abs(pay_200[0] - 3.0)

    def test_concentration_moves_payoff_toward_equilibrium(self):
        loose = smeared_payoff(PD, trembled("Q", 1.0), trembled("Q", 1.0))
        tight = smeared_payoff(PD, trembled("Q", 25.0), trembled("Q", 25.0))
        assert abs(tight[0] - 3.0) < abs(loose[0] - 3.0)

    def test_uniform_theta_tremble_against_defection(self):
        # E[cos^2(theta/2)] = 1/2 under the uniform circle distribution, so
        # Bob's payoff is the even classical mixture (0 + 2)/2 = 1.
        uniform = StrategyDistribution.from_tremble(TrembleSpec(strategy("D", 1), 0.0))
        pay = smeared_payoff(EG, uniform, pure("D", 1))
        assert pay[1] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("kappa", [0.5, 5.0, 25.0])
    @pytest.mark.parametrize("dims", [1, 2])
    def test_grid_doubling_converges(self, kappa, dims):
        dist = StrategyDistribution.from_tremble(TrembleSpec(strategy("D", dims), kappa))
        opp = pure("C", dims)
        coarse = smeared_payoff(SH, dist, opp, grid=64)
        fine = smeared_payoff(SH, dist, opp, grid=128)
        assert coarse[0] == pytest.approx(fine[0], abs=1e-8)
        assert coarse[1] == pytest.approx(fine[1], abs=1e-8)

    def test_grid_doubling_converges_three_dims(self):
        dist = StrategyDistribution.from_tremble(TrembleSpec(strategy("Q", 3), 25.0))
        coarse = smeared_payoff(PD, dist, pure("Q", 3), grid=48)
        fine = smeared_payoff(PD, dist, pure("Q", 3), grid=96)
        assert coarse[0] == pytest.approx(fine[0], abs=1e-8)
        assert coarse[1] == pytest.approx(fine[1], abs=1e-8)

    def test_self_check_flags_coarse_grid(self):
        hot = trembled("Q", 25.0)
        with pytest.raises(GridResolutionError):
            smeared_payoff(PD, hot, pure("Q"), grid=8, self_check=True)
        # adequate resolution passes the same check
        smeared_payoff(PD, hot, pure("Q"), grid=64, self_check=True)


class TestDirectSummation:
    @pytest.mark.parametrize("dims,nodes", [(1, 16), (2, 16), (3, 8)])
    def test_factorized_equals_direct(self, dims, nodes):
        games = {1: PD, 2: EG, 3: SH}
        game = games[dims]
        center_a = strategy("Q", dims) if dims >= 2 else strategy("D", 1)
        dist_a = StrategyDistribution.from_tremble(TrembleSpec(center_a, 1.0))
        dist_b = StrategyDistribution.from_tremble(TrembleSpec(strategy("C", dims), 2.0))
        fast = smeared_payoff(game, dist_a, dist_b, grid=nodes)
        slow = smeared_payoff_direct(game, dist_a, dist_b, grid=nodes)
        assert fast[0] == pytest.approx(slow[0], abs=1e-10)
        assert fast[1] == pytest.approx(slow[1], abs=1e-10)

    @given(data=st.data(), nodes=st.integers(8, 32))
    @settings(max_examples=40, deadline=None)
    def test_moments_equal_direct_off_axis(self, data, nodes):
        # The direct sum holds every pair of mesh nodes at once, so the two
        # sides share a budget of active dimensions: at most 2^15 node pairs
        # per mixture component pair.
        budget = int(15 // math.log2(nodes))
        dims_a = data.draw(st.integers(1, min(3, budget)), label="dims_a")
        dims_b = data.draw(st.integers(0, min(3, budget - dims_a)), label="dims_b")
        game = GameSpec("random", np.reshape(data.draw(_payoff_table), (2, 2)),
                        np.reshape(data.draw(_payoff_table), (2, 2)))
        dist_a = data.draw(_distribution(dims_a, trembled=True), label="dist_a")
        # A pure side is a single node, so it may use all three axes.
        dist_b = data.draw(_distribution(dims_b or 3, trembled=dims_b > 0), label="dist_b")
        fast = smeared_payoff(game, dist_a, dist_b, grid=nodes)
        slow = smeared_payoff_direct(game, dist_a, dist_b, grid=nodes)
        assert fast == pytest.approx(slow, abs=1e-10)

    def test_direct_handles_pure_sides(self):
        fast = smeared_payoff(PD, pure("Q"), trembled("C", 1.0), grid=16)
        slow = smeared_payoff_direct(PD, pure("Q"), trembled("C", 1.0), grid=16)
        assert fast == pytest.approx(slow, abs=1e-12)


class TestMonteCarlo:
    def test_pure_vs_pure_is_exact_with_zero_variance(self):
        pay_a, pay_b, se_a, se_b = smeared_payoff_mc(PD, pure("Q"), pure("Q"), 1000, seed=0)
        assert (pay_a, pay_b) == pytest.approx((3.0, 3.0), abs=1e-12)
        # every draw is the same number; only mean-subtraction roundoff remains
        assert se_a <= 1e-15 and se_b <= 1e-15

    def test_agrees_with_quadrature_within_three_stderr(self):
        dist = StrategyDistribution.from_tremble(TrembleSpec(strategy("Q", 3), 1.0))
        quad = smeared_payoff(PD, dist, pure("Q", 3))
        pay_a, pay_b, se_a, se_b = smeared_payoff_mc(PD, dist, pure("Q", 3), 100_000, seed=7)
        assert abs(pay_a - quad[0]) <= 3 * se_a
        assert abs(pay_b - quad[1]) <= 3 * se_b

    def test_stderr_shrinks_like_root_n(self):
        dist = trembled("Q", 1.0)
        _, _, se_small, _ = smeared_payoff_mc(PD, dist, pure("Q"), 20_000, seed=3)
        _, _, se_big, _ = smeared_payoff_mc(PD, dist, pure("Q"), 40_000, seed=3)
        ratio = se_big / se_small
        assert 0.8 / math.sqrt(2) <= ratio <= 1.2 / math.sqrt(2)

    def test_mixture_sampling(self):
        mix = StrategyDistribution.from_mixture([(0.75, pure("C")), (0.25, pure("D"))])
        quad = discrete_mixture_payoff(EG, mix, pure("C"))
        pay_a, pay_b, se_a, se_b = smeared_payoff_mc(EG, mix, pure("C"), 50_000, seed=11)
        assert abs(pay_a - quad[0]) <= 4 * max(se_a, 1e-12)
        assert abs(pay_b - quad[1]) <= 4 * max(se_b, 1e-12)

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            smeared_payoff_mc(PD, pure("C"), pure("C"), 10)

    def test_reproducibility(self):
        dist = trembled("C", 2.0)
        first = smeared_payoff_mc(SH, dist, pure("C"), 5_000, seed=9)
        second = smeared_payoff_mc(SH, dist, pure("C"), 5_000, seed=9)
        assert first == second


class TestDiscreteMixture:
    def test_single_component_reduces_to_smeared(self):
        mix = StrategyDistribution.from_mixture([(1.0, trembled("Q", 2.0))])
        assert discrete_mixture_payoff(PD, mix, pure("Q")) == pytest.approx(
            smeared_payoff(PD, trembled("Q", 2.0), pure("Q")), abs=1e-12
        )

    def test_classical_tremble_payoffs(self):
        # (1-eps, eps) over C, D against pure C and pure D for the example game
        eps = 0.1
        mix = StrategyDistribution.from_mixture(
            [(1 - eps, pure("C", 1)), (eps, pure("D", 1))]
        )
        vs_c = discrete_mixture_payoff(EG, mix, pure("C", 1))
        assert vs_c[1] == pytest.approx(1.0 + eps, abs=1e-12)
        vs_d = discrete_mixture_payoff(EG, mix, pure("D", 1))
        assert vs_d[1] == pytest.approx(2.0 * eps, abs=1e-12)

    def test_affine_in_the_weights(self):
        comp = [pure("C"), trembled("D", 1.5)]
        lam = 0.35
        w1, w2 = (0.3, 0.7), (0.8, 0.2)
        blend = tuple(lam * a + (1 - lam) * b for a, b in zip(w1, w2))

        def payoff(weights):
            mix = StrategyDistribution.from_mixture(list(zip(weights, comp)))
            return np.array(discrete_mixture_payoff(SH, mix, trembled("C", 2.0)))

        direct = payoff(blend)
        interpolated = lam * payoff(w1) + (1 - lam) * payoff(w2)
        assert np.abs(direct - interpolated).max() <= 1e-10

    def test_trembled_components_mix_linearly(self):
        center = StrategyParams(0.7, 0.3, 0.0, 2)
        mix = StrategyDistribution.from_mixture([
            (0.5, StrategyDistribution.from_tremble(TrembleSpec(center, 1.0))),
            (0.5, StrategyDistribution.from_pure(center)),
        ])
        opp = trembled("D", 2.0)
        assert smeared_payoff(SH, mix, opp) == pytest.approx(
            discrete_mixture_payoff(SH, mix, opp), abs=1e-12
        )

    def test_self_check_covers_mixture_components(self):
        center = StrategyParams(0.7, 0.3, 0.0, 2)
        shaky = StrategyDistribution.from_tremble(TrembleSpec(center, 1.0))
        mix = StrategyDistribution.from_mixture(
            [(0.5, shaky), (0.5, StrategyDistribution.from_pure(center))]
        )
        opp = StrategyDistribution.from_pure(StrategyParams(0.4, 1.0, 0.0, 2))
        with pytest.raises(GridResolutionError):
            smeared_payoff(SH, shaky, opp, grid=8, self_check=True)
        with pytest.raises(GridResolutionError):
            smeared_payoff(SH, mix, opp, grid=8, self_check=True)
        with pytest.raises(GridResolutionError):
            smeared_payoff(SH, opp, mix, grid=8, self_check=True)

    def test_smeared_payoff_delegates_mixtures(self):
        mix = StrategyDistribution.from_mixture([(0.5, pure("C")), (0.5, pure("D"))])
        assert smeared_payoff(EG, mix, pure("C")) == pytest.approx(
            discrete_mixture_payoff(EG, mix, pure("C")), abs=1e-14
        )

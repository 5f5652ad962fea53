"""The best-response search scores gates as the quaternion form q^T Q q.

Each test rebuilds what the search computes from 2x2 gates (payoffs from
final states against the Bell projectors, ``gate_distances``) and checks
that the quaternion path agrees with it.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtremble import (
    GameSpec,
    StrategyDistribution,
    StrategyParams,
    TrembleSpec,
    best_response,
    builtin_game,
    initial_state,
    payoff_operators,
    smeared_payoff_direct,
    strategy,
    su2,
    su2_angles,
)
from qtremble.integration import payoff_forms, tremble_nodes
from qtremble.quantum import form_value, gate_distances, quaternion, quaternions
from qtremble.thp import _distances

TWO_PI = 2.0 * math.pi

# Angles anywhere on the torus, plus values within a few ulps of the 2*pi wrap.
_near_wrap = st.sampled_from([TWO_PI - 1e-15, TWO_PI - 4e-16, TWO_PI, TWO_PI + 1e-15,
                              -1e-15, -4e-16, 0.0, 1e-15])
_angle = st.one_of(st.floats(-TWO_PI, 2 * TWO_PI), _near_wrap)
_payoff = st.floats(-10.0, 10.0)


@st.composite
def _params(draw, dims=3):
    angles = [draw(_angle) for _ in range(dims)] + [0.0] * (3 - dims)
    return StrategyParams(*angles, dims)


@st.composite
def _opponent(draw):
    def component():
        kind = draw(st.sampled_from(["pure", "trembled"]))
        dims = draw(st.integers(1, 3))
        center = draw(_params(dims))
        if kind == "pure":
            return StrategyDistribution.from_pure(center)
        kappa = draw(st.floats(0.0, 50.0))
        return StrategyDistribution.from_tremble(TrembleSpec(center, kappa))

    if draw(st.booleans()):
        return component()
    weight = draw(st.floats(0.0, 1.0))
    return StrategyDistribution.from_mixture([(weight, component()),
                                              (1.0 - weight, component())])


@st.composite
def _game(draw):
    entries = [draw(_payoff) for _ in range(8)]
    return GameSpec("random", np.reshape(entries[:4], (2, 2)), np.reshape(entries[4:], (2, 2)))


class TestQuaternionForm:
    @given(_game(), st.sampled_from(["A", "B"]), _opponent(), _params(), _params())
    @settings(deadline=None, max_examples=150)
    def test_form_equals_direct_payoff(self, game, responder, opponent, p, other):
        forms = payoff_forms(game, responder, opponent, 8)
        rows = np.array([p.angles, other.angles])
        want = []
        for params in (p, other):
            mover = StrategyDistribution.from_pure(params)
            sides = (mover, opponent) if responder == "A" else (opponent, mover)
            want.append(smeared_payoff_direct(game, *sides, grid=8))
        for player, form in enumerate(forms):
            assert np.array_equal(form, form.T)
            assert abs(form_value(form, quaternion(p)) - want[0][player]) <= 1e-12
            # The grid path scores stacks of nodes with the same arithmetic.
            stack = form_value(form, quaternions(rows))
            assert np.abs(stack - [w[player] for w in want]).max() <= 1e-12

    @given(_params())
    @settings(deadline=None, max_examples=100)
    def test_quaternion_spans_the_gate(self, p):
        basis = np.array([np.eye(2), np.diag([1j, -1j]), [[0, 1], [-1, 0]], [[0, 1j], [1j, 0]]])
        q = quaternion(p)
        assert abs(math.fsum(x * x for x in q) - 1.0) <= 1e-15
        assert np.abs(np.tensordot(q, basis, axes=1) - su2(p)).max() <= 1e-15
        assert np.abs(quaternions(np.array([p.angles]))[:, 0] - q).max() <= 1e-16


class TestQuaternionDistance:
    @given(_params(), _params())
    @settings(deadline=None, max_examples=200)
    @example(strategy("C"), strategy("D"))
    @example(strategy("C"), strategy("Q"))
    @example(strategy("D"), strategy("Q"))
    @example(StrategyParams(0.7, 0.3, 5.0), StrategyParams(0.7 + math.pi, 0.3, 5.0))
    @example(StrategyParams(0.7, 0.3, 5.0), StrategyParams(0.7, 0.3 + TWO_PI, 5.0))
    def test_matches_gate_distances(self, p, q):
        gates = su2_angles(*np.array([p.angles, q.angles]).T)
        want = gate_distances(gates, su2(q))
        got = _distances(quaternions(np.array([p.angles, q.angles])), quaternion(q))
        assert np.abs(got - want).max() <= 1e-12
        assert abs(float(_distances(quaternion(p), quaternion(q))) - want[0]) <= 1e-12

    def test_orthogonal_gates_keep_unit_phase(self):
        # p.q ~ 6e-17 for C against D and Q: both paths skip the phase alignment.
        c = quaternion(strategy("C"))
        for name, want in (("D", 1.0), ("Q", math.sqrt(2.0))):
            q = quaternion(strategy(name))
            assert abs(2.0 * np.dot(c, q)) <= 1e-12
            assert float(_distances(q, c)) == pytest.approx(want, abs=1e-15)


def _reference_nodes(dims, nodes):
    step = TWO_PI / nodes
    grid = step * np.arange(nodes)
    mesh = np.meshgrid(*[-math.pi + grid, grid, grid][:dims], indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh] + [np.zeros(mesh[0].size)] * (3 - dims),
                     axis=1)


_SEARCH_NODES = {1: 64, 2: 64, 3: 32}


def _gate_values(game, opponent, angles):
    """Bob's payoff for each gate of ``angles`` from final states against the projectors.

    Alice's side is averaged into the state (A (x) I) rho (A (x) I)^dagger over
    her nodes before Bob's gates act on it.
    """
    if opponent.kind == "pure":
        nodes, weights = np.array([opponent.pure.angles]), np.ones(1)
    else:
        nodes, weights = tremble_nodes(opponent.tremble)
    lift = np.kron(su2_angles(*nodes.T), np.eye(2))
    state = np.einsum("n,nij,jk,nlk->il", weights, lift, initial_state(), lift.conj())
    joint = np.kron(np.eye(2), su2_angles(*angles.T))
    final = joint @ state @ joint.conj().transpose(0, 2, 1)
    return np.einsum("ij,nji->n", payoff_operators(game)[1], final).real


@pytest.mark.parametrize("dims", [1, 2, 3])
@pytest.mark.parametrize("name", ["C", "D", "Q"])
@pytest.mark.parametrize("game", ["PD", "EG", "SH"])
@pytest.mark.parametrize("kind", ["pure", "trembled"])
def test_grid_argmax_matches_gate_values(kind, game, name, dims):
    """The unrefined best response is the first maximum of the 2x2-gate values.

    On a payoff ridge that is flat in exact arithmetic (EG has several), the
    gate values of the tied nodes differ only by roundoff, so the first
    maximum among them is decided by roundoff; there the chosen node must be
    one of the tied maximizers.
    """
    if kind == "pure":
        opponent = StrategyDistribution.from_pure(strategy(name, 3))
    else:
        opponent = StrategyDistribution.from_tremble(TrembleSpec(strategy(name, 2), 1.0))
    spec = builtin_game(game)
    angles = _reference_nodes(dims, _SEARCH_NODES[dims])
    values = _gate_values(spec, opponent, angles)
    top = int(np.argmax(values))
    tied = np.flatnonzero(values >= values[top] - 1e-12)

    found = best_response(spec, "B", opponent, dims=dims, refine=False)
    chosen = [i for i in tied if StrategyParams(*angles[i], dims) == found.params]
    assert chosen, "the search picked a node outside the reference maximizers"
    if len(tied) == 1:
        assert chosen == [top]
    assert found.value == pytest.approx(values[top], abs=1e-12)


@pytest.mark.parametrize("dims", [1, 2, 3])
def test_exact_tie_keeps_the_first_node(dims):
    # A zero game scores every node exactly 0.0; the first node is (-pi, 0, 0).
    zero = GameSpec("zero", np.zeros((2, 2)), np.zeros((2, 2)))
    found = best_response(zero, "A", StrategyDistribution.from_pure(strategy("C", 3)),
                          dims=dims)
    assert found.params == StrategyParams(-math.pi, 0.0, 0.0, dims)
    assert found.value == 0.0

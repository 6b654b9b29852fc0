"""Entropic OT: marginals, oracle agreement, debiasing, feedback units."""

import numpy as np
import pytest

from encapnet import sinkhorn
from encapnet import tensor as T
from encapnet.errors import ConfigError, ShapeError
from encapnet.gradsuite import CASES, frozen_plans
from encapnet.sinkhorn import (EPS, ITERS, Extractor, FeedbackUnit, Generator,
                               brute_force_ot, cosine_cost, sinkhorn_divergence,
                               sinkhorn_plan)
from encapnet.tensor import Tensor, seeded_rng
from tape_ops import concat


def random_cost(n, seed=0):
    rng = seeded_rng(seed, "cost")
    return rng.uniform(0.0, 2.0, size=(n, n))


def taped_divergence(x, y):
    """The divergence as generic tape ops: taped cosine costs, constant plans
    from one stacked solve, and a constant-weighted sum of the three terms."""
    def cost(a, c):
        an = a / T.sqrt(T.tsum(a * a, axis=1, keepdims=True) + 1e-12)
        cn = c / T.sqrt(T.tsum(c * c, axis=1, keepdims=True) + 1e-12)
        return 1.0 - T.matmul(an, T.transpose(cn))

    b = x.shape[0]
    Q = concat([T.reshape(cost(a, c), (1, b, b)) for a, c in ((x, y), (x, x), (y, y))],
               axis=0)
    P = T.constant(sinkhorn_plan(Q.data, EPS, ITERS))
    w = T.tsum(Q * P, axis=(-2, -1))
    return T.tsum(w * T.constant(np.array([2.0, -1.0, -1.0])))


class TestIterates:
    def test_column_marginal_pinned(self):
        # rounds end on a column update, so that marginal is machine-exact
        for seed in range(5):
            Q = random_cost(6, seed)
            P = sinkhorn_plan(Q, eps=0.1, iters=10)
            np.testing.assert_allclose(P.sum(axis=0), 1.0 / 6, atol=1e-16)

    def test_row_marginal_half_step_stale(self):
        # the row side is refreshed one half-step before the closing column
        # update; at the batch sizes the regularizer pairs (cosine costs on
        # 32..128 samples) the staleness sits well inside the 1e-3 allowance
        for seed, B in ((0, 32), (1, 64), (2, 128)):
            rng = seeded_rng(seed, "feat")
            x = rng.normal(size=(B, 16))
            y = rng.normal(size=(B, 16))
            Q = cosine_cost(x, y)
            P = sinkhorn_plan(Q, eps=0.1, iters=10)
            assert np.abs(P.sum(axis=1) - 1.0 / B).max() < 1e-3

    def test_row_marginal_tiny_sets_need_more_rounds(self):
        # a 6-point set keeps 1/6 of all mass in every row and L=10 is not
        # yet converged there (deviations near 2e-2 happen); the staleness
        # contracts with extra rounds while the column pin never moves
        Q = random_cost(6, 4)
        def row_dev(L):
            return np.abs(sinkhorn_plan(Q, 0.1, L).sum(axis=1)
                          - 1.0 / 6).max()
        assert row_dev(200) < 1e-3
        assert row_dev(200) < row_dev(50) < row_dev(10)

    def test_loss_converges_to_entropic_optimum(self):
        # <Q,P_L> itself is not monotone (early infeasible plans undercut the
        # optimum, some cases overshoot), but the iterates approach the optimal
        # coupling monotonically in KL and the loss gap closes
        def kl(P, R):
            m = P > 0
            return float((P[m] * np.log(P[m] / np.maximum(R[m], 1e-300))).sum()
                         - P.sum() + R.sum())

        for seed in range(4):
            Q = random_cost(5, seed + 10)
            opt_plan = sinkhorn_plan(Q, 0.05, 3000)
            opt = float((Q * opt_plan).sum())
            kls, gaps = [], []
            for L in (1, 2, 5, 10, 50):
                P = sinkhorn_plan(Q, 0.05, L)
                kls.append(kl(opt_plan, P))
                gaps.append(abs(float((Q * P).sum()) - opt))
            for early, late in zip(kls, kls[1:]):
                assert late <= early + 1e-12
            assert gaps[-1] < 2e-3

    def test_two_point_example(self):
        # Q = [[0,1],[1,0]] at eps=0.1: by symmetry the entropic optimum has
        # off-diagonal cells 0.5*exp(-1/eps)/(1+exp(-1/eps)), tiny but nonzero
        Q = np.array([[0.0, 1.0], [1.0, 0.0]])
        P = sinkhorn_plan(Q, eps=0.1, iters=200)
        off = 0.5 * np.exp(-10.0) / (1.0 + np.exp(-10.0))
        expect = np.array([[0.5 - off, off], [off, 0.5 - off]])
        np.testing.assert_allclose(P, expect, atol=1e-12)
        assert float((Q * P).sum()) < 1e-4

    def test_stacked_problems_equal_separate_solves(self):
        # leading axes are independent problems, solved bitwise as if alone
        Qs = np.stack([random_cost(5, seed) for seed in range(3)])
        batched = sinkhorn_plan(Qs, eps=0.1, iters=10)
        assert batched.shape == (3, 5, 5)
        for k in range(3):
            np.testing.assert_array_equal(batched[k], sinkhorn_plan(Qs[k], 0.1, 10))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ShapeError):
            sinkhorn_plan(np.zeros(3), 0.1, 5)
        with pytest.raises(ConfigError):
            sinkhorn_plan(np.zeros((2, 2)), 0.1, 0)

    def test_handles_large_costs_without_overflow(self):
        Q = random_cost(4, 0) * 1000
        P = sinkhorn_plan(Q, eps=0.01, iters=50)
        assert np.all(np.isfinite(P))
        np.testing.assert_allclose(P.sum(), 1.0, atol=1e-12)


class TestOracle:
    def test_brute_force_identity_cost(self):
        Q = 1.0 - np.eye(4)
        assert brute_force_ot(Q) == 0.0

    def test_brute_force_matches_entropic_at_small_eps(self):
        for seed in range(6):
            n = 2 + seed % 3
            Q = random_cost(n, seed + 20)
            exact = brute_force_ot(Q)
            ent = float((Q * sinkhorn_plan(Q, 0.01, 200)).sum())
            # a not-yet-feasible plan may undercut the LP value, but never by
            # more than the entropic slack
            assert exact <= ent + 0.01 * np.log(n) + 1e-9
            assert abs(ent - exact) <= max(0.02 * abs(exact), 1e-3)

    def test_brute_force_rejects_big_or_rectangular(self):
        with pytest.raises(ConfigError):
            brute_force_ot(np.zeros((7, 7)))
        with pytest.raises(ShapeError):
            brute_force_ot(np.zeros((2, 3)))


class TestCostMatrix:
    def test_cosine_range_and_self_diag(self):
        x = seeded_rng(0, "x").normal(size=(6, 8))
        Q = cosine_cost(x, x)
        assert Q.min() > -1e-9 and Q.max() < 2.0 + 1e-9
        np.testing.assert_allclose(np.diag(Q), 0.0, atol=1e-9)


class TestDivergence:
    def test_identical_sets_exactly_zero(self):
        for seed in range(10):
            x = Tensor(seeded_rng(seed, "feat").normal(size=(5, 7)))
            d = float(sinkhorn_divergence(x, x).data)
            assert abs(d) <= 1e-9

    def test_distinct_sets_positive(self):
        rng = seeded_rng(0, "d")
        x = Tensor(rng.normal(size=(5, 7)))
        y = Tensor(rng.normal(size=(5, 7)) + 3.0)
        assert float(sinkhorn_divergence(x, y).data) > 0

    def test_debiased_needs_equal_set_sizes(self):
        rng = seeded_rng(2, "d")
        x = Tensor(rng.normal(size=(4, 7)))
        y = Tensor(rng.normal(size=(5, 7)))
        with pytest.raises(ShapeError, match=r"\(4, 7\).*\(5, 7\)"):
            sinkhorn_divergence(x, y)

    def test_rejects_mismatched_features(self):
        with pytest.raises(ShapeError):
            sinkhorn_divergence(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))

    @pytest.mark.parametrize("shape", [(1, 4), (2, 4), (8, 4), (32, 16)],
                             ids=lambda s: "x".join(map(str, s)))
    def test_node_matches_taped_reference(self, shape):
        # about half of the extractor's features are exact zeros, so every set
        # of more than one row carries an all-zero row
        rng = seeded_rng(shape[0], "reference")
        x, y = rng.normal(size=shape), rng.normal(size=shape)
        if shape[0] > 1:
            x[1] = 0.0
        grads = []
        for divergence in (sinkhorn_divergence, taped_divergence):
            xt, yt = Tensor(x, requires_grad=True), Tensor(y, requires_grad=True)
            d = divergence(xt, yt)
            d.backward()
            grads.append((d.data, xt.grad, yt.grad))
        (value, *got), (ref, *want) = grads
        assert value.tobytes() == ref.tobytes()
        for g, w in zip(got, want):
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()

    def test_builds_one_node(self):
        rng = seeded_rng(3, "node")
        x, y = (Tensor(rng.normal(size=(8, 4)), requires_grad=True) for _ in range(2))
        d = sinkhorn_divergence(x, y)
        assert d.op == "sinkhorn_divergence" and d._parents == (x, y)
        assert [n for n in d._topo() if n._backward is not None] == [d]

    def test_toy_net_under_200_rule_bearing_nodes(self):
        build, _ = CASES["toy_net_total_loss"]()
        assert sum(n._backward is not None for n in build()._topo()) < 200

    def test_frozen_plans_replay_the_unperturbed_solve(self):
        # the gradient suite's stand-in: a perturbed forward weighs its new
        # costs by the plans solved at entry, which is what backprop holds
        rng = seeded_rng(5, "frozen")
        x, y = (Tensor(rng.normal(size=(4, 3))) for _ in range(2))
        costs = lambda: [cosine_cost(a.data, b.data) for a, b in ((x, y), (x, x), (y, y))]
        plans = [sinkhorn_plan(q, EPS, ITERS) for q in costs()]
        solve = sinkhorn.sinkhorn_plan
        with frozen_plans(lambda: sinkhorn_divergence(x, y)):
            y.data += 0.5
            frozen = float(sinkhorn_divergence(x, y).data)
        assert sinkhorn.sinkhorn_plan is solve
        w = [float((q * p).sum()) for q, p in zip(costs(), plans)]
        assert frozen == pytest.approx(2 * w[0] - w[1] - w[2], abs=1e-12)
        assert frozen != pytest.approx(float(sinkhorn_divergence(x, y).data))


class TestGenerator:
    def test_solves_output_padding(self):
        # stride 2 from 3x3 reaches 5x5 (opad 0) and 6x6 (opad 1)
        g = Generator(2, 4, 2, 4, stride=2, seed=0)
        v = Tensor(seeded_rng(0, "v").normal(size=(2, 8, 3, 3)))
        assert g(v, (5, 5)).shape == (2, 8, 5, 5)
        assert g(v, (6, 6)).shape == (2, 8, 6, 6)

    def test_unreachable_size_rejected(self):
        g = Generator(2, 4, 2, 4, stride=2, seed=0)
        v = Tensor(np.zeros((1, 8, 3, 3)))
        with pytest.raises(ConfigError):
            g(v, (9, 9))

    def test_grouping_divisibility_enforced(self):
        with pytest.raises(ConfigError):
            Generator(2, 3, 1, 4, stride=1)  # 4 not divisible by grouping 3

    def test_output_is_squashed(self):
        g = Generator(2, 4, 2, 4, stride=1, seed=1)
        v = Tensor(seeded_rng(2, "v").normal(size=(2, 8, 4, 4)) * 10)
        out = g(v, (4, 4)).data.reshape(2, 2, 4, 4, 4)
        assert np.sqrt((out ** 2).sum(axis=2)).max() < 1.0


class TestExtractor:
    def test_needs_four_channels(self):
        with pytest.raises(ConfigError):
            Extractor(3)

    def test_flattens_to_feature_rows(self):
        e = Extractor(8, seed=0)
        out = e(Tensor(seeded_rng(0, "u").normal(size=(3, 8, 8, 8))))
        assert out.ndim == 2 and out.shape[0] == 3
        assert out.shape[1] == 4  # 8 -> 4 -> 2, one channel, 2*2 pixels


class TestFeedbackUnit:
    def test_divergence_scalar_and_self_behavior(self):
        unit = FeedbackUnit(2, 4, 2, 4, stride=2, seed=0)
        rng = seeded_rng(0, "fb")
        v = Tensor(rng.normal(size=(4, 8, 3, 3)))
        u = Tensor(rng.normal(size=(4, 8, 6, 6)))
        d = unit.divergence(v, u)
        assert d.shape == ()
        assert np.isfinite(float(d.data))

    def test_geometry_mismatch_rejected(self):
        unit = FeedbackUnit(2, 4, 2, 4, stride=2, seed=0)
        v = Tensor(np.zeros((1, 8, 3, 3)))
        with pytest.raises(ConfigError):
            unit.divergence(v, Tensor(np.zeros((1, 8, 9, 9))))

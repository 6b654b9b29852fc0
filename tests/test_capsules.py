"""Capsule primitives: squash, grid layout, margin loss, capFC, predict."""

import tracemalloc

import numpy as np
import pytest

from encapnet import tensor as T
from encapnet.capsules import (SQUASH_EPS, CapFC, capsule_norms, grid_squash,
                               grid_to_capsules, margin_loss, predict, squash)
from encapnet.errors import ShapeError
from encapnet.gradcheck import check_grads
from encapnet.tensor import Tensor, seeded_rng


class TestSquash:
    def test_frozen_norms(self):
        # ||s||=1 -> 0.5, ||s||=2 -> 0.8
        s = Tensor(np.array([[1.0, 0.0], [0.0, 2.0]]))
        out = squash(s, axis=-1).data
        norms = np.linalg.norm(out, axis=-1)
        np.testing.assert_allclose(norms, [0.5, 0.8], atol=1e-7)

    def test_zero_vector_stays_zero_and_finite(self):
        s = Tensor(np.zeros((3, 4)), requires_grad=True)
        out = squash(s, axis=-1)
        assert np.all(out.data == 0.0)
        T.tsum(out * out).backward()
        assert np.all(np.isfinite(s.grad))

    def test_norm_strictly_below_one(self):
        rng = seeded_rng(0, "squash")
        for scale in (0.1, 1.0, 100.0, 1e6):
            v = squash(Tensor(rng.normal(size=(50, 8)) * scale), axis=-1).data
            assert np.linalg.norm(v, axis=-1).max() < 1.0

    def test_direction_preserved(self):
        rng = seeded_rng(1, "squash")
        s = rng.normal(size=(20, 6))
        v = squash(Tensor(s), axis=-1).data
        cos = (s * v).sum(-1) / (np.linalg.norm(s, axis=-1)
                                 * np.linalg.norm(v, axis=-1))
        np.testing.assert_allclose(cos, 1.0, atol=1e-9)


def squash_ops(s, axis=-1):
    """The three-op squash expression the one-node kernel replaced."""
    nsq = T.tsum(s * s, axis=axis, keepdims=True)
    norm = T.sqrt(nsq + SQUASH_EPS)
    return s * (nsq / (1.0 + nsq) / norm)


class TestSquashNode:
    @pytest.mark.parametrize("shape,axis", [((3, 5, 4), -1), ((2, 3, 4, 2, 2), 2)])
    def test_forward_byte_equal_to_three_ops(self, shape, axis):
        s = Tensor(seeded_rng(0, "sq", len(shape)).normal(size=shape))
        out = T.squash(s, axis)
        assert out.op == "squash"
        np.testing.assert_array_equal(out.data, squash_ops(s, axis).data)

    @pytest.mark.parametrize("shape,axis", [((3, 5, 4), -1), ((2, 3, 4, 2, 2), 2)])
    def test_check_grads(self, shape, axis):
        # axis 2 of a 5-D blob is how grid_squash calls it
        s = Tensor(seeded_rng(1, "sq", len(shape)).normal(size=shape))
        w = T.constant(seeded_rng(2, "sq", len(shape)).normal(size=shape))
        errs = check_grads(lambda: T.tsum(T.squash(s, axis) * w), [s])
        assert errs[0] < 1e-8

    def test_gradient_at_zero_vector_is_exactly_zero(self):
        s = Tensor(np.zeros((3, 4)), requires_grad=True)
        T.tsum(T.squash(s, -1) * T.constant(np.ones((3, 4)))).backward()
        assert np.all(np.isfinite(s.grad))
        np.testing.assert_array_equal(s.grad, 0.0)

    def test_node_holds_nothing_beyond_its_output(self):
        # 2-dim capsules: |s|^2 and the scale would each be half of s
        s = Tensor(seeded_rng(4, "sq").normal(size=(16, 8, 2, 16, 16)), requires_grad=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            v = T.squash(s, 2)
            held = tracemalloc.get_traced_memory()[0] - before - v.data.nbytes
        finally:
            tracemalloc.stop()
        assert held <= 64 << 10, held

    @pytest.mark.parametrize("norm", [1e-9, 1e6])
    def test_gradient_matches_three_ops_at_extreme_norms(self, norm):
        rng = seeded_rng(3, "sq", norm)
        d = rng.normal(size=(6, 5))
        data = d / np.linalg.norm(d, axis=-1, keepdims=True) * norm
        w = T.constant(rng.normal(size=(6, 5)))
        grads = []
        for fn in (T.squash, squash_ops):
            s = Tensor(data.copy(), requires_grad=True)
            T.tsum(fn(s, -1) * w).backward()
            grads.append(s.grad)
        np.testing.assert_allclose(grads[0], grads[1], rtol=1e-10)


class TestGridLayout:
    def test_grid_to_capsules_layout(self):
        # channel-major: channel index = capsule * dim + coordinate
        b, c, d, h, w = 2, 3, 4, 2, 2
        x = np.arange(b * c * d * h * w, dtype=np.float64).reshape(b, c * d, h, w)
        caps = grid_to_capsules(Tensor(x), c, d).data
        assert caps.shape == (b, c * h * w, d)
        # capsule (cap, y, x) holds channels cap*d..cap*d+d at that pixel
        for cap in range(c):
            for y in range(h):
                for xx in range(w):
                    idx = cap * h * w + y * w + xx
                    np.testing.assert_array_equal(
                        caps[0, idx], x[0, cap * d:(cap + 1) * d, y, xx])

    def test_grid_squash_normalizes_per_capsule(self):
        rng = seeded_rng(0, "gsq")
        x = Tensor(rng.normal(size=(2, 12, 3, 3)) * 10)
        y = grid_squash(x, 3, 4)
        caps = grid_to_capsules(y, 3, 4).data
        assert np.linalg.norm(caps, axis=-1).max() < 1.0

    def test_capsule_norms(self):
        v = Tensor(np.array([[[3.0, 4.0]]]))
        assert capsule_norms(v).data[0, 0] == pytest.approx(5.0, rel=1e-7)


class TestMarginLoss:
    def test_all_zero_capsules_frozen_value(self):
        # K classes: one positive hinge (0.9)^2 + (K-1)*0.5*(0.1-0.1... )
        # with v = 0: positive term 0.81, negative terms relu(0-0.1)=0
        v = Tensor(np.zeros((4, 10, 16)))
        loss = margin_loss(v, np.arange(4) % 10)
        assert float(loss.data) == pytest.approx(0.81, abs=1e-3)

    def test_perfect_prediction_low_loss(self):
        v = np.full((2, 5, 4), 0.0)
        v[0, 1], v[1, 3] = [0.95 / 2] * 4, [0.95 / 2] * 4  # norm 0.95
        loss = margin_loss(Tensor(v), np.array([1, 3]))
        assert float(loss.data) < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            margin_loss(Tensor(np.zeros((1, 3, 2))), np.array([3]))

    def test_downweights_negatives(self):
        # one wrong-class capsule at norm 0.5: loss = 0.81 + 0.5*(0.4)^2
        v = np.zeros((1, 3, 2))
        v[0, 2] = [0.5, 0.0]
        loss = float(margin_loss(Tensor(v), np.array([0])).data)
        assert loss == pytest.approx(0.81 + 0.5 * 0.16, abs=2e-3)


class TestCapFC:
    def test_shapes_and_norms(self):
        fc = CapFC(12, 5, 8, rng=seeded_rng(0, "fc"))
        x = Tensor(seeded_rng(1, "fcx").normal(size=(3, 12, 8)))
        y = fc(x)
        assert y.shape == (3, 5, 8)
        assert np.linalg.norm(y.data, axis=-1).max() < 1.0

    def test_weight_is_per_dimension(self):
        fc = CapFC(4, 3, 6, rng=seeded_rng(0, "fc2"))
        assert fc.weight.data.shape == (6, 4, 3)

    def test_output_is_squashed_per_dimension_map(self):
        # dimension k of output capsule m mixes only dimension k of the inputs
        fc = CapFC(4, 3, 2, rng=seeded_rng(0, "fc3"))
        x = seeded_rng(1, "a").normal(size=(2, 4, 2))
        s = np.einsum("bnd,dnm->bmd", x, fc.weight.data)
        expect = squash(Tensor(s), axis=-1).data
        np.testing.assert_allclose(fc(Tensor(x)).data, expect, atol=1e-12)


class TestPredict:
    def test_argmax_of_lengths(self):
        v = np.zeros((2, 4, 3))
        v[0, 2] = [0.1, 0.2, 0.2]
        v[1, 0] = [0.9, 0, 0]
        assert predict(Tensor(v)).tolist() == [2, 0]

    def test_tie_goes_to_lowest_index(self):
        v = np.zeros((1, 3, 2))
        v[0, 1] = [0.5, 0.0]
        v[0, 2] = [0.0, 0.5]
        assert predict(Tensor(v)).tolist() == [1]

"""Master/aide one-pass capsule convolution: masks, gates, module assembly."""

import numpy as np
import pytest

from encapnet import tensor as T
from encapnet.capconv import (CapConv, CapConvSpec, EncapModule,
                              mapping_kernel_extent, mapping_param_reduction,
                              routing_ops_reduction)
from encapnet.errors import ConfigError, ShapeError
from encapnet.tensor import Tensor, seeded_rng


def make_layer(caps=3, dim_in=4, dim_out=4, stride=1, seed=0):
    spec = CapConvSpec(caps, dim_in, dim_out, kernel=3, stride=stride, padding=1)
    return CapConv(spec, seed=seed)


class TestSpecValidation:
    def test_masked_aide_needs_two_channels(self):
        with pytest.raises(ConfigError):
            CapConvSpec(1, 4, 4)

    def test_positive_dims(self):
        with pytest.raises(ConfigError):
            CapConvSpec(2, 0, 4)


class TestAideMask:
    def test_same_index_block_is_dead(self):
        # Jacobian sparsity: perturbing input capsule c must not move the aide
        # vote of output capsule c, only those of the other capsules.
        layer = make_layer()
        c, d1 = layer.spec.caps, layer.spec.dim_in
        x = Tensor(seeded_rng(1, "x").normal(size=(1, c * d1, 4, 4)))
        base = layer._aide_votes(x).data
        for cap in range(c):
            bumped = x.data.copy()
            bumped[:, cap * d1:(cap + 1) * d1] += 0.37
            delta = layer._aide_votes(Tensor(bumped)).data - base
            d2 = layer.spec.dim_out
            own = delta[:, cap * d2:(cap + 1) * d2]
            np.testing.assert_array_equal(own, 0.0)
            others = np.delete(delta, np.s_[cap * d2:(cap + 1) * d2], axis=1)
            assert np.abs(others).max() > 0

    def test_mask_survives_gradient_updates(self):
        # even if the optimizer writes into the dead block, the effective
        # kernel stays masked because masking happens at call time
        layer = make_layer()
        layer.aide.weight.data += 1.0
        c, d1 = layer.spec.caps, layer.spec.dim_in
        x = Tensor(seeded_rng(2, "x").normal(size=(1, c * d1, 3, 3)))
        base = layer._aide_votes(x).data
        bumped = x.data.copy()
        bumped[:, 0:d1] += 1.0
        delta = layer._aide_votes(Tensor(bumped)).data - base
        np.testing.assert_array_equal(delta[:, 0:layer.spec.dim_out], 0.0)


class TestMasterBranch:
    def test_grouped_partition(self):
        # master vote for capsule c depends only on input capsule c
        layer = make_layer()
        c, d1, d2 = layer.spec.caps, layer.spec.dim_in, layer.spec.dim_out
        x = Tensor(seeded_rng(3, "x").normal(size=(1, c * d1, 4, 4)))
        base = layer.master(x).data
        for cap in range(c):
            bumped = x.data.copy()
            bumped[:, cap * d1:(cap + 1) * d1] += 0.5
            delta = layer.master(Tensor(bumped)).data - base
            others = np.delete(delta, np.s_[cap * d2:(cap + 1) * d2], axis=1)
            np.testing.assert_array_equal(others, 0.0)
            assert np.abs(delta[:, cap * d2:(cap + 1) * d2]).max() > 0


class TestForward:
    def test_shapes_and_finiteness(self):
        layer = make_layer(stride=2)
        c, d1, d2 = layer.spec.caps, layer.spec.dim_in, layer.spec.dim_out
        out = layer(Tensor(seeded_rng(4, "x").normal(size=(2, c * d1, 6, 6))))
        assert out.shape == (2, c * d2, 3, 3)
        assert np.all(np.isfinite(out.data))

    def test_no_softmax_in_graph(self):
        # one-pass routing: the tape of a forward pass holds no softmax and no
        # op repeated by an iteration loop over coefficients
        layer = make_layer()
        c, d1 = layer.spec.caps, layer.spec.dim_in
        out = layer(Tensor(seeded_rng(6, "x").normal(size=(1, c * d1, 4, 4)),
                           requires_grad=True))
        ops = set()
        seen = set()
        stack = [out]
        while stack:
            t = stack.pop()
            if id(t) in seen:
                continue
            seen.add(id(t))
            ops.add(t.op)
            stack.extend(t._parents)
        assert not any("softmax" in op for op in ops)
        assert any("sigmoid" in op for op in ops)

    def test_rejects_wrong_channels(self):
        with pytest.raises(ShapeError):
            make_layer()(Tensor(np.zeros((1, 5, 4, 4))))

    def test_output_capsules_squashed(self):
        layer = make_layer()
        c, d1, d2 = layer.spec.caps, layer.spec.dim_in, layer.spec.dim_out
        out = layer(Tensor(seeded_rng(7, "x").normal(size=(2, c * d1, 4, 4)) * 5))
        caps = out.data.reshape(2, c, d2, 4, 4)
        norms = np.sqrt((caps ** 2).sum(axis=2))
        assert norms.max() < 1.0


class TestEncapModule:
    def test_depth_counts_all_convs(self):
        m = EncapModule(2, 4, 4, n_type2=3)
        assert m.depth == 4
        assert EncapModule(2, 4, 4, n_type2=0).depth == 1

    def test_forward_shapes_and_trace(self):
        m = EncapModule(2, 4, 6, n_type2=2, stride=2, seed=1)
        x = Tensor(seeded_rng(8, "x").normal(size=(2, 8, 6, 6)))
        y, trace = m(x)
        assert y.shape == (2, 12, 3, 3)
        assert trace.input is x
        assert trace.type1_out.shape == (2, 12, 3, 3)
        assert trace.output is y

    def test_output_is_type2_residual_over_skipped_type1(self):
        # y = type1(x) + type1_skip(x), then each Type II layer adds y back
        x = Tensor(seeded_rng(9, "x").normal(size=(1, 8, 4, 4)))
        m = EncapModule(2, 4, 4, n_type2=1, seed=3)
        m.set_mode(False)
        y = m.type1(x) + m.type1_skip(x)
        expect = m.type2[0](y) + y
        out, trace = m(x)
        np.testing.assert_array_equal(trace.type1_out.data, y.data)
        np.testing.assert_array_equal(out.data, expect.data)

    def test_negative_type2_rejected(self):
        with pytest.raises(ConfigError):
            EncapModule(2, 4, 4, n_type2=-1)


class TestComplexity:
    def test_mapping_extent(self):
        assert mapping_kernel_extent(16, 32, 2048) == 1_048_576

    def test_param_reduction(self):
        assert mapping_param_reduction(2048) == 1024.0

    def test_ops_reduction(self):
        assert routing_ops_reduction(8, 16) == 256.0

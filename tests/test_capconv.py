"""Master/aide one-pass capsule convolution: masks, gates, module assembly."""

import numpy as np
import pytest

from encapnet import tensor as T
from encapnet.capconv import (CapConv, CapConvSpec, EncapModule,
                              mapping_kernel_extent, mapping_param_reduction,
                              routing_ops_reduction)
from encapnet.capsules import grid_squash
from encapnet.errors import ConfigError, ShapeError
from encapnet.tensor import Tensor, seeded_rng


def make_layer(interaction="v3", caps=3, dim_in=4, dim_out=4, stride=1, seed=0):
    spec = CapConvSpec(caps, dim_in, dim_out, kernel=3, stride=stride, padding=1,
                       interaction=interaction)
    return CapConv(spec, seed=seed)


class TestSpecValidation:
    def test_unknown_interaction(self):
        with pytest.raises(ConfigError):
            CapConvSpec(2, 4, 4, interaction="v9")

    def test_masked_aide_needs_two_channels(self):
        with pytest.raises(ConfigError):
            CapConvSpec(1, 4, 4, interaction="v3")
        CapConvSpec(1, 4, 4, interaction="master_only")

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
        base = layer._master_votes(x).data
        for cap in range(c):
            bumped = x.data.copy()
            bumped[:, cap * d1:(cap + 1) * d1] += 0.5
            delta = layer._master_votes(Tensor(bumped)).data - base
            others = np.delete(delta, np.s_[cap * d2:(cap + 1) * d2], axis=1)
            np.testing.assert_array_equal(others, 0.0)
            assert np.abs(delta[:, cap * d2:(cap + 1) * d2]).max() > 0


class TestForward:
    @pytest.mark.parametrize("interaction", ["master_only", "v1", "v2", "v3"])
    def test_shapes_and_finiteness(self, interaction):
        layer = make_layer(interaction=interaction, stride=2)
        c, d1, d2 = layer.spec.caps, layer.spec.dim_in, layer.spec.dim_out
        out = layer(Tensor(seeded_rng(4, "x").normal(size=(2, c * d1, 6, 6))))
        assert out.shape == (2, c * d2, 3, 3)
        assert np.all(np.isfinite(out.data))

    def test_master_only_is_master_bn_relu_squash(self):
        # master_only has no aide and no gate: its output is the master votes
        # through batch norm, relu and the per-capsule squash, nothing else
        layer = make_layer(interaction="master_only", seed=7)
        c, d2 = layer.spec.caps, layer.spec.dim_out
        assert layer.aide is None and layer.gate is None
        assert {n.split(".")[0] for n, _ in layer.named_params()} == {"master", "bn"}
        rng = seeded_rng(5, "bn")
        layer.bn.gamma.data = rng.uniform(0.5, 1.5, size=c * d2)
        layer.bn.beta.data = rng.normal(size=c * d2)
        buffers = dict(layer.named_buffers())
        buffers["bn.running_mean"][...] = rng.normal(size=c * d2)
        buffers["bn.running_var"][...] = rng.uniform(0.5, 2.0, size=c * d2)
        layer.set_mode(False)
        x = Tensor(seeded_rng(5, "x").normal(size=(2, 12, 5, 5)))
        expect = grid_squash(layer.bn(layer.master(x)), c, d2)
        np.testing.assert_array_equal(layer(x).data, expect.data)

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

    def test_skip_modes(self):
        # type_I mode owns a projection; none has neither skip path
        assert EncapModule(2, 4, 4, skip="type_I").type1_skip is not None
        assert EncapModule(2, 4, 4, skip="none").type1_skip is None
        with pytest.raises(ConfigError):
            EncapModule(2, 4, 4, skip="diagonal")

    def test_type2_residual_changes_output(self):
        x = Tensor(seeded_rng(9, "x").normal(size=(1, 8, 4, 4)))
        with_skip = EncapModule(2, 4, 4, n_type2=1, skip="both", seed=3)
        without = EncapModule(2, 4, 4, n_type2=1, skip="type_I", seed=3)
        with_skip.set_mode(False)
        without.set_mode(False)
        assert not np.array_equal(with_skip(x)[0].data, without(x)[0].data)

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

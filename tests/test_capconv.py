"""Master/aide one-pass capsule convolution: masks, gates, module assembly."""

import tracemalloc

import numpy as np
import pytest

from encapnet import tensor as T
from encapnet.capconv import CapConv, CapConvSpec, EncapModule
from encapnet.errors import ConfigError, ShapeError
from encapnet.tensor import Tensor, seeded_rng
from tape_ops import concat


def make_layer(caps=3, dim_in=4, dim_out=4, stride=1, seed=0):
    spec = CapConvSpec(caps, dim_in, dim_out, kernel=3, stride=stride)
    return CapConv(spec, seed=seed)


def stacked_gate_reference(v1, v2, w, caps):
    """The gate as conv2d on the per-capsule stack [v1_c; v2_c] of the votes."""
    b, cd, h, wd = v1.shape
    shape = (b, caps, cd // caps, h, wd)
    both = concat([T.reshape(v1, shape), T.reshape(v2, shape)], axis=2)
    return T.conv2d(T.reshape(both, (b, 2 * cd, h, wd)), w, 1, 0, caps)


def gated_sum_reference(v1, v2, m, caps):
    """m1 * v1 + m2 * v2 from broadcast ops on per-capsule slices of m.

    A coefficient is picked by a one-hot product summed over the pair axis,
    not by indexing m's array, so that m's gradient flows through the tape.
    """
    b, cd, h, wd = v1.shape
    shape = (b, caps, cd // caps, h, wd)
    mm = T.reshape(m, (b, caps, 2, h, wd))
    m1, m2 = (T.tsum(mm * T.constant(np.eye(2)[k].reshape(2, 1, 1)), axis=2, keepdims=True)
              for k in (0, 1))
    s = m1 * T.reshape(v1, shape) + m2 * T.reshape(v2, shape)
    return T.reshape(s, v1.shape)


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


class TestGate:
    B, CAPS, D, HW = 5, 3, 4, 3

    def _inputs(self, tag):
        rng = seeded_rng(0, "gate", tag)
        shape = (self.B, self.CAPS * self.D, self.HW, self.HW)
        v1, v2 = (Tensor(rng.normal(size=shape), requires_grad=True) for _ in range(2))
        return v1, v2, rng

    def _compare(self, fns, inputs, probe_shape, rng):
        probe = T.constant(rng.normal(size=probe_shape))
        results = []
        for fn in fns:
            for t in inputs:
                t.zero_grad()
            y = fn(*inputs)
            T.tsum(y * probe).backward()
            results.append([y.data] + [t.grad for t in inputs])
        for got, want in zip(*results):
            np.testing.assert_array_equal(got, want)

    def test_logits_bitwise_equal_to_conv_on_the_stack(self, monkeypatch):
        # two images fill a block, so the batch spans three blocks
        monkeypatch.setattr(T, "COLS_BLOCK_BYTES", 2 * 8 * 2 * self.CAPS * self.D * self.HW ** 2)
        v1, v2, rng = self._inputs("logits")
        w = Tensor(rng.normal(size=(2 * self.CAPS, 2 * self.D, 1, 1)), requires_grad=True)
        self._compare([lambda a, b, c: T.gate_logits(a, b, c, self.CAPS),
                       lambda a, b, c: stacked_gate_reference(a, b, c, self.CAPS)],
                      (v1, v2, w), (self.B, 2 * self.CAPS, self.HW, self.HW), rng)

    def test_gated_sum_bitwise_equal_to_broadcast_ops(self, monkeypatch):
        monkeypatch.setattr(T, "COLS_BLOCK_BYTES", 2 * 8 * self.CAPS * self.D * self.HW ** 2)
        v1, v2, rng = self._inputs("sum")
        m = Tensor(rng.uniform(size=(self.B, 2 * self.CAPS, self.HW, self.HW)),
                   requires_grad=True)
        self._compare([T.gated_sum, lambda a, b, c: gated_sum_reference(a, b, c, self.CAPS)],
                      (v1, v2, m), v1.shape, rng)

    def test_master_only_coefficients_reproduce_the_master_votes(self):
        v1, v2, _ = self._inputs("master")
        m = np.zeros((self.B, 2 * self.CAPS, self.HW, self.HW))
        m[:, 0::2] = 1.0
        np.testing.assert_array_equal(T.gated_sum(v1, v2, Tensor(m)).data, v1.data)

    def test_rejects_mismatched_shapes(self):
        v1, v2, _ = self._inputs("shape")
        with pytest.raises(ShapeError):
            # five coefficient pairs cannot split 12 channels into capsules
            T.gated_sum(v1, v2, Tensor(np.zeros((self.B, 10, self.HW, self.HW))))
        with pytest.raises(ShapeError):
            T.gate_logits(v1, v2, Tensor(np.zeros((2 * self.CAPS, 2 * self.D, 3, 3))),
                          self.CAPS)

    def test_training_forward_holds_votes_gate_and_three_stages(self):
        # v1, v2, the gated sum, its BN-ReLU and their squash are one stage
        # each; the gate's logits and coefficients are (B, 2*caps, H, W)
        layer = make_layer(caps=4, dim_in=4, dim_out=8)
        x = Tensor(seeded_rng(10, "x").normal(size=(8, 16, 12, 12)), requires_grad=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = layer(x)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        gate = 2 * out.data.nbytes * 2 // layer.spec.dim_out
        assert held <= 5 * out.data.nbytes + gate + (64 << 10), held


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

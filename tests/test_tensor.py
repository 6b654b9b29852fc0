"""Engine tests: ops, broadcasting, convolutions, batch norm, no_grad, and the
backward pass."""

import contextlib

import numpy as np
import pytest

from encapnet import tensor as T
from encapnet.errors import DomainError, ShapeError
from encapnet.gradcheck import check_grads
from encapnet.tensor import Tensor, find_first_nonfinite, seeded_rng


@pytest.fixture(autouse=True)
def _float64():
    prev = T.get_default_dtype()
    T.set_default_dtype(np.float64)
    yield
    T.set_default_dtype(prev)


def conv2d_naive(x, w, stride, padding, groups):
    """Direct loop convolution used as the oracle."""
    b, cin, h, wd = x.shape
    cout, cin_g, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - k) // stride + 1
    wo = (wd + 2 * padding - k) // stride + 1
    out = np.zeros((b, cout, ho, wo))
    cpg_out = cout // groups
    for bi in range(b):
        for co in range(cout):
            g = co // cpg_out
            for i in range(ho):
                for j in range(wo):
                    patch = xp[bi, g * cin_g:(g + 1) * cin_g,
                               i * stride:i * stride + k, j * stride:j * stride + k]
                    out[bi, co, i, j] = (patch * w[co]).sum()
    return out


# (cin, cout, k, stride, padding, groups, H, W): k=1 stride 2; stride 3,
# pad 0 with the input's tail never read; H != W; depthwise; 1x1 stride 1
# (the zero-copy path); a kernel wider than twice the stride
EDGE_GEOMETRIES = [(4, 8, 1, 2, 0, 1, 9, 9), (4, 6, 3, 3, 0, 2, 10, 10),
                   (4, 8, 3, 2, 1, 2, 9, 7), (6, 6, 3, 1, 1, 6, 7, 7),
                   (6, 6, 3, 2, 1, 6, 8, 8), (4, 8, 1, 1, 0, 2, 5, 7),
                   (2, 4, 5, 2, 2, 1, 9, 9)]


class TestElementwise:
    def test_broadcast_add_mul_grads(self):
        rng = seeded_rng(0, "bcast")
        for trial in range(5):
            a = Tensor(rng.normal(size=(3, 1, 4)), requires_grad=True)
            b = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
            errs = check_grads(lambda: T.tsum(a * b + b), [a, b])
            assert max(errs) < 1e-6, f"trial {trial}: {errs}"

    def test_div_neg_sub(self):
        rng = seeded_rng(0, "div")
        a = Tensor(rng.uniform(0.5, 2.0, size=(4, 3)), requires_grad=True)
        b = Tensor(rng.uniform(0.5, 2.0, size=(3,)), requires_grad=True)
        errs = check_grads(lambda: T.tsum(-a / b - (a - b)), [a, b])
        assert max(errs) < 1e-6

    def test_relu_sigmoid_exp_log(self):
        rng = seeded_rng(0, "acts")
        x = Tensor(rng.uniform(0.2, 2.0, size=(5, 5)), requires_grad=True)
        errs = check_grads(
            lambda: T.tsum(T.relu(x) + T.sigmoid(x) + T.exp(x) + T.log(x)), [x])
        assert max(errs) < 1e-6

    def test_sigmoid_extreme_inputs_stable(self):
        x = Tensor(np.array([-1e4, -50.0, 0.0, 50.0, 1e4]))
        y = T.sigmoid(x).data
        assert np.all(np.isfinite(y))
        assert y[0] == 0.0 and y[-1] == 1.0 and y[2] == 0.5

    def test_sqrt_rejects_negative(self):
        with pytest.raises(DomainError):
            T.sqrt(Tensor(np.array([1.0, -1e-12])))

    def test_maximum_floor_grad_routes_to_larger(self):
        x = Tensor(np.array([0.5, 2.0]), requires_grad=True)
        y = T.tsum(T.maximum(x, 1.0))
        y.backward()
        assert np.array_equal(x.grad, [0.0, 1.0])

    def test_softmax_rows_sum_to_one(self):
        rng = seeded_rng(0, "softmax")
        x = Tensor(rng.normal(size=(6, 7)) * 30)
        s = T.softmax(x, axis=1).data
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)

    def test_logsumexp_matches_numpy(self):
        rng = seeded_rng(0, "lse")
        x = rng.normal(size=(4, 9)) * 20
        got = T.logsumexp(Tensor(x), axis=1).data
        want = np.log(np.exp(x - x.max(1, keepdims=True)).sum(1)) + x.max(1)
        np.testing.assert_allclose(got, want, atol=1e-12)


class TestShapesAndReductions:
    def test_reshape_transpose_concat_slice_grads(self):
        rng = seeded_rng(0, "shapes")
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)

        def build():
            c = T.concat([a.transpose(0, 2, 1), b.transpose(0, 2, 1)], axis=0)
            d = T.slice_axis(c, axis=0, start=1, stop=3)
            return T.tsum(d.reshape((24,)) * d.reshape((24,)))

        errs = check_grads(build, [a, b])
        assert max(errs) < 1e-6

    def test_transpose_no_args_reverses(self):
        x = Tensor(np.zeros((2, 3, 4)))
        assert x.transpose().shape == (4, 3, 2)

    def test_mean_keepdims(self):
        rng = seeded_rng(0, "mean")
        x = rng.normal(size=(3, 4, 5))
        got = T.tmean(Tensor(x), axis=(0, 2), keepdims=True).data
        np.testing.assert_allclose(got, x.mean(axis=(0, 2), keepdims=True))

    def test_matmul_batched_broadcast(self):
        rng = seeded_rng(0, "matmul")
        a = Tensor(rng.normal(size=(5, 2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        y = T.matmul(a, b)
        assert y.shape == (5, 2, 4)
        errs = check_grads(lambda: T.tsum(T.matmul(a, b) * T.matmul(a, b)), [a, b])
        assert max(errs) < 1e-6


class TestConv:
    def test_matches_naive_conv(self):
        rng = seeded_rng(0, "conv")
        cases = [(4, 8, 3, stride, padding, groups, 9, 9) for stride, padding, groups
                 in [(1, 0, 1), (1, 1, 1), (2, 1, 2), (3, 2, 4)]]
        for cin, cout, k, stride, padding, groups, h, wd in cases + EDGE_GEOMETRIES:
            x = rng.normal(size=(2, cin, h, wd))
            w = rng.normal(size=(cout, cin // groups, k, k))
            got = T.conv2d(Tensor(x), Tensor(w), stride, padding, groups).data
            want = conv2d_naive(x, w, stride, padding, groups)
            np.testing.assert_allclose(got, want, atol=1e-12,
                                       err_msg=f"k{k} s{stride} p{padding} g{groups} {h}x{wd}")

    def test_grouped_equals_independent_slices(self):
        rng = seeded_rng(0, "groups")
        x = rng.normal(size=(2, 6, 7, 7))
        w = rng.normal(size=(9, 2, 3, 3))
        full = T.conv2d(Tensor(x), Tensor(w), 1, 1, 3).data
        parts = [T.conv2d(Tensor(x[:, 2 * g:2 * g + 2]),
                          Tensor(w[3 * g:3 * g + 3]), 1, 1, 1).data
                 for g in range(3)]
        assert np.array_equal(full, np.concatenate(parts, axis=1))

    def test_conv_grads(self):
        rng = seeded_rng(0, "convgrad")
        x = Tensor(rng.normal(size=(2, 4, 6, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(6, 2, 3, 3)), requires_grad=True)
        errs = check_grads(
            lambda: T.tsum(T.conv2d(x, w, 2, 1, 2) * T.conv2d(x, w, 2, 1, 2)),
            [x, w])
        assert max(errs) < 1e-6

    def test_transpose_is_exact_adjoint(self):
        # <conv(x), y> == <x, conv_transpose(y)> with the opad recovering 8x8
        rng = seeded_rng(0, "adjoint")
        checked = 0
        cases = [(6, 6, 3, stride, padding, groups, 8, 8) for stride, padding, groups
                 in [(1, 0, 1), (1, 1, 2), (2, 1, 1), (2, 1, 2), (3, 2, 2)]]
        for cin, cout, k, stride, padding, groups, h, wd in cases + EDGE_GEOMETRIES:
            x = rng.normal(size=(2, cin, h, wd))
            w = rng.normal(size=(cout, cin // groups, k, k))
            fwd = T.conv2d(Tensor(x), Tensor(w), stride, padding, groups).data
            ho, wo = fwd.shape[2:]
            opad = h - ((ho - 1) * stride - 2 * padding + k)
            if not 0 <= opad < max(stride, 1) or opad != wd - ((wo - 1) * stride
                                                               - 2 * padding + k):
                continue
            y = rng.normal(size=fwd.shape)
            lhs = (fwd * y).sum()
            rhs = (x * T.conv_transpose2d(Tensor(y), Tensor(w), stride,
                                          padding, opad, groups).data).sum()
            rel = abs(lhs - rhs) / max(abs(lhs), 1e-12)
            assert rel < 1e-13, f"k{k} s{stride} p{padding} g{groups} {h}x{wd}: {rel}"
            checked += 1
        assert checked == len(cases) + len(EDGE_GEOMETRIES)

    def test_conv_transpose_grads(self):
        rng = seeded_rng(0, "ctgrad")
        v = Tensor(rng.normal(size=(2, 4, 4, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        errs = check_grads(
            lambda: T.tsum(T.conv_transpose2d(v, w, 2, 1, 1, 2)
                           * T.conv_transpose2d(v, w, 2, 1, 1, 2)),
            [v, w])
        assert max(errs) < 1e-6

    @pytest.mark.parametrize("cin,cout,k,stride,padding,groups,h,w",
                             [EDGE_GEOMETRIES[i] for i in (0, 1, 3, 5)])
    def test_conv_grads_edge_geometries(self, cin, cout, k, stride, padding, groups, h, w):
        rng = seeded_rng(0, "convgrad-edge", cin, k, stride, padding, groups, h, w)
        x = Tensor(rng.normal(size=(2, cin, h, w)), requires_grad=True)
        wt = Tensor(rng.normal(size=(cout, cin // groups, k, k)), requires_grad=True)
        ho = T.conv_out_size(h, k, stride, padding)
        wo = T.conv_out_size(w, k, stride, padding)
        v = Tensor(rng.normal(size=(2, cout, ho, wo)), requires_grad=True)
        opad = h - ((ho - 1) * stride - 2 * padding + k)

        def sq(y):
            return T.tsum(y * y)

        errs = check_grads(lambda: sq(T.conv2d(x, wt, stride, padding, groups)), [x, wt])
        errs += check_grads(
            lambda: sq(T.conv_transpose2d(v, wt, stride, padding, opad, groups)), [v, wt])
        assert max(errs) < 1e-6

    def test_constant_input_gets_no_grad_and_same_weight_grad(self, monkeypatch):
        # the input's gradient is not computed at all: no col2im scatter
        scatters = []
        col2im = T._col2im
        monkeypatch.setattr(T, "_col2im", lambda *a: scatters.append(1) or col2im(*a))
        rng = seeded_rng(0, "const-input")
        xd = rng.normal(size=(2, 4, 7, 7))
        for op, w_shape, args in ((T.conv2d, (6, 2, 3, 3), (2, 1, 2)),
                                  (T.conv_transpose2d, (4, 3, 3, 3), (2, 1, 0, 2))):
            wd = rng.normal(size=w_shape)
            w_grads = []
            for x_req in (True, False):
                x = Tensor(xd.copy(), requires_grad=x_req)
                w = Tensor(wd.copy(), requires_grad=True)
                y = op(x, w, *args)
                scatters.clear()
                T.tsum(y * y).backward()
                assert (x.grad is not None) == x_req
                if op is T.conv2d:
                    assert len(scatters) == int(x_req)
                w_grads.append(w.grad)
            assert np.array_equal(w_grads[0], w_grads[1])

    def test_out_size_formula(self):
        assert T.conv_out_size(28, 3, 2, 1) == 14
        assert T.conv_out_size(7, 3, 2, 1) == 4
        assert T.conv_out_size(5, 1, 1, 0) == 5


def batch_norm_composite(x, gamma, beta, eps):
    """The per-op formula BatchNorm2d's training path used before T.batch_norm."""
    c = x.shape[1]
    shape = (1, c, 1, 1)
    mu = T.tmean(x, axis=(0, 2, 3), keepdims=True)
    centered = x - mu
    var = T.tmean(centered * centered, axis=(0, 2, 3), keepdims=True)
    xhat = centered / T.sqrt(var + eps)
    return xhat * gamma.reshape(shape) + beta.reshape(shape), mu.data, var.data


class TestBatchNorm:
    def _inputs(self, tag, shape=(3, 4, 5, 6)):
        rng = seeded_rng(0, "bn", tag)
        x = Tensor(rng.normal(size=shape) * 3 + 1, requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 2.0, size=shape[1]), requires_grad=True)
        beta = Tensor(rng.normal(size=shape[1]), requires_grad=True)
        return x, gamma, beta, rng

    def test_gradcheck(self):
        x, gamma, beta, rng = self._inputs("grad")
        probe = rng.normal(size=x.shape)
        errs = check_grads(
            lambda: T.tsum(T.batch_norm(x, gamma, beta) * T.constant(probe)),
            [x, gamma, beta])
        assert max(errs) < 1e-6

    def test_unit_gamma_zero_beta_standardizes_each_channel(self):
        x, _, _, _ = self._inputs("invariant")
        c = x.shape[1]
        y = T.batch_norm(x, Tensor(np.ones(c)), Tensor(np.zeros(c)), eps=0.0).data
        np.testing.assert_allclose(y.mean(axis=(0, 2, 3)), 0.0, atol=1e-12)
        np.testing.assert_allclose(y.var(axis=(0, 2, 3)), 1.0, atol=1e-12)

    def test_matches_composite_formula(self):
        x, gamma, beta, rng = self._inputs("composite")
        probe = rng.normal(size=x.shape)
        c = x.shape[1]
        n = x.data.size // c
        results = []
        for fused in (True, False):
            for t in (x, gamma, beta):
                t.zero_grad()
            rm, rv = np.zeros(c), np.ones(c)
            if fused:
                y = T.batch_norm(x, gamma, beta, 1e-5, rm, rv, 0.1)
            else:
                y, mu, var = batch_norm_composite(x, gamma, beta, 1e-5)
                rm = 0.1 * mu.reshape(c)
                rv = 0.9 + 0.1 * (var.reshape(c) * (n / (n - 1)))
            T.tsum(y * T.constant(probe)).backward()
            results.append([y.data, x.grad, gamma.grad, beta.grad, rm, rv])
        for got, want in zip(*results):
            scale = max(np.abs(want).max(), 1.0)
            assert np.abs(got - want).max() / scale < 1e-12

    def test_layer_training_path_is_one_node(self):
        from encapnet.layers import BatchNorm2d
        bn = BatchNorm2d(4)
        x, _, _, _ = self._inputs("layer")
        y = bn(x)
        assert y.op == "batch_norm" and len(y._parents) == 3
        assert not np.array_equal(bn._buffers["running_mean"], np.zeros(4))


class TestNoGrad:
    def test_nodes_have_no_parents_and_no_backward(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with T.no_grad():
            y = T.tsum(T.relu(x * 2.0) + x)
            z = T.batch_norm(Tensor(np.ones((2, 3, 2, 2)), requires_grad=True),
                             x.data[0], x.data[1])
        for node in (y, z):
            assert node._parents == () and node._backward is None
            assert not node.requires_grad
        assert y.item() == float((np.maximum(x.data * 2.0, 0) + x.data).sum())
        y.backward()
        assert x.grad is None

    def test_flag_restored_after_exception_and_nesting(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(RuntimeError):
            with T.no_grad():
                with T.no_grad():
                    pass
                assert (x * x)._backward is None
                raise RuntimeError("boom")
        y = x * x
        assert y.requires_grad and y._parents == (x, x)

    def test_evaluate_identical_with_and_without(self, monkeypatch):
        from encapnet.data import synth_generate
        from encapnet.network import ModuleSpec, NetworkConfig, StemSpec, build_network
        from encapnet.training import evaluate

        cfg = NetworkConfig(family="encapnet", n_classes=4, image_size=12,
                            stem=StemSpec(channels=(8,), strides=(1,)), caps_channels=4,
                            class_caps_dim=4, modules=(ModuleSpec(2, 4, stride=2),))
        images, labels = synth_generate(12, cfg.n_classes, cfg.image_size, seed=5)
        model = build_network(cfg, seed=1)
        with_it = evaluate(model, images, labels, batch_size=5)
        monkeypatch.setattr(T, "no_grad", contextlib.nullcontext)
        without = evaluate(model, images, labels, batch_size=5)
        assert with_it == without

    def test_check_grads_identical_with_and_without(self, monkeypatch):
        rng = seeded_rng(0, "nograd-check")
        x = Tensor(rng.normal(size=(2, 4, 5, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 2, 3, 3)), requires_grad=True)

        def build():
            y = T.relu(T.batch_norm(T.conv2d(x, w, 1, 1, 2), Tensor(np.ones(4)),
                                    Tensor(np.zeros(4))))
            return T.tsum(y * y)

        with_it = check_grads(build, [x, w])
        monkeypatch.setattr(T, "no_grad", contextlib.nullcontext)
        assert check_grads(build, [x, w]) == with_it


class TestBackward:
    def test_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ShapeError):
            (x * x).backward()

    def test_grads_accumulate_on_reuse(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = T.tsum(x * x + x * x)
        y.backward()
        assert x.grad[0] == pytest.approx(12.0, abs=1e-14)

    def test_first_touch_does_not_alias_shared_gradient(self):
        # add hands the same g to both parents; s's later accumulation must
        # not leak into a.grad, nor a's into s.grad (and so into b.grad)
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        s = a + b
        T.tsum(s + a).backward()
        assert np.array_equal(a.grad, [2.0, 2.0, 2.0])
        assert np.array_equal(b.grad, [1.0, 1.0, 1.0])

    def test_constant_leaves_keep_no_grad(self):
        x = Tensor(np.ones(3), requires_grad=True)
        c = Tensor(np.ones(3), requires_grad=False)
        T.tsum(x * c).backward()
        assert c.grad is None and x.grad is not None

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_find_first_nonfinite_names_culprit(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        bad = T.log(x - 1.0)  # log(0) -> -inf
        loss = T.tsum(bad * 0.0)  # nan downstream
        assert find_first_nonfinite(loss) == "log"


class TestSeededRng:
    def test_same_path_same_stream(self):
        a = seeded_rng(7, "x", 3).normal(size=4)
        b = seeded_rng(7, "x", 3).normal(size=4)
        assert np.array_equal(a, b)

    def test_distinct_paths_differ(self):
        a = seeded_rng(7, "x", 3).normal(size=4)
        b = seeded_rng(7, "x", 4).normal(size=4)
        c = seeded_rng(8, "x", 3).normal(size=4)
        assert not np.array_equal(a, b) and not np.array_equal(a, c)

    def test_dtype_switch(self):
        T.set_default_dtype(np.float32)
        assert Tensor([1.0]).data.dtype == np.float32
        T.set_default_dtype(np.float64)
        assert Tensor([1.0]).data.dtype == np.float64

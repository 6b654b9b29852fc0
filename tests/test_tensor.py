"""Engine tests: ops, broadcasting, convolutions, batch norm, no_grad, and the
backward pass."""

import contextlib
import functools
import platform
import resource
import tracemalloc

import numpy as np
import pytest

from encapnet import tensor as T
from encapnet.errors import DomainError, GraphReleased, ShapeError
from encapnet.gradcheck import check_grads
from encapnet.tensor import Tensor, find_first_nonfinite, seeded_rng
from tape_ops import concat, exp


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
    def test_every_tensor_is_float64(self):
        for data in ([1.0, 2.0], np.ones(3, dtype=np.float32), np.arange(3)):
            assert Tensor(data).data.dtype == np.float64
        out = T.add(np.ones(3, dtype=np.float32), Tensor(np.ones(3)))
        assert out.data.dtype == np.float64
        x = np.ones(3)
        assert Tensor(x).data is x  # float64 input is stored, not copied

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

    def test_relu_sigmoid_exp(self):
        rng = seeded_rng(0, "acts")
        x = Tensor(rng.uniform(0.2, 2.0, size=(5, 5)), requires_grad=True)
        errs = check_grads(lambda: T.tsum(T.relu(x) + T.sigmoid(x) + exp(x)), [x])
        assert max(errs) < 1e-6

    def test_sigmoid_extreme_inputs_stable(self):
        x = Tensor(np.array([-1e4, -50.0, 0.0, 50.0, 1e4]))
        y = T.sigmoid(x).data
        assert np.all(np.isfinite(y))
        assert y[0] == 0.0 and y[-1] == 1.0 and y[2] == 0.5

    def test_sqrt_rejects_negative(self):
        with pytest.raises(DomainError):
            T.sqrt(Tensor(np.array([1.0, -1e-12])))


class TestShapesAndReductions:
    def test_reshape_transpose_concat_grads(self):
        rng = seeded_rng(0, "shapes")
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)

        def build():
            c = concat([a.transpose(0, 2, 1), b.transpose(0, 2, 1)], axis=0)
            return T.tsum(c.reshape((48,)) * c.reshape((48,)))

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

    @pytest.mark.parametrize("k,stride,pad", [(k, s, p) for k in (1, 2, 3, 5)
                                              for s in (1, 2, 3) for p in (0, 1, 2)])
    def test_col2im_is_the_adjoint_of_im2col(self, k, stride, pad):
        # <im2col(x), c> == <x, col2im(c)> on 7x9 images, also where no output
        # padding recovers 7x9 and where k < stride leaves pixels under no
        # tap; col2im overwrites every pixel of its NaN-filled out
        rng = seeded_rng(0, "col2im-adjoint", k, stride, pad)
        x = rng.normal(size=(2, 3, 7, 9))
        cols = T._im2col(x, k, stride, pad)
        c = rng.normal(size=cols.shape)
        out = np.full(x.shape, np.nan)
        T._col2im(c, out, k, stride, pad)
        lhs, rhs = np.vdot(cols, c), np.vdot(x, out)
        assert abs(lhs - rhs) <= 1e-13 * abs(lhs), (lhs, rhs)
        covered = np.full(x.shape, np.nan)
        T._col2im(np.ones(cols.shape), covered, k, stride, pad)
        assert np.all(out[covered == 0] == 0)
        if k < stride:
            assert np.any(covered == 0)

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

    @pytest.mark.parametrize("transposed,stride,groups,opad", [
        *(pytest.param(False, s, g, 0, id=f"{s}-{g}") for s in (1, 2) for g in (1, 2)),
        *(pytest.param(True, s, g, p, id=f"transpose-{s}-{g}-{p}")
          for s, p in ((1, 0), (2, 0), (2, 1)) for g in (1, 2))])
    def test_blocked_equals_one_block(self, monkeypatch, transposed, stride, groups, opad):
        # a budget of two images' columns lowers a batch of 5 as 2 + 2 + 1.
        # conv2d maps (5, 4, h, w) to (5, 6, ho, wo); conv_transpose2d maps
        # back, so its backward lowers its output's gradient in those blocks
        rng = seeded_rng(0, "conv-blocks", stride, groups, *(("t", opad) if transposed else ()))
        h, wd = (9 + opad, 7 + opad) if transposed and stride == 2 else (9, 8)
        ho, wo = T.conv_out_size(h, 3, stride, 1), T.conv_out_size(wd, 3, stride, 1)
        per_image = 8 * 4 * 9 * ho * wo
        xd = rng.normal(size=(5, 6, ho, wo) if transposed else (5, 4, h, wd))
        x = Tensor(xd, requires_grad=True)
        w = Tensor(rng.normal(size=(6, 4 // groups, 3, 3)), requires_grad=True)

        def loss():
            if transposed:
                y = T.conv_transpose2d(x, w, stride, 1, opad, groups)
                assert y.shape == (5, 4, h, wd)
            else:
                y = T.conv2d(x, w, stride, 1, groups)
            return T.tsum(y * y), y.data

        def run():
            x.zero_grad()
            w.zero_grad()
            value, out = loss()
            value.backward()
            return out, x.grad, w.grad

        whole = run()
        monkeypatch.setattr(T, "COLS_BLOCK_BYTES", 2 * per_image + per_image // 2)
        sizes = []
        im2col = T._im2col
        monkeypatch.setattr(T, "_im2col", lambda x, *a: sizes.append(len(x)) or im2col(x, *a))
        blocked = run()
        # conv2d lowers x in its forward and again for the weight gradient;
        # the transpose lowers only g, once for both of its gradients
        assert sizes == [2, 2, 1] * (1 if transposed else 2)
        for name, got, want in zip(("out", "x.grad", "w.grad"), blocked, whole):
            # the weight gradient is summed image by image either way
            assert np.array_equal(got, want), name
        assert max(check_grads(lambda: loss()[0], [x, w])) < 1e-6

    def test_columns_are_blocked_and_not_kept_on_the_tape(self):
        # numpy reports its buffers to tracemalloc. The whole batch's columns
        # would be 31.5 MiB here: eval must peak below the output plus a few
        # blocks, and the training node must hold nothing beyond its output.
        rng = seeded_rng(0, "conv-memory")
        x = Tensor(rng.normal(size=(128, 16, 14, 14)), requires_grad=True)
        w = Tensor(rng.normal(size=(16, 16, 3, 3)), requires_grad=True)
        tracemalloc.start()
        try:
            with T.no_grad():
                y = T.conv2d(x, w, 1, 1)
            eval_peak = tracemalloc.get_traced_memory()[1] - y.data.nbytes
            del y
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            y = T.conv2d(x, w, 1, 1)
            held = tracemalloc.get_traced_memory()[0] - before - y.data.nbytes
        finally:
            tracemalloc.stop()
        assert eval_peak < 4 * T.COLS_BLOCK_BYTES, eval_peak
        assert held <= 1e6, held

    @pytest.mark.parametrize("stride", [1, 2])
    def test_pointwise_product_is_the_output(self, stride):
        # the matmul writes the output bit for bit, with no product
        # temporary to copy from; the columns are x itself, or at
        # stride 2 x[:, :, ::2, ::2] copied one image at a time
        rng = seeded_rng(stride, "pointwise")
        x = Tensor(rng.normal(size=(64, 32, 14, 14)))
        w = Tensor(rng.normal(size=(64, 8, 1, 1)))
        cols = T._im2col(x.data, 1, stride, 0)
        ho = 14 // stride
        want = np.matmul(w.data.reshape(4, 16, 8), cols.reshape(64, 4, 8, ho * ho))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with T.no_grad():
                y = T.conv2d(x, w, stride, 0, 4)
            extra = tracemalloc.get_traced_memory()[1] - before - y.data.nbytes
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(y.data, want.reshape(y.shape))
        assert extra <= 64 << 10, extra

    def test_transpose_keeps_only_its_input_on_the_tape(self):
        # the forward's columns and padded scatter buffer are temporaries:
        # the training node must hold no more than the eval output
        rng = seeded_rng(0, "convt-memory")
        x = Tensor(rng.normal(size=(32, 64, 7, 7)), requires_grad=True)
        w = Tensor(rng.normal(size=(64, 16, 3, 3)), requires_grad=True)
        held = []
        tracemalloc.start()
        try:
            for mode in (T.no_grad, contextlib.nullcontext):
                before = tracemalloc.get_traced_memory()[0]
                with mode():
                    y = T.conv_transpose2d(x, w, 2, 1, 1, 4)
                held.append(tracemalloc.get_traced_memory()[0] - before)
                del y
        finally:
            tracemalloc.stop()
        assert held[1] - held[0] <= 64 << 10, held

    def test_transpose_training_peak_is_blocked(self):
        # synth_quick's generator: lowering the whole batch's gradient at
        # once took 4.6 MB; a block of it fits in COLS_BLOCK_BYTES
        rng = seeded_rng(0, "convt-peak")
        x = Tensor(rng.normal(size=(32, 64, 7, 7)), requires_grad=True)
        w = Tensor(rng.normal(size=(64, 2, 3, 3)), requires_grad=True)
        g = T.constant(rng.normal(size=(32, 32, 7, 7)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            y = T.conv_transpose2d(x, w, 1, 1, 0, 16)
            T.tsum(y * g).backward()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        held = y.data.nbytes + x.grad.nbytes + w.grad.nbytes
        assert peak < held + 3 * T.COLS_BLOCK_BYTES, (peak, held)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_transpose_output_owns_contiguous_memory(self, stride):
        # _col2im writes each block into the output it is given, which so
        # holds no more than its own bytes
        rng = seeded_rng(stride, "convt-own")
        x = Tensor(rng.normal(size=(4, 8, 7, 7)), requires_grad=True)
        w = Tensor(rng.normal(size=(8, 4, 3, 3)), requires_grad=True)
        y = T.conv_transpose2d(x, w, stride, 1, stride - 1)
        assert y.data.flags.c_contiguous and y.data.flags.owndata

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


def batch_norm_eval_ops(x, gamma, beta, running_mean, running_var, eps):
    """The four-op formula BatchNorm2d's eval path used before T.batch_norm_relu."""
    shape = (1, x.shape[1], 1, 1)
    mu = T.constant(running_mean.reshape(shape))
    var = T.constant(running_var.reshape(shape))
    xhat = (x - mu) / T.sqrt(var + eps)
    return xhat * gamma.reshape(shape) + beta.reshape(shape)


class TestBatchNorm:
    def _inputs(self, tag, shape=(3, 4, 5, 6)):
        rng = seeded_rng(0, "bn", tag)
        x = Tensor(rng.normal(size=shape) * 3 + 1, requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 2.0, size=shape[1]), requires_grad=True)
        beta = Tensor(rng.normal(size=shape[1]), requires_grad=True)
        return x, gamma, beta, rng

    def _running(self, rng, c):
        return rng.normal(size=c), rng.uniform(0.5, 2.0, size=c)

    def test_gradcheck(self):
        x, gamma, beta, rng = self._inputs("grad")
        probe = rng.normal(size=x.shape)
        rm, rv = self._running(rng, x.shape[1])
        for training in (True, False):
            errs = check_grads(
                lambda: T.tsum(T.batch_norm_relu(x, gamma, beta, rm, rv, training)
                               * T.constant(probe)),
                [x, gamma, beta])
            assert max(errs) < 1e-6, training

    def test_unit_gamma_zero_beta_standardizes_each_channel(self):
        # relu(a) - relu(-a) = a, and the node maps -x to exactly -xhat
        x, _, _, _ = self._inputs("invariant")
        c = x.shape[1]

        def bn(t):
            return T.batch_norm_relu(t, Tensor(np.ones(c)), Tensor(np.zeros(c)),
                                     np.zeros(c), np.ones(c), True, eps=0.0).data

        y = bn(x) - bn(-x)
        np.testing.assert_allclose(y.mean(axis=(0, 2, 3)), 0.0, atol=1e-12)
        np.testing.assert_allclose(y.var(axis=(0, 2, 3)), 1.0, atol=1e-12)

    def test_matches_composite_formula(self):
        # training against relu of the per-op formula, eval against relu of
        # the four-op running-statistics formula; running statistics included
        x, gamma, beta, rng = self._inputs("composite")
        probe = rng.normal(size=x.shape)
        c = x.shape[1]
        n = x.data.size // c
        rm0, rv0 = self._running(rng, c)
        for training in (True, False):
            results = []
            for fused in (True, False):
                for t in (x, gamma, beta):
                    t.zero_grad()
                rm, rv = rm0.copy(), rv0.copy()
                if fused:
                    y = T.batch_norm_relu(x, gamma, beta, rm, rv, training, 1e-5, 0.1)
                elif training:
                    y, mu, var = batch_norm_composite(x, gamma, beta, 1e-5)
                    y = T.relu(y)
                    rm = 0.9 * rm0 + 0.1 * mu.reshape(c)
                    rv = 0.9 * rv0 + 0.1 * (var.reshape(c) * (n / (n - 1)))
                else:
                    y = T.relu(batch_norm_eval_ops(x, gamma, beta, rm, rv, 1e-5))
                T.tsum(y * T.constant(probe)).backward()
                results.append([y.data, x.grad, gamma.grad, beta.grad, rm, rv])
            assert np.any(results[0][0] == 0.0) and np.any(results[0][0] > 0.0)
            for got, want in zip(*results):
                scale = max(np.abs(want).max(), 1.0)
                assert np.abs(got - want).max() / scale < 1e-12, training

    @pytest.mark.parametrize("training", [True, False])
    def test_backward_mask_is_the_forward_relu_at_a_tie(self, training):
        # the rule, which keeps no output, passes g exactly where out > 0,
        # also where the pre-ReLU sum is exactly zero
        x, gamma, beta, rng = self._inputs("tie")
        x3 = x.data.reshape(3, 4, -1)
        if training:
            rm, rv = np.zeros(4), np.ones(4)
            n = x3.shape[0] * x3.shape[2]
            d = x3 - x3.sum(axis=(0, 2))[:, None] * (1.0 / n)
            xhat0 = d[0, 0, 0] / np.sqrt((d * d).sum(axis=(0, 2)) * (1.0 / n) + 1e-5)[0]
            beta.data[0] = -(xhat0 * gamma.data[0])
        else:
            rm, rv = self._running(rng, 4)
            rm[0], beta.data[0] = x3[0, 0, 0], 0.0
        y = T.batch_norm_relu(x, gamma, beta, rm, rv, training)
        assert y.data[0, 0, 0, 0] == 0.0
        T.tsum(y).backward()
        np.testing.assert_array_equal(beta.grad, (y.data > 0).sum(axis=(0, 2, 3)))

    def test_eval_image_alone_matches_it_in_a_batch(self):
        x, gamma, beta, rng = self._inputs("alone", shape=(5, 4, 3, 3))
        rm, rv = self._running(rng, 4)
        batch = T.batch_norm_relu(x, gamma, beta, rm, rv, False).data
        for i in range(x.shape[0]):
            alone = T.batch_norm_relu(Tensor(x.data[i:i + 1]), gamma, beta, rm, rv, False)
            np.testing.assert_array_equal(alone.data[0], batch[i])

    def test_training_node_holds_nothing_beyond_its_output(self):
        # x-hat is as large as x: the backward recomputes it from x
        x, gamma, beta, rng = self._inputs("held", shape=(8, 16, 16, 16))
        rm, rv = self._running(rng, 16)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            y = T.batch_norm_relu(x, gamma, beta, rm, rv, True)
            held = tracemalloc.get_traced_memory()[0] - before - y.data.nbytes
        finally:
            tracemalloc.stop()
        assert held <= 64 << 10, held

    @pytest.mark.parametrize("training", [True, False])
    def test_overwrite_only_where_no_tape_records(self, training):
        x, gamma, beta, rng = self._inputs("overwrite")
        rm, rv = self._running(rng, x.shape[1])
        want = T.batch_norm_relu(x, gamma, beta, rm.copy(), rv.copy(), training).data
        y = T.batch_norm_relu(x, gamma, beta, rm.copy(), rv.copy(), training, overwrite=True)
        np.testing.assert_array_equal(y.data, want)
        assert not np.shares_memory(y.data, x.data)
        scratch = Tensor(x.data.copy())
        with T.no_grad():
            y = T.batch_norm_relu(scratch, gamma, beta, rm.copy(), rv.copy(), training,
                                  overwrite=True)
        np.testing.assert_array_equal(y.data, want)
        assert np.shares_memory(y.data, scratch.data)

    def test_layer_training_path_is_one_node(self):
        from encapnet.layers import BatchNorm2d
        bn = BatchNorm2d(4)
        x, _, _, _ = self._inputs("layer")
        y = bn(x)
        assert y.op == "batch_norm_relu" and len(y._parents) == 3
        assert not np.array_equal(bn._buffers["running_mean"], np.zeros(4))

    def test_layer_eval_path_is_one_node(self):
        from encapnet.layers import BatchNorm2d
        bn = BatchNorm2d(4)
        bn.set_mode(False)
        x, _, _, _ = self._inputs("layer")
        y = bn(x)
        assert y.op == "batch_norm_relu" and len(y._parents) == 3
        np.testing.assert_array_equal(bn._buffers["running_mean"], np.zeros(4))
        np.testing.assert_array_equal(bn._buffers["running_var"], np.ones(4))


class TestRelease:
    """release() drops the array of a node that only backward rules read
    later; value() rebuilds it, whole or one block of images, bit for bit,
    by re-running the op it is handed or by training BN's own rebuild."""

    @staticmethod
    def _node(op, rng):
        """(node, the op release() re-runs: None for BN's own rebuild)."""
        if op == "batch_norm_relu":  # training statistics
            x = Tensor(rng.normal(size=(6, 4, 5, 5)) * 3 + 1, requires_grad=True)
            gamma = Tensor(rng.uniform(0.5, 2.0, size=4), requires_grad=True)
            beta = Tensor(rng.normal(size=4), requires_grad=True)
            return T.batch_norm_relu(x, gamma, beta, np.zeros(4), np.ones(4), True), None
        if op == "gated_sum":
            v1, v2 = (Tensor(rng.normal(size=(6, 8, 5, 5)), requires_grad=True) for _ in "12")
            m = Tensor(rng.uniform(size=(6, 4, 5, 5)), requires_grad=True)
            return T.gated_sum(v1, v2, m), T.gated_sum
        if op == "masked weight":  # CapConv's aide weight times its mask
            from encapnet.capconv import _aide_mask
            w = Tensor(rng.normal(size=(8, 12, 1, 1)), requires_grad=True)
            return w * T.constant(_aide_mask(4, 2, 3)), T.mul
        x = Tensor(rng.normal(size=(6, 4, 9, 9)), requires_grad=True)
        k, stride, pad = {"conv2d 3x3": (3, 2, 1), "conv2d 1x1": (1, 2, 0)}[op]
        w = Tensor(rng.normal(size=(6, 2, k, k)), requires_grad=True)
        return (T.conv2d(x, w, stride, pad, 2),
                functools.partial(T.conv2d, stride=stride, padding=pad, groups=2))

    @pytest.mark.parametrize("op", ["batch_norm_relu", "gated_sum", "masked weight",
                                    "conv2d 3x3", "conv2d 1x1"])
    def test_rebuild_is_the_forward_output(self, monkeypatch, op):
        # small blocks, so the forward's blocks of images are not the rebuild's
        monkeypatch.setattr(T, "COLS_BLOCK_BYTES", 4096)
        node, redo = self._node(op, seeded_rng(0, "rebuild", op))
        want = node.data.copy()
        node.release(redo)
        assert node.data is None and node.shape == want.shape
        assert node.value().tobytes() == want.tobytes()
        assert node.value(slice(2, 5)).tobytes() == want[2:5].tobytes()

    def test_release_keeps_what_no_rebuild_covers(self):
        rng = seeded_rng(0, "keep")
        x = Tensor(rng.normal(size=(2, 3, 2, 2)), requires_grad=True)
        g, b = Tensor(np.ones(3), requires_grad=True), Tensor(np.zeros(3), requires_grad=True)
        with T.no_grad():
            untaped = x * x
        kept = [x,                                    # a leaf
                untaped,                              # a no_grad output of mul
                T.constant(np.ones(3)) * np.ones(3),  # mul with no rule
                T.sigmoid(x),                         # a rule but no rebuild
                T.batch_norm_relu(x, g, b, np.zeros(3), np.ones(3), False)]  # eval
        for node in kept:
            data = node.data
            node.release()
            assert node.data is data, node.op
        # handed an op, release() still keeps what no rule will read
        walked = T.tsum(x * x)
        walked.backward()
        for node in (x, untaped, T.constant(np.ones(3)) * np.ones(3), walked):
            data = node.data
            node.release(T.mul)
            assert node.data is data, node.op

    def test_released_node_reports_its_shape(self):
        w = Tensor(np.ones((4, 3, 2, 1)), requires_grad=True) * 2.0
        w.release(T.mul)
        assert w.data is None
        assert (w.shape, w.ndim, w.size, w.dtype) == ((4, 3, 2, 1), 4, 24, np.float64)

    def test_released_inputs_give_bitwise_equal_gradients(self):
        # conv2d reads a released BN-ReLU output and a released masked weight
        # block by block; batch_norm_relu reads a released gated sum
        def grads(release):
            rng = seeded_rng(0, "released-grads")
            x = Tensor(rng.normal(size=(5, 8, 6, 6)), requires_grad=True)
            w = Tensor(rng.normal(size=(8, 8, 3, 3)), requires_grad=True)
            gamma, beta = Tensor(np.full(8, 1.5), requires_grad=True), Tensor(
                np.full(8, 0.1), requires_grad=True)
            m = Tensor(rng.uniform(size=(5, 4, 6, 6)), requires_grad=True)
            mw = w * T.constant((rng.uniform(size=w.shape) > 0.3).astype(float))
            s = T.gated_sum(x, T.conv2d(x, mw, 1, 1), m)
            y = T.batch_norm_relu(s, gamma, beta, np.zeros(8), np.ones(8), True)
            z = T.conv2d(y, w, 2, 1)
            if release:
                mw.release(T.mul)
                s.release(T.gated_sum)
                y.release()
            T.tsum(z * z).backward()
            return [t.grad for t in (x, w, gamma, beta, m)]

        for got, want in zip(grads(True), grads(False)):
            assert got.tobytes() == want.tobytes()


class TestNoGrad:
    def test_nodes_have_no_parents_and_no_backward(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with T.no_grad():
            y = T.tsum(T.relu(x * 2.0) + x)
            z = [T.batch_norm_relu(Tensor(np.ones((2, 3, 2, 2)), requires_grad=True),
                                   x.data[0], x.data[1], np.zeros(3), np.ones(3), training)
                 for training in (True, False)]
        for node in [y] + z:
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
                            modules=(ModuleSpec(4, stride=2),))
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
            y = T.batch_norm_relu(T.conv2d(x, w, 1, 1, 2), Tensor(np.ones(4)),
                                  Tensor(np.zeros(4)), np.zeros(4), np.ones(4), True)
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

    def test_second_backward_adds_leaf_grads_once(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = T.tsum(x * x)
        y.backward()
        assert x.grad[0] == 6.0
        with pytest.raises(GraphReleased):
            y.backward()
        assert x.grad[0] == 6.0

    def test_second_backward_through_reshape_handoff(self):
        # the walk released the reshape node, whose gradient the leaf's grad
        # is a view of: a second walk raises and leaves that grad alone
        rng = seeded_rng(0, "second-walk")
        x = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
        w1, w2 = rng.normal(size=(3, 4)), rng.normal(size=(2, 6))
        r = T.reshape(x, (3, 4))
        y = T.tsum(r * T.constant(w1)) + T.tsum(x * T.constant(w2))
        y.backward()
        once = x.grad.copy()
        with pytest.raises(GraphReleased):
            y.backward()
        np.testing.assert_allclose(once, w1.reshape(2, 6) + w2, rtol=1e-15)
        assert np.array_equal(x.grad, once)
        assert r.grad is None and r._parents == ()
        r = T.reshape(x, (3, 4))
        y = T.tsum(r * T.constant(w1))
        x.zero_grad()
        y.backward()
        assert r.grad is None and r._parents == ()
        with pytest.raises(GraphReleased):
            y.backward()
        assert np.array_equal(x.grad, w1.reshape(2, 6))

    def test_walk_through_released_node_raises(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        h = T.relu(x * 3.0)
        T.tsum(h).backward()
        assert np.array_equal(x.grad, [3.0, 3.0])
        z = T.tsum(h * h) + T.tsum(x)
        with pytest.raises(GraphReleased, match="'relu' node was released"):
            z.backward()
        assert np.array_equal(x.grad, [3.0, 3.0])

    def test_first_touch_does_not_alias_shared_gradient(self):
        # add hands the same g to both parents; s's later accumulation must
        # not leak into a.grad, nor a's into s.grad (and so into b.grad)
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        s = a + b
        T.tsum(s + a).backward()
        assert np.array_equal(a.grad, [2.0, 2.0, 2.0])
        assert np.array_equal(b.grad, [1.0, 1.0, 1.0])

    def test_first_touch_of_a_repeated_operand(self):
        # an operand handed one gradient buffer twice, or a read-only
        # broadcast of one, and reached again by a later consumer
        rng = seeded_rng(0, "repeated-operand")
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        w1, w2 = rng.normal(size=(2, 3)), rng.normal(size=(4, 3))
        c1, c2 = T.constant(w1), T.constant(w2)
        builds = {
            "x + x": (lambda: T.tsum((x + x) * c1) + T.tsum(x * c1), 3 * w1),
            "concat([x, x])": (lambda: T.tsum(concat([x, x], 0) * c2) + T.tsum(x * c1),
                               w2[:2] + w2[2:] + w1),
            "tsum of x, and x": (lambda: T.tsum(x) * 2.0 + T.tsum(x * c1), 2.0 + w1),
            "x, and tsum of x": (lambda: T.tsum(x * c1) + T.tsum(x) * 2.0, w1 + 2.0),
        }
        for name, (build, expect) in builds.items():
            x.zero_grad()
            build().backward()
            np.testing.assert_allclose(x.grad, expect, rtol=1e-14, err_msg=name)
            assert x.grad.flags.writeable, name
            assert max(check_grads(build, [x])) < 1e-7, name

    def test_reshape_handoff_does_not_alias_gradients(self):
        # a reshape hands its input a view of its own gradient; whatever is
        # accumulated into that input later must not corrupt any leaf grad,
        # whichever consumer the walk reaches first
        rng = seeded_rng(0, "handoff")
        x = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
        w1, w2, w3 = (rng.normal(size=s) for s in ((3, 4), (2, 6), (12,)))
        c1, c2, c3 = T.constant(w1), T.constant(w2), T.constant(w3)

        gamma, beta = T.constant(rng.uniform(0.5, 2.0, size=3)), T.constant(rng.normal(size=3))
        c4 = T.constant(rng.normal(size=(2, 3, 1, 2)))

        def through_reshape():
            return T.tsum(T.reshape(x, (3, 4)) * c1)

        def through_bn():  # batch_norm_relu hands a fresh gradient down
            return T.tsum(T.batch_norm_relu(T.reshape(x, (2, 3, 1, 2)), gamma, beta,
                                            np.zeros(3), np.ones(3), True) * c4)

        x.zero_grad()
        through_bn().backward()
        bn_grad = x.grad.copy()

        builds = {
            "reshape, then direct": (
                lambda: through_reshape() + T.tsum(x * c2), w1.reshape(2, 6) + w2),
            "direct, then reshape": (
                lambda: T.tsum(x * c2) + through_reshape(), w2 + w1.reshape(2, 6)),
            "reshape of a reshape": (
                lambda: T.tsum(T.reshape(T.reshape(x, (12,)), (3, 4)) * c1),
                w1.reshape(2, 6)),
            "two reshapes, two consumers": (
                lambda: through_reshape() + T.tsum(T.reshape(x, (12,)) * c3),
                w1.reshape(2, 6) + w3.reshape(2, 6)),
            "squared through a reshape": (
                lambda: T.tsum(T.reshape(x, (3, 4)) * T.reshape(x, (3, 4)) * c1)
                + T.tsum(x * x * c2),
                2 * x.data * (w1.reshape(2, 6) + w2)),
            "batch_norm_relu, then direct": (
                lambda: through_bn() + T.tsum(x * c2), bn_grad + w2),
            "direct, then batch_norm_relu": (
                lambda: T.tsum(x * c2) + through_bn(), w2 + bn_grad),
            "relu of the leaf, and direct": (
                lambda: T.tsum(T.relu(x) * c2) + T.tsum(x * c2), (x.data > 0) * w2 + w2),
        }
        for name, (build, expect) in builds.items():
            x.zero_grad()
            build().backward()
            np.testing.assert_allclose(x.grad, expect, rtol=1e-14, err_msg=name)
            assert max(check_grads(build, [x])) < 1e-7, name

    def test_constant_leaves_keep_no_grad(self):
        x = Tensor(np.ones(3), requires_grad=True)
        c = Tensor(np.ones(3), requires_grad=False)
        T.tsum(x * c).backward()
        assert c.grad is None and x.grad is not None

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_find_first_nonfinite_names_culprit(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        bad = x / (x - 1.0)  # 1 / 0 -> inf
        loss = T.tsum(bad * 0.0)  # nan downstream
        assert find_first_nonfinite(loss) == "div"

    def test_find_first_nonfinite_rejects_a_released_graph(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        loss = T.tsum(exp(x))
        loss.backward()
        with pytest.raises(GraphReleased):
            find_first_nonfinite(loss)


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


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc thresholds")
def test_freed_step_memory_is_reused_without_page_faults():
    # a step that allocates 36 MiB in 3 MiB blocks and frees them all: with
    # glibc's default thresholds the heap top is trimmed after every step and
    # the next step faults it back in (~9000 pages); held, it is reused
    def step():
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        blocks = [np.empty(3 << 17) for _ in range(12)]
        for b in blocks:
            b.fill(1.0)
        del blocks
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    faults = [step() for _ in range(3)]
    assert faults[-1] <= 8, faults

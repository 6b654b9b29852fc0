"""Iterative routing: simplex invariants, degenerate cases, histograms."""

import csv
import tracemalloc

import numpy as np
import pytest

from encapnet import tensor as T
from encapnet.capsules import SQUASH_EPS, squash
from encapnet.errors import ConfigError, ShapeError
from encapnet.gradcheck import check_grads
from encapnet.routing import (CapNetLayer, CapsuleMapping, RoutingHistogram,
                              dynamic_routing, histogram_sums, routing_histogram,
                              vote_agreement, write_histogram_csv)
from encapnet.tensor import Tensor, seeded_rng
from routing_inputs import explicit_agreement, one_hot_routing
from tape_ops import softmax


def random_votes(b=2, n1=6, n2=4, d2=5, seed=0):
    return Tensor(seeded_rng(seed, "votes").normal(size=(b, n1, n2, d2)))


def squash_ops(s, axis=-1):
    """The squash expression op by op, independent of the one-node kernel."""
    nsq = T.tsum(s * s, axis=axis, keepdims=True)
    return s * (nsq / (1.0 + nsq) / T.sqrt(nsq + SQUASH_EPS))


def reference_routing(votes, iters):
    """Dynamic routing unrolled on the tape op by op: (v, every iterate's coeff)."""
    b, n1, n2, d2 = votes.shape
    logits = T.constant(np.zeros((b, n1, n2)))
    coeffs = []
    for _ in range(iters):
        coeff = softmax(logits, axis=1)
        coeffs.append(coeff.data)
        s = T.tsum(T.reshape(coeff, (b, n1, n2, 1)) * votes, axis=1)
        v = squash_ops(s, axis=-1)
        logits = logits + T.tsum(votes * T.reshape(v, (b, 1, n2, d2)), axis=-1)
    return v, coeffs


def reference_mapping(m, x):
    """The grouped 1x1 conv and reshape -> transpose -> reshape gather whose
    votes CapsuleMapping's poses and transforms imply."""
    b, _, h, w = x.shape
    y = T.conv2d(x, m.weight, stride=1, padding=0, groups=m.caps_in)
    y = T.reshape(y, (b, m.caps_in, m.n_out, m.dim_out, h, w))
    y = T.transpose(y, (0, 1, 4, 5, 2, 3))
    return T.reshape(y, (b, m.caps_in * h * w, m.n_out, m.dim_out))


class TestReferenceSoftmax:
    def test_softmax_rows_sum_to_one(self):
        rng = seeded_rng(0, "softmax")
        x = Tensor(rng.normal(size=(6, 7)) * 30)
        s = softmax(x, axis=1).data
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)


class TestDynamicRouting:
    def test_coefficients_on_simplex_every_iteration(self):
        # the reference's coefficients; the node returns none
        _, coeffs = reference_routing(random_votes(), 5)
        for ref in coeffs:
            np.testing.assert_allclose(ref.sum(axis=1), 1.0, atol=1e-12)

    def test_one_iteration_is_uniform_average(self):
        votes = random_votes(seed=3)
        v = dynamic_routing(*one_hot_routing(votes), iters=1)
        # the sum over n1 is a matmul here, so only the summation order differs
        expect = squash(Tensor(votes.data.mean(axis=1)), axis=-1).data
        np.testing.assert_allclose(v.data, expect, rtol=1e-13)

    @pytest.mark.parametrize("iters", [1, 2, 3, 4])
    def test_node_matches_tape_reference(self, iters):
        # n1, n2 and d2 all differ, so a transposed axis cannot go unnoticed
        data = random_votes(b=2, n1=7, n2=3, d2=5, seed=iters).data
        w = seeded_rng(iters, "w").normal(size=(2, 3, 5))
        out = []
        for route in (lambda u: dynamic_routing(*one_hot_routing(u), iters),
                      lambda u: reference_routing(u, iters)[0]):
            votes = Tensor(data.copy(), requires_grad=True)
            v = route(votes)
            T.tsum(v * T.constant(w)).backward()
            out.append((v.data, votes.grad))
        (v, g), (v_ref, g_ref) = out
        np.testing.assert_allclose(v, v_ref, rtol=1e-12)
        np.testing.assert_allclose(g, g_ref, rtol=1e-12)

    @pytest.mark.parametrize("iters", [1, 2, 3])
    def test_check_grads_on_votes(self, iters):
        votes = random_votes(b=2, n1=5, n2=3, d2=4, seed=10 + iters)
        w = T.constant(seeded_rng(iters, "w").normal(size=(2, 3, 4)))
        errs = check_grads(
            lambda: T.tsum(dynamic_routing(*one_hot_routing(votes), iters) * w), [votes])
        assert errs[0] < 1e-7

    def test_one_node_without_tape_under_no_grad(self):
        votes = random_votes()
        votes.requires_grad = True
        poses, transforms = one_hot_routing(votes)
        v = dynamic_routing(poses, transforms, iters=3)
        assert v._parents == (poses, transforms) and v._backward is not None
        with T.no_grad():
            v = dynamic_routing(*one_hot_routing(votes), iters=3)
        assert v._parents == () and v._backward is None

    def test_votes_without_grad_give_no_backward_rule(self):
        v = dynamic_routing(*one_hot_routing(random_votes()), iters=3)
        assert not v.requires_grad and v._backward is None

    @pytest.mark.parametrize("iters", [1, 3])
    def test_strided_votes_match_contiguous_copy(self, iters):
        # a transposed view (the votes of a (B, n2, n1, d2) array) and a view
        # whose last axis is strided, each against its contiguous copy
        base = seeded_rng(iters, "strided").normal(size=(2, 3, 7, 10))
        w = seeded_rng(iters, "w").normal(size=(2, 3, 5))
        for view in (base[..., :5].transpose(0, 2, 1, 3),
                     base.transpose(0, 2, 1, 3)[..., ::2]):
            assert not view.flags.c_contiguous
            out = []
            for data in (view, np.ascontiguousarray(view)):
                votes = Tensor(data, requires_grad=True)
                v = dynamic_routing(*one_hot_routing(votes), iters)
                T.tsum(v * T.constant(w)).backward()
                out.append((v.data, votes.grad))
            for strided, contiguous in zip(*out):
                np.testing.assert_allclose(strided, contiguous, rtol=1e-13, atol=1e-15)

    def test_agreement_concentrates_coefficients(self):
        # n1 votes where all but one agree, the outlier as long as they are and
        # orthogonal to them: it loses routing weight, so three iterations
        # point v closer to the agreeing votes than the uniform average does
        rng = seeded_rng(0, "agree")
        base = rng.normal(size=4)
        other = rng.normal(size=4)
        other -= (other @ base) / (base @ base) * base
        votes = np.tile(base, (1, 5, 1, 1))
        votes[0, 4, 0] = other * np.linalg.norm(base) / np.linalg.norm(other)

        def cosine(iters):
            v = dynamic_routing(*one_hot_routing(Tensor(votes)), iters=iters).data[0, 0]
            return v @ base / np.linalg.norm(v) / np.linalg.norm(base)

        assert cosine(3) > cosine(1)

    def test_rejects_bad_args(self):
        with pytest.raises(ConfigError):
            dynamic_routing(*one_hot_routing(random_votes()), iters=0)


def routing_operands(b=2, g=3, p=4, k=5, n2=6, d2=7, seed=0):
    """Leaf poses (B, g, p, k) and transforms (g, k, n2, d2); all extents differ."""
    rng = seeded_rng(seed, "operands")
    return (Tensor(rng.normal(size=(b, g, p, k)), requires_grad=True),
            Tensor(rng.normal(size=(g, k, n2, d2)), requires_grad=True))


def explicit_votes(poses, transforms):
    """The votes poses @ transforms that the routing node never forms."""
    b, g, p, k = poses.shape
    n2, d2 = transforms.shape[2:]
    votes = T.matmul(poses, T.reshape(transforms, (g, k, n2 * d2)))
    return T.reshape(votes, (b, g * p, n2, d2))


class TestRouteOnPoses:
    @pytest.mark.parametrize("iters", [1, 2, 3, 4])
    def test_matches_reference_on_explicit_votes(self, iters):
        probe = T.constant(seeded_rng(iters, "probe").normal(size=(2, 6, 7)))
        out = []
        for route in (lambda P, W: dynamic_routing(P, W, iters),
                      lambda P, W: reference_routing(explicit_votes(P, W), iters)[0]):
            poses, transforms = routing_operands(seed=iters)
            v = route(poses, transforms)
            T.tsum(v * probe).backward()
            out.append((v.data, poses.grad, transforms.grad))
        # gradient entries that cancel to ~1e-5 differ in the last bits of
        # their summands, so the floor is 1e-12 of each array's largest entry
        for got, want in zip(*out):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("iters", [1, 3])
    def test_check_grads_on_poses_and_transforms(self, iters):
        poses, transforms = routing_operands(b=2, g=2, p=3, k=4, n2=3, d2=5, seed=20 + iters)
        probe = T.constant(seeded_rng(iters, "probe").normal(size=(2, 3, 5)))
        errs = check_grads(
            lambda: T.tsum(dynamic_routing(poses, transforms, iters) * probe),
            [poses, transforms])
        assert max(errs) < 1e-7, errs

    def test_strided_poses_match_contiguous_copy(self):
        # the layout CapsuleMapping hands over: poses a transposed view of a
        # (B, g, k, p) array, transforms a permuted view of the weight
        rng = seeded_rng(0, "strided")
        pose_view = rng.normal(size=(2, 3, 5, 4)).transpose(0, 1, 3, 2)
        weight_view = rng.normal(size=(3, 6, 7, 5)).transpose(0, 3, 1, 2)
        probe = T.constant(rng.normal(size=(2, 6, 7)))
        out = []
        for P, W in ((pose_view, weight_view),
                     (np.ascontiguousarray(pose_view), np.ascontiguousarray(weight_view))):
            poses, transforms = Tensor(P, requires_grad=True), Tensor(W, requires_grad=True)
            v = dynamic_routing(poses, transforms, 3)
            T.tsum(v * probe).backward()
            out.append((v.data, poses.grad, transforms.grad))
        assert not pose_view.flags.c_contiguous
        for strided, contiguous in zip(*out):
            np.testing.assert_allclose(strided, contiguous, rtol=1e-13, atol=1e-15)

    def test_no_tape_under_no_grad(self):
        poses, transforms = routing_operands()
        v = dynamic_routing(poses, transforms, 3)
        assert v._parents == (poses, transforms) and v._backward is not None
        with T.no_grad():
            v = dynamic_routing(poses, transforms, 3)
        assert v._parents == () and v._backward is None and not v.requires_grad

    def test_rejects_transforms_of_other_poses(self):
        poses, _ = routing_operands(g=3, k=5)
        _, transforms = routing_operands(g=3, k=4)
        with pytest.raises(ShapeError):
            dynamic_routing(poses, transforms, 3)


class TestCapsuleMapping:
    def test_vote_extent(self):
        # the weight keeps a grouped 1x1 conv's layout: caps_in*n_out*dim_out
        # output channels of dim_in inputs each
        m = CapsuleMapping(4, 8, 10, 16, rng=seeded_rng(0, "map"))
        assert m.weight.data.shape == (4 * 10 * 16, 8, 1, 1)

    def test_matches_grouped_conv_reference(self):
        m = CapsuleMapping(3, 4, 5, 3, rng=seeded_rng(3, "map"))
        data = seeded_rng(4, "x").normal(size=(2, 12, 2, 2))
        probe = T.constant(seeded_rng(5, "p").normal(size=(2, 12, 5, 3)))
        out = []
        for mapping in (lambda x: explicit_votes(m.poses(x), m.transforms()),
                        lambda x: reference_mapping(m, x)):
            m.weight.zero_grad()
            x = Tensor(data, requires_grad=True)
            votes = mapping(x)
            T.tsum(votes * probe).backward()
            out.append((votes.data, x.grad, m.weight.grad))
        (votes, gx, gw), (votes_ref, gx_ref, gw_ref) = out
        np.testing.assert_array_equal(votes, votes_ref)
        np.testing.assert_allclose(gx, gx_ref, rtol=1e-12)
        np.testing.assert_allclose(gw, gw_ref, rtol=1e-12)

    def test_channel_shares_transform_across_positions(self):
        m = CapsuleMapping(2, 3, 2, 4, rng=seeded_rng(1, "map"))
        x = np.zeros((1, 6, 2, 2))
        probe = seeded_rng(2, "p").normal(size=3)
        x[0, 0:3, 0, 0] = probe
        x[0, 0:3, 1, 1] = probe
        # (1, 2*2*2, 2, 4), n1 index = cap*H*W + y*W + x
        votes = explicit_votes(m.poses(Tensor(x)), m.transforms()).data
        np.testing.assert_allclose(votes[0, 0], votes[0, 3], atol=1e-14)

    def test_rejects_wrong_channels(self):
        m = CapsuleMapping(2, 3, 2, 4)
        with pytest.raises(ShapeError):
            m.poses(Tensor(np.zeros((1, 7, 2, 2))))


class TestCapNetLayer:
    def test_class_layer_shape(self):
        layer = CapNetLayer(4, 8, 10, 16, (1, 1), rng=seeded_rng(0, "cl"))
        out = layer(Tensor(seeded_rng(1, "x").normal(size=(2, 32, 3, 3))))
        assert out.shape == (2, 160, 1, 1)

    def test_dynamic_layer_holds_no_votes(self):
        # routing_train's hidden layer: 8 images of 8x4 capsules on a 4x4 grid
        # routed to 64x16, whose votes would take 8 MiB. numpy reports its
        # buffers to tracemalloc; after the training forward the layer's tape
        # must hold less than half of that.
        layer = CapNetLayer(8, 4, 4, 16, (4, 4), rng=seeded_rng(0, "mem"))
        x = Tensor(seeded_rng(1, "x").normal(size=(8, 32, 4, 4)), requires_grad=True)
        votes_bytes = 8 * 8 * 8 * 16 * 64 * 16
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = layer(x)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out.shape == (8, 64, 4, 4)
        assert held < votes_bytes // 2, held

    def test_eval_forward_holds_one_logits_buffer(self):
        # the hidden layer at eval batch 32: its (B, n1, n2) logits take
        # 2 MiB. Without a tape, one buffer serves every iteration and no
        # coefficient array is returned, so the peak stays under 6 MiB.
        layer = CapNetLayer(8, 4, 4, 16, (4, 4), rng=seeded_rng(0, "mem"))
        x = Tensor(seeded_rng(1, "x").normal(size=(32, 32, 4, 4)))
        tracemalloc.start()
        try:
            with T.no_grad():
                out = layer(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (32, 64, 4, 4)
        assert peak < 6 * 2**20, peak


# routing_train's two layers: 8x4 capsules on a 4x4 grid routed to 64x16,
# and those 4x16 capsules on the 4x4 grid routed to the 10x16 class capsules
ROUTING_TRAIN_LAYERS = {"hidden": ((8, 4, 4, 16, (4, 4)), 32),
                        "class": ((4, 16, 10, 16, (1, 1)), 64)}


class TestVoteAgreement:
    @pytest.mark.parametrize("name", sorted(ROUTING_TRAIN_LAYERS))
    def test_matches_explicit_votes(self, name):
        shape, channels = ROUTING_TRAIN_LAYERS[name]
        layer = CapNetLayer(*shape, rng=seeded_rng(0, name))
        x = Tensor(seeded_rng(1, name).normal(size=(8, channels, 4, 4)))
        cos, lengths = layer.agreement(x)
        m = layer.mapping
        votes = explicit_votes(m.poses(x), m.transforms()).data
        cos_ref, lengths_ref = explicit_agreement(votes, layer.route(x).data)
        assert cos.shape == lengths.shape == votes.shape[:3]
        np.testing.assert_allclose(cos, cos_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(lengths, lengths_ref, rtol=1e-12)

    def test_holds_no_votes(self):
        # the hidden layer's votes for 8 images take 8 MiB; the agreement
        # (routing included) may peak at under half of that
        shape, channels = ROUTING_TRAIN_LAYERS["hidden"]
        layer = CapNetLayer(*shape, rng=seeded_rng(0, "mem"))
        x = Tensor(seeded_rng(1, "x").normal(size=(8, channels, 4, 4)))
        votes_bytes = 8 * 8 * 8 * 16 * 64 * 16
        tracemalloc.start()
        try:
            with T.no_grad():
                cos, _ = layer.agreement(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cos.shape == (8, 128, 64)
        assert peak < votes_bytes // 2, peak

    def test_zero_pose_gives_zero_cosine_and_length(self):
        rng = seeded_rng(0, "zero")
        poses = rng.normal(size=(2, 3, 4, 5))
        poses[1, 2, 3] = 0.0
        transforms, v = rng.normal(size=(3, 5, 6, 7)), rng.normal(size=(2, 6, 7))
        cos, lengths = vote_agreement(poses, transforms, v)
        assert np.all(cos[1, 11] == 0.0) and np.all(lengths[1, 11] == 0.0)
        assert np.all(np.abs(cos) <= 1.0)


class TestHistogram:
    def test_percent_sums_to_hundred(self):
        rng = seeded_rng(0, "h")
        votes = rng.normal(size=(8, 12, 5, 4))
        v = rng.normal(size=(8, 5, 4))
        hist = routing_histogram(histogram_sums(*explicit_agreement(votes, v)))
        assert hist.percent.sum() == pytest.approx(100.0, abs=1e-9)
        assert len(hist.percent) == 20 and len(hist.edges) == 21

    def test_aligned_votes_land_in_top_bin(self):
        v = np.tile(np.array([1.0, 0.0]), (1, 1, 1))       # (1, 1, 2)
        votes = np.tile(np.array([2.0, 0.0]), (1, 1, 1, 1))
        hist = routing_histogram(histogram_sums(*explicit_agreement(votes, v)))
        assert hist.percent[-1] == pytest.approx(100.0)
        assert hist.mean_length[-1] == pytest.approx(2.0)
        assert hist.polarized_mass == pytest.approx(100.0)

    def test_polarized_mass_counts_both_tails(self):
        v = np.array([[[1.0, 0.0]]])
        votes = np.array([[[[3.0, 0.0]], [[-2.0, 0.0]], [[0.0, 1.0]]]])  # (1,3,1,2)
        hist = routing_histogram(histogram_sums(*explicit_agreement(votes, v)))
        assert hist.polarized_mass == pytest.approx(100.0 * 2 / 3)

    def test_batch_sums_match_the_concatenation(self):
        # the one-pass histogram the bin sums replaced: bin every batch's
        # cosines and lengths at once, after concatenating them
        rng = seeded_rng(2, "h")
        parts = [explicit_agreement(rng.normal(size=(b, 12, 5, 4)), rng.normal(size=(b, 5, 4)))
                 for b in (3, 8, 1, 5)]
        cos = np.concatenate([c for c, _ in parts]).reshape(-1)
        lengths = np.concatenate([n for _, n in parts]).reshape(-1)
        edges = np.linspace(-1.0, 1.0, 21)
        idx = np.clip(np.searchsorted(edges, cos, side="right") - 1, 0, 19)
        count = np.bincount(idx, minlength=20).astype(np.float64)
        lsum = np.bincount(idx, weights=lengths, minlength=20)
        hist = routing_histogram(sum(histogram_sums(c, n) for c, n in parts))
        np.testing.assert_array_equal(hist.edges, edges)
        np.testing.assert_array_equal(hist.percent, 100.0 * count / cos.size)
        np.testing.assert_allclose(hist.mean_length[count > 0], (lsum / count)[count > 0],
                                   rtol=1e-12, atol=0)
        assert np.all(hist.mean_length[count == 0] == 0.0)

    def test_csv_roundtrip(self, tmp_path):
        rng = seeded_rng(1, "h")
        hist = routing_histogram(histogram_sums(*explicit_agreement(
            rng.normal(size=(4, 6, 3, 5)), rng.normal(size=(4, 3, 5)))))
        path = tmp_path / "hist.csv"
        write_histogram_csv(str(path), hist)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["bin_low", "bin_high", "percent", "mean_length"]
        assert len(rows) == 21
        total = sum(float(r[2]) for r in rows[1:])
        assert total == pytest.approx(100.0, abs=1e-6)

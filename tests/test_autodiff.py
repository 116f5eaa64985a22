import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rayfuse.autodiff import (
    MLP,
    Conv2d,
    Module2D,
    Param,
    ReLU,
    Tensor,
    backward,
    conv2d,
    linear,
    matmul,
    mul,
    sigmoid,
    tsum,
    zero_grads,
)
from rayfuse.gradcheck import finite_diff_grad_check
from rayfuse.losses import bce_loss


def conv_oracle(x, w, b):
    # Naive nested-loop same-padding convolution, independent of the kernel path.
    c_out, c_in, k, _ = w.shape
    _, h, width = x.shape
    pad = k // 2
    out = np.zeros((c_out, h, width))
    for o in range(c_out):
        for i in range(h):
            for j in range(width):
                acc = b[o]
                for c in range(c_in):
                    for di in range(k):
                        for dj in range(k):
                            ii, jj = i + di - pad, j + dj - pad
                            if 0 <= ii < h and 0 <= jj < width:
                                acc += w[o, c, di, dj] * x[c, ii, jj]
                out[o, i, j] = acc
    return out


class TestConv2d:
    def test_identity_kernel(self):
        x = np.arange(12.0).reshape(1, 3, 4)
        w = np.ones((1, 1, 1, 1))
        out = conv2d(Tensor(x), Tensor(w), Tensor(np.zeros(1)))
        np.testing.assert_array_equal(out.data, x)

    def test_zero_weights_give_bias(self):
        x = np.random.default_rng(0).normal(size=(2, 4, 4))
        out = conv2d(Tensor(x), Tensor(np.zeros((3, 2, 3, 3))), Tensor(np.array([1.0, -2.0, 0.5])))
        for o, b in enumerate([1.0, -2.0, 0.5]):
            np.testing.assert_array_equal(out.data[o], np.full((4, 4), b))

    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(1, 5, 5))
        w = rng.normal(size=(2, 1, 3, 3))
        b = rng.normal(size=2)
        out = conv2d(Tensor(x), Tensor(w), Tensor(b))
        assert np.abs(out.data - conv_oracle(x, w, b)).max() < 1e-12

    @pytest.mark.parametrize("c_in,c_out,k,h,w", [(3, 2, 3, 7, 6), (1, 4, 5, 9, 9), (2, 2, 1, 16, 16)])
    def test_random_shapes_vs_oracle(self, c_in, c_out, k, h, w):
        rng = np.random.default_rng(c_in * 100 + c_out * 10 + k)
        x = rng.normal(size=(c_in, h, w))
        wt = rng.normal(size=(c_out, c_in, k, k))
        b = rng.normal(size=c_out)
        out = conv2d(Tensor(x), Tensor(wt), Tensor(b))
        assert np.abs(out.data - conv_oracle(x, wt, b)).max() < 1e-10

    def test_shape_mismatch_reports_shapes(self):
        with pytest.raises(ValueError, match="mismatch"):
            conv2d(Tensor(np.zeros((3, 4, 4))), Tensor(np.zeros((1, 2, 3, 3))), Tensor(np.zeros(1)))

    def test_rejects_nonfinite_input(self):
        head = Module2D([Conv2d(1, 1, 3)])
        bad = np.zeros((1, 4, 4))
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            head(Tensor(bad))


class TestMLP:
    def test_identity_single_layer(self):
        m = MLP([3, 3])
        m.layers[0].weight.data[...] = np.eye(3)
        m.layers[0].bias.data[...] = 0.0
        out = m(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(out.data, [1.0, 2.0, 3.0])

    def test_zero_weights_give_bias(self):
        m = MLP([3, 2])
        m.layers[0].weight.data[...] = 0.0
        m.layers[0].bias.data[...] = 0.5
        out = m(np.array([4.0, -1.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.5, 0.5])

    def test_two_layer_matches_matmul_oracle(self):
        rng = np.random.default_rng(3)
        m = MLP([3, 5, 4], rng=rng)
        x = rng.normal(size=3)
        out = m(x)
        h = np.maximum(m.layers[0].weight.data @ x + m.layers[0].bias.data, 0.0)
        expect = m.layers[1].weight.data @ h + m.layers[1].bias.data
        assert np.abs(out.data - expect).max() < 1e-12

    def test_batched_rows_match_single(self):
        rng = np.random.default_rng(4)
        m = MLP([3, 6, 6], rng=rng)
        xs = rng.normal(size=(5, 3))
        batch = m(xs).data
        for i in range(5):
            np.testing.assert_allclose(batch[i], m(xs[i]).data, atol=1e-14)

    def test_rejects_nonfinite(self):
        m = MLP([3, 2])
        with pytest.raises(ValueError, match="non-finite"):
            m(np.array([1.0, np.inf, 0.0]))


class TestSigmoid:
    def test_zero_is_half(self):
        assert sigmoid(Tensor(0.0)).item() == 0.5

    def test_saturation_stays_inside(self):
        hi = sigmoid(Tensor(50.0)).item()
        assert hi > 1 - 1e-6 and hi < 1.0
        lo = sigmoid(Tensor(-900.0)).item()
        assert 0.0 < lo < 1e-6

    def test_closed_form_at_one(self):
        assert abs(sigmoid(Tensor(1.0)).item() - 1.0 / (1.0 + math.exp(-1.0))) < 1e-15

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=-1e6, max_value=1e6), st.floats(min_value=1e-9, max_value=10.0))
    def test_strictly_monotone_and_open(self, x, dx):
        a, b = sigmoid(Tensor(x)).item(), sigmoid(Tensor(x + dx)).item()
        assert 0.0 < a < 1.0 and 0.0 < b < 1.0
        assert b >= a  # ties only deep in saturation
        if abs(x) < 30:
            assert b > a


class TestBackward:
    def test_sum_gives_ones(self):
        x = Param(np.arange(6.0).reshape(2, 3))
        backward(tsum(x))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_sigmoid_dot_at_zero_weight(self):
        x = np.array([1.0, -2.0, 3.0])
        w = Param(np.zeros(3))
        backward(sigmoid(matmul(w, Tensor(x))))
        np.testing.assert_allclose(w.grad, 0.25 * x, atol=1e-15)

    def test_grads_accumulate_without_reset(self):
        x = Param(np.ones(4))
        backward(tsum(x))
        backward(tsum(x))
        np.testing.assert_array_equal(x.grad, 2 * np.ones(4))
        x.zero_grad()
        np.testing.assert_array_equal(x.grad, np.zeros(4))

    def test_repeated_backward_on_deep_graph_accumulates_exactly(self):
        # stale intermediate grads must not compound through the chain
        w = Param(np.array([0.3, -0.2]))
        loss = tsum(sigmoid(mul(w, w)))
        backward(loss)
        once = w.grad.copy()
        backward(loss)
        np.testing.assert_allclose(w.grad, 2 * once, atol=1e-15)

    def test_backward_needs_graph(self):
        with pytest.raises(ValueError, match="forward"):
            backward(Param(np.array(1.0)))

    def test_backward_needs_scalar(self):
        x = Param(np.ones(3))
        with pytest.raises(ValueError, match="scalar"):
            backward(sigmoid(x))


class TestFiniteDiff:
    def test_quadratic(self):
        w = Param(np.array([1.5, -0.5, 2.0]))

        def loss():
            return tsum(matmul(w, w))

        assert finite_diff_grad_check(loss, [w]) < 1e-8

    def test_conv_bce_head_on_8x8(self):
        rng = np.random.default_rng(11)
        head = Module2D([Conv2d(2, 2, 3, rng=rng), ReLU(), Conv2d(2, 1, 3, rng=rng)])
        feat = Tensor(rng.normal(size=(2, 8, 8)))
        target = Tensor(rng.uniform(0.0, 1.0, size=(1, 8, 8)))

        def loss():
            return bce_loss(sigmoid(head(feat)), target)

        assert finite_diff_grad_check(loss, head.params(), rng=rng) < 1e-4

    def test_linear_batch(self):
        rng = np.random.default_rng(12)
        lin = MLP([3, 4, 2], rng=rng)
        xs = Tensor(rng.normal(size=(6, 3)))

        def loss():
            return tsum(sigmoid(lin(xs)))

        assert finite_diff_grad_check(loss, lin.params(), rng=rng) < 1e-6

    def test_conv_backward_vs_numeric_everywhere(self):
        rng = np.random.default_rng(13)
        conv = Conv2d(2, 3, 3, rng=rng)
        x = Tensor(rng.normal(size=(2, 5, 5)))

        def loss():
            return tsum(sigmoid(conv(x)))

        zero_grads(conv.params())
        assert finite_diff_grad_check(loss, conv.params(), n_samples=100, rng=rng) < 1e-6


def test_linear_shape_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        linear(Tensor(np.ones(3)), Tensor(np.ones((2, 4))), Tensor(np.zeros(2)))

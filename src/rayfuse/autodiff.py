"""Minimal reverse-mode autodiff over numpy arrays.

Hosts the dense kernels the fusion heads need: 2D convolution with same
padding, linear layers, sigmoid, and the usual elementwise glue. Graphs are
recorded dynamically; ``backward(loss)`` walks the tape and accumulates
gradients into :class:`Param` leaves. Everything runs in float64 so finite
difference checks are meaningful.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "Param",
    "backward",
    "add",
    "sub",
    "mul",
    "matmul",
    "concat",
    "tsum",
    "tmean",
    "reshape",
    "transpose",
    "power",
    "log",
    "clip",
    "sigmoid",
    "relu",
    "conv2d",
    "linear",
    "Conv2d",
    "Linear",
    "ReLU",
    "Module2D",
    "MLP",
    "collect_params",
    "zero_grads",
]


class Tensor:
    """A node in the recorded computation graph.

    ``data`` is a float64 ndarray (row-major); ``grad`` is filled in by
    :func:`backward` and has the same shape. Leaf tensors built from raw
    arrays are constants: they take no gradient unless they are ``Param``.
    """

    def __init__(self, data, parents=(), backward_fn=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = tuple(parents)
        self._backward_fn = backward_fn

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


class Param(Tensor):
    """Trainable leaf. ``grad`` persists and accumulates across backward calls."""

    def __init__(self, data):
        super().__init__(data)
        self.grad = np.zeros_like(self.data)

    def zero_grad(self):
        self.grad[...] = 0.0

    def __repr__(self):
        return f"Param(shape={self.shape})"


def _unbroadcast(grad, shape):
    # Reduce a broadcast gradient back to the parent's shape.
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    for _ in range(extra):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _accumulate(node, grad):
    if node.grad is None:
        node.grad = np.zeros_like(node.data)
    node.grad += _unbroadcast(grad, node.data.shape)


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data + b.data, (a, b))

    def bwd(g):
        _accumulate(a, g)
        _accumulate(b, g)

    out._backward_fn = bwd
    return out


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data - b.data, (a, b))

    def bwd(g):
        _accumulate(a, g)
        _accumulate(b, -g)

    out._backward_fn = bwd
    return out


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data * b.data, (a, b))

    def bwd(g):
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    out._backward_fn = bwd
    return out


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data @ b.data, (a, b))

    def bwd(g):
        ad, bd = a.data, b.data
        if ad.ndim == 1 and bd.ndim == 2:
            _accumulate(a, g @ bd.T)
            _accumulate(b, np.outer(ad, g))
        elif ad.ndim == 2 and bd.ndim == 2:
            _accumulate(a, g @ bd.T)
            _accumulate(b, ad.T @ g)
        elif ad.ndim == 2 and bd.ndim == 1:
            _accumulate(a, np.outer(g, bd))
            _accumulate(b, ad.T @ g)
        else:
            _accumulate(a, g * bd)  # 1-d dot 1-d
            _accumulate(b, g * ad)

    out._backward_fn = bwd
    return out


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis), tensors)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            _accumulate(t, piece)

    out._backward_fn = bwd
    return out


def tsum(a, axis=None):
    a = as_tensor(a)
    out = Tensor(a.data.sum(axis=axis), (a,))

    def bwd(g):
        if axis is None:
            _accumulate(a, np.full_like(a.data, g))
        else:
            _accumulate(a, np.expand_dims(g, axis) * np.ones_like(a.data))

    out._backward_fn = bwd
    return out


def tmean(a, axis=None):
    a = as_tensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    out = Tensor(a.data.mean(axis=axis), (a,))

    def bwd(g):
        if axis is None:
            _accumulate(a, np.full_like(a.data, g / n))
        else:
            _accumulate(a, np.expand_dims(g, axis) * np.ones_like(a.data) / n)

    out._backward_fn = bwd
    return out


def reshape(a, shape):
    a = as_tensor(a)
    out = Tensor(a.data.reshape(shape), (a,))

    def bwd(g):
        _accumulate(a, g.reshape(a.data.shape))

    out._backward_fn = bwd
    return out


def transpose(a):
    a = as_tensor(a)
    out = Tensor(a.data.T.copy(), (a,))

    def bwd(g):
        _accumulate(a, g.T)

    out._backward_fn = bwd
    return out


def power(a, exponent):
    """Elementwise ``a ** exponent`` for a constant real exponent."""
    a = as_tensor(a)
    out = Tensor(a.data**exponent, (a,))

    def bwd(g):
        _accumulate(a, g * exponent * a.data ** (exponent - 1.0))

    out._backward_fn = bwd
    return out


def log(a):
    a = as_tensor(a)
    out = Tensor(np.log(a.data), (a,))

    def bwd(g):
        _accumulate(a, g / a.data)

    out._backward_fn = bwd
    return out


def clip(a, lo, hi):
    """Clamp values to [lo, hi]; gradient is 1 inside, 0 where clipped."""
    a = as_tensor(a)
    out = Tensor(np.clip(a.data, lo, hi), (a,))
    inside = (a.data >= lo) & (a.data <= hi)

    def bwd(g):
        _accumulate(a, g * inside)

    out._backward_fn = bwd
    return out


_SIG_HI = float(np.nextafter(1.0, 0.0))
_SIG_LO = np.finfo(np.float64).tiny


def sigmoid(a):
    """Logistic function, elementwise.

    Strictly inside (0, 1) for finite inputs (saturation is clamped away
    from the endpoints); infinite logits map to exactly 0 or 1 so weights
    can be forced hard off or on.
    """
    a = as_tensor(a)
    x = a.data
    with np.errstate(over="ignore"):
        e = np.exp(-np.abs(x))
    val = np.clip(np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e)), _SIG_LO, _SIG_HI)
    val = np.where(np.isposinf(x), 1.0, np.where(np.isneginf(x), 0.0, val))
    out = Tensor(val, (a,))

    def bwd(g):
        _accumulate(a, g * val * (1.0 - val))

    out._backward_fn = bwd
    return out


def relu(a):
    a = as_tensor(a)
    out = Tensor(np.maximum(a.data, 0.0), (a,))

    def bwd(g):
        _accumulate(a, g * (a.data > 0))

    out._backward_fn = bwd
    return out


def conv2d(x, weight, bias):
    """2D convolution, stride 1, same zero padding, odd square kernel.

    x: (C_in, H, W), weight: (C_out, C_in, k, k), bias: (C_out,).
    Output spatial size equals the input's.
    """
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    c_out, c_in, kh, kw = weight.data.shape
    if kh != kw or kh % 2 == 0:
        raise ValueError(f"kernel must be odd and square, got {kh}x{kw}")
    if x.data.ndim != 3 or x.data.shape[0] != c_in:
        raise ValueError(
            f"conv2d shape mismatch: input {x.data.shape} vs weight {weight.data.shape} "
            f"(expected input ({c_in}, H, W))"
        )
    pad = kh // 2
    _, h, w = x.data.shape
    xp = np.pad(x.data, ((0, 0), (pad, pad), (pad, pad)))
    out_data = np.zeros((c_out, h, w))
    for di in range(kh):
        for dj in range(kw):
            patch = xp[:, di : di + h, dj : dj + w]
            out_data += np.einsum("oc,chw->ohw", weight.data[:, :, di, dj], patch)
    out_data += bias.data[:, None, None]
    out = Tensor(out_data, (x, weight, bias))

    def bwd(g):
        gw = np.zeros_like(weight.data)
        gxp = np.zeros_like(xp)
        for di in range(kh):
            for dj in range(kw):
                patch = xp[:, di : di + h, dj : dj + w]
                gw[:, :, di, dj] = np.einsum("ohw,chw->oc", g, patch)
                gxp[:, di : di + h, dj : dj + w] += np.einsum("oc,ohw->chw", weight.data[:, :, di, dj], g)
        _accumulate(weight, gw)
        _accumulate(bias, g.sum(axis=(1, 2)))
        _accumulate(x, gxp[:, pad : pad + h, pad : pad + w] if pad else gxp)

    out._backward_fn = bwd
    return out


def linear(x, weight, bias):
    """x @ weight.T + bias for x of shape (D_in,) or (N, D_in)."""
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    if x.data.shape[-1] != weight.data.shape[1]:
        raise ValueError(f"linear shape mismatch: input {x.data.shape} vs weight {weight.data.shape}")
    return add(matmul(x, Tensor(weight.data.T, (weight,), _transpose_bwd(weight))), bias)


def _transpose_bwd(parent):
    def bwd(g):
        _accumulate(parent, g.T)

    return bwd


def backward(loss):
    """Populate gradients of every node reachable from a scalar loss.

    Raises if the loss is not a scalar or has no recorded forward graph.
    Repeated calls without zeroing Param grads accumulate.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss._parents:
        raise ValueError("backward called before any forward graph was recorded")

    topo = []
    visited = set()
    stack = [(loss, iter(loss._parents))]
    visited.add(id(loss))
    while stack:  # iterative DFS; graphs can outgrow the recursion limit
        node, it = stack[-1]
        advanced = False
        for parent in it:
            if id(parent) not in visited:
                visited.add(id(parent))
                stack.append((parent, iter(parent._parents)))
                advanced = True
                break
        if not advanced:
            topo.append(node)
            stack.pop()

    # only Param grads survive across calls; stale intermediate grads from a
    # previous backward over this same graph must not double-count
    for node in topo:
        if not isinstance(node, Param):
            node.grad = None
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)


# ---------------------------------------------------------------------------
# Layer containers


class Conv2d:
    """Same-padding stride-1 convolution layer with its own parameters."""

    def __init__(self, in_ch, out_ch, kernel, rng=None, scale=None):
        rng = rng or np.random.default_rng(0)
        if scale is None:
            scale = 1.0 / np.sqrt(in_ch * kernel * kernel)
        self.weight = Param(rng.normal(0.0, scale, size=(out_ch, in_ch, kernel, kernel)))
        self.bias = Param(np.zeros(out_ch))

    def __call__(self, x):
        return conv2d(x, self.weight, self.bias)

    def params(self):
        return [self.weight, self.bias]


class Linear:
    def __init__(self, in_dim, out_dim, rng=None, scale=None):
        rng = rng or np.random.default_rng(0)
        if scale is None:
            scale = 1.0 / np.sqrt(in_dim)
        self.weight = Param(rng.normal(0.0, scale, size=(out_dim, in_dim)))
        self.bias = Param(np.zeros(out_dim))

    def __call__(self, x):
        return linear(x, self.weight, self.bias)

    def params(self):
        return [self.weight, self.bias]


class ReLU:
    def __call__(self, x):
        return relu(x)

    def params(self):
        return []


class Module2D:
    """Ordered stack of conv / activation layers preserving spatial dims."""

    def __init__(self, layers):
        self.layers = list(layers)

    def __call__(self, x):
        x = as_tensor(x)
        if not np.isfinite(x.data).all():
            raise ValueError("conv input contains non-finite values")
        for layer in self.layers:
            x = layer(x)
        return x

    def params(self):
        out = []
        for layer in self.layers:
            out.extend(layer.params())
        return out


class MLP:
    """Stack of linear layers with ReLU between them, linear output."""

    def __init__(self, dims, rng=None):
        rng = rng or np.random.default_rng(0)
        self.layers = [Linear(a, b, rng=rng) for a, b in zip(dims[:-1], dims[1:])]

    def __call__(self, x):
        x = as_tensor(x)
        if not np.isfinite(x.data).all():
            raise ValueError("mlp input contains non-finite values")
        for i, layer in enumerate(self.layers):
            x = layer(x)
            if i < len(self.layers) - 1:
                x = relu(x)
        return x

    def params(self):
        out = []
        for layer in self.layers:
            out.extend(layer.params())
        return out


def collect_params(*modules):
    out = []
    for m in modules:
        out.extend(m.params())
    return out


def zero_grads(params):
    for p in params:
        p.zero_grad()

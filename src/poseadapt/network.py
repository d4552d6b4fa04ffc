"""MLP encoder plus per-branch classifier/regressor heads, Adam, checkpoints.

The network maps an observation vector to a shared feature, then four
classifier branches (softmax probabilities over rotation / v_x / v_y / z
anchors) and four regressor branches (per-anchor residuals; rotation
residuals are 6D representations).  Branches with zero anchors are
disabled, which is how the scalar-target variant reuses the same code
with only the z branch active.  The network's backward is written by
hand: each MLP back-propagates through its own layers, straight into one
flat gradient buffer that ``Adam`` steps.  A training forward pass
returns its backward with the activations it reads; a prediction pass
(``train=False``) keeps none.

Parameters, gradients, Adam moments and activations are float32
(``DTYPE``): observations are cast once on the way in, head-output
gradients once on the way back.
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    CheckpointError,
    CheckpointIncompatibleError,
    InvalidArgumentError,
    ShapeError,
)

LEAK = 0.01  # leaky-relu slope: nonzero gradient almost everywhere
DTYPE = np.dtype(np.float32)  # of every parameter, gradient and activation

ROT6D_IDENTITY = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])


@dataclass(frozen=True)
class NetworkConfig:
    obs_dim: int
    n_rot: int
    n_vx: int
    n_vy: int
    n_z: int
    feature_dim: int
    encoder_hidden: tuple
    head_hidden: int

    def branches(self):
        out = {}
        if self.n_rot > 0:
            out["rot"] = self.n_rot
        if self.n_vx > 0:
            out["vx"] = self.n_vx
        if self.n_vy > 0:
            out["vy"] = self.n_vy
        if self.n_z > 0:
            out["z"] = self.n_z
        if not out:
            raise InvalidArgumentError("at least one branch must be active")
        return out


class Linear:
    """Affine layer ``x @ w + b`` with ``w`` of ``shape`` (n_in, n_out).  ``w``
    and ``b`` view a network's parameter buffer, ``gw`` and ``gb`` its gradient buffer."""

    def __init__(self, n_in, n_out):
        self.shape = (n_in, n_out)
        self.w = self.b = self.gw = self.gb = None


class MLP:
    """Linear stack with leaky-relu between layers; last layer is linear."""

    def __init__(self, n_in, hidden, n_out):
        dims = [n_in, *hidden, n_out]
        self.layers = [Linear(dims[i], dims[i + 1]) for i in range(len(dims) - 1)]

    def draw_weights(self, rng, out_scale=None):
        """Draw each layer's weights from ``rng`` with He scaling, the last
        layer's with ``out_scale`` if one is given; biases stay as they are."""
        for layer in self.layers:
            last = layer is self.layers[-1] and out_scale is not None
            layer.w[...] = rng.standard_normal(layer.shape) * (
                out_scale if last else np.sqrt(2.0 / layer.shape[0]))

    def __call__(self, x, train):
        """The output of a batch, and each layer's input for ``backward``
        (None when not ``train``)."""
        inputs = [] if train else None
        for i, layer in enumerate(self.layers):
            if train:
                inputs.append(x)
            x = x @ layer.w
            x += layer.b
            if i < len(self.layers) - 1:
                # 0 < LEAK < 1: equals np.where(x > 0, x, LEAK * x) for every non-NaN x
                np.maximum(x, LEAK * x, out=x)
        return x, inputs

    def backward(self, inputs, g, input_grad=True):
        """Back-propagate ``g``, the gradient of the last output of the pass
        whose layer ``inputs`` are given, writing each layer's parameter
        gradients into ``gw`` and ``gb``; returns the input's gradient, or
        None without ``input_grad``."""
        for i in reversed(range(len(self.layers))):
            layer, x = self.layers[i], inputs[i]
            np.matmul(x.T, g, out=layer.gw)
            g.sum(axis=0, out=layer.gb)
            if i == 0 and not input_grad:
                return None
            g = g @ layer.w.T
            if i > 0:
                # x, a leaky-relu output, is positive where its input was
                np.copyto(g, LEAK * g, where=x <= 0)
        return g


def softmax(logits):
    """Numerically stable softmax over the rows of (B, N) logits."""
    e = logits - np.max(logits, axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


@dataclass
class HeadOutput:
    """Batched network output: probabilities, residuals, shared feature,
    and the network's backward (None without gradients), which takes the
    gradients of the classifier logits, not of the probabilities, and
    holds the activations of this pass that it reads."""

    probs: dict          # branch -> (B, N)
    residuals: dict      # "rot" -> (B, N, 6); scalars -> (B, N)
    feature: np.ndarray  # (B, C)
    backward: object = None  # (d_logits, d_residuals, d_feature) -> None

    def picks(self):
        """Arg-max anchor index per branch; ties go to the lowest index."""
        return {k: np.argmax(v, axis=1) for k, v in self.probs.items()}


class PoseNetwork:
    """Encoder and heads over one flat float32 parameter buffer ``flat``.

    Every layer's ``w`` and ``b`` are views of ``flat``.  Training adds a
    flat gradient buffer of the same layout (``grad_buffer()``); a network
    that only predicts never makes one.  Without a ``seed`` every parameter
    starts at zero, for a caller that fills ``flat`` itself.
    """

    def __init__(self, config: NetworkConfig, seed=None):
        self.config = c = config
        self.encoder = MLP(c.obs_dim, list(c.encoder_hidden), c.feature_dim)
        self.cls_heads = {k: MLP(c.feature_dim, [c.head_hidden], n)
                          for k, n in c.branches().items()}
        self.reg_heads = {k: MLP(c.feature_dim, [c.head_hidden], n * 6 if k == "rot" else n)
                          for k, n in c.branches().items()}
        size = sum((n + 1) * m for n, m in (layer.shape for layer in self._layers().values()))
        self.flat = self._bind(np.zeros(size, dtype=DTYPE), "w", "b")
        self.grad = None
        if seed is None:
            return
        rng = np.random.default_rng(seed)
        self.encoder.draw_weights(rng)
        for k in c.branches():
            self.cls_heads[k].draw_weights(rng)
            self.reg_heads[k].draw_weights(rng, out_scale=0.01)
        if "rot" in self.reg_heads:
            # start every rotation residual at the identity so the 6D
            # Gram-Schmidt map is far from its degenerate inputs
            self.reg_heads["rot"].layers[-1].b[:] = np.tile(ROT6D_IDENTITY, c.n_rot)

    # -- parameters ----------------------------------------------------------

    def _layers(self):
        """Ordered parameter-name prefix -> layer."""
        mlps = {"encoder": self.encoder, **{f"cls.{k}": m for k, m in self.cls_heads.items()},
                **{f"reg.{k}": m for k, m in self.reg_heads.items()}}
        return {f"{prefix}.{i}": layer for prefix, mlp in mlps.items()
                for i, layer in enumerate(mlp.layers)}

    def _bind(self, flat, w, b):
        """Set each layer's attributes named ``w`` and ``b`` to views of
        ``flat`` shaped as its weights and bias, in parameter order."""
        lo = 0
        for layer in self._layers().values():
            for attr, shape in ((w, layer.shape), (b, layer.shape[1:])):
                hi = lo + int(np.prod(shape))
                setattr(layer, attr, flat[lo:hi].reshape(shape))
                lo = hi
        return flat

    def parameters(self):
        """Ordered name -> parameter array of every trainable parameter."""
        return {f"{name}.{k}": getattr(layer, k)
                for name, layer in self._layers().items() for k in ("w", "b")}

    def grad_buffer(self):
        """The flat gradient buffer, laid out as ``flat``; made on first use."""
        if self.grad is None:
            self.grad = self._bind(np.zeros_like(self.flat), "gw", "gb")
        return self.grad

    def state_arrays(self):
        return {k: p.copy() for k, p in self.parameters().items()}

    def copy(self):
        clone = PoseNetwork(self.config)
        clone.flat[...] = self.flat
        return clone

    # -- forward and backward --------------------------------------------------

    def forward(self, obs, train=True):
        """Run a batch (B, obs_dim) through encoder and all branches.  A
        training pass returns a backward with its activations; a pass with
        ``train=False`` predicts and keeps none."""
        x = np.asarray(obs, dtype=self.flat.dtype)
        if x.ndim != 2 or x.shape[1] != self.config.obs_dim:
            raise ShapeError(
                f"expected observations (B, {self.config.obs_dim}), got {x.shape}")
        probs, residuals, inputs = {}, {}, {}     # inputs: MLP name -> its layer inputs
        f, inputs["encoder"] = self.encoder(x, train)
        for name, n in self.config.branches().items():
            logits, inputs[f"cls.{name}"] = self.cls_heads[name](f, train)
            probs[name] = softmax(logits)
            r, inputs[f"reg.{name}"] = self.reg_heads[name](f, train)
            residuals[name] = r.reshape(len(x), n, 6) if name == "rot" else r
        return HeadOutput(probs=probs, residuals=residuals, feature=f,
                          backward=functools.partial(self._backward, inputs) if train else None)

    def _backward(self, inputs, d_logits, d_residuals, d_feature):
        """Back-propagate the output gradients of the training pass whose
        MLP layer ``inputs`` are given into ``grad_buffer()``: branch ->
        gradient of its classifier logits (``d_logits``) and residuals
        (``d_residuals``), and the feature's own (``d_feature``, or None),
        each cast to the parameters' dtype.  A head left out gets a zero
        gradient.  The feature's gradient sums the residual heads' shares in
        the order of ``d_residuals``, then the classifier heads' in the
        order of ``d_logits``, then ``d_feature``: a fixed order, so a
        training run repeats to the bit."""
        self.grad_buffer()
        cast = functools.partial(np.asarray, dtype=self.flat.dtype)
        shares = [self.reg_heads[k].backward(inputs[f"reg.{k}"], cast(g).reshape(len(g), -1))
                  for k, g in d_residuals.items()]
        shares += [self.cls_heads[k].backward(inputs[f"cls.{k}"], cast(g))
                   for k, g in d_logits.items()]
        for heads, grads in ((self.reg_heads, d_residuals), (self.cls_heads, d_logits)):
            for k in heads.keys() - grads.keys():
                for layer in heads[k].layers:
                    layer.gw.fill(0.0)
                    layer.gb.fill(0.0)
        if d_feature is not None:
            shares.append(cast(d_feature))
        self.encoder.backward(inputs["encoder"], functools.reduce(np.add, shares),
                              input_grad=False)


class Adam:
    """Adaptive-moment optimizer with bias correction over flat buffers.

    A step updates ``params`` (a network's ``flat``) in place from ``grad``
    (its ``grad_buffer()``), in the order of operations of
    ``p - lr * (m / b1t) / (sqrt(v / b2t) + eps)`` per element.  Its one
    scratch buffer is ``tmp``; ``grad`` is the other, so a step leaves it
    overwritten.
    """

    def __init__(self, params, grad, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params, self.grad = params, grad
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m, self.v, self.tmp = (np.zeros_like(params) for _ in range(3))

    def step(self):
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        m, v, g, tmp = self.m, self.v, self.grad, self.tmp
        m *= self.beta1                              # m = beta1 m + (1 - beta1) g
        m += np.multiply(g, 1 - self.beta1, out=tmp)
        v *= self.beta2                              # v = beta2 v + (1 - beta2) g^2
        g *= g
        g *= 1 - self.beta2
        v += g
        np.divide(m, b1t, out=tmp)                   # lr (m / b1t)
        tmp *= self.lr
        np.divide(v, b2t, out=g)                     # sqrt(v / b2t) + eps
        np.sqrt(g, out=g)
        g += self.eps
        tmp /= g
        self.params -= tmp


# ---------------------------------------------------------------------------
# checkpoint file: versioned binary, header JSON + the raw little-endian
# float32 parameter buffer; the header records that dtype

_CKPT_MAGIC = b"poseadapt-ckpt v2\n"
_CKPT_DTYPE = DTYPE.newbyteorder("<").str


def save_checkpoint(path, net: PoseNetwork, meta=None):
    """Write the network's config, parameters and ``meta`` to ``path``.

    The file holds inference state only: neither optimizer moments nor an
    RNG state are stored, so a loaded network is for evaluation, for
    annotation, or as the starting point of a new training stage.
    """
    header = {
        "version": 2,
        "dtype": _CKPT_DTYPE,
        "config": asdict(net.config),
        "params": [{"name": k, "shape": list(p.shape)} for k, p in net.parameters().items()],
        "meta": meta or {},
    }
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as f:
        f.write(_CKPT_MAGIC)
        f.write(len(blob).to_bytes(8, "big"))
        f.write(blob)
        f.write(net.flat.astype(_CKPT_DTYPE).tobytes())     # the parameters in order


def load_checkpoint(path, expected_config: NetworkConfig = None):
    """Read a checkpoint; returns (net, meta)."""
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e
    if raw.startswith(b"poseadapt-ckpt v1\n"):
        raise CheckpointError(f"{path}: checkpoint version 1, this build reads version 2; "
                              "re-train")
    if not raw.startswith(_CKPT_MAGIC):
        raise CheckpointError(f"{path}: not a poseadapt checkpoint")
    try:
        n = int.from_bytes(raw[len(_CKPT_MAGIC):len(_CKPT_MAGIC) + 8], "big")
        header = json.loads(raw[len(_CKPT_MAGIC) + 8:len(_CKPT_MAGIC) + 8 + n])
        offset = len(_CKPT_MAGIC) + 8 + n
        cfg_dict = dict(header["config"])
        cfg_dict["encoder_hidden"] = tuple(cfg_dict["encoder_hidden"])
        config = NetworkConfig(**cfg_dict)
        net = PoseNetwork(config)
        if [(p["name"], tuple(p["shape"])) for p in header["params"]] != \
                [(k, p.shape) for k, p in net.parameters().items()]:
            raise CheckpointIncompatibleError("parameter names do not match network config")
        if header["dtype"] != _CKPT_DTYPE:
            raise ValueError(f"parameter dtype {header['dtype']}, not {_CKPT_DTYPE}")
        if len(raw) - offset != net.flat.nbytes:
            raise ValueError(f"{len(raw) - offset} parameter bytes, expected {net.flat.nbytes}")
        net.flat[...] = np.frombuffer(raw, dtype=_CKPT_DTYPE, offset=offset)
        meta = header.get("meta", {})
        if not isinstance(meta, dict):
            raise ValueError(f"meta {meta!r} is not an object")
    except CheckpointIncompatibleError:
        raise
    except Exception as e:
        raise CheckpointError(f"{path}: corrupt checkpoint ({e})") from e
    if expected_config is not None and config != expected_config:
        raise CheckpointIncompatibleError(
            f"checkpoint config {config} does not match requested {expected_config}")
    return net, meta

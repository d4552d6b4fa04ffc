"""MLP encoder plus per-branch classifier/regressor heads, Adam, checkpoints.

The network maps an observation vector to a shared feature, then four
classifier branches (softmax probabilities over rotation / v_x / v_y / z
anchors) and four regressor branches (per-anchor residuals; rotation
residuals are 6D representations).  Branches with zero anchors are
disabled, which is how the scalar-target variant reuses the same code
with only the z branch active.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .errors import (
    CheckpointError,
    CheckpointIncompatibleError,
    InvalidArgumentError,
    ShapeError,
)

LEAK = 0.01  # leaky-relu slope: nonzero gradient almost everywhere

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
    def __init__(self, n_in, n_out, rng, w_scale=None):
        scale = np.sqrt(2.0 / n_in) if w_scale is None else w_scale
        self.w = ad.parameter(rng.standard_normal((n_in, n_out)) * scale)
        self.b = ad.parameter(np.zeros(n_out))

    def __call__(self, x):
        return ad.linear(x, self.w, self.b)


class MLP:
    """Linear stack with leaky-relu between layers; last layer is linear."""

    def __init__(self, n_in, hidden, n_out, rng, out_scale=None):
        dims = [n_in, *hidden, n_out]
        self.layers = []
        for i in range(len(dims) - 1):
            last = i == len(dims) - 2
            self.layers.append(Linear(dims[i], dims[i + 1], rng,
                                      w_scale=out_scale if last and out_scale is not None else None))

    def __call__(self, x):
        for i, layer in enumerate(self.layers):
            x = layer(x)
            if i < len(self.layers) - 1:
                x = ad.leaky_relu(x, LEAK)
        return x


@dataclass
class HeadOutput:
    """Batched network output: probabilities, residuals, shared feature."""

    probs: dict          # branch -> Tensor (B, N)
    residuals: dict      # "rot" -> Tensor (B, N, 6); scalars -> Tensor (B, N)
    feature: "ad.Tensor"  # (B, C)

    def picks(self):
        """Arg-max anchor index per branch; ties go to the lowest index."""
        return {k: np.argmax(v.data, axis=1) for k, v in self.probs.items()}


class PoseNetwork:
    def __init__(self, config: NetworkConfig, seed):
        self.config = config
        rng = np.random.default_rng(seed)
        c = config
        self.encoder = MLP(c.obs_dim, list(c.encoder_hidden), c.feature_dim, rng)
        self.cls_heads = {}
        self.reg_heads = {}
        for name, n in c.branches().items():
            self.cls_heads[name] = MLP(c.feature_dim, [c.head_hidden], n, rng)
            n_out = n * 6 if name == "rot" else n
            head = MLP(c.feature_dim, [c.head_hidden], n_out, rng, out_scale=0.01)
            if name == "rot":
                # start every rotation residual at the identity so the 6D
                # Gram-Schmidt map is far from its degenerate inputs
                head.layers[-1].b.data[:] = np.tile(ROT6D_IDENTITY, n)
            self.reg_heads[name] = head
        self._param_cache = None

    # -- parameters ----------------------------------------------------------

    def parameters(self):
        """Ordered name -> Tensor mapping of every trainable parameter."""
        if self._param_cache is not None:
            return self._param_cache
        params = {}

        def register(prefix, mlp):
            for i, layer in enumerate(mlp.layers):
                params[f"{prefix}.{i}.w"] = layer.w
                params[f"{prefix}.{i}.b"] = layer.b

        register("encoder", self.encoder)
        for name in self.cls_heads:
            register(f"cls.{name}", self.cls_heads[name])
        for name in self.reg_heads:
            register(f"reg.{name}", self.reg_heads[name])
        self._param_cache = params
        return params

    def zero_grad(self):
        for p in self.parameters().values():
            p.grad = None

    def state_arrays(self):
        return {k: p.data.copy() for k, p in self.parameters().items()}

    def load_state_arrays(self, state):
        params = self.parameters()
        if set(state) != set(params):
            raise CheckpointIncompatibleError("parameter names do not match network config")
        for k, p in params.items():
            if state[k].shape != p.data.shape:
                raise CheckpointIncompatibleError(
                    f"shape mismatch for {k}: {state[k].shape} vs {p.data.shape}")
            p.data[...] = state[k]

    def copy(self):
        clone = PoseNetwork(self.config, seed=0)
        clone.load_state_arrays(self.state_arrays())
        return clone

    # -- forward -------------------------------------------------------------

    def forward(self, obs):
        """Run a batch (B, obs_dim) through encoder and all branches."""
        x = obs if isinstance(obs, ad.Tensor) else ad.Tensor(np.asarray(obs, dtype=np.float64))
        if x.data.ndim != 2 or x.data.shape[1] != self.config.obs_dim:
            raise ShapeError(
                f"expected observations (B, {self.config.obs_dim}), got {x.data.shape}")
        f = self.encoder(x)
        probs, residuals = {}, {}
        for name, n in self.config.branches().items():
            probs[name] = ad.softmax(self.cls_heads[name](f), axis=1)
            r = self.reg_heads[name](f)
            residuals[name] = ad.reshape(r, (x.data.shape[0], n, 6)) if name == "rot" else r
        return HeadOutput(probs=probs, residuals=residuals, feature=f)


class Adam:
    """Adaptive-moment optimizer with bias correction.

    The optimizer takes over its parameters' storage: every ``p.data``
    becomes a view into one flat buffer, next to flat first and second
    moments and gradients.  A step gathers the gradients (a missing one
    counts as zero) and runs the update over the flat buffers in place,
    with no temporaries, in the order of operations of
    ``p - lr * (m / b1t) / (sqrt(v / b2t) + eps)`` per element.  Build
    one optimizer per network: a second one takes the storage over.
    """

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params.values())
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.flat = np.concatenate([p.data.ravel() for p in self.params])
        self.m, self.v, self.g, self.tmp = (np.zeros_like(self.flat) for _ in range(4))
        self.grad_views, lo = [], 0
        for p in self.params:
            hi = lo + p.data.size
            p.data = self.flat[lo:hi].reshape(p.data.shape)
            self.grad_views.append(self.g[lo:hi].reshape(p.data.shape))
            lo = hi

    def step(self):
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for p, view in zip(self.params, self.grad_views):
            if p.grad is None:
                view.fill(0.0)
            else:
                view[...] = p.grad
        m, v, g, tmp = self.m, self.v, self.g, self.tmp
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
        self.flat -= tmp


# ---------------------------------------------------------------------------
# checkpoint file: versioned binary, header JSON + raw float64 arrays

_CKPT_MAGIC = b"poseadapt-ckpt v1\n"


def save_checkpoint(path, net: PoseNetwork, meta=None):
    """Write the network's config, parameters and ``meta`` to ``path``.

    The file holds inference state only: neither optimizer moments nor an
    RNG state are stored, so a loaded network is for evaluation, for
    annotation, or as the starting point of a new training stage.
    """
    params = net.parameters()
    names = list(params)
    header = {
        "version": 1,
        "config": asdict(net.config),
        "params": [{"name": k, "shape": list(params[k].data.shape)} for k in names],
        "meta": meta or {},
    }
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as f:
        f.write(_CKPT_MAGIC)
        f.write(len(blob).to_bytes(8, "big"))
        f.write(blob)
        for k in names:
            f.write(np.ascontiguousarray(params[k].data, dtype="<f8").tobytes())


def load_checkpoint(path, expected_config: NetworkConfig = None):
    """Read a checkpoint; returns (net, meta)."""
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e
    if not raw.startswith(_CKPT_MAGIC):
        raise CheckpointError(f"{path}: not a poseadapt checkpoint")
    try:
        n = int.from_bytes(raw[len(_CKPT_MAGIC):len(_CKPT_MAGIC) + 8], "big")
        header = json.loads(raw[len(_CKPT_MAGIC) + 8:len(_CKPT_MAGIC) + 8 + n])
        offset = len(_CKPT_MAGIC) + 8 + n
        cfg_dict = dict(header["config"])
        cfg_dict["encoder_hidden"] = tuple(cfg_dict["encoder_hidden"])
        config = NetworkConfig(**cfg_dict)
        state = {}
        for spec in header["params"]:
            shape = tuple(spec["shape"])
            count = int(np.prod(shape)) if shape else 1
            arr = np.frombuffer(raw, dtype="<f8", count=count, offset=offset).reshape(shape)
            offset += count * 8
            state[spec["name"]] = arr.copy()
        net = PoseNetwork(config, seed=0)
        net.load_state_arrays(state)
    except CheckpointIncompatibleError:
        raise
    except Exception as e:
        raise CheckpointError(f"{path}: corrupt checkpoint ({e})") from e
    if expected_config is not None and config != expected_config:
        raise CheckpointIncompatibleError(
            f"checkpoint config {config} does not match requested {expected_config}")
    return net, header.get("meta", {})

"""Test-only references, generators and run-config values.

``point_matching_distance`` is the point-set distance the closed-form
regression terms stand for.  ``OracleAdam`` is the per-parameter Adam
the fused flat update must match bit for bit.  ``float64_twin`` is a
network's double-precision twin, for oracles that check to float64
precision; ``named_gradients`` names the views of a network's gradient
buffer as ``parameters()`` names its parameters; ``write_v1_checkpoint``
and ``write_v2_checkpoint`` write a network in the checkpoint format
versions 1 and 2 that this build refuses.  ``nearest_bin`` is the
depth-class rule of the correlation term.  ``ANCHOR_RANGES`` and ``SAMPLE_RANGES`` are
the run config's default anchor and pose sampling ranges, for tests that
build anchors or datasets without a run config.  ``encode_floats`` and
``decode_floats`` read and write the float blocks of a dataset file's
split line with the standard library alone, and ``edit_block`` edits one
of them; ``version_4_header`` and ``version_4_record`` restate a header and
a split line as dataset format 4 wrote them, ``version_3_record`` a split
line as format 3 did, and ``per_sample_records`` as the
one-record-per-sample lines of formats 1 and 2.
``reference_observation`` and ``reference_scalar_observation`` synthesize
the noiseless observation of one pose, as the package did before its
synthesizer was batched.
"""

import base64
import json
import struct
from dataclasses import asdict

import numpy as np

from poseadapt.config import AnchorConfig, DataConfig
from poseadapt.errors import InvalidArgumentError
from poseadapt.geometry import quaternions_to_matrices, random_quaternions
from poseadapt.synth import N_KEYPOINTS, _embedding

ANCHOR_RANGES = (AnchorConfig.vx_range, AnchorConfig.vy_range, AnchorConfig.z_range)
SAMPLE_RANGES = {"vx": DataConfig.vx_sample_range, "vy": DataConfig.vy_sample_range,
                 "z": DataConfig.z_sample_range}


def point_matching_distance(p, gt, model):
    """Point-set L1 distance (1/|O|) sum_x ||T x - T~ x||_1."""
    pts_t = model.points.T  # (3, N)
    moved = p.rotation @ pts_t + p.translation[:, None]
    gt_pts = gt.rotation @ pts_t + gt.translation[:, None]
    return float(np.abs(moved - gt_pts).sum(axis=0).mean())


def nearest_bin(z, bins):
    """Index of the bin nearest to each value, the first one on a tie."""
    return np.abs(np.asarray(z, dtype=float)[:, None] - np.asarray(bins)[None, :]).argmin(axis=1)


def matrix_to_rot6d(m):
    """First two columns of a rotation matrix, flattened to 6 values."""
    m = np.asarray(m, dtype=float)
    return np.concatenate([m[:, 0], m[:, 1]])


def random_rotations(n, rng):
    """Uniform random rotation matrices (n, 3, 3)."""
    return quaternions_to_matrices(random_quaternions(n, rng))


class OracleAdam:
    """Adam one parameter at a time, with fresh arrays for every term;
    ``params`` maps names to arrays, which each step writes in place."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = dict(params)
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(p) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p) for k, p in self.params.items()}

    def step(self, grads):
        """One update from ``grads``, name -> gradient; a None gradient
        counts as zero."""
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for k, p in self.params.items():
            g = grads[k]
            if g is None:
                g = np.zeros_like(p)
            m = self.m[k] = self.beta1 * self.m[k] + (1 - self.beta1) * g
            v = self.v[k] = self.beta2 * self.v[k] + (1 - self.beta2) * (g * g)
            p[...] = p - self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)


def float64_twin(net):
    """A copy of ``net`` whose parameter buffer holds the same values in
    float64.  The network's code follows the dtype of its parameters, so
    the twin's forward, backward and Adam steps all run in float64."""
    twin = net.copy()
    twin.flat = twin._bind(net.flat.astype(np.float64), "w", "b")
    return twin


def named_gradients(net):
    """Name -> view of ``net.grad_buffer()``, cut in the order and shapes
    of ``net.parameters()``."""
    grad, out, lo = net.grad_buffer(), {}, 0
    for name, p in net.parameters().items():
        out[name], lo = grad[lo:lo + p.size].reshape(p.shape), lo + p.size
    return out


def write_v1_checkpoint(path, net):
    """``net`` as a checkpoint of format version 1: its magic, the header's
    length and header, then the parameters as little-endian float64."""
    _write_old_checkpoint(path, net, {"version": 1}, "<f8")


def write_v2_checkpoint(path, net):
    """``net`` as a checkpoint of format version 2: as version 1, with the
    header's ``dtype`` and the parameters as little-endian float32."""
    _write_old_checkpoint(path, net, {"version": 2, "dtype": "<f4"}, "<f4")


def _write_old_checkpoint(path, net, fields, dtype):
    """The magic line of ``fields["version"]``, the header's length as 8
    big-endian bytes, the header (``fields``, the config, the table of
    parameter names and shapes, an empty meta), then ``flat`` as ``dtype``."""
    header = json.dumps({**fields, "config": asdict(net.config),
                         "params": [{"name": k, "shape": list(p.shape)}
                                    for k, p in net.parameters().items()],
                         "meta": {}}, sort_keys=True).encode()
    with open(path, "wb") as f:
        f.write(b"poseadapt-ckpt v%d\n" % fields["version"] + len(header).to_bytes(8, "big")
                + header + net.flat.astype(dtype).tobytes())


# struct code of each float block of a split line: float32 observations,
# float64 ground truth
BLOCK_CODES = {"obs": "f", "r": "d", "t": "d"}


def encode_floats(values, code="d"):
    """A dataset file's text for a float block: the base64 of its
    little-endian bytes as struct ``code``, "d" float64 or "f" float32."""
    return base64.b64encode(struct.pack(f"<{len(values)}{code}", *values)).decode("ascii")


def decode_floats(text, code="d"):
    """The list of floats that ``encode_floats`` wrote as ``text``."""
    data = base64.b64decode(text, validate=True)
    return list(struct.unpack(f"<{len(data) // struct.calcsize(code)}{code}", data))


def edit_block(rec, key, edit):
    """Replace a split line's float block ``key`` ("obs", "r" or "t") by
    ``edit`` of its decoded list, encoded again; returns the line."""
    rec[key] = encode_floats(edit(decode_floats(rec[key], BLOCK_CODES[key])), BLOCK_CODES[key])
    return rec


def version_4_header(header):
    """A dataset header as format 4 wrote it: version 4, the row counts
    under ``meta`` and no ``obs_dim``."""
    old = {k: v for k, v in header.items() if k not in ("obs_dim", "n_source", "n_target")}
    return dict(old, version=4, meta={k: header[k] for k in ("n_source", "n_target")})


def version_4_record(rec):
    """The split line ``rec`` as format 4 wrote it, its observations float64."""
    return dict(rec, obs=encode_floats(decode_floats(rec["obs"], "f")))


def version_3_record(rec, n_objects):
    """The split line ``rec`` of a dataset with ``n_objects`` objects as
    format 3 wrote it, with per-row lists: sample ids ``<d>{j:06d}`` and
    object ids ``j mod n_objects``."""
    n = len(decode_floats(rec["t"])) // 3
    return dict(version_4_record(rec), ids=[f"{rec['domain'][0]}{j:06d}" for j in range(n)],
                object=[j % n_objects for j in range(n)])


def per_sample_records(rec, floats, n_objects):
    """The split line ``rec`` as one record per sample, the lines of
    dataset format 1 (``floats`` is ``list``) or 2 (``encode_floats``)."""
    rec = version_3_record(rec, n_objects)
    n = len(rec["ids"])
    obs, r, t = (np.reshape(decode_floats(rec[k]), (n, -1)).tolist() for k in ("obs", "r", "t"))
    return [{"id": rec["ids"][i], "domain": rec["domain"], "object": rec["object"][i],
             "obs": floats(obs[i]), "pose": {"r": floats(r[i]), "t": floats(t[i])},
             "gt_eval_only": rec["domain"] == "target"} for i in range(n)]


def _reference_keypoints(points):
    """The points at greedy farthest-point indices from point 0, chosen
    one index at a time."""
    chosen = [0]
    d = np.linalg.norm(points - points[0], axis=1)
    for _ in range(N_KEYPOINTS - 1):
        nxt = int(np.argmax(d))
        chosen.append(nxt)
        d = np.minimum(d, np.linalg.norm(points - points[nxt], axis=1))
    return points[chosen]


def _reference_observe(raw, dc):
    """Embed one raw vector with matrix-vector products and add the
    domain's offset; the domain has no noise and no dropout."""
    assert dc.noise_scale == 0 and dc.dropout_prob == 0
    width = len(dc.offset)
    a_lin, a_sin, phase = _embedding(len(raw), width)
    return np.concatenate([raw[:width], np.sin(a_sin @ raw + phase), a_lin @ raw]) + dc.offset


def reference_observation(pose, model, cam, dc):
    """The observation of one pose of ``model``: its projected keypoints
    and apparent size, embedded and offset."""
    if pose.z <= 0:
        raise InvalidArgumentError("pose must have positive depth")
    moved = _reference_keypoints(model.points) @ pose.rotation.T + pose.translation
    u = cam.fx * moved[:, 0] / moved[:, 2] / 200.0
    v = cam.fy * moved[:, 1] / moved[:, 2] / 200.0
    size = cam.fx * model.diameter / pose.z / 600.0
    return _reference_observe(np.concatenate([u, v, [size]]), dc)


def reference_scalar_observation(pose, dc):
    """The scalar task's observation of one pose, whose depth is the
    target value.  ``** 2`` of one value calls libm ``pow``."""
    s = float(pose.z)
    raw = np.array([s, (s - 0.75) ** 2, np.sin(2 * np.pi * s), np.cos(np.pi * s)])
    return _reference_observe(raw, dc)

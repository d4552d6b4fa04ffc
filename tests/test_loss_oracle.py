"""The hand-written backward pass against the general tape.

``poseadapt.losses`` computes each loss term's gradient by hand (the
cross-entropy's, of the classifier logits), and ``poseadapt.network``
back-propagates the head-output gradients through the MLPs.  Here the
same objective, cross-entropy over the softmax, is written over the
generic ops of ``tape`` (the package's former loss code, op for op), on a
twin of the network whose forward pass also runs on that tape, in
float64 on the same parameter values.  Each parameter gradient that
``total_objective(...).backward()`` writes into the network's gradient
buffer is compared with the tape's by max abs difference over max abs:

- on the network's float64 twin (``float64_twin``), to ``TOLERANCE``
  (1e-10), with the loss parts to 1e-12;
- on the float32 network itself, to ``FLOAT32_TOLERANCE``, with the tape
  on the same float32 weights and float32-rounded observations, so that
  only float32 rounding differs.
"""

from functools import reduce

import numpy as np
import pytest

from poseadapt.config import config_from_dict
from poseadapt.experiment import build_camera, build_stage
from poseadapt.labeling import nearest_anchors
from poseadapt.losses import (
    LOG_EPS,
    prepare_batch_supervision,
    resolve_symmetric_gt,
    total_objective,
)
from poseadapt.network import LEAK, ROT6D_IDENTITY, HeadOutput, PoseNetwork
from poseadapt.synth import make_dataset, make_domain_config, make_object, make_scalar_task

import tape
from helpers import SAMPLE_RANGES, float64_twin, named_gradients, nearest_bin

NETWORK = {"feature_dim": 16, "encoder_hidden": [32], "head_hidden": 8}
TOLERANCE = 1e-10
# A float32 sum of n products is within about n u of exact, relative to
# the sum of their magnitudes (u = eps / 2 = 6.0e-8; Higham's gamma_n).
# A gradient passes one such sum per layer forward and one backward.
# Bounding each by the widest input of these networks (OBS_DIM = 64
# observations) and counting both passes gives 2 * 64 * u = 64 eps
# (7.6e-6).  A first-order estimate, not a bound; the worst of the cases
# below reads 1.6e-6 (14 eps).
FLOAT32_TOLERANCE = 64 * float(np.finfo(np.float32).eps)


# ---------------------------------------------------------------------------
# the objective over the oracle tape


def tape_forward(net, params, obs):
    """``PoseNetwork.forward`` over the oracle tape, with ``params`` (name
    -> tape parameter) in place of the network's own."""
    def mlp(prefix, layers, x):
        for i in range(len(layers)):
            x = tape.linear(x, params[f"{prefix}.{i}.w"], params[f"{prefix}.{i}.b"])
            if i < len(layers) - 1:
                x = tape.leaky_relu(x, LEAK)
        return x

    f = mlp("encoder", net.encoder.layers, tape.Tensor(obs))
    probs, residuals = {}, {}
    for name, n in net.config.branches().items():
        probs[name] = tape.softmax(mlp(f"cls.{name}", net.cls_heads[name].layers, f), axis=1)
        r = mlp(f"reg.{name}", net.reg_heads[name].layers, f)
        residuals[name] = tape.reshape(r, (len(obs), n, 6)) if name == "rot" else r
    return HeadOutput(probs=probs, residuals=residuals, feature=f)


def degenerate_rows(r6):
    """Mask (..., 1) of the 6D rows with no rotation: a first vector, or a
    part of the second orthogonal to it, with a norm below 1e-12."""
    a1, a2 = r6[..., :3], r6[..., 3:]
    n1 = np.linalg.norm(a1, axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        b1 = a1 / n1
        a2p = a2 - (b1 * a2).sum(axis=-1, keepdims=True) * b1
    return (n1 < 1e-12) | (np.linalg.norm(a2p, axis=-1, keepdims=True) < 1e-12)


def tape_rot6d_to_matrix(r6):
    degenerate = degenerate_rows(r6.data)
    if degenerate.any():
        r6 = tape.add(tape.mul(r6, ~degenerate), np.where(degenerate, ROT6D_IDENTITY, 0.0))
    a1, a2 = r6[..., :3], r6[..., 3:]
    b1 = tape.div(a1, tape.norm(a1, axis=-1, keepdims=True))
    proj = tape.tsum(tape.mul(b1, a2), axis=-1, keepdims=True)
    a2p = tape.sub(a2, tape.mul(proj, b1))
    b2 = tape.div(a2p, tape.norm(a2p, axis=-1, keepdims=True))
    return tape.stack([b1, b2, tape.cross(b1, b2)], axis=-1)


def rotation_k(anchors, cfg):
    """The rotation neighbours of each row: the label k, at most every anchor."""
    return min(cfg.labels.branch("rot").k, anchors.n_rot)


def tape_regression(out, sup, anchors, model, cam, k_rot):
    """The regression loss, each row's rotation neighbours searched afresh
    from its (resolved) ground truth, whatever the model."""
    terms = []
    if "rot" in out.residuals:
        values = HeadOutput({k: p.data for k, p in out.probs.items()},
                            {k: r.data for k, r in out.residuals.items()}, out.feature.data)
        gt_rot = resolve_symmetric_gt(values, sup.rotation, anchors, model)
        idx = nearest_anchors(gt_rot, anchors.rotations, k_rot)
        res = tape.gather_rows(out.residuals["rot"], idx)
        rot = tape.matmul(tape_rot6d_to_matrix(res), anchors.rotations[idx])
        moved = tape.absolute(tape.matmul(tape.sub(rot, gt_rot[:, None]), model.points.T))
        terms.append(tape.tsum(tape.tmean(tape.tsum(moved, axis=-2), axis=-1), axis=-1))
    z_weight = 1.0 + np.abs(sup.vx) / cam.fx + np.abs(sup.vy) / cam.fy
    scalar = {"z": (anchors.bins_z, sup.z, z_weight),
              "vx": (anchors.bins_vx, sup.vx, sup.z / cam.fx),
              "vy": (anchors.bins_vy, sup.vy, sup.z / cam.fy)}
    for name, (bins, target, weight) in scalar.items():
        if name in out.residuals:
            idx = sup.nearest[name]
            pred = tape.add(tape.gather_rows(out.residuals[name], idx), bins[idx])
            l1 = tape.tsum(tape.absolute(tape.sub(pred, target[:, None])), axis=-1)
            terms.append(tape.mul(l1, weight))
    return reduce(tape.add, terms)


def tape_objective(out, sup, anchors, model, cam, cfg):
    """The total objective and its (cls, reg, corr) parts over the tape."""
    per_sample = tape_regression(out, sup, anchors, model, cam, rotation_k(anchors, cfg))
    parts = [0.0, float(per_sample.data.mean()), 0.0]
    if cfg.use_cls:
        cls = reduce(tape.add, [
            tape.mul(tape.tsum(tape.mul(tape.log(tape.add(probs, LOG_EPS)), sup.labels[name]),
                               axis=-1), -1.0)
            for name, probs in out.probs.items()])
        parts[0] = float(cls.data.mean())
        per_sample = tape.add(per_sample, cls)
    total = tape.tmean(per_sample)
    if cfg.ctc_weight > 0.0:
        f = out.feature
        fn = tape.div(f, tape.norm(f, axis=1, keepdims=True))
        graph = tape.matmul(fn, tape.swapaxes(fn, 0, 1))
        idx = nearest_bin(sup.z, anchors.bins_z)
        diff = tape.sub(graph, cfg.target_graph[idx[:, None], idx[None, :]])
        corr = tape.tsum(tape.mul(diff, diff))
        parts[2] = float(corr.data)
        total = tape.add(total, tape.mul(corr, cfg.ctc_weight))
    return total, parts


# ---------------------------------------------------------------------------
# cases


def setup(kind, stage, sections=None):
    """Network, objective and supervision of one object's source split, as
    the pipeline builds them under the config ``sections`` given; ``kind``
    "scalar" is the scalar task."""
    scalar = kind == "scalar"
    cfg = config_from_dict({"network": NETWORK, **(sections or {})})
    dc = make_domain_config(0.0, 0.02, 0.0, seed=1)
    if scalar:
        ds = make_scalar_task(24, 1, dc, dc, seed=0)
    else:
        ds = make_dataset(24, 1, [make_object(kind, seed=1, n_points=16)], build_camera(cfg),
                          dc, dc, seed=0, sample_ranges=SAMPLE_RANGES)
    anchors, net_cfg, objective = build_stage(cfg, ds, stage)
    net = PoseNetwork(net_cfg, seed=0)
    sup = prepare_batch_supervision(ds.source.gt_pose, anchors, ds.cam, objective,
                                    branches=tuple(net.config.branches()))
    return net, ds, anchors, objective, sup


def zero_a_supervised_rotation_anchor(net, anchors, objective, sup):
    """Zero the 6D residual of one anchor that the first sample supervises,
    so its decode is degenerate."""
    j = nearest_anchors(sup.rotation[:1], anchors.rotations, rotation_k(anchors, objective))[0, 0]
    last = net.reg_heads["rot"].layers[-1]
    last.w[:, 6 * j:6 * j + 6] = 0.0
    last.b[6 * j:6 * j + 6] = 0.0


def relative_difference(got, want):
    scale = np.abs(want).max()
    diff = np.abs(got - want).max()
    return diff / scale if scale > 0 else diff


NO_CTC = {"train": {"ctc_weight": 0.0}}

# case -> (object kind or "scalar", stage, batch size, config sections, degenerate 6D row)
CASES = {
    "box-ctc": ("box", "teacher", 8, None, False),
    "box-no-ctc": ("box", "teacher", 8, NO_CTC, False),
    "cylinder-ctc": ("cylinder", "teacher", 8, None, False),
    "cylinder-no-ctc": ("cylinder", "teacher", 8, NO_CTC, False),
    "blob-ctc": ("blob", "teacher", 8, None, False),
    "blob-no-ctc": ("blob", "teacher", 8, NO_CTC, False),
    "scalar-ctc": ("scalar", "teacher", 8, None, False),
    "scalar-no-ctc": ("scalar", "teacher", 8, NO_CTC, False),
    "box-baseline-regression": ("box", "baseline-regression", 8, None, False),
    "box-degenerate-6d-row": ("box", "teacher", 8, None, True),
    "cylinder-batch-of-one": ("cylinder", "teacher", 1, None, False),
    "box-one-hot-labels": ("box", "teacher", 8, {"scores": {"rotation": [1.0, 0.0, 1]}}, False),
}


def check_against_tape(case, dtype, tolerance, parts_rtol, parts_atol=0.0):
    """Backward the case's batch through the network in ``dtype`` (float32,
    or its float64 twin) and through the tape on the same parameters and
    inputs, upcast to float64; every parameter gradient must match to
    ``tolerance``, and the loss parts to ``parts_rtol`` and ``parts_atol``."""
    kind, stage, batch, sections, degenerate = CASES[case]
    net, ds, anchors, objective, sup = setup(kind, stage, sections)
    assert (objective.ctc_weight == 0.0) == (stage == "baseline-regression" or sections is NO_CTC)
    if degenerate:
        zero_a_supervised_rotation_anchor(net, anchors, objective, sup)
    if dtype == np.float64:
        net = float64_twin(net)
    assert net.flat.dtype == dtype
    twin = {k: tape.parameter(p) for k, p in net.parameters().items()}
    rows = np.arange(batch)
    obs = ds.source.observation[rows].astype(dtype)
    model, batch_sup = ds.objects[0], sup[rows]

    out = net.forward(obs)
    if degenerate:
        idx = nearest_anchors(batch_sup.rotation, anchors.rotations,
                              rotation_k(anchors, objective))
        assert degenerate_rows(out.residuals["rot"][rows[:, None], idx]).any()
    bd = total_objective(out, batch_sup, anchors, model, ds.cam, objective)
    bd.total.backward()
    total, parts = tape_objective(tape_forward(net, twin, obs), batch_sup, anchors, model,
                                  ds.cam, objective)
    total.backward()

    np.testing.assert_allclose([bd.total_value, bd.cls_value, bd.reg_value, bd.corr_value],
                               [total.item(), *parts], rtol=parts_rtol, atol=parts_atol)
    for k, g in named_gradients(net).items():
        want = np.zeros_like(g) if twin[k].grad is None else twin[k].grad
        assert relative_difference(g, want) <= tolerance, k
    # the classifier heads of the baseline get no gradient, which the
    # buffer holds as zeros; every other case reaches every parameter
    missing = {k for k, p in twin.items() if p.grad is None}
    assert missing == ({k for k in twin if k.startswith("cls.")}
                       if stage == "baseline-regression" else set())


@pytest.mark.parametrize("case", list(CASES))
def test_gradients_match_the_tape(case):
    """The network's float64 twin runs every step in float64, so its
    gradients match the tape's up to the order of operations."""
    check_against_tape(case, np.float64, TOLERANCE, parts_rtol=1e-12)


@pytest.mark.parametrize("case", list(CASES))
def test_float32_gradients_match_the_tape(case):
    """The float32 network against the tape on its own float32 weights
    and inputs: what differs is float32 rounding.  A batch of one has a
    correlation term of (1 - cos(f, f))^2, about eps^2, hence the parts'
    absolute tolerance."""
    check_against_tape(case, np.float32, FLOAT32_TOLERANCE, parts_rtol=FLOAT32_TOLERANCE,
                       parts_atol=FLOAT32_TOLERANCE)

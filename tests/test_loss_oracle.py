"""The closed-form loss gradients against the general tape.

``poseadapt.losses`` computes each loss term's gradient by hand.  Here
the same objective is written over the generic ops of ``tape`` (the
package's former loss code, op for op), on a twin of the network whose
forward pass also runs on that tape.  Every parameter gradient of
``total_objective(...).backward()`` must match the tape's to 1e-10
relative (max abs difference over max abs), and the loss parts must
agree.
"""

from functools import reduce

import numpy as np
import pytest

from poseadapt.config import config_from_dict
from poseadapt.experiment import (
    build_anchors,
    build_camera,
    build_network_config,
    build_objective,
)
from poseadapt.geometry import gram_schmidt
from poseadapt.labeling import nearest_anchors
from poseadapt.losses import (
    LOG_EPS,
    prepare_batch_supervision,
    resolve_symmetric_gt,
    total_objective,
    z_class_indices,
)
from poseadapt.network import LEAK, ROT6D_IDENTITY, HeadOutput, PoseNetwork
from poseadapt.synth import OBS_DIM, make_dataset, make_domain_config, make_object, make_scalar_task

import tape
from helpers import SAMPLE_RANGES

NETWORK = {"feature_dim": 16, "encoder_hidden": [32], "head_hidden": 8}
TOLERANCE = 1e-10


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


def tape_rot6d_to_matrix(r6):
    degenerate = gram_schmidt(r6.data)[1][..., None]
    if degenerate.any():
        r6 = tape.add(tape.mul(r6, ~degenerate), np.where(degenerate, ROT6D_IDENTITY, 0.0))
    a1, a2 = r6[..., :3], r6[..., 3:]
    b1 = tape.div(a1, tape.norm(a1, axis=-1, keepdims=True))
    proj = tape.tsum(tape.mul(b1, a2), axis=-1, keepdims=True)
    a2p = tape.sub(a2, tape.mul(proj, b1))
    b2 = tape.div(a2p, tape.norm(a2p, axis=-1, keepdims=True))
    return tape.stack([b1, b2, tape.cross(b1, b2)], axis=-1)


def tape_regression(out, sup, anchors, model, cam):
    terms = []
    if "rot" in out.residuals:
        gt_rot = resolve_symmetric_gt(out, sup.rotation, anchors, model)
        idx = nearest_anchors(gt_rot, anchors.rotations, sup.k_rot)
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
    per_sample = tape_regression(out, sup, anchors, model, cam)
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
        idx = z_class_indices(sup.z, anchors.bins_z)
        diff = tape.sub(graph, cfg.target_graph.g0[idx[:, None], idx[None, :]])
        corr = tape.tsum(tape.mul(diff, diff))
        parts[2] = float(corr.data)
        total = tape.add(total, tape.mul(corr, cfg.ctc_weight))
    return total, parts


# ---------------------------------------------------------------------------
# cases


def setup(kind, stage, scores=None):
    """Network, objective and supervision of one object's source split, as
    the pipeline builds them; ``kind`` "scalar" is the scalar task."""
    scalar = kind == "scalar"
    cfg = config_from_dict({"network": NETWORK, **({"scores": scores} if scores else {})})
    dc = make_domain_config(0.0, 0.02, 0.0, seed=1)
    if scalar:
        ds = make_scalar_task(24, 1, dc, dc, seed=0)
    else:
        ds = make_dataset(24, 1, [make_object(kind, seed=1, n_points=16)], build_camera(cfg),
                          dc, dc, seed=0, sample_ranges=SAMPLE_RANGES)
    anchors = build_anchors(cfg, scalar=scalar, single=stage == "baseline-regression")
    net = PoseNetwork(build_network_config(cfg, OBS_DIM, anchors, scalar=scalar), seed=0)
    objective = build_objective(cfg, anchors, stage)
    sup = prepare_batch_supervision(ds.source.gt_pose, anchors, ds.cam, objective,
                                    branches=tuple(net.config.branches()))
    return net, ds, anchors, objective, sup


def zero_a_supervised_rotation_anchor(net, anchors, sup):
    """Zero the 6D residual of one anchor that the first sample supervises,
    so its decode is degenerate."""
    j = nearest_anchors(sup.rotation[:1], anchors.rotations, sup.k_rot)[0, 0]
    last = net.reg_heads["rot"].layers[-1]
    last.w.data[:, 6 * j:6 * j + 6] = 0.0
    last.b.data[6 * j:6 * j + 6] = 0.0


def relative_difference(got, want):
    scale = np.abs(want).max()
    diff = np.abs(got - want).max()
    return diff / scale if scale > 0 else diff


# case -> (object kind or "scalar", stage, batch size, scores section, degenerate 6D row)
CASES = {
    "box-ctc": ("box", "teacher", 8, None, False),
    "box-no-ctc": ("box", "no-ctc", 8, None, False),
    "cylinder-ctc": ("cylinder", "teacher", 8, None, False),
    "cylinder-no-ctc": ("cylinder", "no-ctc", 8, None, False),
    "blob-ctc": ("blob", "teacher", 8, None, False),
    "blob-no-ctc": ("blob", "no-ctc", 8, None, False),
    "scalar-ctc": ("scalar", "teacher", 8, None, False),
    "scalar-no-ctc": ("scalar", "no-ctc", 8, None, False),
    "box-baseline-regression": ("box", "baseline-regression", 8, None, False),
    "box-degenerate-6d-row": ("box", "teacher", 8, None, True),
    "cylinder-batch-of-one": ("cylinder", "teacher", 1, None, False),
    "box-one-hot-labels": ("box", "teacher", 8, {"rotation": [1.0, 0.0, 1]}, False),
}


@pytest.mark.parametrize("case", list(CASES))
def test_gradients_match_the_tape(case):
    kind, stage, batch, scores, degenerate = CASES[case]
    net, ds, anchors, objective, sup = setup(kind, stage, scores)
    if degenerate:
        zero_a_supervised_rotation_anchor(net, anchors, sup)
    params = net.parameters()
    twin = {k: tape.parameter(p.data) for k, p in params.items()}
    rows = np.arange(batch)
    obs = ds.source.observation[rows]
    model, batch_sup = ds.objects[0], sup[rows]

    out = net.forward(obs)
    if degenerate:
        idx = nearest_anchors(batch_sup.rotation, anchors.rotations, sup.k_rot)
        assert gram_schmidt(out.residuals["rot"].data[rows[:, None], idx])[1].any()
    bd = total_objective(out, batch_sup, anchors, model, ds.cam, objective)
    bd.total.backward()
    total, parts = tape_objective(tape_forward(net, twin, obs), batch_sup, anchors, model,
                                  ds.cam, objective)
    total.backward()

    np.testing.assert_allclose([bd.total_value, bd.cls_value, bd.reg_value, bd.corr_value],
                               [total.item(), *parts], rtol=1e-12, atol=0)
    for k, p in params.items():
        assert (p.grad is None) == (twin[k].grad is None), k
        if p.grad is not None:
            assert relative_difference(p.grad, twin[k].grad) <= TOLERANCE, k
    # the classifier heads of the baseline get no gradient; every other
    # case reaches every parameter
    missing = {k for k, p in params.items() if p.grad is None}
    assert missing == ({k for k in params if k.startswith("cls.")}
                       if stage == "baseline-regression" else set())

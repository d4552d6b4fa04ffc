"""Bit-for-bit oracle for the batched ADD(-S) evaluation.

``add_metric`` and ``add_s_metric`` score one pose at a time, as the
package did before its evaluation was batched; the hit used ADD-S on a
symmetric model and ADD otherwise.  One ``evaluate_pose`` call over a
stack of poses must give exactly the same bits, and each per-object,
per-split report is one such call.
"""

import numpy as np
import pytest

from poseadapt.errors import InvalidArgumentError
from poseadapt.experiment import quality_rows
from poseadapt.geometry import AnchorSet, CameraIntrinsics, ObjectModel, Pose, apply_pose
from poseadapt.metrics import HIT_FACTOR, evaluate_pose, predict_poses
from poseadapt.network import NetworkConfig, PoseNetwork
from poseadapt.reports import write_recall_table
from poseadapt.synth import evaluation_access, make_dataset, make_object

from helpers import ANCHOR_RANGES, SAMPLE_RANGES, random_rotations

CAM = CameraIntrinsics(fx=600.0, fy=600.0)
N_POSES = 320


def add_metric(p, gt, model):
    """Mean Euclidean deviation of model points under the two poses."""
    if len(model.points) == 0:
        raise InvalidArgumentError("empty object model")
    d = apply_pose(p, model.points) - apply_pose(gt, model.points)
    return float(np.linalg.norm(d, axis=1).mean())


def add_s_metric(p, gt, model):
    """Mean closest-point deviation; exact O(n^2) search."""
    if len(model.points) == 0:
        raise InvalidArgumentError("empty object model")
    a = apply_pose(p, model.points)
    b = apply_pose(gt, model.points)
    diff = a[:, None, :] - b[None, :, :]
    return float(np.sqrt((diff * diff).sum(-1)).min(axis=1).mean())


def reference_hit(p, gt, model):
    dist = add_s_metric(p, gt, model) if model.is_symmetric else add_metric(p, gt, model)
    return dist < HIT_FACTOR * model.diameter


def pose_pairs(model, rng, n=N_POSES):
    """Predicted and ground-truth stacks: most predictions are the ground
    truth moved by 5-15% of the diameter, so the hits straddle the
    threshold; the rest are unrelated poses and exact copies."""
    gt = Pose(random_rotations(n, rng), rng.uniform([-0.3, -0.3, 0.5], [0.3, 0.3, 1.8], (n, 3)))
    direction = rng.standard_normal((n, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    shift = direction * rng.uniform(0.05, 0.15, (n, 1)) * model.diameter
    rotation = gt.rotation.copy()
    rotation[::8] = random_rotations(len(rotation[::8]), rng)
    rotation[1::8] = gt.rotation[1::8] @ model.symmetries[-1]
    shift[2::8] = 0.0
    return Pose(rotation, gt.translation + shift), gt


@pytest.mark.parametrize("kind", ["box", "cylinder", "blob"])
def test_batched_scores_match_per_sample_oracle(kind):
    model = make_object(kind, seed=3, n_points=128)
    pred, gt = pose_pairs(model, np.random.default_rng(len(kind)))
    rec = evaluate_pose(pred, gt, model)
    rows = [(Pose(pred.rotation[b], pred.translation[b]), Pose(gt.rotation[b], gt.translation[b]))
            for b in range(N_POSES)]
    np.testing.assert_array_equal(rec.add, [add_metric(p, g, model) for p, g in rows])
    np.testing.assert_array_equal(rec.hit, [reference_hit(p, g, model) for p, g in rows])
    if model.is_symmetric:
        np.testing.assert_array_equal(rec.add_s, [add_s_metric(p, g, model) for p, g in rows])
    else:
        assert rec.add_s is None
    assert 0.1 * N_POSES < rec.hit.sum() < 0.9 * N_POSES


@pytest.mark.parametrize("kind", ["box", "cylinder"])
def test_single_pose_equals_its_row(kind):
    model = make_object(kind, seed=3, n_points=128)
    pred, gt = pose_pairs(model, np.random.default_rng(9), n=12)
    batch = evaluate_pose(pred, gt, model)
    for b in range(12):
        one = evaluate_pose(Pose(pred.rotation[b], pred.translation[b]),
                            Pose(gt.rotation[b], gt.translation[b]), model)
        assert np.shape(one.add) == np.shape(one.hit) == ()
        assert one.add == batch.add[b] and one.hit == batch.hit[b]
        if model.is_symmetric:
            assert np.shape(one.add_s) == () and one.add_s == batch.add_s[b]


def test_empty_model_raises():
    """A pose stack's ADD needs model points too: the model is refused when built."""
    with pytest.raises(InvalidArgumentError, match="not finite, nonempty"):
        ObjectModel(points=np.zeros((0, 3)), diameter=1.0)


def test_recall_rows_match_oracle_and_mark_objects_without_samples(tmp_path):
    objects = [make_object("cylinder", seed=1, n_points=16), make_object("box", seed=2, n_points=16)]
    # round-robin assignment: one target sample leaves the box without any
    ds = make_dataset(40, 1, objects, CAM, (0.0, 0.02, 0.0), (0.5, 0.05, 0.0), seed=4,
                      sample_ranges=SAMPLE_RANGES, object_kinds=["cylinder", "box"])
    anchors = AnchorSet.build(4, 3, 3, 4, *ANCHOR_RANGES, seed=0)
    net = PoseNetwork(NetworkConfig(obs_dim=ds.obs_dim, n_rot=4, n_vx=3, n_vy=3, n_z=4,
                                    feature_dim=8, encoder_hidden=(8,), head_hidden=4),
                      seed=0)
    for domain in ("source", "target"):
        rows = [quality_rows(net, ds, i, anchors)[domain] for i in range(2)]
        for i, (_, count, recall) in enumerate(rows):
            split = ds.by_object(i, domain)
            assert count == len(split)
            if not len(split):
                assert recall is None
                continue
            poses, _ = predict_poses(net, split.observation, anchors, CAM)
            with evaluation_access():
                hits = [reference_hit(poses[k], split.gt_pose[k], objects[i])
                        for k in range(len(split))]
            assert recall == 100.0 * sum(hits) / len(hits)
    assert rows[1][1:] == (0, None)
    path = tmp_path / "recall.tsv"
    write_recall_table(path, rows)
    assert path.read_text().splitlines()[2] == "box1\t0\t-"

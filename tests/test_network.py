"""Network forward contracts, Adam behavior, checkpoint round trips."""

import numpy as np
import pytest

from poseadapt import autodiff as ad
from poseadapt.errors import (
    CheckpointError,
    CheckpointIncompatibleError,
    ShapeError,
)
from poseadapt.network import (
    Adam,
    NetworkConfig,
    PoseNetwork,
    load_checkpoint,
    save_checkpoint,
)

CFG = NetworkConfig(obs_dim=12, n_rot=6, n_vx=4, n_vy=4, n_z=5,
                    feature_dim=16, encoder_hidden=(16, 16), head_hidden=8)


def rand_obs(n, seed=0):
    return np.random.default_rng(seed).standard_normal((n, CFG.obs_dim))


class TestForward:
    def test_probabilities_normalized(self):
        net = PoseNetwork(CFG, seed=0)
        out = net.forward(rand_obs(7))
        for name, probs in out.probs.items():
            np.testing.assert_allclose(probs.data.sum(axis=1), 1.0, atol=1e-6)
            assert np.all(probs.data >= 0)

    def test_zeroed_classifier_heads_give_uniform(self):
        net = PoseNetwork(CFG, seed=1)
        for name, head in net.cls_heads.items():
            head.layers[-1].w.data[:] = 0.0
            head.layers[-1].b.data[:] = 0.0
        out = net.forward(rand_obs(3))
        for name, probs in out.probs.items():
            n = probs.data.shape[1]
            np.testing.assert_allclose(probs.data, 1.0 / n, atol=1e-12)

    def test_deterministic_for_fixed_seed(self):
        a = PoseNetwork(CFG, seed=7).forward(rand_obs(4, seed=3))
        b = PoseNetwork(CFG, seed=7).forward(rand_obs(4, seed=3))
        for name in a.probs:
            np.testing.assert_array_equal(a.probs[name].data, b.probs[name].data)
        np.testing.assert_array_equal(a.feature.data, b.feature.data)

    def test_dimension_mismatch_raises(self):
        net = PoseNetwork(CFG, seed=0)
        with pytest.raises(ShapeError):
            net.forward(np.zeros((3, CFG.obs_dim + 1)))

    def test_rotation_residuals_start_near_identity(self):
        net = PoseNetwork(CFG, seed=0)
        out = net.forward(rand_obs(2))
        res = out.residuals["rot"].data
        assert res.shape == (2, CFG.n_rot, 6)
        np.testing.assert_allclose(res, np.tile([1, 0, 0, 0, 1, 0], (2, CFG.n_rot, 1)),
                                   atol=0.2)

    def test_picks_break_ties_low(self):
        net = PoseNetwork(CFG, seed=1)
        for head in net.cls_heads.values():
            head.layers[-1].w.data[:] = 0.0
            head.layers[-1].b.data[:] = 0.0
        out = net.forward(rand_obs(2))
        for name, idx in out.picks().items():
            np.testing.assert_array_equal(idx, 0)

    def test_disabled_branches(self):
        cfg = NetworkConfig(obs_dim=8, n_rot=0, n_vx=0, n_vy=0, n_z=5,
                            feature_dim=8, encoder_hidden=(8,), head_hidden=4)
        net = PoseNetwork(cfg, seed=0)
        out = net.forward(np.zeros((2, 8)))
        assert set(out.probs) == {"z"}
        assert set(out.residuals) == {"z"}


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        p = ad.parameter(np.array([1.0, -2.0]))
        opt = Adam({"p": p}, lr=0.1)
        p.grad = np.zeros(2)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_descent_on_square(self):
        p = ad.parameter(np.array([1.0]))
        opt = Adam({"p": p}, lr=0.1)
        loss = ad.tsum(ad.mul(p, p))
        loss.backward()
        opt.step()
        assert abs(p.data[0]) < 1.0

    def test_least_squares_converges(self):
        # realizable system so the loss floor is zero; lr chosen where the
        # trajectory is smooth
        rng = np.random.default_rng(0)
        A = rng.standard_normal((20, 4))
        b = A @ rng.standard_normal((4, 1))
        w = ad.parameter(np.zeros((4, 1)))
        opt = Adam({"w": w}, lr=0.01)
        losses = []
        for _ in range(200):
            w.grad = None
            r = ad.add(ad.linear(A, w, np.zeros(1)), -b)
            loss = ad.tsum(ad.mul(r, r))
            loss.backward()
            opt.step()
            losses.append(loss.item())
        # monotone decrease after the warm-up steps
        assert all(losses[i + 1] <= losses[i] + 1e-12 for i in range(10, 199))
        assert losses[-1] < losses[0] * 0.01


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        net = PoseNetwork(CFG, seed=3)
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, net, meta={"stage": "teacher"})
        net2, meta = load_checkpoint(path)
        assert net2.config == net.config
        for k, p in net.parameters().items():
            np.testing.assert_array_equal(p.data, net2.parameters()[k].data)
        assert meta == {"stage": "teacher"}
        # the reloaded network writes the same bytes
        save_checkpoint(tmp_path / "again.ckpt", net2, meta=meta)
        assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()

    def test_corrupt_checkpoint_raises(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"poseadapt-ckpt v1\n" + b"\x00" * 40)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
        path2 = tmp_path / "notckpt.ckpt"
        path2.write_bytes(b"something else entirely")
        with pytest.raises(CheckpointError):
            load_checkpoint(path2)

    def test_config_mismatch_raises(self, tmp_path):
        net = PoseNetwork(CFG, seed=0)
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, net)
        other = NetworkConfig(obs_dim=CFG.obs_dim, n_rot=CFG.n_rot + 1,
                              n_vx=CFG.n_vx, n_vy=CFG.n_vy, n_z=CFG.n_z,
                              feature_dim=CFG.feature_dim,
                              encoder_hidden=CFG.encoder_hidden,
                              head_hidden=CFG.head_hidden)
        with pytest.raises(CheckpointIncompatibleError):
            load_checkpoint(path, expected_config=other)

    def test_copy_is_independent(self):
        net = PoseNetwork(CFG, seed=0)
        clone = net.copy()
        clone.parameters()["encoder.0.w"].data[:] = 0.0
        assert net.parameters()["encoder.0.w"].data.any()

"""Network forward contracts, Adam behavior, checkpoint round trips."""

import json

import numpy as np
import pytest

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

from helpers import write_v1_checkpoint

CFG = NetworkConfig(obs_dim=12, n_rot=6, n_vx=4, n_vy=4, n_z=5,
                    feature_dim=16, encoder_hidden=(16, 16), head_hidden=8)


def rand_obs(n, seed=0):
    return np.random.default_rng(seed).standard_normal((n, CFG.obs_dim))


class TestForward:
    def test_probabilities_normalized(self):
        net = PoseNetwork(CFG, seed=0)
        out = net.forward(rand_obs(7))
        for name, probs in out.probs.items():
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)
            assert np.all(probs >= 0)

    def test_zeroed_classifier_heads_give_uniform(self):
        net = PoseNetwork(CFG, seed=1)
        for name, head in net.cls_heads.items():
            head.layers[-1].w[:] = 0.0
            head.layers[-1].b[:] = 0.0
        out = net.forward(rand_obs(3))
        for name, probs in out.probs.items():
            n = probs.shape[1]
            np.testing.assert_allclose(probs, 1.0 / n, atol=1e-12)

    def test_deterministic_for_fixed_seed(self):
        a = PoseNetwork(CFG, seed=7).forward(rand_obs(4, seed=3))
        b = PoseNetwork(CFG, seed=7).forward(rand_obs(4, seed=3))
        for name in a.probs:
            np.testing.assert_array_equal(a.probs[name], b.probs[name])
        np.testing.assert_array_equal(a.feature, b.feature)

    def test_dimension_mismatch_raises(self):
        net = PoseNetwork(CFG, seed=0)
        with pytest.raises(ShapeError):
            net.forward(np.zeros((3, CFG.obs_dim + 1)))

    def test_rotation_residuals_start_near_identity(self):
        net = PoseNetwork(CFG, seed=0)
        out = net.forward(rand_obs(2))
        res = out.residuals["rot"]
        assert res.shape == (2, CFG.n_rot, 6)
        np.testing.assert_allclose(res, np.tile([1, 0, 0, 0, 1, 0], (2, CFG.n_rot, 1)),
                                   atol=0.2)

    def test_picks_break_ties_low(self):
        net = PoseNetwork(CFG, seed=1)
        for head in net.cls_heads.values():
            head.layers[-1].w[:] = 0.0
            head.layers[-1].b[:] = 0.0
        out = net.forward(rand_obs(2))
        for name, idx in out.picks().items():
            np.testing.assert_array_equal(idx, 0)

    def test_no_grad_forward_keeps_no_activations(self):
        """A training pass hands each MLP's layer inputs to its backward;
        a prediction pass keeps none and makes no gradient buffer.  The
        MLPs themselves hold no activations."""
        net = PoseNetwork(CFG, seed=0)
        mlps = {"encoder": net.encoder, **{f"cls.{k}": m for k, m in net.cls_heads.items()},
                **{f"reg.{k}": m for k, m in net.reg_heads.items()}}
        inputs = net.forward(rand_obs(3)).backward.args[0]
        assert {k: len(v) for k, v in inputs.items()} == {k: len(m.layers)
                                                         for k, m in mlps.items()}
        out = net.forward(rand_obs(3), train=False)
        assert out.backward is None and net.grad is None
        assert all(set(vars(m)) == {"layers"} for m in mlps.values())

    def test_backward_reads_the_activations_of_its_own_pass(self):
        """Two training passes, then the first one's backward: the
        gradients of the first batch, to the bit."""
        rng = np.random.default_rng(4)
        net = PoseNetwork(CFG, seed=0)
        first = net.forward(rand_obs(5, seed=1))
        grads = ({k: rng.standard_normal(p.shape) for k, p in first.probs.items()},
                 {k: rng.standard_normal(r.shape) for k, r in first.residuals.items()},
                 rng.standard_normal(first.feature.shape))
        first.backward(*grads)
        want = net.grad.copy()
        first = net.forward(rand_obs(5, seed=1))
        net.forward(rand_obs(5, seed=2))
        first.backward(*grads)
        np.testing.assert_array_equal(net.grad, want)

    def test_disabled_branches(self):
        cfg = NetworkConfig(obs_dim=8, n_rot=0, n_vx=0, n_vy=0, n_z=5,
                            feature_dim=8, encoder_hidden=(8,), head_hidden=4)
        net = PoseNetwork(cfg, seed=0)
        out = net.forward(np.zeros((2, 8)))
        assert set(out.probs) == {"z"}
        assert set(out.residuals) == {"z"}


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        p = np.array([1.0, -2.0])
        Adam(p, np.zeros(2), lr=0.1).step()
        np.testing.assert_array_equal(p, [1.0, -2.0])

    def test_descent_on_square(self):
        p = np.array([1.0])
        Adam(p, 2.0 * p, lr=0.1).step()     # the gradient of p^2
        assert abs(p[0]) < 1.0

    def test_least_squares_converges(self):
        # realizable system so the loss floor is zero; lr chosen where the
        # trajectory is smooth
        rng = np.random.default_rng(0)
        A = rng.standard_normal((20, 4))
        b = A @ rng.standard_normal((4, 1))
        w, g = np.zeros((4, 1)), np.zeros((4, 1))
        opt = Adam(w, g, lr=0.01)
        losses = []
        for _ in range(200):
            r = A @ w - b
            g[...] = 2.0 * A.T @ r
            opt.step()
            losses.append(float((r * r).sum()))
        # monotone decrease after the warm-up steps
        assert all(losses[i + 1] <= losses[i] + 1e-12 for i in range(10, 199))
        assert losses[-1] < losses[0] * 0.01


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        """Parameters come back bit for bit, -0.0, a subnormal and the
        largest float32 among them; the header records their dtype."""
        net = PoseNetwork(CFG, seed=3)
        net.flat[:3] = [-0.0, np.finfo(np.float32).smallest_subnormal, np.finfo(np.float32).max]
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, net, meta={"stage": "teacher"})
        net2, meta = load_checkpoint(path)
        assert net2.config == net.config
        assert net2.flat.dtype == np.float32
        np.testing.assert_array_equal(net2.flat.view("<u4"), net.flat.view("<u4"))
        for k, p in net.parameters().items():
            np.testing.assert_array_equal(p.view("<u4"), net2.parameters()[k].view("<u4"))
        assert meta == {"stage": "teacher"}
        raw = path.read_bytes()
        assert raw.startswith(b"poseadapt-ckpt v2\n")
        n = int.from_bytes(raw[18:26], "big")
        header = json.loads(raw[26:26 + n])
        assert (header["version"], header["dtype"]) == (2, "<f4")
        assert len(raw) == 26 + n + 4 * net.flat.size
        assert net2.grad is None
        # the reloaded network writes the same bytes
        save_checkpoint(tmp_path / "again.ckpt", net2, meta=meta)
        assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()

    def test_corrupt_checkpoint_raises(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"poseadapt-ckpt v2\n" + b"\x00" * 40)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
        path2 = tmp_path / "notckpt.ckpt"
        path2.write_bytes(b"something else entirely")
        with pytest.raises(CheckpointError):
            load_checkpoint(path2)

    def test_version_1_is_refused_with_one_line(self, tmp_path):
        path = tmp_path / "old.ckpt"
        write_v1_checkpoint(path, PoseNetwork(CFG, seed=0))
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert str(info.value) == (f"{path}: checkpoint version 1, this build reads version 2; "
                                   "re-train")

    def test_another_parameter_dtype_is_corrupt(self, tmp_path):
        path = tmp_path / "f8.ckpt"
        save_checkpoint(path, PoseNetwork(CFG, seed=0))
        raw = path.read_bytes()
        path.write_bytes(raw.replace(b'"dtype": "<f4"', b'"dtype": "<f8"'))
        with pytest.raises(CheckpointError, match="corrupt checkpoint.*dtype <f8"):
            load_checkpoint(path)

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

    def test_copy_and_load_draw_no_weights(self, tmp_path, monkeypatch):
        """A copy and a loaded checkpoint take every parameter from their
        source; neither draws initial weights."""
        net = PoseNetwork(CFG, seed=4)
        save_checkpoint(tmp_path / "net.ckpt", net)
        monkeypatch.setattr(np.random, "default_rng", None)
        for other in (net.copy(), load_checkpoint(tmp_path / "net.ckpt")[0]):
            np.testing.assert_array_equal(other.flat, net.flat)
            assert other.flat.dtype == net.flat.dtype and other.flat.flags.writeable

    def test_copy_is_independent(self):
        net = PoseNetwork(CFG, seed=0)
        clone = net.copy()
        clone.parameters()["encoder.0.w"][:] = 0.0
        assert net.parameters()["encoder.0.w"].any()

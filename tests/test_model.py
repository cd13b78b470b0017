"""Unit tests for the encoder/classifier, the optimizer loop and checkpoints."""

import math
import struct
import tracemalloc

import numpy as np
import pytest

from patt_lab import checkpoint
from patt_lab import model as model_module
from patt_lab import vmf as vmf_module
from patt_lab.config import TAIL_FRACTION
from patt_lab.data import LabeledSet, SynthConfig, gen_longtail
from patt_lab.model import (EncoderClassifier, TrainConfig, TrainState,
                            batch_loss_and_grads, classifier_logits,
                            encoder_forward, load_checkpoint, save_checkpoint,
                            train, train_step)
from patt_lab.util import derive_seed
from patt_lab.vmf import VmfMixture

import oracles
from oracles import VmfParams


def make_model(seed=0, input_dim=6, widths=(8,), feature_dim=4, n_classes=3):
    return EncoderClassifier.init(input_dim, widths, feature_dim, n_classes, seed)


def batch_for(model, n, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, model.input_dim))
    y = rng.integers(0, model.n_classes, size=n)
    # force every class to appear so statistics cover the full head
    y[: model.n_classes] = np.arange(model.n_classes)
    return x, y


def stats_for(model, x, y):
    # the full pass of train: (mixture, sums, counts) of the model's features
    counts = np.bincount(y, minlength=model.n_classes)
    return oracles.full_stats(encoder_forward(model, x), y, counts)


def params_equal(a, b):
    return all(np.array_equal(p, q) for p, q in zip(a.param_list(), b.param_list()))


class TestEncoderForward:
    def test_output_is_unit_norm(self):
        model = make_model(seed=3)
        x = np.random.default_rng(1).normal(size=(50, model.input_dim))
        z = encoder_forward(model, x)
        np.testing.assert_allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-9)

    def test_zero_final_weights_collapse_to_bias_direction(self):
        model = make_model(seed=0, widths=(5,))
        model.weights[-1][...] = 0.0
        model.biases[-1][...] = [3.0, 0.0, -4.0, 0.0]
        x = np.random.default_rng(2).normal(size=(7, model.input_dim))
        z = encoder_forward(model, x)
        expected = np.array([0.6, 0.0, -0.8, 0.0])
        np.testing.assert_allclose(z, np.tile(expected, (7, 1)), atol=1e-12)

    def test_same_seed_same_input_bit_identical(self):
        x = np.random.default_rng(9).normal(size=(4, 6))
        z1 = encoder_forward(make_model(seed=11), x)
        z2 = encoder_forward(make_model(seed=11), x)
        assert np.array_equal(z1, z2)

    def test_init_is_seeded(self):
        assert params_equal(make_model(seed=7), make_model(seed=7))
        a, b = make_model(seed=7), make_model(seed=8)
        assert not all(np.array_equal(p, q) for p, q in zip(a.param_list(), b.param_list()))

    def test_single_row_matches_batch(self):
        # single-row and batched matmuls may take different BLAS paths,
        # so agreement is to rounding, not bit-exact
        model = make_model(seed=4)
        x = np.random.default_rng(5).normal(size=(3, model.input_dim))
        z = encoder_forward(model, x)
        for i in range(3):
            np.testing.assert_allclose(encoder_forward(model, x[i:i + 1])[0], z[i],
                                       rtol=0, atol=1e-14)

    def test_degenerate_embedding_rejected(self):
        model = make_model(seed=0)
        model.weights[-1][...] = 0.0
        model.biases[-1][...] = 0.0
        with pytest.raises(ValueError, match="degenerate"):
            encoder_forward(model, np.ones((1, model.input_dim)))

    def test_inference_leaves_input_and_matches_training_forward(self):
        model = make_model(seed=5, widths=(8, 7))
        x = np.random.default_rng(6).normal(size=(20, model.input_dim))
        x.flags.writeable = False
        z = encoder_forward(model, x)
        acts, norms, z_train = model_module._forward_batch(model, x, [])
        assert np.array_equal(z, z_train)
        # the in-place layers keep the bits of one expression per layer
        acts_ref, norms_ref, z_ref = oracles.forward_ref(model, x)
        assert np.array_equal(z_train, z_ref) and np.array_equal(norms, norms_ref)
        assert acts[0] is x and len(acts) == len(acts_ref) == 3
        assert all(np.array_equal(a, r) for a, r in zip(acts, acts_ref))

    def test_input_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="input dim"):
            encoder_forward(make_model(), np.ones((1, 5)))

    def test_init_validation(self):
        with pytest.raises(ValueError):
            EncoderClassifier.init(0, (8,), 4, 3, 0)
        with pytest.raises(ValueError):
            EncoderClassifier.init(6, (8,), 1, 3, 0)
        with pytest.raises(ValueError):
            EncoderClassifier.init(6, (8,), 4, 1, 0)


class TestForwardMemory:
    def test_inference_holds_two_hidden_layers(self):
        # without backprop a forward keeps only the layer it is computing and
        # the one it reads
        rows, width = 5000, 64
        model = EncoderClassifier.init(16, (width, width), 8, 10, seed=0)
        x = np.random.default_rng(0).normal(size=(rows, 16))
        tracemalloc.start()
        try:
            encoder_forward(model, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * rows * width * 8


class TestClassifierLogits:
    def test_identity_head_returns_features(self):
        model = make_model(feature_dim=4, n_classes=4)
        model.clf_w[...] = np.eye(4)
        model.clf_b[...] = 0.0
        z = encoder_forward(model, np.random.default_rng(0).normal(size=(6, 6)))
        np.testing.assert_array_equal(classifier_logits(model, z), z)

    def test_zero_weights_constant_bias(self):
        model = make_model(n_classes=5, feature_dim=4)
        model.clf_w[...] = 0.0
        model.clf_b[...] = 2.5
        z = np.eye(4)[0]
        np.testing.assert_array_equal(classifier_logits(model, z), np.full(5, 2.5))

    def test_random_case_matches_elementwise_product(self):
        rng = np.random.default_rng(17)
        model = make_model(feature_dim=3, n_classes=3, input_dim=3)
        model.clf_w[...] = rng.normal(size=(3, 3))
        model.clf_b[...] = rng.normal(size=3)
        z = rng.normal(size=3)
        z /= np.linalg.norm(z)
        got = classifier_logits(model, z)
        for j in range(3):
            want = sum(model.clf_w[j, k] * z[k] for k in range(3)) + model.clf_b[j]
            assert got[j] == pytest.approx(want, rel=1e-14)

    def test_feature_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="feature dim"):
            classifier_logits(make_model(feature_dim=4), np.ones(3))


class TestBatchGradients:
    """Finite-difference checks of the exact backprop through head,
    unit-norm projection and encoder, per training objective."""

    def _fd_check(self, method, with_ood, rtol=1e-3):
        rng = np.random.default_rng(23)
        model = EncoderClassifier.init(5, (8,), 4, 3, seed=31)
        x, y = rng.normal(size=(6, 5)), np.array([0, 1, 2, 0, 1, 2])
        ood_x = rng.normal(size=(4, 5)) if with_ood else None
        mix = stats_for(model, x, y)[0]
        config = TrainConfig(method=method)

        def total(m):
            return batch_loss_and_grads(m, mix, x, y, ood_x, config)[0].total

        _, grad = batch_loss_and_grads(model, mix, x, y, ood_x, config)
        assert grad.shape == model.flat.shape
        h = 1e-6
        for i in range(grad.size):
            probe = oracles.copy_model(model)
            probe.flat[i] += h
            up = total(probe)
            probe.flat[i] -= 2 * h
            down = total(probe)
            fd = (up - down) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=rtol, abs=1e-8), (
                f"entry {i} of flat: exact {grad[i]} vs fd {fd}")

    def test_patt_gradients(self):
        self._fd_check("patt", with_ood=True)

    def test_ce_baseline_gradients(self):
        self._fd_check("ce-baseline", with_ood=False)

    def test_oe_baseline_gradients(self):
        self._fd_check("oe-baseline", with_ood=True)

    def test_empty_labeled_batch_rejected(self):
        model = make_model()
        with pytest.raises(ValueError, match="empty"):
            batch_loss_and_grads(
                model, None, np.zeros((0, 6)), np.zeros(0, dtype=int), None,
                TrainConfig(method="ce-baseline"))

    def test_patt_requires_statistics(self):
        model = make_model()
        x, y = batch_for(model, 8)
        with pytest.raises(ValueError, match="mixture"):
            batch_loss_and_grads(model, None, x, y, None, TrainConfig(method="patt"))

    def test_unknown_method_rejected(self):
        model = make_model()
        x, y = batch_for(model, 8)
        # the config checks the method on construction; this one is set after
        config = TrainConfig()
        config.method = "mixup"
        with pytest.raises(ValueError, match="method"):
            batch_loss_and_grads(model, None, x, y, None, config)


def make_state(model, x, y, **config_kwargs):
    config = TrainConfig(**config_kwargs)
    state = TrainState(model=model, mix=None, config=config)
    if config.method == "patt":
        state.mix, state.sums, state.counts = stats_for(model, x, y)
    return state


class TestTrainStep:
    def test_zero_learning_rate_keeps_parameters(self):
        model = make_model(seed=2)
        x, y = batch_for(model, 12, seed=3)
        state = make_state(model, x, y, learning_rate=0.0)
        before = model.flat.copy()
        breakdown = train_step(state, (x, y), None)
        assert np.isfinite(breakdown.total)
        np.testing.assert_array_equal(state.model.flat, before)

    def test_beta_zero_without_outliers_is_valid(self):
        model = make_model(seed=2)
        x, y = batch_for(model, 12, seed=3)
        state = make_state(model, x, y, beta=0.0)
        before = model.flat.copy()
        breakdown = train_step(state, (x, y), None)
        assert breakdown.oe == 0.0
        assert np.isfinite(breakdown.total)
        assert not np.array_equal(state.model.flat, before)

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_steps_update_one_state_in_place(self, optimizer):
        # the model, its parameter vector and the optimizer buffers are the
        # same objects after every step; only their values move
        model = make_model(seed=2)
        x, y = batch_for(model, 12, seed=3)
        state = make_state(model, x, y, optimizer=optimizer)
        ood = np.random.default_rng(4).normal(size=(6, model.input_dim))
        flat, m, v = model.flat, state.m, state.v
        before = flat.copy()
        for _ in range(3):
            train_step(state, (x, y), ood)
            assert state.model is model and state.model.flat is flat
            assert state.m is m and state.v is v
        assert not np.array_equal(flat, before)

    def test_batch_mode_runs_one_labeled_forward(self, monkeypatch):
        # the stats refresh and the loss share one encoder pass: one forward
        # for the labeled batch, one for the outliers
        calls = []
        original = model_module._forward_batch

        def counting(model, x, acts=None):
            calls.append(x.shape[0])
            return original(model, x, acts)

        model = make_model(seed=2)
        x, y = batch_for(model, 12, seed=3)
        state = make_state(model, x, y)
        assert state.config.vmf_update == "batch"
        ood = np.random.default_rng(4).normal(size=(6, model.input_dim))
        monkeypatch.setattr(model_module, "_forward_batch", counting)
        train_step(state, (x, y), ood)
        assert calls == [12, 6]

    def test_present_classes_fold_the_batch_into_the_sums(self):
        # S <- m S + S_b and N <- m N + n_b for the classes in the batch; the
        # absent class 2 keeps its sums, and the mixture comes from them
        model = make_model(seed=2)
        x, y = batch_for(model, 12, seed=3)
        state = make_state(model, x, y)
        keep = y != 2
        # the step moves the model, so the features are taken before it
        want = oracles.class_stats_ref(encoder_forward(model, x[keep]), y[keep], state.sums,
                                       state.counts, state.config.vmf_momentum)
        priors = state.mix.priors.copy()
        train_step(state, (x[keep], y[keep]), None)
        oracles.assert_stats_equal((state.mix, state.sums, state.counts), want)
        np.testing.assert_array_equal(state.mix.priors, priors)

    def test_class_held_out_of_10000_steps_keeps_its_statistics(self):
        # an absent class's sums are decayed by exactly 1, so they neither
        # underflow nor move: mu and kappa keep their bits, step after step
        model = make_model(seed=2)
        x, y = batch_for(model, 12, seed=3)
        state = make_state(model, x, y)
        batch = (x[y != 2][:4], y[y != 2][:4])
        assert set(batch[1].tolist()) == {0, 1}
        held = [a[2].copy() for a in (state.mix.mus, state.mix.kappas, state.sums, state.counts)]
        for _ in range(10000):
            train_step(state, batch, None)
        for a, b in zip((state.mix.mus, state.mix.kappas, state.sums, state.counts), held):
            assert a[2].tobytes() == b.tobytes()
        assert np.isfinite(state.sums).all() and np.isfinite(state.counts).all()
        # the present classes' counts settle at n_b / (1 - m)
        n_b = np.bincount(batch[1], minlength=3)[:2]
        np.testing.assert_allclose(state.counts[:2], n_b / (1.0 - 0.9), rtol=1e-12)

    def test_repeated_steps_reduce_total_loss(self):
        # fixed batch, fixed statistics: 200 steps must shave off >= 10%
        config = SynthConfig(n_classes=4, feature_dim=4, imbalance_ratio=10.0,
                             max_per_class=30, val_per_class=5, test_per_class=5,
                             ood_train_size=40, ood_test_size=40,
                             ood_test_clusters=2, seed=6)
        train_id, _, _, train_ood, _ = gen_longtail(config)
        x, y = train_id.inputs[:64], train_id.labels[:64]
        ood = train_ood.inputs[:32]
        model = EncoderClassifier.init(train_id.dim, (16,), 4, 4, seed=1)
        state = make_state(model, x, y, learning_rate=1e-3, vmf_update="epoch")
        totals = []
        for _ in range(200):
            totals.append(train_step(state, (x, y), ood).total)
        assert totals[-1] < 0.9 * totals[0]

    def test_epoch_mode_without_mixture_is_rejected(self):
        # in epoch mode the step uses the mixture it is given; the loss is
        # the one place that checks there is one
        model = make_model(seed=2)
        x, y = batch_for(model, 12, seed=3)
        state = TrainState(model, None, TrainConfig(vmf_update="epoch"))
        with pytest.raises(ValueError, match="mixture"):
            train_step(state, (x, y), None)

    def test_batch_mode_without_mixture_is_rejected(self):
        # with no mixture there are no priors to carry: the step folds
        # nothing into the sums, and the loss names what is missing
        model = make_model(seed=2)
        x, y = batch_for(model, 12, seed=3)
        state = TrainState(model, None, TrainConfig())
        with pytest.raises(ValueError, match="mixture"):
            train_step(state, (x, y), None)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_aborts_with_term_name(self):
        model = make_model(seed=2)
        model.clf_b[0] = np.inf
        x, y = batch_for(model, 12, seed=3)
        state = make_state(model, x, y, method="ce-baseline")
        with pytest.raises(RuntimeError, match="non-finite"):
            train_step(state, (x, y), None)


class TestFlatGradient:
    """The loss accumulates every gradient into one vector laid out like
    ``model.flat``, and the step hands that vector to the update."""

    @pytest.mark.parametrize("method", ["patt", "oe-baseline", "ce-baseline"])
    def test_flat_gradient_equals_flattened_list(self, monkeypatch, method):
        model = make_model(seed=2)
        before = oracles.copy_model(model)
        x, y = batch_for(model, 12, seed=3)
        ood = np.random.default_rng(4).normal(size=(6, model.input_dim))
        state = make_state(model, x, y, method=method)
        seen = []
        original = model_module._apply_update

        def capturing(state, flat_grad):
            seen.append(flat_grad.copy())
            original(state, flat_grad)

        monkeypatch.setattr(model_module, "_apply_update", capturing)
        train_step(state, (x, y), ood)
        # the refreshed statistics are the ones the step's loss used
        _, grad = batch_loss_and_grads(before, state.mix, x, y, ood, state.config)
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], grad)

    def test_gradient_is_a_fresh_vector_in_flat_order(self):
        model = make_model(seed=2)
        x, y = batch_for(model, 12, seed=3)
        mix = stats_for(model, x, y)[0]
        _, grad = batch_loss_and_grads(model, mix, x, y, None, TrainConfig())
        assert grad.dtype == np.float64 and grad.shape == model.flat.shape
        assert not np.shares_memory(grad, model.flat)
        _, again = batch_loss_and_grads(model, mix, x, y, None, TrainConfig())
        assert again is not grad
        np.testing.assert_array_equal(grad, again)

    def test_step_constructs_no_vmf_params(self, monkeypatch):
        model = make_model(seed=2)
        x, y = batch_for(model, 12, seed=3)
        ood = np.random.default_rng(4).normal(size=(6, model.input_dim))
        state = make_state(model, x, y)
        assert state.config.vmf_update == "batch"
        built = []
        original = VmfParams.__post_init__

        def counting(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(VmfParams, "__post_init__", counting)
        train_step(state, (x, y), ood)
        assert built == []
        # the package has no per-component type left to build
        assert not hasattr(vmf_module, "VmfParams")
        VmfParams(mu=np.array([1.0, 0.0]), kappa=1.0, dim=2)
        assert len(built) == 1


class TestFlatUpdate:
    """The update over one flat parameter vector keeps the bits of the
    per-parameter reference step."""

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    @pytest.mark.parametrize("assigned", [False, True])
    def test_matches_per_parameter_reference(self, optimizer, assigned):
        model = make_model(seed=2)
        if assigned:
            # values written into the model's views after init, the head from a
            # transposed (non-contiguous) array: the update starts from them
            rng = np.random.default_rng(9)
            model.clf_w[...] = rng.normal(size=(model.feature_dim, model.n_classes)).T
            model.biases[0][...] = rng.normal(size=model.biases[0].shape)
        x, y = batch_for(model, 12, seed=3)
        ood = np.random.default_rng(4).normal(size=(6, model.input_dim))
        state = make_state(model, x, y, optimizer=optimizer, learning_rate=1e-2,
                           vmf_update="epoch")
        start = model.flat.copy()
        ref_params, ref_opt = [p.copy() for p in model.param_list()], None

        def flat_of(arrays):
            return np.concatenate([a.ravel() for a in arrays])

        for _ in range(3):
            ref_model = oracles.model_of(ref_params[0:-2:2], ref_params[1:-2:2],
                                         *ref_params[-2:])
            _, grad = batch_loss_and_grads(ref_model, state.mix, x, y, ood, state.config)
            # the flat gradient split into per-parameter arrays
            grads = EncoderClassifier(grad, model.layer_sizes, model.n_classes).param_list()
            ref_params, ref_opt = oracles.apply_update_ref(ref_params, grads,
                                                           state.config, ref_opt)
            train_step(state, (x, y), ood)
            for got, want in zip(state.model.param_list(), ref_params):
                np.testing.assert_array_equal(got, want)
            if optimizer == "adam":
                np.testing.assert_array_equal(state.m, flat_of(ref_opt["m"]))
                np.testing.assert_array_equal(state.v, flat_of(ref_opt["v"]))
                assert state.t == ref_opt["t"]
            else:
                np.testing.assert_array_equal(state.m, flat_of(ref_opt["velocity"]))
                np.testing.assert_array_equal(state.v, np.zeros(model.flat.size))
                assert state.t == 0
        assert not np.array_equal(state.model.flat, start)


def assert_views_in_checkpoint_order(model):
    # each parameter is the C-contiguous stretch of model.flat at its offset
    # in the checkpoint.param_shapes order, and together they cover it
    shapes = checkpoint.param_shapes(model.layer_sizes, model.n_classes)
    base = model.flat.__array_interface__["data"][0]
    offset = 0
    for param, shape in zip(model.param_list(), shapes, strict=True):
        assert param.shape == shape and param.flags.c_contiguous
        assert param.__array_interface__["data"][0] == base + 8 * offset
        offset += param.size
    assert model.flat.dtype == np.float64 and model.flat.shape == (offset,)


class TestFlatParameters:
    """The model holds its parameters in one vector that the step, the
    optimizer and the checkpoint share."""

    def test_params_are_views_of_flat_in_checkpoint_order(self, tmp_path):
        model = make_model(seed=13, widths=(8, 5))
        assert_views_in_checkpoint_order(model)
        x, y = batch_for(model, 12, seed=3)
        state = make_state(model, x, y)
        ood = np.random.default_rng(4).normal(size=(6, model.input_dim))
        train_step(state, (x, y), ood)
        assert_views_in_checkpoint_order(state.model)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, state.model, state.mix)
        loaded, _ = load_checkpoint(path)
        assert_views_in_checkpoint_order(loaded)
        np.testing.assert_array_equal(loaded.flat, state.model.flat)
        # the parameter block follows the header: magic, L, L sizes, K
        header = 5 + 4 * (1 + len(model.layer_sizes) + 1)
        block = path.read_bytes()[header:header + 8 * model.flat.size]
        assert block == state.model.flat.tobytes()

    def test_writes_into_views_reach_the_vector(self):
        model = make_model(seed=1)
        model.clf_b[...] = 7.0
        model.weights[0][0, 0] = -3.0
        assert model.flat[-model.n_classes:].tolist() == [7.0] * model.n_classes
        assert model.flat[0] == -3.0

    def test_attributes_cannot_be_rebound(self):
        model = make_model()
        with pytest.raises(AttributeError, match="clf_w"):
            model.clf_w = np.eye(3, 4)
        with pytest.raises(TypeError):
            model.weights[0] = np.zeros((8, 6))

    def test_vector_must_match_the_layout(self):
        model = make_model()
        for size in (model.flat.size - 1, model.flat.size + 1):
            with pytest.raises(ValueError):
                EncoderClassifier(np.zeros(size), model.layer_sizes, model.n_classes)


def smoke_dataset(seed=0, **overrides):
    config = SynthConfig(n_classes=4, feature_dim=4, imbalance_ratio=10.0,
                         max_per_class=40, val_per_class=8, test_per_class=8,
                         ood_train_size=60, ood_test_size=40,
                         ood_test_clusters=2, seed=seed, **overrides)
    return gen_longtail(config)


class TestTrain:
    def test_zero_epochs_returns_initialized_model(self):
        train_id, val_id, _, train_ood, _ = smoke_dataset()
        config = TrainConfig(epochs=0, feature_dim=4, encoder_widths=(8,), seed=5)
        model, mix, history = train(config, train_id, train_ood, val_id)
        fresh = EncoderClassifier.init(
            train_id.dim, (8,), 4, 4, derive_seed(5, "model-init"))
        assert params_equal(model, fresh)
        assert history == []
        assert mix.n_classes == 4 and mix.dim == 4

    @pytest.mark.parametrize("method, vmf_update, epochs, passes", [
        ("patt", "epoch", 3, 3), ("patt", "batch", 3, 1), ("patt", "batch", 0, 1),
        ("oe-baseline", "batch", 2, 1), ("ce-baseline", "epoch", 0, 1),
    ])
    def test_at_most_one_full_pass_per_epoch(self, monkeypatch, method, vmf_update, epochs,
                                             passes):
        # the mixture seed is the first epoch's refresh; a baseline or a run
        # of no epochs makes one pass at the end
        calls = []
        full_stats = model_module._full_stats

        def counting(*args):
            calls.append(None)
            return full_stats(*args)

        monkeypatch.setattr(model_module, "_full_stats", counting)
        train_id, val_id, _, train_ood, _ = smoke_dataset()
        config = TrainConfig(method=method, vmf_update=vmf_update, epochs=epochs,
                             feature_dim=4, encoder_widths=(8,), seed=3)
        train(config, train_id, train_ood, val_id)
        assert len(calls) == passes

    @pytest.mark.parametrize("method", ["patt", "oe-baseline"])
    def test_run_builds_one_model_and_one_state(self, monkeypatch, method):
        # every step updates the run's one state in place
        built = []
        for cls in (EncoderClassifier, TrainState):
            original = cls.__init__

            def counting(self, *args, _cls=cls, _init=original, **kwargs):
                built.append(_cls.__name__)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        train_id, val_id, _, train_ood, _ = smoke_dataset()
        config = TrainConfig(method=method, epochs=2, batch_size=16, feature_dim=4,
                             encoder_widths=(8,), seed=3)
        states = []
        step = model_module.train_step

        def recording(state, id_batch, ood_batch):
            states.append(state)
            return step(state, id_batch, ood_batch)

        monkeypatch.setattr(model_module, "train_step", recording)
        model, _, _ = train(config, train_id, train_ood, val_id)
        assert len(states) > 2
        assert all(state is states[0] and state.model is model for state in states)
        assert built == ["EncoderClassifier", "TrainState"]

    def test_same_seed_bit_identical(self):
        train_id, val_id, _, train_ood, _ = smoke_dataset()
        config = TrainConfig(epochs=2, feature_dim=4, encoder_widths=(8,), seed=3)
        m1, mix1, h1 = train(config, train_id, train_ood, val_id)
        m2, mix2, h2 = train(config, train_id, train_ood, val_id)
        assert params_equal(m1, m2)
        for c1, c2 in zip(oracles.components_of(mix1), oracles.components_of(mix2)):
            assert np.array_equal(c1.mu, c2.mu) and c1.kappa == c2.kappa
        assert [vars(r) for r in h1] == [vars(r) for r in h2]

    def test_smoke_run_beats_majority_baseline(self):
        """A 10-class run at imbalance 100 must end above chance-level
        validation accuracy; the history carries one finite record per epoch."""
        train_id, val_id, _, train_ood, _ = gen_longtail(
            SynthConfig(max_per_class=200, seed=1))
        config = TrainConfig(epochs=30, encoder_widths=(32,), seed=1)
        _, _, history = train(config, train_id, train_ood, val_id)
        assert len(history) == 30
        for rec in history:
            for field in (rec.total, rec.isac, rec.tla, rec.oe, rec.val_acc):
                assert np.isfinite(field)
        assert history[-1].val_acc > 0.1

    def test_single_class_rejected(self):
        rng = np.random.default_rng(0)
        only = LabeledSet(inputs=rng.normal(size=(5, 3)), labels=np.zeros(5, dtype=int),
                          n_classes=1)
        with pytest.raises(ValueError, match="two classes"):
            train(TrainConfig(epochs=1), only, None, only)

    def test_empty_class_rejected(self):
        rng = np.random.default_rng(0)
        bad = LabeledSet(inputs=rng.normal(size=(5, 3)), labels=np.zeros(5, dtype=int),
                         n_classes=2)
        with pytest.raises(ValueError, match="at least one"):
            train(TrainConfig(epochs=1), bad, None, bad)

    @pytest.mark.parametrize("seed", range(3))
    def test_tail_kappa_stays_near_a_full_pass(self, seed):
        # The CLI defaults on data seeds 0-2. A tail class seen once in a
        # batch gives a mean resultant length of 1 on that batch alone; the
        # running sums weigh it against the class's earlier rows, so each
        # stored tail kappa stays within 4x of a full pass of the trained
        # model over the train split (0.86-1.04x here). An EMA of the batch
        # kappas took them to 1827-9472 against 61-84 on seed 0.
        train_id, val_id, _, train_ood, _ = gen_longtail(SynthConfig(seed=seed))
        model, mix, _ = train(TrainConfig(seed=seed), train_id, train_ood, val_id)
        full = oracles.full_stats(encoder_forward(model, train_id.inputs), train_id.labels,
                                  train_id.class_counts)[0]
        k = mix.n_classes
        tail = np.arange(k - math.ceil(k * TAIL_FRACTION), k)  # counts fall with the index
        assert (mix.kappas[tail] <= 4.0 * full.kappas[tail]).all(), (
            mix.kappas[tail], full.kappas[tail])


class TestTrainConfigValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(optimizer="rmsprop")
        with pytest.raises(ValueError):
            TrainConfig(vmf_update="step")
        with pytest.raises(ValueError):
            TrainConfig(method="pascl")
        with pytest.raises(ValueError):
            TrainConfig(vmf_momentum=1.0)
        with pytest.raises(ValueError, match="sgd_momentum"):
            TrainConfig(sgd_momentum=1.0)
        with pytest.raises(ValueError, match="sgd_momentum"):
            TrainConfig(sgd_momentum=-0.1)
        with pytest.raises(ValueError, match="oe_gamma"):
            TrainConfig(oe_gamma=-0.5)

    def test_sgd_also_trains(self):
        model = make_model(seed=2)
        x, y = batch_for(model, 12, seed=3)
        state = make_state(model, x, y, optimizer="sgd", learning_rate=1e-2)
        before = model.flat.copy()
        train_step(state, (x, y), None)
        assert not np.array_equal(state.model.flat, before)


def make_mixture(rng, k, d):
    mus = rng.normal(size=(k, d))
    mus /= np.linalg.norm(mus, axis=1, keepdims=True)
    comps = [VmfParams(mu=mus[j], kappa=float(rng.uniform(1, 30)), dim=d)
             for j in range(k)]
    priors = rng.uniform(0.2, 1.0, size=k)
    return oracles.mixture_of(comps, priors / priors.sum())


class TestCheckpoint:
    def test_round_trip_is_exact(self, tmp_path):
        model = make_model(seed=13, widths=(8, 5))
        mix = make_mixture(np.random.default_rng(5), model.n_classes,
                           model.feature_dim)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, mix)
        loaded, loaded_mix = load_checkpoint(path)
        assert params_equal(model, loaded)
        assert np.array_equal(mix.priors, loaded_mix.priors)
        for a, b in zip(oracles.components_of(mix), oracles.components_of(loaded_mix)):
            assert np.array_equal(a.mu, b.mu) and a.kappa == b.kappa

    def test_file_carries_magic(self, tmp_path):
        model = make_model()
        mix = make_mixture(np.random.default_rng(5), 3, 4)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, mix)
        assert path.read_bytes()[:5] == b"PATT1"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"JUNK!" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_truncation_rejected(self, tmp_path):
        model = make_model()
        mix = make_mixture(np.random.default_rng(5), 3, 4)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, mix)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        model = make_model()
        mix = make_mixture(np.random.default_rng(5), 3, 4)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, mix)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            load_checkpoint(path)

    @pytest.mark.parametrize("where, value, message", [
        ((1, "kappa"), -2.0, "kappa must be finite and non-negative, got [ 5. -2. 20.]"),
        ((1, "kappa"), float("nan"), "kappa must be finite and non-negative, got [ 5. nan 20.]"),
        ((0, 0), 2.0, "mu must be unit norm, got ||mu|| = np.float64(2.0)"),
        ((2, "prior"), 0.0, "priors must be strictly positive"),
        ((2, "prior"), -0.25, "priors must be strictly positive"),
        ((2, "prior"), 0.5, "priors must sum to 1, got 1.25"),
        ("magic", None, "{path}: not a checkpoint (bad magic)"),
        ("truncate", None, "{path}: truncated checkpoint"),
        ("trailing", None, "{path}: trailing bytes in checkpoint"),
        ("weight", float("inf"), "{path}: non-finite parameter in checkpoint"),
        ("weight", float("nan"), "{path}: non-finite parameter in checkpoint"),
    ])
    def test_reader_words_each_failure(self, tmp_path, where, value, message):
        # the wording of every failure but the non-finite parameter is the
        # one load_checkpoint gave before the reader moved to its own module
        model = make_model()
        mix = VmfMixture(mus=np.eye(3, 4), kappas=np.array([5.0, 10.0, 20.0]),
                         priors=np.array([0.5, 0.25, 0.25]))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, mix)
        blob = path.read_bytes()
        if where == "magic":
            blob = b"PATT2" + blob[5:]
        elif where == "truncate":
            blob = blob[:-1]
        elif where == "trailing":
            blob += b"\x00" * 8
        else:
            if where == "weight":
                # the first float64 after the magic and the uint32 header
                at = 5 + 4 * (1 + len(model.layer_sizes) + 1)
            else:
                # the last block: one (mu, kappa, prior) row of 6 per class
                row, col = where
                col = {"kappa": 4, "prior": 5}.get(col, col)
                at = len(blob) - 8 * 3 * 6 + 8 * (row * 6 + col)
            blob = blob[:at] + struct.pack("<d", value) + blob[at + 8:]
        path.write_bytes(blob)
        want = message.format(path=path)
        for read in (checkpoint.read, load_checkpoint):
            with pytest.raises(ValueError) as got:
                read(path)
            assert str(got.value) == want

    def test_reader_gives_the_priors(self, tmp_path):
        model = make_model(seed=13, widths=(8, 5))
        mix = make_mixture(np.random.default_rng(5), model.n_classes, model.feature_dim)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, mix)
        sizes, n_classes, payload, priors = checkpoint.read(path)
        assert sizes == model.layer_sizes and n_classes == 3
        assert checkpoint.param_shapes(sizes, 3) == [p.shape for p in model.param_list()]
        assert payload == path.read_bytes()[-len(payload):]
        assert len(payload) == 8 * sum(p.size for p in model.param_list()) + 8 * 3 * 6
        assert list(priors) == mix.priors.tolist()

    def test_loaded_arrays_are_writable_copies(self, tmp_path):
        # one np.frombuffer over the checked payload, copied: the arrays
        # equal the saved ones, can be written, and share no memory with
        # the bytes read from the file
        model = make_model(seed=13, widths=(8, 5))
        mix = make_mixture(np.random.default_rng(5), model.n_classes, model.feature_dim)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, mix)
        loaded, loaded_mix = load_checkpoint(path)
        arrays = loaded.param_list() + [loaded_mix.mus, loaded_mix.kappas, loaded_mix.priors]
        wanted = model.param_list() + [mix.mus, mix.kappas, mix.priors]
        for got, want in zip(arrays, wanted):
            np.testing.assert_array_equal(got, want)
            assert got.dtype == np.float64 and got.shape == want.shape
            assert got.flags.writeable
        loaded.weights[0][0, 0] += 1.0
        again, _ = load_checkpoint(path)
        np.testing.assert_array_equal(again.weights[0], model.weights[0])

    def test_mismatched_statistics_rejected(self, tmp_path):
        model = make_model(n_classes=3)
        mix = make_mixture(np.random.default_rng(5), 4, model.feature_dim)
        with pytest.raises(ValueError, match="head"):
            save_checkpoint(tmp_path / "model.ckpt", model, mix)

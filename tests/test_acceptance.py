"""Acceptance suite: eight binding checks, one printed verdict line each.

Every randomized configuration is seeded, so each check is deterministic;
tolerances and runtime budgets are asserted as stated in the project
contract. The verdict lines bypass pytest's capture so they always appear
in the run log.
"""

import time

import numpy as np
import pytest

from patt_lab import cli
from patt_lab.calibration import (calibrate_feature, channel_importance, energy_score,
                                  fit_attention, msp_score, predict_and_score, scale_weight)
from patt_lab.data import SynthConfig, gen_longtail, sample_vmf
from patt_lab.metrics import build_report, detection_metrics
from patt_lab.model import (EncoderClassifier, TrainConfig,
                            batch_loss_and_grads, classifier_logits,
                            encoder_forward, train)
from patt_lab.vmf import log_norm_const

import oracles
from oracles import (VmfParams, isac_loss, la_loss, oe_uniform_loss, patt_total_loss,
                     scl_batch_loss, tla_loss, vmf_mgf_log)


def verdict(capsys, number, label, ok, detail=""):
    with capsys.disabled():
        print(f"\ncriterion {number} [{label}]: {'PASS' if ok else 'FAIL'}{detail}")
    assert ok, f"criterion {number} ({label}) failed{detail}"


def vp(mu, kappa):
    mu = np.asarray(mu, dtype=np.float64)
    return VmfParams(mu=mu, kappa=kappa, dim=mu.size)


def random_mixture(rng, k, d, hi):
    mus = rng.normal(size=(k, d))
    mus /= np.linalg.norm(mus, axis=1, keepdims=True)
    priors = rng.uniform(0.2, 1.0, size=k)
    return oracles.mixture_of(
        [vp(mus[j], rng.uniform(0.5, hi)) for j in range(k)],
        priors / priors.sum())


def fd_grad(f, x, h):
    g = np.empty_like(x)
    for i in range(x.size):
        hi, lo = x.copy(), x.copy()
        hi.flat[i] += h
        lo.flat[i] -= h
        g.flat[i] = (f(hi) - f(lo)) / (2 * h)
    return g


def rel_err(a, b, floor=1e-5):
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b)
                        / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)))


def test_criterion_1_mgf_monte_carlo_identity(capsys):
    """20 random (d, kappa, t) configs, 1e5 directional draws each: the
    closed-form moment generating function within 2% of the sample mean."""
    t0 = time.monotonic()
    rng = np.random.default_rng(42)
    worst = 0.0
    for trial in range(20):
        d = int(rng.integers(2, 17))
        kappa = float(rng.uniform(0.0, 20.0))
        mu = rng.normal(size=d)
        mu /= np.linalg.norm(mu)
        t = rng.normal(size=d)
        t *= rng.uniform(0.0, 5.0) / np.linalg.norm(t)
        comp = VmfParams(mu=mu, kappa=kappa, dim=d)
        draws = sample_vmf(comp.mu, comp.kappa, 100_000, seed=4200 + trial)
        est = float(np.mean(np.exp(draws @ t)))
        ref = float(np.exp(vmf_mgf_log(comp, t)))
        worst = max(worst, abs(est - ref) / ref)
    elapsed = time.monotonic() - t0
    ok = worst < 0.02 and elapsed < 30.0
    verdict(capsys, 1, "mgf identity", ok,
            f" (worst rel {worst:.4f} < 0.02, {elapsed:.1f}s < 30s)")


def test_criterion_2_isac_is_infinite_batch_scl(capsys):
    """Five random mixtures: the anchor-centered contrastive loss minus
    ln|B_y| converges monotonically to the closed form over batch sizes
    2^8, 2^11, 2^14, landing within 2% relative. Gaps are averaged over
    8 anchors and 3 batch redraws to suppress single-draw noise."""
    def batch(mix, n, seed):
        rng = np.random.default_rng(seed)
        labels = rng.choice(mix.n_classes, size=n, p=mix.priors)
        feats = np.empty((n, mix.dim))
        for j in range(mix.n_classes):
            rows = np.flatnonzero(labels == j)
            if rows.size:
                feats[rows] = sample_vmf(mix.mus[j], mix.kappas[j], rows.size,
                                         seed=seed * 131 + j)
        return feats, labels

    t0 = time.monotonic()
    all_ok, details = True, []
    for ms in range(5):
        rng = np.random.default_rng(1000 + ms)
        k, d = int(rng.integers(2, 6)), int(rng.integers(3, 9))
        mix = random_mixture(rng, k, d, hi=10.0)
        anchors = []
        for a in range(8):
            y = int(rng.integers(0, k))
            z = sample_vmf(mix.mus[y], mix.kappas[y], 1, seed=7000 + 10 * ms + a)[0]
            anchors.append((z, y, isac_loss(mix, z, y, tau=1.0).value))
        means = []
        for p in (8, 11, 14):
            gaps = []
            for rep in range(3):
                feats, labels = batch(mix, 2 ** p, seed=500 + 100 * ms + rep)
                for z, y, target in anchors:
                    f = np.vstack([z[None], feats])
                    l = np.concatenate([[y], labels])
                    scl = scl_batch_loss(f, l, 0, tau=1.0)
                    gaps.append(abs(scl - np.log(np.sum(l == y)) - target))
            means.append(float(np.mean(gaps)))
        rel = means[-1] / np.mean([abs(t) for _, _, t in anchors])
        mono = means[0] > means[1] > means[2]
        all_ok &= mono and rel < 0.02
        details.append(f"mix{ms}: mono={mono} rel={rel:.4f}")
    elapsed = time.monotonic() - t0
    all_ok &= elapsed < 120.0
    verdict(capsys, 2, "infinite-batch limit", all_ok,
            f" ({'; '.join(details)}; {elapsed:.1f}s < 120s)")


def test_criterion_3_gradient_suite(capsys):
    """100 randomized finite-difference cases per loss (rel 1e-4) and per
    full-pipeline parameter set (rel 1e-3)."""
    t0 = time.monotonic()
    worst = {"oe": 0.0, "la": 0.0, "tla": 0.0, "isac": 0.0, "total": 0.0}
    h = 1e-5
    for i in range(100):
        rng = np.random.default_rng(3000 + i)
        k = int(rng.choice([2, 3, 5, 10]))
        logits = rng.normal(scale=3.0, size=k)
        y = int(rng.integers(0, k))
        pri = rng.uniform(0.1, 1.0, size=k)
        pri /= pri.sum()
        eps = float(rng.uniform(0.3, 1.5))
        worst["oe"] = max(worst["oe"], rel_err(
            oe_uniform_loss(logits).grad,
            fd_grad(lambda v: oe_uniform_loss(v).value, logits, h)))
        worst["la"] = max(worst["la"], rel_err(
            la_loss(logits, y, pri).grad,
            fd_grad(lambda v: la_loss(v, y, pri).value, logits, h)))
        worst["tla"] = max(worst["tla"], rel_err(
            tla_loss(logits, y, pri, eps).grad,
            fd_grad(lambda v: tla_loss(v, y, pri, eps).value, logits, h)))

        d = int(rng.choice([3, 8, 16]))
        km = int(rng.integers(2, 6))
        mix = random_mixture(rng, km, d, hi=20.0)
        z = rng.normal(size=d)
        z /= np.linalg.norm(z)
        ym = int(rng.integers(0, km))
        tau = float(rng.uniform(0.1, 1.0))
        worst["isac"] = max(worst["isac"], rel_err(
            isac_loss(mix, z, ym, tau).grad,
            fd_grad(lambda v: isac_loss(mix, v, ym, tau).value, z, h)))

        logits_k = rng.normal(scale=2.0, size=km)
        ood_logits = rng.normal(scale=2.0, size=(3, km))
        hyper = TrainConfig(tau=tau, epsilon=eps,
                            alpha=float(rng.uniform(0.1, 1.0)),
                            beta=float(rng.uniform(0.1, 1.0)))
        pri_m = rng.uniform(0.1, 1.0, size=km)
        pri_m /= pri_m.sum()
        out = patt_total_loss(mix, z, ym, logits_k, ood_logits, hyper, pri_m)
        worst["total"] = max(worst["total"], rel_err(out.grad_z, fd_grad(
            lambda v: patt_total_loss(mix, v, ym, logits_k, ood_logits,
                                      hyper, pri_m).value, z, h)))
        worst["total"] = max(worst["total"], rel_err(out.grad_logits, fd_grad(
            lambda v: patt_total_loss(mix, z, ym, v, ood_logits,
                                      hyper, pri_m).value, logits_k, h)))
        worst["total"] = max(worst["total"], rel_err(
            out.grad_ood_logits.ravel(),
            fd_grad(lambda v: patt_total_loss(
                mix, z, ym, logits_k, v.reshape(3, km), hyper, pri_m).value,
                ood_logits.ravel().copy(), h)))
    loss_worst = max(worst.values())

    pipeline_worst = 0.0
    for i in range(100):
        rng = np.random.default_rng(6000 + i)
        method = ("patt", "oe-baseline", "ce-baseline")[i % 3]
        model = EncoderClassifier.init(5, (8,), 4, 3,
                                       seed=int(rng.integers(0, 2 ** 31)))
        x = rng.normal(size=(6, 5))
        y = np.array([0, 1, 2, 0, 1, 2])
        ood = rng.normal(size=(4, 5)) if method != "ce-baseline" else None
        mix = oracles.full_stats(encoder_forward(model, x), y, np.bincount(y, minlength=3))[0]
        config = TrainConfig(method=method)

        def total(m):
            return batch_loss_and_grads(m, mix, x, y, ood, config)[0][0]

        _, grad = batch_loss_and_grads(model, mix, x, y, ood, config)
        for i in range(grad.size):
            probe = oracles.copy_model(model)
            probe.flat[i] += 1e-6
            up = total(probe)
            probe.flat[i] -= 2e-6
            down = total(probe)
            est = (up - down) / 2e-6
            pipeline_worst = max(pipeline_worst, abs(grad[i] - est)
                                 / max(abs(grad[i]), abs(est), 1e-5))
    elapsed = time.monotonic() - t0
    ok = loss_worst < 1e-4 and pipeline_worst < 1e-3 and elapsed < 60.0
    verdict(capsys, 3, "gradient suite", ok,
            f" (losses worst rel {loss_worst:.1e} < 1e-4, pipeline "
            f"{pipeline_worst:.1e} < 1e-3, {elapsed:.1f}s < 60s)")


def test_criterion_4_special_functions(capsys):
    def gap(got, ref, rel):
        # tolerance floor 1e-12 mirrors approximate-equality conventions
        # near the function's zero crossings
        return abs(got - ref) <= max(rel * abs(ref), 1e-12)

    series_ok = all(
        gap(oracles.log_bessel_i_at(nu, x), oracles.log_bessel_series(nu, x), 1e-10)
        for nu in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 5.5, 8.0)
        for x in np.geomspace(1e-3, 20.0, 15))
    half_ok = all(
        gap(oracles.log_bessel_i_at(nu, x), oracles.log_bessel_half(nu, x), 1e-9)
        for nu in (0.5, 1.5)
        for x in np.geomspace(0.01, 200.0, 25))
    dim3_ok = all(
        gap(float(log_norm_const(3, kappa)), oracles.log_z3(kappa), 1e-9)
        for kappa in np.geomspace(0.01, 50.0, 60))
    ok = series_ok and half_ok and dim3_ok
    verdict(capsys, 4, "special functions", ok,
            f" (series={series_ok}, half-integer={half_ok}, dim-3 closed form={dim3_ok})")


def test_criterion_5_metric_oracles(capsys):
    """500 random scored instances of size <= 200 against brute-force
    enumeration, half of them with heavy score ties."""
    t0 = time.monotonic()
    rng = np.random.default_rng(77)
    worst = 0.0
    for i in range(500):
        n_id = int(rng.integers(1, 201))
        n_ood = int(rng.integers(1, 201))
        a, b = rng.normal(size=n_id), rng.normal(size=n_ood)
        if i % 2 == 0:
            a, b = np.round(a, 1), np.round(b, 1)
        want = (oracles.auroc_pairs(a, b), oracles.aupr_sweep(a, b, positive="id"),
                oracles.aupr_sweep(a, b, positive="ood"), oracles.fpr95_sweep(a, b))
        for got, ref in zip(detection_metrics(a, b), want):
            worst = max(worst, abs(got - ref))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-12 and elapsed < 30.0
    verdict(capsys, 5, "metric oracles", ok,
            f" (worst abs {worst:.1e} <= 1e-12, {elapsed:.1f}s < 30s)")


def test_criterion_6_directional_benchmark(capsys):
    """Five-seed benchmark (K=10, imbalance 100, 30 epochs, d=8): mean
    AUROC ordering, tail accuracy gain without head collapse, calibration
    not hurting, and the classification-term ablation losing AUROC.

    The learning rate is pinned at 3e-3: the combined objective needs the
    larger step on this small encoder for its contrastive term to shape
    features within 30 epochs."""
    t0 = time.monotonic()
    res = {k: [] for k in ("patt", "nocal", "a0", "oe", "ce")}
    for seed in range(5):
        dcfg = SynthConfig(seed=seed, max_direction_dot=0.9, within_kappa=80.0,
                           ood_kappa=20.0, ood_train_clusters=2)
        tr, va, te, otr, ote = gen_longtail(dcfg)
        pri = np.asarray(tr.class_counts, dtype=np.float64)
        pri /= pri.sum()

        def go(method, alpha=0.5):
            tc = TrainConfig(epochs=30, seed=seed, method=method,
                             learning_rate=3e-3, alpha=alpha,
                             feature_dim=8, vmf_update="epoch")
            return train(tc, tr, otr, va)[0]

        def ev(m, cal, score):
            # the calibrate and eval stages' path, on 5 rows per class drawn with seed 0
            weight = scale_weight(fit_attention(m, tr, otr, pri, 5, 0)) if cal else None
            pred, id_scores = predict_and_score(m, te.inputs, weight, score)
            _, ood_scores = predict_and_score(m, ote.inputs, weight, score)
            row = build_report(id_scores, ood_scores, te.labels, pred, pri)
            return row[0], *row[4:]

        model_patt = go("patt")
        res["patt"].append(ev(model_patt, True, "energy"))
        res["nocal"].append(ev(model_patt, False, "energy"))
        res["a0"].append(ev(go("patt", alpha=0.0), True, "energy"))
        res["oe"].append(ev(go("oe-baseline"), False, "msp"))
        res["ce"].append(ev(go("ce-baseline"), False, "msp"))

    mean = {k: np.array(v, dtype=np.float64).mean(axis=0) for k, v in res.items()}
    check_a = mean["patt"][0] > mean["oe"][0] > mean["ce"][0]
    check_b = (mean["patt"][3] > mean["ce"][3]
               and mean["patt"][2] >= mean["ce"][2] - 0.02)
    check_c = (mean["patt"][0] >= mean["nocal"][0]
               and mean["patt"][1] >= mean["nocal"][1] - 0.005)
    check_d = mean["patt"][0] > mean["a0"][0]
    elapsed = time.monotonic() - t0
    ok = check_a and check_b and check_c and check_d and elapsed < 300.0
    verdict(capsys, 6, "directional benchmark", ok,
            f" (a={check_a} b={check_b} c={check_c} d={check_d}; mean auroc"
            f" patt {mean['patt'][0]:.3f} nocal {mean['nocal'][0]:.3f}"
            f" oe {mean['oe'][0]:.3f} ce {mean['ce'][0]:.3f}"
            f" a0 {mean['a0'][0]:.3f}; {elapsed:.0f}s < 300s)")


def test_criterion_7_calibration_properties(capsys):
    rng = np.random.default_rng(17)
    range_ok = True
    for _ in range(300):
        d = int(rng.integers(2, 17))
        raw = rng.normal(scale=rng.uniform(0.01, 10.0), size=d)
        scaled = scale_weight(raw)
        range_ok &= bool(np.all(scaled >= 0.0) and np.all(scaled <= 2.0))
    range_ok &= bool(np.all(scale_weight(np.full(5, 1.3)) == 1.0))

    model = EncoderClassifier.init(6, (8,), 4, 5, seed=3)
    x = rng.normal(size=(40, 6))
    z = encoder_forward(model, x)
    ones = scale_weight(np.full(4, 0.7))
    plain_logits = classifier_logits(model, z)
    routed_logits = classifier_logits(model, calibrate_feature(z, ones))
    identity_ok = (np.array_equal(plain_logits, routed_logits)
                   and np.array_equal(energy_score(plain_logits),
                                      energy_score(routed_logits))
                   and np.array_equal(msp_score(plain_logits),
                                      msp_score(routed_logits)))

    rowsum_ok = True
    for i in range(100):
        case = np.random.default_rng(8000 + i)
        k, d = int(case.integers(2, 8)), int(case.integers(2, 12))
        w = case.normal(size=(k, d))
        b = case.normal(size=k)
        clf = oracles.model_of([np.zeros((d, 1))], [np.zeros(d)], w, b)
        zc = case.normal(size=d)
        zc /= np.linalg.norm(zc)
        logits = classifier_logits(clf, zc)
        for y in range(k):
            total = channel_importance(zc[None], [y], clf)[0].sum()
            rowsum_ok &= abs(total - (logits[y] - b[y])) <= 1e-12
    ok = range_ok and identity_ok and rowsum_ok
    verdict(capsys, 7, "calibration properties", ok,
            f" (range={range_ok}, identity pipeline={identity_ok}, "
            f"row sum={rowsum_ok})")


def test_criterion_8_cli_determinism(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "seed = 3\n"
        "n_classes = 6\n"
        "feature_dim = 6\n"
        "imbalance_ratio = 20.0\n"
        "max_per_class = 80\n"
        "val_per_class = 8\n"
        "test_per_class = 10\n"
        "ood_train_size = 120\n"
        "ood_test_size = 80\n"
        "epochs = 5\n"
        "batch_size = 64\n"
        "encoder_widths = 16,16\n")
    outputs = ("train.csv", "val_id.csv", "test_id.csv", "train_ood.csv",
               "test_ood.csv", "manifest.txt", "model.ckpt", "history.csv",
               "attention.csv", "scores.csv", "report.csv", "hist.csv",
               "acc_table.csv")
    for out in ("first", "second"):
        for command in ("gen-data", "train", "calibrate", "eval", "report"):
            rc = cli.main([command, "--config", str(config),
                           "--out", str(tmp_path / out)])
            assert rc == 0, f"{command} failed in {out}"
    mismatched = [name for name in outputs
                  if (tmp_path / "first" / name).read_bytes()
                  != (tmp_path / "second" / name).read_bytes()]
    ok = not mismatched
    verdict(capsys, 8, "pipeline determinism", ok,
            f" ({len(outputs)} files byte-compared"
            + (f"; mismatched: {mismatched}" if mismatched else "") + ")")

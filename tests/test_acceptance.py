"""Release acceptance gate.

One test per criterion; each prints a single verdict line of the form
"ACCEPTANCE <n> (<name>): PASS|FAIL" before asserting, so a plain run of this
file reads as a checklist.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from ccspnet import autodiff as ad
from ccspnet import csp, data, dsp, fixtures, harness, lda, stats
from ccspnet.model import ABLATIONS, CCSPNet, ModelConfig

from oracles import (anova_f_range, central_difference, mean_of, rel_err,
                     sos_magnitude)


def verdict(number, name, ok, detail=""):
    line = f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)


def node_gradient_error(build_loss, x0, eps=1e-6):
    """Max relative error between graph gradient and central differences."""
    param = ad.Parameter(np.asarray(x0, dtype=np.float64).copy())
    build_loss(param).backward()

    def numeric(x):
        return float(build_loss(ad.Parameter(x)).value)

    fd = central_difference(numeric, np.asarray(x0, dtype=np.float64).copy(),
                            eps=eps)
    return rel_err(param.grad, fd)


@pytest.fixture(scope="module")
def synthetic_dataset():
    """Default synthetic set: 4 subjects, 16 channels, erd 0.5, snr 4."""
    return data.preprocess(data.synthesize(data.SynthConfig()))


@pytest.fixture(scope="module")
def sd_run(synthetic_dataset):
    start = time.monotonic()
    result = harness.run_sd(synthetic_dataset, ModelConfig(n_channels=16),
                            jobs=1)
    return result, time.monotonic() - start


def baseline_csp_lda_accuracy(train, test):
    """Plain CSP + LDA reference pipeline (no CNN stack)."""
    x_train = np.asarray(train.trials, dtype=np.float64)
    x_test = np.asarray(test.trials, dtype=np.float64)
    branch = csp.fit_branch(*csp.class_covariances(x_train, train.labels))
    model = lda.fit(
        csp.spatial_filter_features(ad.constant(x_train), branch.w_reduced).value,
        train.labels)
    pred = lda.predict(
        model, csp.spatial_filter_features(ad.constant(x_test), branch.w_reduced).value)
    return float((pred == test.labels).mean())


def test_criterion_1_table_statistics():
    start = time.monotonic()
    failures = []

    ours = fixtures.SD_METHOD_SUMMARIES["CCSPNet"]
    for other, want_t, want_p in (("CSP", 1.7679, 0.0400),
                                  ("EEGNet", 2.6621, 0.0045)):
        m, s, n = fixtures.SD_METHOD_SUMMARIES[other]
        t, p = stats.unpaired_t_from_summary(ours[0], ours[1], ours[2],
                                             m, s, n)
        if abs(t - want_t) > 0.001 or abs(p - want_p) > 0.002:
            failures.append(f"t-test vs {other}: t={t:.4f} p={p:.4f}, "
                            f"published t={want_t} p={want_p}")

    f_si, _, dfb, dfw = stats.anova_from_summary(
        fixtures.SI_METHOD_SUMMARIES.values())
    if (dfb, dfw) != (5, 318) or abs(f_si - 2.9700) > 0.005:
        failures.append(f"SI ANOVA: F({dfb},{dfw})={f_si:.4f}, "
                        f"published F(5,318)=2.9700")

    # The paper's SD ANOVA, F(8,477)=1.6945 p=0.0972, contradicts its own SD
    # table: the printed rows give F=1.7060, and no rounding of them reaches
    # 1.6945. So the check is that the printed rows give their own F and that
    # the published F lies outside the range every mean and sd within
    # +-0.005 of the printed one allows.
    rows = fixtures.SD_METHOD_SUMMARIES.values()
    f_sd, _, dfb, dfw = stats.anova_from_summary(rows)
    f_lo, f_hi = anova_f_range(rows, 0.005)
    sd_note = (f"SD ANOVA: the printed rows give F(8,477)={f_sd:.4f}; the "
               f"published F=1.6945 lies outside their rounding range "
               f"[{f_lo:.4f}, {f_hi:.4f}], so the paper's SD table and SD "
               f"ANOVA disagree")
    if (dfb, dfw) != (8, 477) or abs(f_sd - 1.7060) > 1e-4:
        failures.append(f"SD ANOVA: F({dfb},{dfw})={f_sd:.4f} from the "
                        f"printed rows, expected F(8,477)=1.7060")
    if f_lo <= 1.6945 <= f_hi:
        failures.append(f"SD ANOVA: the published F=1.6945 lies inside the "
                        f"rounding range [{f_lo:.4f}, {f_hi:.4f}] of the "
                        f"printed rows but was not reproduced")

    elapsed = time.monotonic() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    verdict(1, "summary-table statistics reproduction", not failures,
            "; ".join(failures) if failures else f"{elapsed:.3f}s; {sd_note}")
    if failures:
        pytest.fail(
            "Not reproducible from the embedded summary fixtures: "
            + "; ".join(failures) + ". Expected: the t-tests reproduce from "
            "the printed SD rows and the SI ANOVA to 3e-5. The published SD "
            "ANOVA (F=1.6945) cannot be reproduced: the printed rows give "
            "F=1.7060 and their +-0.005 rounding range is [1.7003, 1.7118].")


def test_criterion_2_per_subject_summaries():
    start = time.monotonic()

    for values, want in ((fixtures.SUBJECT_ACCURACY_SD,
                          (74.41, 16.75, 68.5, (53.0, 47.0, 100.0))),
                         (fixtures.SUBJECT_ACCURACY_SI,
                          (74.28, 16.12, 73.0, (51.0, 49.0, 100.0)))):
        mean, sd, median, rng = stats.summarize(values)
        assert round(mean, 2) == want[0]
        assert round(sd, 2) == want[1]
        assert median == want[2]
        assert rng == want[3]

    # the published p is printed at two decimals, so compare at that precision
    t, p = stats.paired_t(fixtures.SUBJECT_ACCURACY_SD,
                          fixtures.SUBJECT_ACCURACY_SI, tail="one")
    assert abs(round(p, 2) - 0.45) <= 0.02

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    verdict(2, "per-subject accuracy summaries", True,
            f"paired p={p:.4f}, {elapsed:.3f}s")


def test_criterion_3_gradient_and_filter_properties():
    start = time.monotonic()
    tol = 1e-4
    errors = []

    for seed in range(4):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 6))
        k = int(rng.integers(2, 5))
        c = int(rng.integers(2, 5))
        t = int(rng.integers(10, 17))
        klen = int(rng.integers(3, 8))

        x_conv = ad.constant(rng.normal(size=(n, k, c, t)))
        bias = ad.constant(rng.normal(size=k))
        errors.append(("conv kernels", node_gradient_error(
            lambda p: mean_of(ad.log_variance(
                ad.conv_same_temporal(x_conv, p, bias))),
            rng.normal(size=(k, klen)))))
        kern = ad.constant(rng.normal(size=(k, klen)))
        errors.append(("conv input", node_gradient_error(
            lambda p: mean_of(ad.log_variance(
                ad.conv_same_temporal(p, kern, bias))),
            rng.normal(size=(n, k, c, t)))))

        f = int(rng.integers(3, 7))
        gamma = ad.constant(rng.normal(size=f) + 2.0)
        beta = ad.constant(rng.normal(size=f))
        errors.append(("batch-norm input", node_gradient_error(
            lambda p: mean_of(ad.log_variance(
                ad.batch_norm(p, ad.BatchNorm(gamma, beta), training=True))),
            rng.normal(size=(n + 2, f)))))
        x_bn = ad.constant(rng.normal(size=(n + 2, f)))
        errors.append(("batch-norm gamma", node_gradient_error(
            lambda p: mean_of(ad.log_variance(
                ad.batch_norm(x_bn, ad.BatchNorm(p, beta), training=True))),
            rng.normal(size=f) + 2.0)))

        d_in, d_out = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        x_dense = ad.constant(rng.normal(size=(n + 1, d_in)))
        b_dense = ad.constant(rng.normal(size=d_out))
        errors.append(("dense weights", node_gradient_error(
            lambda p: mean_of(ad.log_variance(
                ad.dense(x_dense, p, b_dense))),
            rng.normal(size=(d_in, d_out)))))

        errors.append(("log-variance", node_gradient_error(
            lambda p: mean_of(ad.log_variance(p)),
            rng.normal(size=(n, t)))))

        params = dsp.MorletParams(f=float(rng.uniform(8, 30)),
                                  h=float(rng.uniform(0.1, 0.5)),
                                  c=float(rng.uniform(1, 4)),
                                  kernel_len=int(rng.integers(8, 33)),
                                  fs=100.0)
        upstream = rng.normal(size=params.kernel_len)
        analytic = np.array(dsp.morlet_gradients(params, upstream))

        def morlet_scalar(v):
            probe = replace(params, f=v[0], h=v[1], c=v[2])
            return float(upstream @ dsp.build_morlet(probe))

        fd = central_difference(morlet_scalar,
                                np.array([params.f, params.h, params.c]))
        errors.append(("morlet parameters", rel_err(analytic, fd)))

        labels = rng.integers(0, 2, size=2 * n)
        labels[:2] = (0, 1)  # both classes guaranteed
        errors.append(("fisher criterion", node_gradient_error(
            lambda p: lda.fisher_criterion_node(p, labels),
            rng.normal(size=2 * n))))

        errors.append(("csp loss", node_gradient_error(
            lambda p: csp.csp_loss(p, labels), rng.normal(size=(2 * n, 4, 4)))))

    worst = max(errors, key=lambda e: e[1])
    assert len(errors) >= 20
    assert worst[1] < tol, worst

    # CSP whitening: W^T (sigma0 + sigma1) W = I
    rng = np.random.default_rng(99)
    a = rng.normal(size=(12, 12))
    b = rng.normal(size=(12, 12))
    s0 = a @ a.T + 0.5 * np.eye(12)
    s1 = b @ b.T + 0.5 * np.eye(12)
    w, _ = csp.solve_csp(s0, s1)
    whitening_residual = np.abs(w.T @ (s0 + s1) @ w - np.eye(12)).max()
    assert whitening_residual < 1e-8

    edge_mags = sos_magnitude(dsp.design_bandpass(), [8.0, 30.0], 100.0)
    assert np.all(np.abs(edge_mags - 1 / np.sqrt(2)) < 0.05)

    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    verdict(3, "gradient and filter property suite", True,
            f"{len(errors)} gradient shapes, worst rel err {worst[1]:.2e} "
            f"({worst[0]}), whitening {whitening_residual:.1e}, "
            f"{elapsed:.1f}s")


def test_criterion_4_eigen_solver_and_lda_optimality():
    start = time.monotonic()
    rng = np.random.default_rng(2024)

    worst_residual = 0.0
    for _ in range(100):
        c = int(rng.integers(2, 17))
        a = rng.normal(size=(c, c))
        b = rng.normal(size=(c, c))
        s0 = a @ a.T + 0.2 * np.eye(c)
        s1 = b @ b.T + 0.2 * np.eye(c)
        w, eigvals = csp.solve_csp(s0, s1)
        residuals = np.linalg.norm(
            s0 @ w - (s0 + s1) @ w * eigvals[None, :], axis=0)
        worst_residual = max(worst_residual, residuals.max())
    assert worst_residual < 1e-8

    for trial in range(100):
        d = int(rng.integers(2, 9))
        n = int(rng.integers(15, 40))
        offset = rng.normal(size=d)
        offset *= (1.0 + rng.uniform(0, 2)) / np.linalg.norm(offset)
        feats = np.vstack([rng.normal(size=(n, d)),
                           rng.normal(size=(n, d)) + offset])
        labels = np.repeat([0, 1], n)
        model = lda.fit(feats, labels)
        j_fitted = lda.fisher_criterion_node(ad.constant(feats @ model.w), labels).value
        for _ in range(50):
            direction = rng.normal(size=d)
            direction /= np.linalg.norm(direction)
            j_random = lda.fisher_criterion_node(ad.constant(feats @ direction), labels).value
            assert j_fitted <= j_random * (1 + 1e-9), (trial, j_fitted, j_random)

    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    verdict(4, "eigen-solver residuals and LDA optimality", True,
            f"worst residual {worst_residual:.1e}, {elapsed:.1f}s")


def test_criterion_5_end_to_end_learning(synthetic_dataset, sd_run):
    result, elapsed = sd_run
    failures = []

    baselines = {}
    for sid in synthetic_dataset.subjects():
        train, test = (synthetic_dataset.select(i)
                       for i in data.sd_fold(synthetic_dataset, sid))
        baselines[int(sid)] = baseline_csp_lda_accuracy(train, test)

    for sid, acc_pct in zip(result.subject_ids, result.accuracies):
        acc = acc_pct / 100.0
        if acc < 0.80:
            failures.append(f"subject {sid}: accuracy {acc:.2f} < 0.80")
        if acc < baselines[sid] - 0.05:
            failures.append(f"subject {sid}: accuracy {acc:.2f} below "
                            f"CSP+LDA baseline {baselines[sid]:.2f} - 0.05")
        hist = np.asarray(result.models[sid].history)
        first = hist[hist[:, 0] == hist[:, 0].min(), 2].mean()
        last = hist[hist[:, 0] == hist[:, 0].max(), 2].mean()
        if not last < first:
            failures.append(f"subject {sid}: loss did not decrease "
                            f"({first:.4f} -> {last:.4f})")
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.0f}s >= 300s")

    accs = ", ".join(f"{a:.0f}%" for a in result.accuracies)
    verdict(5, "end-to-end synthetic learning", not failures,
            "; ".join(failures) if failures else f"[{accs}], {elapsed:.0f}s")
    assert not failures, failures


def test_criterion_6_ablation_smoke(synthetic_dataset):
    start = time.monotonic()
    config = ModelConfig(n_channels=16, epochs=10)
    full_params = CCSPNet(config).count_parameters()["total"]
    failures = []
    means = {}

    for component in ABLATIONS:
        ablated_params = CCSPNet(
            replace(config, ablate=component)).count_parameters()["total"]
        if not ablated_params < full_params:
            failures.append(f"{component}: {ablated_params} parameters, "
                            f"not fewer than the full {full_params}")
        result = harness.run_sd(synthetic_dataset,
                                replace(config, ablate=component), jobs=1)
        means[component] = result.mean()
        if result.mean() < 60.0:
            failures.append(f"{component}: mean accuracy "
                            f"{result.mean():.1f}% < 60%")

    elapsed = time.monotonic() - start
    if elapsed >= 600.0:
        failures.append(f"runtime {elapsed:.0f}s >= 600s")
    summary = ", ".join(f"{k}={v:.0f}%" for k, v in means.items())
    verdict(6, "ablation smoke", not failures,
            "; ".join(failures) if failures else f"{summary}, {elapsed:.0f}s")
    assert not failures, failures


def test_criterion_7_serialization(synthetic_dataset, sd_run, tmp_path):
    result, _ = sd_run
    sid = result.subject_ids[0]
    net = result.models[sid]
    probe = np.asarray(
        synthetic_dataset.for_subject(sid).trials[:32], dtype=np.float64)
    assert len(probe) == 32

    before = net.predict(probe)
    path_a = tmp_path / "a.ccsp"
    path_b = tmp_path / "b.ccsp"
    net.save(path_a)
    loaded = CCSPNet.load(path_a)
    loaded.save(path_b)
    identical = path_a.read_bytes() == path_b.read_bytes()
    predictions_match = np.array_equal(before, loaded.predict(probe))

    verdict(7, "serialization round trip", identical and predictions_match,
            f"{path_a.stat().st_size} bytes")
    assert identical
    assert predictions_match

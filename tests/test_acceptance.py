"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance below is fixed up front; the Monte Carlo checks run at the
full advertised replication counts with fixed seeds, so the whole module is
deterministic.  Run with ``pytest -v tests/test_acceptance.py`` (add ``-s``
to see the PASS lines while running).
"""

import math
import time

import numpy as np
import pytest

from cqmeans import (
    CauchyParams,
    CauchySource,
    ExperimentConfig,
    UniformSource,
    asymptotic_variance_geometric,
    asymptotic_variance_mobius,
    branch_arg,
    branch_log,
    branch_pow,
    cramer_rao_bound,
    geometric_estimate,
    harmonic_identity_check,
    run_experiment,
    sample,
    sign_dichotomy,
)
from cqmeans.cli import main as cli_main

STANDARD = CauchyParams(0.0, 1.0)


class Stopwatch:
    def __init__(self, limit_seconds):
        self.limit = limit_seconds
        self.start = time.perf_counter()

    def check(self, number, description):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.limit, (
            f"criterion {number} exceeded its runtime budget: "
            f"{elapsed:.1f}s >= {self.limit:.0f}s"
        )
        print(f"ACCEPTANCE {number:02d} PASS ({elapsed:.1f}s < {self.limit:.0f}s): "
              f"{description}")


def cauchy_matrix(params, seed, m_reps, n):
    """(m_reps, n) matrix of C(mu, sigma) draws from one fixed stream."""
    rng = np.random.default_rng(seed)
    u = rng.random((m_reps, n))
    u[u == 0.0] = 0.5
    return params.mu + params.sigma * np.tan(math.pi * (u - 0.5))


def test_criterion_01_branch_arithmetic_suite():
    watch = Stopwatch(1.0)
    assert branch_log(-1.0) == complex(0.0, math.pi)
    assert abs(branch_pow(-1.0, 0.5) - 1j) <= 4 * np.spacing(1.0)
    root = branch_pow(-1.0, 0.5)
    assert abs(root * root - (-1.0)) <= 4 * np.spacing(1.0)
    assert branch_pow((-1.0) * (-1.0), 0.5) == 1.0
    assert abs(root * root - branch_pow(1.0, 0.5)) > 1.0

    rng = np.random.default_rng(1)
    z = rng.standard_cauchy(100_000) + 1j * rng.standard_cauchy(100_000)
    kind = rng.random(100_000)
    z[kind < 0.1] = z[kind < 0.1].real
    z[kind > 0.9] = 1j * z[kind > 0.9].imag
    z = z[z != 0]
    theta = branch_arg(z)
    assert np.all(theta >= -math.pi / 2)
    assert np.all(theta < 1.5 * math.pi)
    watch.check(1, "branch arithmetic: exact axis values, root identities, "
                   "argument range over 1e5 points")


def test_criterion_02_theoretical_tables():
    watch = Stopwatch(5.0)
    closed = asymptotic_variance_geometric(STANDARD, 0.0).nvar_limit
    assert abs(closed - math.pi**2 / 2) < 1e-9
    near_real = asymptotic_variance_geometric(STANDARD, 1e-8j).nvar_limit
    assert abs(near_real - math.pi**2 / 2) < 1e-6
    assert asymptotic_variance_mobius(STANDARD, 1j).nvar_limit == 4.0
    assert cramer_rao_bound(STANDARD, 1) == 4.0
    assert cramer_rao_bound(CauchyParams(0.0, 3.0), 100) == pytest.approx(0.36)
    assert cramer_rao_bound(CauchyParams(5.0, 2.0), 10) == pytest.approx(1.6)
    watch.check(2, "theoretical tables: pi^2/2 closed form and quadrature path, "
                   "Mobius minimum 4, Cramer-Rao rows")


def test_criterion_03_unbiasedness_at_minimal_n():
    watch = Stopwatch(30.0)
    m_reps = 100_000
    cases = [
        ("geometric", 2),
        ("mobius", 3),
    ]
    for params in (STANDARD, CauchyParams(2.0, 3.0)):
        for alpha in (1j, 1 + 2j):
            for kind, n in cases:
                report = run_experiment(
                    ExperimentConfig(
                        source=CauchySource(params),
                        estimator=kind,
                        alpha=alpha,
                        n_values=(n,),
                        replications=m_reps,
                        seed=98765,
                    )
                )
                res = report.results[0]
                assert abs(res.mean_re - params.mu) < 4 * res.se_mean_re, (
                    kind, params, alpha, "re")
                assert abs(res.mean_im - params.sigma) < 4 * res.se_mean_im, (
                    kind, params, alpha, "im")
    watch.check(3, "unbiasedness at n=2 (geometric) and n=3 (Mobius), "
                   "1e5 replications, within 4 standard errors per axis")


def test_criterion_04_mobius_nvar_convergence():
    watch = Stopwatch(120.0)
    for alpha, target in ((1j, 4.0), (2j, 4.5)):
        report = run_experiment(
            ExperimentConfig(
                source=CauchySource(STANDARD),
                estimator="mobius",
                alpha=alpha,
                n_values=(200,),
                replications=50_000,
                seed=2024,
                nvar_rtol=0.05,
            )
        )
        res = report.results[0]
        assert res.target_n_var == target
        assert abs(res.n_var - target) < 0.05 * target, (alpha, res.n_var)
    watch.check(4, "Mobius n*Var at n=200, 5e4 replications: within 5% of 4 "
                   "(alpha=i) and 4.5 (alpha=2i)")


def test_criterion_05_geometric_nvar_convergence():
    watch = Stopwatch(300.0)
    for params, target in ((STANDARD, math.pi**2 / 2),
                           (CauchyParams(1.0, 1.0), 3 * math.pi**2 / 4)):
        report = run_experiment(
            ExperimentConfig(
                source=CauchySource(params),
                estimator="geometric",
                alpha=0.0,
                n_values=(1_000, 10_000),
                replications=20_000,
                seed=777,
            )
        )
        assert report.results[0].target_n_var == pytest.approx(target, rel=1e-12)
        assert abs(report.results[0].n_var - target) < 0.10 * target
        assert abs(report.results[1].n_var - target) < 0.05 * target
    watch.check(5, "geometric n*Var at n=1e3/1e4, 2e4 replications: within "
                   "10%/5% of 2 r^2 theta (pi - theta)")


def test_criterion_06_general_distribution_variance():
    watch = Stopwatch(180.0)
    configs = [
        (UniformSource(1.0, 2.0), 0.0),
        (UniformSource(-1.0, 2.0), 1j),
    ]
    for source, alpha in configs:
        report = run_experiment(
            ExperimentConfig(
                source=source,
                estimator="geometric",
                alpha=alpha,
                n_values=(1_000,),
                replications=20_000,
                seed=555,
                nvar_rtol=0.10,
            )
        )
        res = report.results[0]
        assert abs(res.n_var - res.target_n_var) < 0.10 * res.target_n_var, (
            source, res.n_var, res.target_n_var)
    watch.check(6, "uniform-source geometric n*Var within 10% of the "
                   "quadrature target exp(2 E log|X+a|) Var(log(X+a))")


def test_criterion_07_clt_isotropy():
    watch = Stopwatch(120.0)
    report = run_experiment(
        ExperimentConfig(
            source=CauchySource(STANDARD),
            estimator="mobius",
            alpha=1j,
            n_values=(500,),
            replications=20_000,
            seed=31415,
        )
    )
    diag = report.results[0].diagnostics
    assert abs(diag.offdiag_correlation) < 0.03
    assert abs(diag.variance_ratio_re - 1.0) < 0.10   # per-axis variance vs 4/2 = 2
    assert abs(diag.variance_ratio_im - 1.0) < 0.10
    assert diag.qq_correlation_re > 0.99
    assert diag.qq_correlation_im > 0.99
    assert report.results[0].clt_scalar == 2.0
    watch.check(7, "CLT isotropy at n=500: |corr| < 0.03, per-axis variance "
                   "within 10% of 2, QQ correlation > 0.99")


def test_criterion_08_sign_dichotomy():
    watch = Stopwatch(30.0)
    rng = np.random.default_rng(606)
    agreements = 0
    trials = 10_000
    for _ in range(trials):
        n = int(rng.integers(2, 7))
        x = rng.standard_cauchy(n)
        same_sign = sign_dichotomy(x, 0.0)
        exact_zero = geometric_estimate(x, 0.0).estimate.imag == 0.0
        agreements += same_sign == exact_zero
    assert agreements == trials

    m_reps = 10_000
    x = cauchy_matrix(STANDARD, 909, m_reps, 2)
    degenerate = np.sign(x[:, 0]) == np.sign(x[:, 1])
    se = math.sqrt(0.25 / m_reps)
    assert abs(degenerate.mean() - 0.5) < 3 * se
    watch.check(8, "sign dichotomy: exact-zero imaginary part iff equal signs "
                   "(100% of 1e4 sets), degeneracy frequency 1/2 at n=2")


def test_criterion_09_alpha_optimality_argmin():
    watch = Stopwatch(600.0)
    params = CauchyParams(1.0, 1.0)
    center = complex(-params.mu, params.sigma)
    k = np.arange(-10, 11)
    re_grid = -params.mu + params.sigma * (k / 5.0)
    im_grid = params.sigma * 2.0 ** (k / 4.0)

    theo = np.empty((21, 21))
    for i, a_re in enumerate(re_grid):
        for j, a_im in enumerate(im_grid):
            theo[i, j] = asymptotic_variance_mobius(
                params, complex(a_re, a_im)).nvar_limit
    assert np.unravel_index(np.argmin(theo), theo.shape) == (10, 10)
    assert complex(re_grid[10], im_grid[10]) == center

    # Monte Carlo scan with common random numbers: the same draws for every
    # grid point, so neighboring estimates are strongly correlated and the
    # argmin is stable at moderate replication counts
    m_reps, n = 20_000, 400
    x = cauchy_matrix(params, 151, m_reps, n)
    mc = np.empty((21, 21))
    est = np.empty(m_reps, dtype=complex)
    for i, a_re in enumerate(re_grid):
        for j, a_im in enumerate(im_grid):
            alpha = complex(a_re, a_im)
            # in blocks of 256 rows, which keeps the temporaries in cache; each
            # row's mean is reduced on its own, so the bits are the whole matrix's
            for lo in range(0, m_reps, 256):
                block = x[lo:lo + 256]
                est[lo:lo + 256] = 1.0 / np.mean(1.0 / (block + alpha), axis=1) - alpha
            mc[i, j] = n * (est.real.var(ddof=1) + est.imag.var(ddof=1))
    assert np.unravel_index(np.argmin(mc), mc.shape) == (10, 10)
    watch.check(9, "alpha optimality: theoretical and Monte Carlo n*Var over a "
                   "21x21 grid are both minimized at -mu + sigma*i")


def test_criterion_10_harmonic_identity():
    watch = Stopwatch(60.0)
    report = harmonic_identity_check(seed=42, n=7, replications=20_000)
    assert report.statistic < report.critical_value_1pct
    control = harmonic_identity_check(
        seed=42, n=7, replications=20_000, reference=CauchyParams(0.0, 2.0)
    )
    assert control.statistic > control.critical_value_1pct
    watch.check(10, "harmonic means of standard Cauchy pass the 1% KS check; "
                    "negative control against C(0,2) rejects")


def test_criterion_11_zolotarev_identity():
    watch = Stopwatch(30.0)
    x = sample(STANDARD, 8888, 1_000_000)
    values = np.log(np.abs(x)) ** 2
    se = values.std(ddof=1) / math.sqrt(len(values))
    assert abs(values.mean() - math.pi**2 / 4) < 3 * se
    watch.check(11, "Zolotarev identity: mean (log|X|)^2 over 1e6 draws within "
                    "3 standard errors of pi^2/4")


def test_criterion_12_determinism(capsys):
    watch_limit = 120.0
    start = time.perf_counter()
    args = ("simulate", "--estimator", "mobius", "--alpha", "0,1", "--n",
            "100,300", "--reps", "2000", "--seed", "13579")
    outputs = []
    for workers in ("1", "4", "1"):
        code = cli_main([*args, "--workers", workers])
        captured = capsys.readouterr()
        assert code == 0
        outputs.append(captured.out)
    assert outputs[0] == outputs[1] == outputs[2]
    elapsed = time.perf_counter() - start
    assert elapsed < watch_limit
    print(f"ACCEPTANCE 12 PASS ({elapsed:.1f}s < {watch_limit:.0f}s): "
          f"byte-identical simulate reports for repeated runs and workers 1 vs 4")

import math
import warnings

import numpy as np
import pytest

import cqmeans.harness as harness
from cqmeans.estimators import KINDS
from cqmeans import (
    CauchyParams,
    CauchySource,
    DomainError,
    ExperimentConfig,
    ExperimentError,
    NumericalError,
    QuadratureError,
    UniformSource,
    clt_diagnostics,
    harmonic_identity_check,
    run_experiment,
    theoretical_targets,
)

STANDARD = CauchyParams(0.0, 1.0)
STD_SOURCE = CauchySource(STANDARD)


def small_config(**overrides):
    base = dict(
        source=STD_SOURCE,
        estimator="mobius",
        alpha=1j,
        n_values=(50,),
        replications=300,
        seed=7,
        workers=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_minimum_replications(self):
        with pytest.raises(DomainError):
            small_config(replications=99)

    def test_positive_sample_sizes(self):
        with pytest.raises(DomainError):
            small_config(n_values=(0,))
        with pytest.raises(DomainError):
            small_config(n_values=())

    def test_two_step_needs_six(self):
        with pytest.raises(DomainError):
            small_config(estimator="two_step_mobius", n_values=(5,))

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_sample_sizes_below_kind_minimum(self, kind):
        min_n = KINDS[kind].min_n
        assert small_config(estimator=kind, n_values=(min_n, 50)).n_values == (min_n, 50)
        with pytest.raises(DomainError):
            small_config(estimator=kind, n_values=(50, min_n - 1))

    def test_estimator_alpha_constraints(self):
        with pytest.raises(DomainError):
            small_config(alpha=1.0)  # mobius needs Im > 0
        with pytest.raises(DomainError):
            small_config(estimator="geometric", alpha=-1j)
        with pytest.raises(DomainError):
            small_config(estimator="unknown")

    def test_workers_positive(self):
        with pytest.raises(DomainError):
            small_config(workers=0)

    def test_uniform_bounds(self):
        with pytest.raises(DomainError):
            UniformSource(2.0, 1.0)


class TestTargets:
    def test_cauchy_mobius(self):
        t = theoretical_targets(STD_SOURCE, "mobius", 1j)
        assert t.mean == 1j
        assert t.nvar_limit == 4.0
        assert t.clt_scalar == 2.0

    def test_cauchy_geometric(self):
        t = theoretical_targets(STD_SOURCE, "geometric", 0.0)
        assert t.nvar_limit == pytest.approx(math.pi**2 / 2, rel=1e-12)

    def test_cauchy_two_step(self):
        t = theoretical_targets(STD_SOURCE, "two_step_mobius", 1j)
        assert t.nvar_limit == 8.0
        assert t.clt_scalar == 4.0

    def test_uniform_two_step_unsupported(self):
        with pytest.raises(DomainError):
            theoretical_targets(UniformSource(1.0, 2.0), "two_step_mobius", 1j)

    def test_uniform_geometric_positive_support(self):
        # X ~ U(1,2), alpha = 0: target exp(2 E log X) * Var(log X) in closed form
        t = theoretical_targets(UniformSource(1.0, 2.0), "geometric", 0.0)
        log2 = math.log(2.0)
        e_log = 2 * log2 - 1
        e_log2 = 2 * log2**2 - 4 * log2 + 2
        want = math.exp(2 * e_log) * (e_log2 - e_log**2)
        assert t.nvar_limit == pytest.approx(want, rel=1e-10)
        assert t.mean == pytest.approx(math.exp(e_log), rel=1e-10)

    def test_uniform_geometric_mixed_support(self):
        # X ~ U(-1,2), alpha = 0 crosses the log singularity; closed forms:
        # int_0^a (log x)^2 dx = a((log a)^2 - 2 log a + 2)
        t = theoretical_targets(UniformSource(-1.0, 2.0), "geometric", 0.0)
        log2 = math.log(2.0)
        e_f = complex(2 * log2 - 3, math.pi) / 3
        e_abs2 = (2 + math.pi**2 + 2 * log2**2 - 4 * log2 + 4) / 3
        var_f = e_abs2 - abs(e_f) ** 2
        mean_pt = np.exp(e_f)
        want = var_f * abs(mean_pt) ** 2
        assert t.nvar_limit == pytest.approx(want, rel=1e-10)
        assert t.mean == pytest.approx(complex(mean_pt), rel=1e-10)

    def test_uniform_quadrature_miss_is_quadrature_error(self):
        # alpha = 1e-8 i puts a near-pole inside [-1, 1] that quad cannot resolve
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureError, match="exceeds tolerance"):
                theoretical_targets(UniformSource(-1.0, 1.0), "mobius", 1e-8j)

    def test_uniform_nonpositive_variance_is_numerical_error(self):
        # log x barely varies on [1e6, 1e6 + 1e-3]: E|f|^2 - |E f|^2 cancels to 0
        with pytest.raises(NumericalError, match="not positive"):
            theoretical_targets(UniformSource(1e6, 1e6 + 1e-3), "geometric", 0.0)


class TestDeterminism:
    def test_identical_configs_identical_reports(self):
        a = run_experiment(small_config())
        b = run_experiment(small_config())
        assert a.to_dict() == b.to_dict()

    def test_worker_count_independence(self):
        cfg1 = small_config(replications=2500, workers=1)
        cfg4 = small_config(replications=2500, workers=4)
        r1 = run_experiment(cfg1).to_dict()
        r4 = run_experiment(cfg4).to_dict()
        assert r1 == r4


class TestRunExperiment:
    def test_mobius_nvar_close_to_limit(self):
        report = run_experiment(
            small_config(n_values=(200,), replications=5000, seed=11)
        )
        res = report.results[0]
        assert res.n_var == pytest.approx(4.0, rel=0.10)
        assert res.passed and report.all_pass
        assert res.n_var == pytest.approx(
            res.n * (res.cov[0][0] + res.cov[1][1]), rel=1e-12
        )
        # covariance is symmetric PSD
        cov = np.array(res.cov)
        assert cov[0][1] == cov[1][0]
        assert np.all(np.linalg.eigvalsh(cov) >= 0)
        assert res.n_var_se > 0
        assert report.seed == 11

    def test_geometric_uniform_source(self):
        t = theoretical_targets(UniformSource(1.0, 2.0), "geometric", 0.0)
        report = run_experiment(
            ExperimentConfig(
                source=UniformSource(1.0, 2.0),
                estimator="geometric",
                alpha=0.0,
                n_values=(400,),
                replications=4000,
                seed=3,
            )
        )
        assert report.results[0].n_var == pytest.approx(t.nvar_limit, rel=0.10)

    def test_variance_decreases_with_n(self):
        report = run_experiment(
            small_config(n_values=(100, 1000, 10000), replications=2000, seed=5)
        )
        traces = [r.cov[0][0] + r.cov[1][1] for r in report.results]
        assert traces[0] > traces[1] > traces[2]

    def test_two_step_reaches_twice_the_floor(self):
        report = run_experiment(
            small_config(
                estimator="two_step_mobius",
                alpha=3 + 2j,
                n_values=(400,),
                replications=4000,
                seed=21,
                nvar_rtol=0.15,
            )
        )
        assert report.results[0].n_var == pytest.approx(8.0, rel=0.15)

    def test_moment_convergence_spot_check(self):
        # L^p convergence of the geometric estimate, spot-checked through
        # E|G - gamma|^p shrinking along n for p = 1, 2
        rng = np.random.default_rng(31)
        moments = {1: [], 2: []}
        for n in (50, 500, 5000):
            u = rng.random((2000, n))
            x = np.tan(math.pi * (u - 0.5))
            logs = np.log(np.abs(x)) + 1j * math.pi * (x < 0)
            g = np.exp(logs.mean(axis=1))
            err = np.abs(g - 1j)
            moments[1].append(err.mean())
            moments[2].append((err**2).mean())
        for p in (1, 2):
            assert moments[p][0] > moments[p][1] > moments[p][2]


class TestFailureHandling:
    def test_resampled_failures_are_counted(self, monkeypatch):
        def flaky(samples, alpha):
            if samples[0] > 2.0:  # ~15% of standard Cauchy draws
                raise DomainError("synthetic failure")
            return complex(samples[0], 1.0)

        monkeypatch.setitem(harness._ESTIMATORS, "mobius", flaky)
        out, failures = harness._run_chunk(
            STD_SOURCE, "mobius", 1j, 99, 5, 0, 200
        )
        assert len(out) == 200
        assert failures > 0
        assert np.all(np.isfinite(out))

    def test_abort_when_failure_cap_exceeded(self, monkeypatch):
        def mostly_failing(samples, alpha):
            if samples[0] > 0.0:
                raise DomainError("synthetic failure")
            return complex(samples[0], 1.0)

        monkeypatch.setitem(harness._ESTIMATORS, "mobius", mostly_failing)
        with pytest.raises((ExperimentError, DomainError)):
            run_experiment(small_config(replications=300))

    @pytest.mark.parametrize("kind", ["mobius", harness._HARMONIC])
    def test_exhausted_replication_is_experiment_error(self, kind, monkeypatch):
        def always_failing(samples, alpha):
            raise DomainError("synthetic failure")

        monkeypatch.setitem(harness._ESTIMATORS, kind, always_failing)
        with pytest.raises(ExperimentError, match="resampling cap hit: replication 0"):
            if kind == "mobius":
                run_experiment(small_config(replications=300))
            else:
                harmonic_identity_check(seed=1, n=3, replications=100)


class TestCltDiagnostics:
    def synthetic(self, m=20_000, scalar=2.0, seed=1):
        rng = np.random.default_rng(seed)
        return math.sqrt(scalar) * (
            rng.standard_normal(m) + 1j * rng.standard_normal(m)
        )

    def test_isotropic_normal_self_consistency(self):
        diag = clt_diagnostics(self.synthetic(), 2.0)
        assert abs(diag.offdiag_correlation) < 0.02
        assert diag.variance_ratio_re == pytest.approx(1.0, abs=0.05)
        assert diag.variance_ratio_im == pytest.approx(1.0, abs=0.05)
        assert diag.qq_correlation_re > 0.995
        assert diag.qq_correlation_im > 0.995

    def test_rotation_swaps_axes(self):
        dev = self.synthetic()
        a = clt_diagnostics(dev, 2.0)
        b = clt_diagnostics(dev * 1j, 2.0)
        assert b.variance_ratio_re == pytest.approx(a.variance_ratio_im, rel=1e-12)
        assert b.variance_ratio_im == pytest.approx(a.variance_ratio_re, rel=1e-12)
        assert abs(b.offdiag_correlation) == pytest.approx(
            abs(a.offdiag_correlation), rel=1e-9
        )
        assert b.qq_correlation_im == pytest.approx(a.qq_correlation_re, rel=1e-9)

    def test_input_validation(self):
        with pytest.raises(DomainError):
            clt_diagnostics(self.synthetic(m=500), 2.0)
        with pytest.raises(NumericalError):
            clt_diagnostics(np.zeros(2000, dtype=complex), 2.0)


class TestHarmonicIdentity:
    def test_single_sample_reciprocal_is_cauchy(self):
        report = harmonic_identity_check(seed=1, n=1, replications=20_000)
        assert report.passed

    def test_seven_sample_harmonic_mean_is_cauchy(self):
        report = harmonic_identity_check(seed=2, n=7, replications=20_000)
        assert report.statistic < report.critical_value_1pct
        assert report.critical_value_1pct == pytest.approx(
            1.63 * math.sqrt(2 / 20_000), rel=0.01
        )

    def test_negative_control_rejects(self):
        report = harmonic_identity_check(
            seed=2, n=7, replications=20_000, reference=CauchyParams(0.0, 2.0)
        )
        assert not report.passed

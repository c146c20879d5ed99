import json
import math
import re
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cqmeans
import cqmeans.harness as harness
from cqmeans import _buffers, cauchy
from cqmeans.estimators import GEOMETRIC, KINDS
from cqmeans import (
    CauchyParams,
    CauchySource,
    DomainError,
    ExperimentConfig,
    ExperimentError,
    NumericalError,
    ShiftedLog,
    UniformSource,
    clt_diagnostics,
    harmonic_identity_check,
    mobius_estimate,
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


# (id, call of one argument, the name its DomainError gives, values to refuse)
ARGUMENT_CHECKS = [
    ("sigma", lambda v: CauchyParams(0.0, v), "CauchyParams: sigma", (math.nan, math.inf)),
    ("tolerance", lambda v: cauchy.integrate_real_line(lambda x: 0.0, v),
     "integrate_real_line: tolerance", (math.nan, math.inf)),
    ("halfwidth", lambda v: cauchy.integrate_real_line(lambda x: 0.0, 1e-10, halfwidth=v),
     "integrate_real_line: halfwidth", (math.nan, math.inf)),
    ("center", lambda v: cauchy.integrate_real_line(lambda x: 0.0, 1e-10, center=v),
     "integrate_real_line: center", (math.nan, math.inf)),
    ("nvar_rtol", lambda v: small_config(nvar_rtol=v), "ExperimentConfig: nvar_rtol",
     (math.nan, math.inf)),
    ("clt-scalar", lambda v: clt_diagnostics(np.ones(1000, dtype=complex), v),
     "clt_diagnostics: theoretical scalar", (math.nan, math.inf)),
    ("cramer-rao-n", lambda v: cauchy.cramer_rao_bound(STANDARD, v), "cramer_rao_bound: n",
     (2.5, math.nan)),
    ("config-seed", lambda v: small_config(seed=v), "ExperimentConfig: seed", (-1, 1.5)),
    ("harmonic-seed", lambda v: harmonic_identity_check(v, 3, 100),
     "harmonic_identity_check: seed", (-1, 1.5)),
    ("sample-seed", lambda v: cauchy.sample(STANDARD, v, 3), "sample: seed", (-1, 1.5)),
    ("config-n-values", lambda v: small_config(n_values=v), "ExperimentConfig: n_values",
     (200, np.int64(50))),
    ("config-source", lambda v: small_config(source=v), "ExperimentConfig: source",
     ("cauchy", None)),
    ("harmonic-reference", lambda v: harmonic_identity_check(1, 3, 100, reference=v),
     "harmonic_identity_check: reference", ("x", 1.0)),
]


# E f(X) and Var f(X) for X ~ U(lo, hi), computed once by mpmath at 60 digits on
# the exact float inputs, with u = x + Re alpha and b = Im alpha: E f from the
# antiderivatives log(u + ib) (Mobius) and (u + ib) log(u + ib) - u (geometric);
# E|f|^2 from atan(u/b)/b (Mobius), from u((log|u|)^2 - 2 log|u| + 2) plus pi^2
# times the length below u = 0 (geometric, b = 0), or by mpmath.quad split at 0
# and at +-b 10^(10k), k = 0, 1, ... (geometric, b > 0; splits at +-b 10^(5k)
# agreed to 45 digits); Var f = E|f|^2 - |E f|^2.
UNIFORM_MOMENTS = [
    pytest.param(*case, id=name) for name, case in (
        ("interior-pole", (-1.0, 2.0, GEOMETRIC, -1.0 + 0j, -0.53790187962670312706,
                           2.0943951023931954923, 3.3000127588905688986)),
        ("interior-pole-2", (0.0, 3.0, GEOMETRIC, -1.0 + 0j, -0.53790187962670312706,
                             1.0471975511965977462, 3.3000127588905688986)),
        ("end-pole", (0.0, 1.0, GEOMETRIC, 0j, -1.0, 0.0, 1.0)),
        ("pole-1e-10-off", (1e-10, 1.0, GEOMETRIC, 0j, -0.99999999769741490678, 0.0,
                            0.99999994698101888461)),
        ("positive", (1.0, 2.0, GEOMETRIC, 0j, 0.38629436111989061883, 0.0,
                      0.039093972163597150666)),
        ("geometric-i", (-1.0, 2.0, GEOMETRIC, 1j, 0.28285279463520394731,
                         1.2472116913770115646, 0.43487453254507514381)),
        ("geometric-1e-8i", (-1.0, 1.0, GEOMETRIC, 1e-8j, -0.99999998429203678205,
                             1.5707963267948966192, 3.4673999550026283917)),
        ("mobius-1e-8i", (-1.0, 1.0, "mobius", 1e-8j, 0.0, -1.5707963167948966192,
                          157079629.21208858978)),
        ("mobius-1e-30i", (-2.0, 3.0, "mobius", 1 + 1e-30j, 0.27725887222397812377,
                           -0.62831853071795864769, 6.2831853071795859533e+29)),
        ("geometric-1e-30i", (-2.0, 3.0, GEOMETRIC, 1 + 1e-30j, 0.10903548889591249507,
                              0.62831853071795864769, 2.8866266330819462908)),
        ("mobius-1e-300i", (-1.0, 1.0, "mobius", 1e-300j, 0.0, -1.5707963267948966192,
                            1.5707963267948965799e+300)),
        ("geometric-1e-300i", (-1.0, 1.0, GEOMETRIC, 1e-300j, -1.0, 1.5707963267948966192,
                               3.4674011002723396547)),
        ("wide-mobius", (-1e6, 1e6, "mobius", 1j, 0.0, -1.5707953267948966196e-6,
                         1.5707928593969379389e-6)),
        ("wide-geometric", (-1e6, 1e6, GEOMETRIC, 1j, 12.815512128760100899,
                            1.5707963267948966192, 3.4673155084334502865)),
        ("mobius-i", (-1.0, 2.0, "mobius", 1j, 0.1527151219790258442,
                      -0.63084896039717960421, 0.20955664108190858108)),
        ("narrow-geometric", (1000.0, 1000.001, GEOMETRIC, 0j, 6.9077557789819703736, 0.0,
                              8.3333249996131084365e-14)),
        ("narrow-mobius", (1000.0, 1000.001, "mobius", 1j, 0.00099999850000283333941,
                           -9.9999800000400001531e-7, 8.3332999997047762237e-20)),
    )
]


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

    def test_nvar_rtol_positive(self):
        for rtol in (0.0, -0.1):
            with pytest.raises(DomainError, match="nvar_rtol must be positive"):
                small_config(nvar_rtol=rtol)

    def test_uniform_bounds(self):
        with pytest.raises(DomainError):
            UniformSource(2.0, 1.0)
        for lo, hi in ((-math.inf, 1.0), (0.0, math.inf), (math.nan, 1.0)):
            with pytest.raises(DomainError, match="bounds must be finite"):
                UniformSource(lo, hi)

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: small_config(n_values=(5.7,)), "n", id="config-n"),
        pytest.param(lambda: small_config(n_values=(50.0,)), "n", id="config-integral-float-n"),
        pytest.param(lambda: small_config(replications=200.5), "replications",
                     id="config-replications"),
        pytest.param(lambda: small_config(workers=1.5), "workers", id="config-workers"),
        pytest.param(lambda: harmonic_identity_check(1, 7.5, 200), "n", id="harmonic-n"),
        pytest.param(lambda: harmonic_identity_check(1, 7, 200.5), "replications",
                     id="harmonic-replications"),
        pytest.param(lambda: cauchy.sample(STANDARD, 1, 2.5), "count", id="sample-count"),
    ])
    def test_sizes_must_be_integers(self, call, message):
        """A size is never truncated, and fails at its entry, not later in numpy."""
        with pytest.raises(DomainError, match=f"{message} must be an integer"):
            call()

    @pytest.mark.parametrize("call, value, what", [
        *(pytest.param(call, value, what, id=f"{name}-{value}")
          for name, call, what, values in ARGUMENT_CHECKS for value in values)
    ])
    def test_out_of_range_arguments_are_refused(self, call, value, what):
        """Every argument is refused at its entry, nan and inf too, naming itself and its value."""
        with pytest.raises(DomainError, match=f"^{what} must be .*, got "):
            call(value)

    def test_numpy_integer_sizes_are_echoed_as_python_ints(self):
        cfg = small_config(n_values=(np.int64(50),), replications=np.int32(300),
                           workers=np.uint8(1))
        assert (cfg.n_values, cfg.replications, cfg.workers) == ((50,), 300, 1)
        assert all(type(v) is int for v in (*cfg.n_values, cfg.replications, cfg.workers))
        report = harmonic_identity_check(1, np.int64(3), np.int64(100))
        assert (type(report.n), type(report.replications)) == (int, int)
        assert len(cauchy.sample(STANDARD, 1, np.int16(5))) == 5


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

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_cauchy_target_is_the_kinds_limit(self, kind, monkeypatch):
        limit = getattr(cqmeans.cauchy, KINDS[kind].limit)(STANDARD, 0.5 + 1j)
        t = theoretical_targets(STD_SOURCE, kind, 0.5 + 1j)
        assert (t.mean, t.nvar_limit, t.clt_scalar) == (
            STANDARD.gamma, limit.nvar_limit, limit.clt_scalar)
        # looked up by name on each call, so rebinding the limit reaches it
        calls = []
        monkeypatch.setattr(cqmeans.cauchy, KINDS[kind].limit,
                            lambda *args: calls.append(args) or limit)
        theoretical_targets(STD_SOURCE, kind, 0.5 + 1j)
        assert calls == [(STANDARD, 0.5 + 1j)]

    def test_unknown_source(self):
        with pytest.raises(DomainError, match="unknown source"):
            theoretical_targets(STANDARD, "mobius", 1j)

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

    def test_uniform_near_pole_target_matches_mpmath(self):
        # alpha = 1e-8 i puts a near-pole inside [-1, 1]; mpmath at 60 digits gives
        # E f = (log(1 + ib) - log(-1 + ib))/2 and Var f = atan(1/b)/b - |E f|^2 for
        # b = 1e-8, so the limit point 1/E f - alpha and n*Var = Var f / |E f|^4
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = theoretical_targets(UniformSource(-1.0, 1.0), "mobius", 1e-8j)
        assert t.mean == pytest.approx(0.63661976642042871457j, rel=1e-14, abs=0.0)
        assert t.nvar_limit == pytest.approx(25801227.634042005577, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("lo, hi, kind, alpha, mean_re, mean_im, variance", UNIFORM_MOMENTS)
    def test_uniform_moments_against_mpmath(self, lo, hi, kind, alpha, mean_re, mean_im,
                                            variance):
        # the fixed rule is exact to rounding; on a narrow interval far from 0 the
        # rounding of the nodes, eps max|u| / (hi - lo) relative, sets the floor
        u_max = max(abs(lo + alpha.real), abs(hi + alpha.real))
        floor = 20 * sys.float_info.epsilon * u_max / (hi - lo)
        mean, var = harness._uniform_generator_moments(UniformSource(lo, hi),
                                                       KINDS[kind].transform(alpha))
        assert mean == pytest.approx(complex(mean_re, mean_im), rel=1e-14, abs=0.0)
        assert var == pytest.approx(variance, rel=max(1e-14, floor), abs=0.0)

    @pytest.mark.parametrize("lo, hi, alpha, message", [
        # 1/(u + ib) overflows next to b = 1e-320
        (-1.0, 1.0, 1e-320j, r"\[-1\.0, 1\.0\]: E f\(X\) = .*, not finite and positive"),
        (-1e308, 1e308, 1j, r"\[-1e\+308, 1e\+308\]: .* has width inf"),
        # lo + Re alpha and hi + Re alpha round to one float
        (1.0, 1.0 + 2**-52, 1e10 + 1j, r"\[1\.0, 1\.0000000000000002\]: .* has width 0\.0"),
    ])
    def test_uniform_target_that_overflows_is_numerical_error(self, lo, hi, alpha, message):
        # refused with the generator and the interval named, and no RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=r"^uniform-source moments of "
                               + re.escape(f"MobiusReciprocal(alpha={alpha!r}) on ") + message):
                theoretical_targets(UniformSource(lo, hi), "mobius", alpha)

    @pytest.mark.parametrize("lo, hi", [(1000.0, 1000.001), (1e6, 1e6 + 1e-3)])
    def test_uniform_narrow_interval_variance(self, lo, hi):
        # log x barely varies here, so E|f|^2 - |E f|^2 would cancel (19% high
        # on the first interval, 0 on the second); Var(log X) is close to
        # ((hi - lo)/lo)^2/12
        _, variance = harness._uniform_generator_moments(
            UniformSource(lo, hi), ShiftedLog(0.0)
        )
        assert variance == pytest.approx(((hi - lo) / lo) ** 2 / 12, rel=1e-4, abs=0.0)


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


def inject(monkeypatch, kind, estimate):
    """Make ``kind`` estimate like ``estimate``, an estimator of one sample.

    First draws and redraws both go through the row estimator of ``kind``;
    it is replaced by a loop of ``estimate`` that marks the rows where it
    raises DomainError as failed.
    """
    def rows(x, alpha):
        out = np.full(len(x), complex(math.nan, math.nan))
        failed = np.zeros(len(x), dtype=bool)
        for i, row in enumerate(x):
            try:
                out[i] = estimate(row, alpha)
            except DomainError:
                failed[i] = True
        return out, failed

    monkeypatch.setitem(harness._ESTIMATORS, kind, rows)


def flaky(samples, alpha):
    if samples[0] > 2.0:  # ~15% of standard Cauchy draws
        raise DomainError("synthetic failure")
    return complex(samples[0], 1.0)


class TestFailureHandling:
    def test_resampled_failures_are_counted(self, monkeypatch):
        inject(monkeypatch, "mobius", flaky)
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

        inject(monkeypatch, "mobius", mostly_failing)
        with pytest.raises((ExperimentError, DomainError)):
            run_experiment(small_config(replications=300))

    def test_failures_beyond_the_cap_abort_the_experiment(self, monkeypatch):
        # every replication succeeds within its redraws, but too many fail
        inject(monkeypatch, "mobius", flaky)
        with pytest.raises(ExperimentError, match=r"failed draws at n=50 exceed "
                                                  r"the 0\.01% cap"):
            run_experiment(small_config(replications=300))

    @pytest.mark.parametrize("kind", ["mobius", harness._HARMONIC])
    def test_exhausted_replication_is_experiment_error(self, kind, monkeypatch):
        def always_failing(samples, alpha):
            raise DomainError("synthetic failure")

        inject(monkeypatch, kind, always_failing)
        with pytest.raises(ExperimentError, match="resampling cap hit: replication 0"):
            if kind == "mobius":
                run_experiment(small_config(replications=300))
            else:
                harmonic_identity_check(seed=1, n=3, replications=100)


# tiles on both sides of the row sums' switch from fsum per row to extraction
# at 1,024 terms a block, and rows of 1,024 terms, 32 to a tile
_ROW_LENGTHS = (2, 3, 7, 63, 64, 200, 1024)


@st.composite
def _row_cases(draw):
    """(kind, alpha, x): a few rows of samples for a row estimator.

    Cauchy rows at a drawn scale, with a few entries replaced by arbitrary
    finite floats and maybe one put on the pole of a real shift (0 for the
    harmonic mean).
    """
    kind = draw(st.sampled_from(sorted(harness._ESTIMATORS)))
    min_n = KINDS[kind].min_n if kind in KINDS else 1
    n = draw(st.sampled_from([n for n in _ROW_LENGTHS if n >= min_n]))
    # up to the harness's tile height, capped at 70 rows
    rows = draw(st.integers(1, min(70, harness._tile_rows(n))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_cauchy((rows, n)) * 10.0 ** draw(st.integers(-8, 8))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    cells = st.tuples(st.integers(0, rows - 1), st.integers(0, n - 1))
    for (r, j), v in draw(st.lists(st.tuples(cells, finite), max_size=4)):
        x[r, j] = v
    re = draw(st.floats(-10.0, 10.0))
    if kind == harness._HARMONIC:
        alpha = 0.0
    elif kind == GEOMETRIC:
        alpha = complex(re, draw(st.sampled_from([0.0, 0.5, 3.0])))
    else:
        alpha = complex(re, draw(st.floats(1e-3, 10.0)))
    if alpha.imag == 0.0 and draw(st.booleans()):
        x[draw(cells)] = -alpha.real
    return kind, alpha, x


def _harmonic_mean(samples, alpha):
    """n / sum_j 1/x_j of one sample, as stream version 1 computed it."""
    with np.errstate(all="ignore"):  # 1/0, overflow, and inf - inf in the sum
        denom = np.sum(1.0 / samples)
    if np.all(samples != 0.0) and denom != 0.0 and math.isfinite(denom):
        return len(samples) / denom
    raise DomainError("harmonic mean: zero sample or zero or non-finite reciprocal sum")


def _scalar(kind):
    """The estimator of one sample of ``kind``: (samples, alpha) -> complex."""
    if kind == harness._HARMONIC:
        return _harmonic_mean
    estimate = getattr(cqmeans, KINDS[kind].function)
    return lambda samples, alpha: estimate(samples, alpha).estimate


def _outcome(estimate, row, alpha):
    """``estimate(row, alpha)`` as complex128 bytes, or the error class it raises."""
    try:
        return np.complex128(estimate(row, alpha)).tobytes()
    except (DomainError, NumericalError) as exc:
        return type(exc)


class TestRowKernels:
    @settings(max_examples=200, deadline=None)
    @given(_row_cases())
    def test_rows_equal_the_estimator_of_one_sample(self, case):
        kind, alpha, x = case
        singles = [_outcome(_scalar(kind), row.copy(), alpha) for row in x]
        if NumericalError in singles:
            with pytest.raises(NumericalError):
                harness._ESTIMATORS[kind](x, alpha)
            return
        estimates, failed = harness._ESTIMATORS[kind](x, alpha)
        assert failed.tolist() == [single is DomainError for single in singles]
        for estimate, single, row_failed in zip(estimates, singles, failed):
            if not row_failed:
                assert np.complex128(estimate).tobytes() == single

    def test_rebinding_an_estimator_reaches_every_tile(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return mobius_estimate(*args, **kwargs)

        default = run_experiment(small_config()).to_dict()
        monkeypatch.setattr(harness, "mobius_estimate", counted)
        assert run_experiment(small_config()).to_dict() == default
        assert calls == [{"rows": True}]


def _chunk_stream(seed, n, chunk):
    tag = harness._CHUNK_STREAM_TAG
    return np.random.default_rng(np.random.SeedSequence((seed, n, tag, chunk, tag)))


class TestChunkStreams:
    @pytest.mark.parametrize("kind", sorted(harness._ESTIMATORS))
    def test_rows_come_from_the_documented_chunk_stream(self, kind):
        params = CauchyParams(2.0, 3.0)
        seed, n, start, stop = 42, 7, harness._CHUNK, harness._CHUNK + 300
        alpha = 0.0 if kind == harness._HARMONIC else 1 + 2j
        out, failures = harness._run_chunk(
            CauchySource(params), kind, alpha, seed, n, start, stop
        )
        # row i is draws i*n ... i*n + n - 1 of chunk 1's stream
        u = _chunk_stream(seed, n, 1).random((stop - start, n))
        x = params.mu + params.sigma * np.tan(math.pi * (u - 0.5))
        want = [_scalar(kind)(row, alpha) for row in x]
        assert failures == 0
        assert out.tobytes() == np.array(want, dtype=complex).tobytes()

    @pytest.mark.parametrize("budget", ["one row", "whole chunk"])
    def test_reports_do_not_depend_on_the_tile_size(self, monkeypatch, budget):
        configs = [
            small_config(n_values=(3, 200), replications=2500),
            small_config(estimator="two_step_mobius", n_values=(100,), replications=1500),
            small_config(source=UniformSource(-1.0, 2.0), estimator="geometric",
                         alpha=0.0, n_values=(64,), replications=1100),
        ]

        def reports():
            return [json.dumps(run_experiment(cfg).to_dict()) for cfg in configs] + [
                json.dumps(harmonic_identity_check(seed=3, n=7, replications=2500).to_dict())
            ]

        default = reports()
        tile = 1 if budget == "one row" else harness._CHUNK * 200
        monkeypatch.setattr(harness, "_TILE_ELEMENTS", tile)
        assert reports() == default

    def test_failed_row_is_redrawn_from_its_sub_stream(self, monkeypatch):
        seed, n, row = 5, 7, 5
        clean, _ = harness._run_chunk(STD_SOURCE, "mobius", 1j, seed, n, 0, 100)
        kernel = harness._ESTIMATORS["mobius"]

        def fail_row(x, alpha):
            estimates, failed = kernel(x, alpha)
            if len(x) > 1:  # the chunk's tile, not the one-row redraw
                failed[row] = True
            return estimates, failed

        monkeypatch.setitem(harness._ESTIMATORS, "mobius", fail_row)
        out, failures = harness._run_chunk(STD_SOURCE, "mobius", 1j, seed, n, 0, 100)
        sub_stream = np.random.default_rng(np.random.SeedSequence((seed, n, row, 1)))
        want = mobius_estimate(STD_SOURCE.draw_rows(sub_stream, 1, n)[0], 1j).estimate
        assert failures == 1
        assert out[row] == want != clean[row]
        assert np.delete(out, row).tobytes() == np.delete(clean, row).tobytes()

    @pytest.mark.parametrize("kind, alpha", [
        (GEOMETRIC, -1.0), (GEOMETRIC, 0.0), (GEOMETRIC, 1j), ("mobius", 1j),
        ("two_step_mobius", 1j), (harness._HARMONIC, 0.0),
    ])
    def test_failed_rows_are_redrawn_for_every_kernel(self, monkeypatch, kind, alpha):
        seed, n, failing = 5, 8, [0, 5, 99]
        clean, _ = harness._run_chunk(STD_SOURCE, kind, alpha, seed, n, 0, 100)
        kernel = harness._ESTIMATORS[kind]

        def fail_rows(x, alpha):
            estimates, failed = kernel(x, alpha)
            if len(x) > 1:  # the chunk's tile, not the one-row redraws
                failed[failing] = True
            return estimates, failed

        monkeypatch.setitem(harness._ESTIMATORS, kind, fail_rows)
        out, failures = harness._run_chunk(STD_SOURCE, kind, alpha, seed, n, 0, 100)
        estimate = _scalar(kind)
        want = [estimate(STD_SOURCE.draw_rows(np.random.default_rng(
            np.random.SeedSequence((seed, n, row, 1))), 1, n)[0], alpha) for row in failing]
        assert failures == len(failing)
        assert out[failing].tolist() == want
        assert np.delete(out, failing).tobytes() == np.delete(clean, failing).tobytes()

    @pytest.mark.parametrize("seed", [3, 2**40 + 3])
    def test_chunk_streams_never_meet_a_sub_stream(self, seed):
        # a replication numbered tag, redrawn at attempt chunk, has the key
        # (seed, n, tag, chunk): the chunk key without its last word
        n, tag = 7, harness._CHUNK_STREAM_TAG
        for chunk in range(1, harness._MAX_RESAMPLE):
            sub_stream = np.random.default_rng(np.random.SeedSequence((seed, n, tag, chunk)))
            assert (_chunk_stream(seed, n, chunk).random(4).tobytes()
                    != sub_stream.random(4).tobytes())

    def test_chunk_must_start_a_chunk(self):
        with pytest.raises(ValueError):
            harness._run_chunk(STD_SOURCE, "mobius", 1j, 1, 5, 10, 200)
        with pytest.raises(ValueError):
            harness._run_chunk(STD_SOURCE, "mobius", 1j, 1, 5, 0, harness._CHUNK + 1)

    def test_a_numpy_seed_serialises_as_the_same_report(self):
        text = json.dumps(run_experiment(small_config(seed=7)).to_dict(), sort_keys=True)
        report = run_experiment(small_config(seed=np.int64(7)))
        assert type(report.seed) is int  # the seed is checked as a size
        assert json.dumps(report.to_dict(), sort_keys=True) == text
        # a numpy location reaches the report through the source's description
        source = CauchySource(CauchyParams(np.float64(0.0), 1.0))
        report = run_experiment(small_config(source=source))
        assert type(report.source["mu"]) is np.float64
        assert json.dumps(report.to_dict(), sort_keys=True) == text

    def test_reports_carry_their_provenance(self):
        for report in (run_experiment(small_config()),
                       harmonic_identity_check(seed=1, n=3, replications=100)):
            payload = report.to_dict()
            assert payload["stream_version"] == harness.STREAM_VERSION == 3
            assert payload["cqmeans_version"] == cqmeans.__version__

    @pytest.mark.parametrize("n, reps", [(1100, 40), (10_000, 7)])
    @pytest.mark.parametrize("source, kind, alpha", [
        (STD_SOURCE, GEOMETRIC, 0.0),
        (STD_SOURCE, GEOMETRIC, 1j),
        (STD_SOURCE, "mobius", 1j),
        (STD_SOURCE, "two_step_mobius", 1j),
        (STD_SOURCE, harness._HARMONIC, 0.0),
        (UniformSource(-1.0, 2.0), GEOMETRIC, 0.0),
    ])
    def test_long_rows_do_not_depend_on_the_tile_size(self, monkeypatch, source, kind,
                                                      alpha, n, reps):
        # one row a tile; the default, 29 rows at n = 1,100 and 3 at 10,000, with
        # a shorter last tile; the whole chunk in one tile
        runs = []
        for tile in (1, harness._TILE_ELEMENTS, reps * n):
            monkeypatch.setattr(harness, "_TILE_ELEMENTS", tile)
            out, failures = harness._run_chunk(source, kind, alpha, 17, n, 0, reps)
            runs.append((out.tobytes(), failures))
        assert runs[1:] == runs[:1] * 2


def _kernel_outcome(kernel, x, alpha):
    """``kernel(x, alpha)``, or NumericalError if it raises that."""
    try:
        return kernel(x, alpha)
    except NumericalError:
        return NumericalError


def _bytes(outcome):
    if outcome is NumericalError:
        return outcome
    estimates, failed = outcome
    return estimates.tobytes(), failed.tobytes()


# perfbench's Monte Carlo configurations: (params, kind, alpha, n, replications of one chunk)
_BENCHMARK_CHUNKS = {
    "geometric-n2": (CauchyParams(2.0, 3.0), GEOMETRIC, 1 + 2j, 2, 1024),
    "mobius-n3": (CauchyParams(2.0, 3.0), "mobius", 1 + 2j, 3, 1024),
    "mobius-n200": (STANDARD, "mobius", 1j, 200, 1024),
    "two-step-n200": (STANDARD, "two_step_mobius", 1j, 200, 1024),
    "harmonic-n7": (STANDARD, harness._HARMONIC, 0.0, 7, 1024),
    "geometric-0": (STANDARD, GEOMETRIC, 0.0, 10_000, 200),
    "geometric-i": (STANDARD, GEOMETRIC, 1j, 10_000, 200),
    "mobius-i": (STANDARD, "mobius", 1j, 10_000, 200),
}


class TestBufferSet:
    def test_a_chunk_shares_one_slot_per_role_and_outside_none(self):
        first, second = _buffers.empty("role", (3, 4)), _buffers.empty("role", (3, 4))
        assert not np.shares_memory(first, second)
        with _buffers.chunk_buffers():
            views = [_buffers.empty("role", shape) for shape in ((3, 4), (2, 4), (1, 4))]
            views.append(_buffers.empty("role", (4, 3), order="F"))
            assert all(np.shares_memory(views[0], view) for view in views[1:])
            assert views[3].flags.f_contiguous
            assert not np.shares_memory(views[0], _buffers.empty("other", (3, 4)))
            assert not np.shares_memory(views[0], _buffers.empty("role", (3, 4), complex))
        with _buffers.chunk_buffers():  # the slot outlives the block
            assert np.shares_memory(views[0], _buffers.empty("role", (2, 4)))
        assert not np.shares_memory(views[0], _buffers.empty("role", (3, 4)))

    @settings(max_examples=100, deadline=None)
    @given(_row_cases())
    def test_kernels_give_the_bits_of_fresh_arrays(self, case):
        kind, alpha, x = case
        kernel = harness._ESTIMATORS[kind]
        y = np.roll(x, 1, axis=1)[::-1].copy()  # a second tile of the same shape
        z = np.concatenate([y, x])  # a larger third tile, which grows the slots
        blocks = x, y, z
        want = [_bytes(_kernel_outcome(kernel, block.copy(), alpha)) for block in blocks]
        inputs = [block.tobytes() for block in blocks]

        def tiles():
            with _buffers.chunk_buffers():
                return [_kernel_outcome(kernel, block, alpha) for block in blocks]

        with ThreadPoolExecutor(max_workers=1) as thread:  # a new thread: an empty pool
            got = thread.submit(tiles).result()
        # a tile's estimates and mask stay as they were after the later tiles
        assert [_bytes(outcome) for outcome in got] == want
        assert [block.tobytes() for block in blocks] == inputs

    def test_each_thread_has_its_own_pool(self):
        # three chunks at once on three threads, switched often
        chunks = [(STD_SOURCE, "mobius", 1j, 9, 200, 0, 1024),
                  (STD_SOURCE, GEOMETRIC, 1j, 9, 10_000, 0, 200),
                  (STD_SOURCE, "two_step_mobius", 1j, 9, 200, 0, 1024)]
        alone = [harness._run_chunk(*chunk) for chunk in chunks]
        start = threading.Barrier(len(chunks))

        def run(chunk):
            start.wait(timeout=60)
            return harness._run_chunk(*chunk)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
                together = list(pool.map(run, chunks, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert ([(out.tobytes(), failures) for out, failures in together]
                == [(out.tobytes(), failures) for out, failures in alone])

    def test_no_pooled_array_leaves_a_chunk(self):
        harness._run_chunk(STD_SOURCE, "mobius", 1j, 1, 7, 0, 100)
        first, second = cauchy.sample(STANDARD, 3, 700), cauchy.sample(STANDARD, 3, 700)
        assert first.tobytes() == second.tobytes()
        assert not np.shares_memory(first, second)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="counts minor page faults through getrusage on Linux")
    @pytest.mark.parametrize("config", sorted(_BENCHMARK_CHUNKS))
    def test_a_warm_chunk_faults_in_no_tile_memory(self, config):
        """A chunk reuses the memory of the chunks before it.

        The first chunk of a larger tile grows the thread's slots; the pool
        frees nothing, so later chunks fault in none of their tile memory.
        """
        resource = pytest.importorskip("resource")
        params, kind, alpha, n, reps = _BENCHMARK_CHUNKS[config]

        def faults(seed):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            harness._run_chunk(CauchySource(params), kind, alpha, seed, n, 0, reps)
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

        faults(1), faults(2)
        assert faults(3) < 64


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
        for scalar in (0.0, -1.0):
            with pytest.raises(DomainError, match="scalar must be positive"):
                clt_diagnostics(self.synthetic(), scalar)
        with pytest.raises(NumericalError):
            clt_diagnostics(np.zeros(2000, dtype=complex), 2.0)

    @pytest.mark.parametrize("m", [1000, 1001, 2048, 20_000])
    def test_qq_quantiles_are_norm_ppf_bits(self, m, monkeypatch):
        from scipy.stats import norm

        seen = []
        corrcoef = np.corrcoef

        def recorded(x, y):
            seen.append(y)
            return corrcoef(x, y)

        values = self.synthetic(m=m).real
        monkeypatch.setattr(np, "corrcoef", recorded)
        got = harness._qq_correlation(values)
        monkeypatch.undo()
        quantiles = norm.ppf((np.arange(1, m + 1) - 0.5) / m)
        assert len(seen) == 1 and seen[0].tobytes() == quantiles.tobytes()
        assert got == float(np.corrcoef(np.sort(values), quantiles)[0, 1])

    def test_ndtri_has_scipy_bits(self):
        from scipy.special import ndtri

        grids = [(np.arange(1, m + 1) - 0.5) / m
                 for m in [*range(1000, 3000, 3), 4096, 5000, 10_000, 20_001, 65_536,
                           100_000, 200_000]]
        rng = np.random.default_rng(17)
        low_tail = 10.0 ** -rng.uniform(0, 300, 200_000)
        edges = [math.exp(-2), 1 - math.exp(-2), math.exp(-32), 1 - math.exp(-32)]
        edges = np.array(edges)[:, np.newaxis] * (1 + np.arange(-4, 5) * 2.0 ** -52)
        for y in (*grids, rng.random(200_000), low_tail, 1 - low_tail[low_tail > 1e-16],
                  edges.ravel()):
            assert harness._ndtri(y).tobytes() == ndtri(y).tobytes()

    def test_qq_quantiles_are_cached_read_only(self):
        quantiles = harness._qq_quantiles(1234)
        assert harness._qq_quantiles(1234) is quantiles
        with pytest.raises(ValueError, match="read-only"):
            quantiles[0] = 0.0


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

    @pytest.mark.parametrize("m", [100, 2048, 5000, 10_000, 10_001, 20_000])
    def test_ks_statistic_has_ks_2samp_bits(self, m):
        from scipy.stats import ks_2samp

        rng = np.random.default_rng(m)
        for k, scale, decimals in ((m, 1.0, None), (m, 1.05, None), (m, 1.0, 1),
                                   (m // 3 + 7, 1.2, None)):
            a = rng.standard_cauchy(m)
            b = scale * rng.standard_cauchy(k)
            if decimals is not None:  # ties within and across the samples
                a, b = np.round(a, decimals), np.round(b, decimals)
            expected = float(ks_2samp(a, b).statistic)
            assert harness._ks_statistic(a, b).hex() == expected.hex()

    def test_statistic_that_exact_mode_rounds(self, monkeypatch):
        # without scipy's rounding to a multiple of 1/lcm this reads
        # 0.11439999999999995
        from scipy.stats import ks_2samp

        seen = []
        statistic = harness._ks_statistic

        def recorded(a, b):
            seen.append((a, b))
            return statistic(a, b)

        monkeypatch.setattr(harness, "_ks_statistic", recorded)
        report = harmonic_identity_check(seed=4, n=2, replications=5000,
                                         reference=CauchyParams(0.0, 2.0))
        assert report.statistic == float(ks_2samp(*seen[0]).statistic) == 0.1144

    @pytest.mark.parametrize("n, replications", [(0, 100), (-1, 100), (3, 99)])
    def test_input_validation(self, n, replications):
        what, minimum = ("n", 1) if n < 1 else ("replications", 100)
        with pytest.raises(DomainError, match=f"^harmonic_identity_check: {what} must be at "
                                              f"least {minimum}, got "):
            harmonic_identity_check(1, n, replications)

    def test_negative_control_rejects(self):
        report = harmonic_identity_check(
            seed=2, n=7, replications=20_000, reference=CauchyParams(0.0, 2.0)
        )
        assert not report.passed

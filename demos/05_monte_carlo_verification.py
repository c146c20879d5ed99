r"""
Monte Carlo verification
------------------------
The harness replays each limit theorem as a seeded experiment: it draws M
independent sample sets per sample size, estimates, and compares the scaled
variance n * trace(cov) with its theoretical limit.  Reports are bit-stable:
replications come in fixed chunks of 1,024, each chunk draws from its own
stream keyed by (seed, n, chunk), and replication r is a fixed row of its
chunk whatever the tile size it is estimated in; a row that fails is redrawn
from the sub-streams (seed, n, r, attempt).  The worker count never changes
a number, and every report names its stream_version (now 3).
"""
from cqmeans import (
    CauchyParams,
    CauchySource,
    ExperimentConfig,
    UniformSource,
    harmonic_identity_check,
    run_experiment,
)

#%%
# Mobius estimator at its optimal shift: n * Var should be near 4 sigma^2 = 4.
cfg = ExperimentConfig(
    source=CauchySource(CauchyParams(0.0, 1.0)),
    estimator="mobius",
    alpha=1j,
    n_values=(100, 400),
    replications=4000,
    seed=1,
)
report = run_experiment(cfg)
for res in report.results:
    print(f"n={res.n:>4}: n*Var = {res.n_var:.3f} +- {res.n_var_se:.3f} "
          f"(target {res.target_n_var}), pass={res.passed}")

#%%
# The same harness checks the central limit theorem: scaled deviations should
# be isotropic normal with per-axis variance = half the n*Var limit.
diag = report.results[1].diagnostics
print("off-diagonal correlation:", round(diag.offdiag_correlation, 4))
print("variance ratios (re, im):", round(diag.variance_ratio_re, 3),
      round(diag.variance_ratio_im, 3))
print("QQ correlations (re, im):", round(diag.qq_correlation_re, 5),
      round(diag.qq_correlation_im, 5))

#%%
# The variance theorem is not Cauchy-specific.  For uniform samples the
# target exp(2 E log|X+a|) * Var(log(X+a)) comes from a fixed Gauss-Legendre rule.
cfg = ExperimentConfig(
    source=UniformSource(1.0, 2.0),
    estimator="geometric",
    alpha=0.0,
    n_values=(500,),
    replications=4000,
    seed=2,
)
report = run_experiment(cfg)
res = report.results[0]
print(f"uniform source: n*Var = {res.n_var:.5f}, target = {res.target_n_var:.5f}")

#%%
# A distributional curiosity with practical bite: the harmonic mean of
# standard Cauchy samples is again standard Cauchy (so nobody should use it
# as an estimator there).  A two-sample KS test cannot tell them apart, while
# a scale-2 reference is rejected instantly.
check = harmonic_identity_check(seed=3, n=7, replications=10_000)
print(f"KS vs C(0,1): statistic={check.statistic:.5f} "
      f"critical={check.critical_value_1pct:.5f} passed={check.passed}")
control = harmonic_identity_check(seed=3, n=7, replications=10_000,
                                  reference=CauchyParams(0.0, 2.0))
print(f"KS vs C(0,2): statistic={control.statistic:.5f} passed={control.passed}")

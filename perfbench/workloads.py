"""The benchmark's three closed-loop workloads and the checks on their outputs.

Each workload is one cycle of request configurations served in rotation;
request ``i`` uses configuration ``i % len(cycle)`` and the request seed
``(workload_seed << 20) + i``, so the inputs follow from the workload seed
alone.  Every request is one call the way a user makes it:
``harness.run_experiment``, ``harness.harmonic_identity_check`` or
``cli.main(["estimate", ...])``, looked up on the module at call time so the
traced run can rebind it.

Checks apply the paper's tolerances.  Monte Carlo estimates are pooled per
configuration across the run, because a single request has too few
replications for a tight test:

* unbiasedness at minimal n: pooled mean within 4 standard errors of gamma
  on each axis;
* n*Var within the configuration's ``nvar_rtol`` of its limit, where the
  limit applies (finite variance and n large enough);
* the harmonic-mean KS check, which rejects 1% of true requests by design, so
  the run fails only when more requests reject than a 1e-4 binomial tail
  allows;
* every file estimate within ``FILE_SE_MULTIPLE`` asymptotic standard errors
  of the true gamma on each axis, with the standard error computed here from
  the closed forms (and a midpoint rule for the shifted angle), not by the
  program.
"""

import contextlib
import io
import json
import math
from dataclasses import dataclass

import numpy as np
from cqmeans import cli, harness
from cqmeans.cauchy import CauchyParams

WORKLOADS = ("mc-small-n", "mc-large-n", "estimate-file")
FILE_SE_MULTIPLE = 5.0
UNBIASED_SE_MULTIPLE = 4.0
_KS_LEVEL = 0.01         # the harness's per-request KS level
_KS_RUN_TAIL = 1e-4      # allowed chance of failing a run of true requests
_FILE_TAG = 0xF11E       # keeps file draws apart from anything the program seeds


@dataclass(frozen=True)
class Scale:
    """Input sizes; the defaults are the benchmark, smaller ones a smoke test."""

    mc_reps: int = 2048
    large_n: int = 10_000
    large_reps: int = 200
    file_samples: int = 200_000
    setup_probes: int = 3
    min_cycles: int = 0       # 0: the workload's own minimum


def _finite(*values):
    return all(math.isfinite(v) for v in values)


@dataclass(frozen=True)
class McConfig:
    """One ``run_experiment`` request on C(mu, sigma) at a single n."""

    key: str
    estimator: str
    mu: float
    sigma: float
    alpha: complex
    n: int
    reps: int
    minimal_n: bool       # unbiasedness is checked at the estimator's minimal n
    nvar_limit: bool      # the n*Var limit applies at this n

    @property
    def samples(self):
        return self.n * self.reps

    def run(self, seed):
        cfg = harness.ExperimentConfig(
            source=harness.CauchySource(CauchyParams(self.mu, self.sigma)),
            estimator=self.estimator,
            alpha=self.alpha,
            n_values=(self.n,),
            replications=self.reps,
            seed=seed,
        )
        return harness.run_experiment(cfg)

    def text(self, report):
        return json.dumps(report.to_dict(), sort_keys=True)

    def problems(self, report, seed):
        res = report.results[0]
        out = []
        if (report.seed, res.n, res.replications) != (seed, self.n, self.reps):
            out.append(f"{self.key}: report echoes seed/n/reps "
                       f"{(report.seed, res.n, res.replications)}")
        if (report.target_mean_re, report.target_mean_im) != (self.mu, self.sigma):
            out.append(f"{self.key}: target mean is not gamma")
        if not _finite(res.mean_re, res.mean_im, res.n_var, res.se_mean_re, res.se_mean_im):
            out.append(f"{self.key}: non-finite summary")
        return out

    def pooled_problems(self, reports):
        """Pool K reports of m replications each and apply the paper's tolerances."""
        res = [r.results[0] for r in reports]
        k, m = len(res), self.reps
        out = []
        var = []
        for axis, mean, cov in (("re", "mean_re", 0), ("im", "mean_im", 1)):
            means = np.array([getattr(r, mean) for r in res])
            within = sum((m - 1) * r.cov[cov][cov] for r in res)
            between = m * float(np.sum((means - means.mean()) ** 2))
            pooled_var = (within + between) / (k * m - 1)
            var.append(pooled_var)
            se = math.sqrt(pooled_var / (k * m))
            truth = self.mu if axis == "re" else self.sigma
            if self.minimal_n and not abs(means.mean() - truth) < UNBIASED_SE_MULTIPLE * se:
                out.append(f"{self.key}: pooled mean_{axis} {means.mean()!r} is not within "
                           f"{UNBIASED_SE_MULTIPLE} SE ({se!r}) of {truth!r}")
        if self.nvar_limit:
            n_var = self.n * (var[0] + var[1])
            target = res[0].target_n_var
            rtol = reports[0].nvar_rtol
            if not abs(n_var - target) <= rtol * target:
                out.append(f"{self.key}: pooled n_var {n_var!r} not within "
                           f"{rtol} of {target!r} over {k} requests")
        return out


@dataclass(frozen=True)
class HarmonicConfig:
    """One ``harmonic_identity_check`` request."""

    key: str
    n: int
    reps: int

    @property
    def samples(self):
        return self.n * self.reps

    def run(self, seed):
        return harness.harmonic_identity_check(seed, self.n, self.reps)

    def text(self, report):
        return json.dumps(report.to_dict(), sort_keys=True)

    def problems(self, report, seed):
        if (report.seed, report.n, report.replications) != (seed, self.n, self.reps):
            return [f"{self.key}: report echoes the wrong seed/n/reps"]
        if not _finite(report.statistic, report.critical_value_1pct):
            return [f"{self.key}: non-finite KS statistic"]
        return []

    def pooled_problems(self, reports):
        rejected = sum(not r.passed for r in reports)
        allowed = _binomial_allowance(len(reports), _KS_LEVEL, _KS_RUN_TAIL)
        if rejected > allowed:
            return [f"{self.key}: {rejected} of {len(reports)} KS checks rejected "
                    f"(at most {allowed} expected at the 1% level)"]
        return []


def _binomial_allowance(k, p, tail):
    """Largest f with P(Binomial(k, p) > f) <= tail."""
    cdf = 0.0
    for f in range(k + 1):
        cdf += math.comb(k, f) * p**f * (1 - p) ** (k - f)
        if 1.0 - cdf <= tail:
            return f
    return k


def nvar_limit(estimator, mu, sigma, alpha, points=200_000):
    """Limit of n*Var for C(mu, sigma), computed independently of cqmeans."""
    shifted = complex(mu, sigma) + alpha
    if estimator == "mobius":
        return sigma / alpha.imag * abs(shifted) ** 2
    if estimator == "two_step_mobius":
        return 8.0 * sigma**2
    # geometric: 2 |gamma + alpha|^2 (E[angle(X + alpha)^2] - angle(gamma + alpha)^2),
    # the expectation by the midpoint rule over the Cauchy quantile function
    u = (np.arange(points) + 0.5) / points
    x = mu + sigma * np.tan(np.pi * (u - 0.5))
    mean_sq = float(np.mean(np.arctan2(alpha.imag, x + alpha.real) ** 2))
    theta = math.atan2(shifted.imag, shifted.real)
    return 2.0 * abs(shifted) ** 2 * (mean_sq - theta**2)


@dataclass(frozen=True)
class FileConfig:
    """One ``cqmeans estimate`` request on a prepared sample file."""

    key: str
    path: str
    mu: float
    sigma: float
    flag: str
    alpha: complex
    count: int

    @property
    def samples(self):
        return self.count

    def run(self, seed):
        argv = ["estimate", "--input", self.path, "--estimator", self.flag,
                "--alpha", f"{self.alpha.real!r},{self.alpha.imag!r}"]
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(argv)
        return code, buffer.getvalue()

    def text(self, outcome):
        return f"exit {outcome[0]}\n{outcome[1]}"

    def problems(self, outcome, seed):
        code, text = outcome
        if code != 0:
            return [f"{self.key}: exit code {code}"]
        payload = json.loads(text)
        if payload["n"] != self.count:
            return [f"{self.key}: read {payload['n']} of {self.count} samples"]
        estimator = "two_step_mobius" if self.flag == "two-step" else self.flag
        se = math.sqrt(nvar_limit(estimator, self.mu, self.sigma, self.alpha)
                       / (2.0 * self.count))
        out = []
        for name, truth in (("mu_hat", self.mu), ("sigma_hat", self.sigma)):
            if not abs(payload[name] - truth) <= FILE_SE_MULTIPLE * se:
                out.append(f"{self.key}: {name} {payload[name]!r} is not within "
                           f"{FILE_SE_MULTIPLE} SE ({se!r}) of {truth!r}")
        return out

    def pooled_problems(self, outcomes):
        return []


@dataclass
class Workload:
    name: str
    seed: int
    cycle: tuple
    min_cycles: int
    files: tuple = ()     # (path, mu, sigma) written by prepare()
    count: int = 0

    def request(self, i):
        return self.cycle[i % len(self.cycle)], (self.seed << 20) + i

    def prepare(self):
        """Write the sample files; done before any timing."""
        for j, (path, mu, sigma) in enumerate(self.files):
            rng = np.random.default_rng([self.seed, _FILE_TAG, j])
            x = mu + sigma * rng.standard_cauchy(self.count)
            np.savetxt(path, x, fmt="%.17g",
                       header=f"C({mu!r}, {sigma!r}) sample, {self.count} lines")


def build(name, seed, scale, data_dir):
    """The workload ``name`` for ``seed``; ``data_dir`` holds its input files."""
    if name == "mc-small-n":
        m = scale.mc_reps
        cycle = (
            McConfig("geometric-n2", "geometric", 2.0, 3.0, 1 + 2j, 2, m, True, False),
            McConfig("mobius-n3", "mobius", 2.0, 3.0, 1 + 2j, 3, m, True, False),
            McConfig("mobius-n200", "mobius", 0.0, 1.0, 1j, 200, m, False, True),
            McConfig("two-step-n200", "two_step_mobius", 0.0, 1.0, 1j, 200, m, False, True),
            HarmonicConfig("harmonic-n7", 7, m),
        )
        # the two-step n*Var sits ~5% above its limit at n=200; 8 cycles keep
        # the pooled check 4 standard errors inside the 10% tolerance
        return Workload(name, seed, cycle, scale.min_cycles or 8)
    if name == "mc-large-n":
        n, m = scale.large_n, scale.large_reps
        cycle = (
            McConfig("geometric-0", "geometric", 0.0, 1.0, 0j, n, m, False, True),
            McConfig("geometric-i", "geometric", 0.0, 1.0, 1j, n, m, False, True),
            McConfig("mobius-i", "mobius", 0.0, 1.0, 1j, n, m, False, True),
        )
        # one request's n*Var has a ~7% standard error at 200 replications;
        # 10 pooled requests put the 10% tolerance 4 standard errors out
        return Workload(name, seed, cycle, scale.min_cycles or 10)
    if name == "estimate-file":
        rng = np.random.default_rng([seed, _FILE_TAG])
        estimators = (("geometric", 0j), ("geometric", 1j), ("mobius", 1j), ("two-step", 1j))
        files = tuple(
            (str(data_dir / f"sample-{j}.txt"),
             float(rng.uniform(-3.0, 3.0)), float(rng.uniform(0.5, 2.5)))
            for j in range(len(estimators))
        )
        # one file per estimator keeps the cycle at 4, so each configuration
        # is served often enough for its median latency to be steady
        cycle = tuple(
            FileConfig(f"{flag}-{alpha!r}", path, mu, sigma, flag, alpha, scale.file_samples)
            for (flag, alpha), (path, mu, sigma) in zip(estimators, files)
        )
        # six cycles give the traced run's overhead ratio six ABBA blocks
        return Workload(name, seed, cycle, scale.min_cycles or 6, files, scale.file_samples)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")

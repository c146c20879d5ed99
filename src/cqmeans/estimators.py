"""Point estimators of the joint Cauchy parameter gamma = mu + sigma*i.

Each estimator is a quasi-arithmetic mean of the raw samples and therefore
closed-form: no iteration, no order statistics.  The real part estimates the
location, the imaginary part the scale.

``geometric_estimate``
    Shifted geometric mean prod_j (x_j + alpha)^{1/n} - alpha, defined for
    alpha in the closed upper half plane.  Unbiased from n = 2 on.  For real
    alpha the scale estimate degenerates to exactly zero precisely when all
    shifted samples share one sign, which happens with positive probability;
    ``sign_dichotomy`` exposes that test directly.

``mobius_estimate``
    n / sum_j 1/(x_j + alpha) - alpha for alpha strictly inside the upper
    half plane.  Unbiased from n = 3 on.  Every summand 1/(x_j + alpha) has
    strictly negative imaginary part, so the denominator cannot vanish.

``two_step_mobius``
    Data-driven shift: a pilot Mobius estimate on the first half of the
    sample picks the variance-minimizing shift -mu_hat + sigma_hat*i, and the
    second half is re-estimated at that shift.  The halves are disjoint so
    the second stage stays conditionally unbiased given the pilot.

Each estimator also estimates every row of a (rows, n) sample matrix at
once: called with ``rows=True`` it returns the row estimates and the mask of
the rows that fail.  The estimate of one sample is the one-row case of the
same code, so both give the same bits.  The Monte Carlo harness estimates
its replications that way, a tile of rows per call.

Samples are finite reals, a non-empty 1-d array or, with ``rows=True``, a
non-empty (rows, n) matrix.  ``generators._validate_samples`` refuses
anything else with DomainError before any arithmetic, naming the function
called (``qam`` for one-sample geometric and Mobius estimates).

``KINDS`` is where the estimators are declared: one row per kind with its
command-line flag, its estimator, its n*Var limit for Cauchy samples, the
transform that checks its shift, and its minimum sample counts.  The
harness, the command line and ``EstimateRecord`` read it.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, _validate_number
from .generators import MobiusReciprocal, ShiftedLog, _validate_samples, qam

GEOMETRIC = "geometric"
MOBIUS = "mobius"
TWO_STEP_MOBIUS = "two_step_mobius"
_SCALE_FLOOR = 2.0 ** -26  # the second-stage Im alpha is at least this times the pilot's


@dataclass(frozen=True)
class Kind:
    """The facts about one estimator kind that its callers need."""

    flag: str            # spelling of --estimator on the command line
    function: str        # name of the estimator function, looked up at call time
    limit: str           # name of its Cauchy n*Var limit in ``cauchy``, looked up likewise
    transform: type      # generator whose constructor checks the shift alpha
    min_n: int           # fewest samples the estimator accepts
    min_unbiased_n: int  # fewest samples for which it is unbiased


KINDS = {
    GEOMETRIC: Kind("geometric", "geometric_estimate", "asymptotic_variance_geometric",
                    ShiftedLog, 1, 2),
    MOBIUS: Kind("mobius", "mobius_estimate", "asymptotic_variance_mobius",
                 MobiusReciprocal, 1, 3),
    # 3 samples per half, the Mobius minimum for unbiasedness
    TWO_STEP_MOBIUS: Kind("two-step", "two_step_mobius", "asymptotic_variance_two_step",
                          MobiusReciprocal, 6, 6),
}


def kind_of(kind):
    """The ``KINDS`` row of ``kind``; DomainError if there is none."""
    if kind not in KINDS:
        raise DomainError(f"unknown estimator {kind!r}")
    return KINDS[kind]


@dataclass(frozen=True)
class EstimateRecord:
    """One point estimate with the inputs needed to reproduce it."""

    estimator: str
    alpha: complex
    n: int
    estimate: complex
    degenerate_imaginary: bool

    @property
    def mu_hat(self):
        return self.estimate.real

    @property
    def sigma_hat(self):
        return self.estimate.imag

    @property
    def meets_unbiased_n(self):
        """Whether n is large enough for the estimator's unbiasedness to hold."""
        return self.n >= KINDS[self.estimator].min_unbiased_n


def _record(kind, alpha, samples, estimate):
    return EstimateRecord(
        estimator=kind,
        alpha=complex(alpha),
        n=len(samples),
        estimate=estimate,
        degenerate_imaginary=estimate.imag <= 0.0,
    )


def geometric_estimate(samples, alpha=0.0, *, rows=False):
    """Shifted geometric mean of ``samples`` at shift ``alpha`` (Im >= 0).

    With ``rows=True``, ``samples`` is a finite, non-empty (rows, n) matrix
    and the result is ``(estimates, failed)``: the estimate of every row and
    the mask of the rows with a sample at the pole of a real shift, whose
    estimates are nan.
    """
    if rows:
        return ShiftedLog(alpha)._rows(_validate_samples(samples, "geometric_estimate", 2))
    return _record(GEOMETRIC, alpha, samples, qam(ShiftedLog(alpha), samples))


def mobius_estimate(samples, alpha, *, rows=False):
    """Mobius-reciprocal mean of ``samples`` at shift ``alpha`` (Im > 0).

    With ``rows=True`` as ``geometric_estimate``; a row fails when its
    average is 0.
    """
    if rows:
        return MobiusReciprocal(alpha)._rows(_validate_samples(samples, "mobius_estimate", 2))
    return _record(MOBIUS, alpha, samples, qam(MobiusReciprocal(alpha), samples))


def two_step_mobius(samples, pilot_alpha, *, rows=False):
    """Two-stage Mobius estimate with a data-driven second-stage shift.

    Needs at least 6 samples (3 per half, the minimum for unbiasedness).
    The second stage's scale is the pilot's scale estimate, but at least
    2**-26 Im ``pilot_alpha``.  With ``rows=True`` as
    ``geometric_estimate``; a row fails when a stage's average is 0.
    """
    x = _validate_samples(samples, "two_step_mobius", 2 if rows else 1)
    min_n = KINDS[TWO_STEP_MOBIUS].min_n
    if x.shape[-1] < min_n:
        raise DomainError(f"two_step_mobius: need at least {min_n} samples")
    # the first stage rejects a pilot shift outside the open upper half plane
    stage = MobiusReciprocal(pilot_alpha)
    if rows:
        est, failed, _ = _two_step_rows(x, stage)
        return est, failed
    est, failed, shifts = _two_step_rows(x[np.newaxis], stage)
    if failed[0]:
        raise DomainError("two_step_mobius: a stage's average is 0, outside the image")
    return _record(TWO_STEP_MOBIUS, shifts[0], x, complex(est[0]))


def _two_step_rows(x, stage):
    """Two-step estimates of the rows of ``x``, failed-row mask, second-stage shifts.

    ``stage`` is the Mobius generator at the pilot shift.  The second stage
    takes the shift -Re pilot + i max(Im pilot, ``_SCALE_FLOOR`` Im alpha):
    the floor keeps it in the open upper half plane and continuous in the
    pilot (a 1-ulp change of the pilot moves it by at most 1 ulp), scales
    with the samples and the pilot shift together, and stops binding as n
    grows, so the n*Var limit is unchanged.  The halves go to
    its kernel as views: it adds them, exactly, into its own contiguous
    buffer, so a row in a block and the same row alone give the same bits.
    An overflow in the second stage names the sample by its index in that half.
    """
    half = x.shape[1] // 2
    pilot, failed = stage._rows(x[:, :half])
    shifts = np.full(len(x), stage.alpha)
    kept = ~failed  # a failed pilot is nan and keeps the pilot shift
    shifts.real[kept] = -pilot.real[kept]
    floor = max(_SCALE_FLOOR * stage.alpha.imag, 5e-324)  # positive where the product underflows
    shifts.imag[kept] = np.maximum(pilot.imag[kept], floor)
    est, second_failed = stage._rows(x[:, half:], shifts)
    failed |= second_failed
    est[failed] = np.nan
    return est, failed, shifts


def sign_dichotomy(samples, alpha_real=0.0):
    """True iff all x_i + alpha share one sign.

    For real shifts this is exactly equivalent to the geometric estimate
    having zero imaginary part: the log of each shifted sample contributes an
    angle of exactly 0 or pi, and the mean angle leaves the axis unless all
    contributions agree.  It refuses the samples and the shifts the
    geometric estimate refuses.
    """
    # a real shift, which the transform refuses if it is nan or inf
    transform = ShiftedLog(_validate_number(alpha_real, "sign_dichotomy: alpha_real"))
    # refuses an overflow and a sample at the pole, in the estimate's words
    shifted = transform._shift(_validate_samples(samples, "sign_dichotomy"), "apply")
    return bool(np.all(shifted > 0.0) or np.all(shifted < 0.0))

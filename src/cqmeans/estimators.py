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

``KINDS`` is where the estimators are declared: one row per kind with its
command-line flag, its estimator, the transform that checks its shift, and
its minimum sample counts.  The harness, the command line and
``EstimateRecord`` read it.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError
from .generators import MobiusReciprocal, ShiftedLog, _validate_samples, qam

GEOMETRIC = "geometric"
MOBIUS = "mobius"
TWO_STEP_MOBIUS = "two_step_mobius"


@dataclass(frozen=True)
class Kind:
    """The facts about one estimator kind that its callers need."""

    flag: str            # spelling of --estimator on the command line
    function: str        # name of the estimator function, looked up at call time
    transform: type      # generator whose constructor checks the shift alpha
    min_n: int           # fewest samples the estimator accepts
    min_unbiased_n: int  # fewest samples for which it is unbiased


KINDS = {
    GEOMETRIC: Kind("geometric", "geometric_estimate", ShiftedLog, 1, 2),
    MOBIUS: Kind("mobius", "mobius_estimate", MobiusReciprocal, 1, 3),
    # 3 samples per half, the Mobius minimum for unbiasedness
    TWO_STEP_MOBIUS: Kind("two-step", "two_step_mobius", MobiusReciprocal, 6, 6),
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


def _samples(samples, function, rows):
    """``samples`` as a float array of one dimension, or two with ``rows``.

    DomainError for any other shape: qam would flatten a matrix and n would
    then count its rows.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != (2 if rows else 1):
        shape = "two-dimensional" if rows else "one-dimensional"
        raise DomainError(f"{function}: samples must be {shape}, got {x.ndim} dimensions")
    return x


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

    With ``rows=True``, ``samples`` is a finite (rows, n) matrix and the
    result is ``(estimates, failed)``: the estimate of every row and the mask
    of the rows with a sample at the pole of a real shift, whose estimates
    are nan.
    """
    x = _samples(samples, "geometric_estimate", rows)
    if rows:
        return ShiftedLog(alpha)._rows(x)
    return _record(GEOMETRIC, alpha, x, qam(ShiftedLog(alpha), x))


def mobius_estimate(samples, alpha, *, rows=False):
    """Mobius-reciprocal mean of ``samples`` at shift ``alpha`` (Im > 0).

    With ``rows=True`` as ``geometric_estimate``; a row fails when its
    average is 0.
    """
    x = _samples(samples, "mobius_estimate", rows)
    if rows:
        return MobiusReciprocal(alpha)._rows(x)
    return _record(MOBIUS, alpha, x, qam(MobiusReciprocal(alpha), x))


def two_step_mobius(samples, pilot_alpha, *, rows=False):
    """Two-stage Mobius estimate with a data-driven second-stage shift.

    Needs at least 6 samples (3 per half, the minimum for unbiasedness).
    If the pilot's scale estimate is not positive the pilot shift is reused
    unchanged for the second stage.  With ``rows=True`` as
    ``geometric_estimate``; a row fails when a stage's average is 0.
    """
    x = _samples(samples, "two_step_mobius", rows)
    min_n = KINDS[TWO_STEP_MOBIUS].min_n
    if x.shape[-1] < min_n:
        raise DomainError(f"two_step_mobius: need at least {min_n} samples")
    # the first stage rejects a pilot shift outside the open upper half plane
    stage = MobiusReciprocal(pilot_alpha)
    if rows:
        est, failed, _ = _two_step_rows(x, stage)
        return est, failed
    est, failed, shifts = _two_step_rows(_validate_samples(x)[np.newaxis], stage)
    if failed[0]:
        raise DomainError("two_step_mobius: a stage's average is 0, outside the image")
    return _record(TWO_STEP_MOBIUS, shifts[0], x, complex(est[0]))


def _two_step_rows(x, stage):
    """Two-step estimates of the rows of ``x``, failed-row mask, second-stage shifts.

    ``stage`` is the Mobius generator at the pilot shift.  Each half is made
    contiguous so that a row in a block and the same row alone go through
    the same numpy loops.
    """
    half = x.shape[1] // 2
    pilot, failed = stage._rows(np.ascontiguousarray(x[:, :half]))
    shifts = np.full(len(x), stage.alpha)
    better = pilot.imag > 0  # False where the pilot failed and is nan
    shifts.real[better] = -pilot.real[better]
    shifts.imag[better] = pilot.imag[better]
    est, second_failed = stage._rows(np.ascontiguousarray(x[:, half:]), shifts)
    failed |= second_failed
    est[failed] = np.nan
    return est, failed, shifts


def sign_dichotomy(samples, alpha_real=0.0):
    """True iff all x_i + alpha share one sign.

    For real shifts this is exactly equivalent to the geometric estimate
    having zero imaginary part: the log of each shifted sample contributes an
    angle of exactly 0 or pi, and the mean angle leaves the axis unless all
    contributions agree.
    """
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise DomainError("sign_dichotomy: need at least one sample")
    alpha_real = float(alpha_real)
    shifted = x + alpha_real
    if np.any(shifted == 0.0):
        idx = int(np.flatnonzero(shifted == 0.0)[0])
        raise DomainError(f"sign_dichotomy: singular input at sample {idx}")
    return bool(np.all(shifted > 0.0) or np.all(shifted < 0.0))

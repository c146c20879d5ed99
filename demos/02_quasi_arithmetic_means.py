r"""
Quasi-arithmetic means
----------------------
A quasi-arithmetic mean pushes the samples through a transform f, averages,
and pulls back through f^{-1}.  With complex-valued transforms the mean of
real samples of mixed signs lives in the upper half plane: its real part is a
location summary, its imaginary part a spread summary.
"""
import numpy as np

from cqmeans import MobiusReciprocal, ShiftedLog, qam

#%%
# The plain geometric mean (shifted log with shift 0) of 1 and -1: the two
# logs average to i*pi/2, and the mean is exactly i.
print("geometric mean of (1, -1):", qam(ShiftedLog(0.0), [1.0, -1.0]))

#%%
# Constant samples are fixed points of every mean.
for gen in (ShiftedLog(0.0), MobiusReciprocal(1j)):
    print(f"{gen!r}: mean of five 3.5s = {qam(gen, [3.5] * 5):.12f}")

#%%
# The familiar averaging bound min|x| <= |mean| <= max|x| holds for the plain
# geometric mean of any real samples...
rng = np.random.default_rng(0)
x = rng.standard_cauchy(7)
m = qam(ShiftedLog(0.0), x)
print("samples magnitudes:", np.sort(np.abs(x)))
print("|geometric mean|  :", abs(m))

#%%
# ...but fails spectacularly for the reciprocal mean.  With shift i, the
# pair (b, -b) has mean b^2 * i: far above every sample for b = 10, far below
# for b = 0.1.
print("mean of (10, -10), shift i  :", qam(MobiusReciprocal(1j), [10.0, -10.0]))
print("mean of (0.1, -0.1), shift i:", qam(MobiusReciprocal(1j), [0.1, -0.1]))

#%%
# The shifted-log mean keeps real samples' means in the closed upper half
# plane; that is what makes the imaginary part usable as a scale estimate.
for _ in range(3):
    x = rng.standard_cauchy(11)
    print("Im(mean) =", qam(ShiftedLog(0.0), x).imag, " (>= 0)")

"""The rfft sinusoid fit against the normal equations it replaced.

``_fit_eq1_ref`` is ``fit_eq1`` as it was before the fit was read from
one ``rfft``: a 3x3 normal-equation solve with an ``lstsq`` fallback and
the residual from the fitted values.  On a uniform sample over the whole
circle with at least 2n + 2 points both are the same least-squares fit,
so they differ only by rounding.

Every difference is measured against a unit that rounding scales with:
the sample's rms value s for A, delta and the rms residual, and s / A
radians for phi.  The reference evaluates sin(n theta) at arguments up
to 2 pi n, so its rounding grows with n and the worst cases sit at the
largest N.  Over 20,000 random cases drawn as below (N = 8 .. 4096, odd
N included, n up to (N - 2) // 2, theta_0 offsets, noise, an n + 1
admixture and sub-floor amplitudes) the worst differences were 5.6e-13
in A, 4.6e-14 in delta, 5.9e-13 in the residual and 8.6e-13 in phi,
each in its unit; the bound is 4e-12 for all of them.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from statorlab.analysis import (AMPLITUDE_FLOOR, CircleSample, FitResult,
                                fit_eq1)
from statorlab.errors import DomainError, SamplingError

PROPERTY = settings(max_examples=300, derandomize=True, deadline=None,
                    database=None)
ABS_BOUND = 4e-12   # in units of the sample rms (phi: of rms / A)


def _fit_eq1_ref(sample: CircleSample, n: int) -> FitResult:
    if n < 1 or int(n) != n:
        raise DomainError(f"harmonic n must be an integer >= 1, got {n}")
    need = max(4, 2 * n + 2)
    if sample.count < need:
        raise SamplingError(
            f"{sample.count} samples under-resolve n={n} "
            f"(need at least {need})")
    v = np.asarray(sample.values, dtype=float)
    X = np.column_stack([np.sin(n * sample.theta),
                         np.cos(n * sample.theta),
                         np.ones(sample.count)])
    G = X.T @ X
    rhs = X.T @ v
    try:
        p = np.linalg.solve(G, rhs)
        if not np.all(np.isfinite(p)):
            raise np.linalg.LinAlgError("non-finite solution")
    except np.linalg.LinAlgError:
        p = np.linalg.lstsq(X, v, rcond=None)[0]
    a, b, d = (float(x) for x in p)
    resid = v - X @ p
    rms_residual = float(np.sqrt(np.mean(resid ** 2)))
    A = math.hypot(a, b)
    phi = math.atan2(b, a)
    if phi <= -math.pi:
        phi = math.pi
    if A < max(AMPLITUDE_FLOOR, 1e-12 * max(abs(d), rms_residual)):
        phi = 0.0
    return FitResult(A=A, n=int(n), phi=phi, delta=d,
                     rms_residual=rms_residual)


def _circle(count, theta0, n, amplitude, phase, offset, noise, admix, seed):
    theta = theta0 + (2.0 * math.pi / count) * np.arange(count)
    rng = np.random.default_rng(seed)
    values = amplitude * np.sin(n * theta + phase) + offset
    values += noise * rng.standard_normal(count)
    values += admix * np.cos((n + 1) * theta + rng.uniform(-math.pi, math.pi))
    return CircleSample(radius=1e-2, theta=theta, values=values)


def _below_floor(fit):
    return fit.A < max(AMPLITUDE_FLOOR,
                       1e-12 * max(abs(fit.delta), fit.rms_residual))


def _deviations(sample, n):
    """Each difference of the fit from the reference over its unit (see
    the module docstring)."""
    new, ref = fit_eq1(sample, n), _fit_eq1_ref(sample, n)
    s = float(np.sqrt(np.mean(sample.values ** 2)))
    parts = {"A": (abs(new.A - ref.A), s),
             "delta": (abs(new.delta - ref.delta), s),
             "residual": (abs(new.rms_residual - ref.rms_residual), s)}
    assert _below_floor(new) == _below_floor(ref)
    if _below_floor(ref):
        assert new.phi == ref.phi == 0.0
    else:
        turn = abs(math.remainder(new.phi - ref.phi, 2.0 * math.pi))
        parts["phi"] = (turn, s / ref.A)
    dev = {name: diff / unit if unit else (0.0 if diff <= 0.0 else math.inf)
           for name, (diff, unit) in parts.items()}
    return new, dev


def _check(sample, n):
    new, dev = _deviations(sample, n)
    worst = max(dev, key=dev.get)
    assert dev[worst] <= ABS_BOUND, (worst, dev[worst], sample.count, n)
    return new


@st.composite
def circle_cases(draw):
    count = draw(st.integers(min_value=8, max_value=4096))
    limit = (count - 2) // 2
    n = draw(st.integers(min_value=1, max_value=limit) | st.just(limit))
    theta0 = (draw(st.floats(0.0, 1.0, exclude_max=True))
              * 2.0 * math.pi / count)
    assume(theta0 + (2.0 * math.pi / count) * (count - 1) < 2.0 * math.pi)
    scale = 10.0 ** draw(st.integers(min_value=-9, max_value=2))
    if draw(st.booleans()):
        amplitude = scale * draw(st.floats(0.1, 1.0))
    else:
        amplitude = AMPLITUDE_FLOOR * draw(st.just(0.0) | st.floats(0.01, 0.5))
    case = dict(
        count=count, theta0=theta0, n=n, amplitude=amplitude,
        phase=draw(st.floats(-math.pi, math.pi)),
        offset=scale * draw(st.sampled_from([-1.0, 0.0, 1.0]))
        * draw(st.floats(0.1, 1.0)),
        noise=scale * draw(st.sampled_from([0.0, 1e-12, 1e-6, 0.1])),
        admix=scale * draw(st.sampled_from([0.0, 1e-9, 0.3])),
        seed=draw(st.integers(0, 2 ** 32 - 1)))
    # an all-zero sample has no unit to measure differences in
    assume(any(case[k] for k in ("amplitude", "offset", "noise", "admix")))
    return case


@PROPERTY
@given(circle_cases())
def test_fit_matches_normal_equations(case):
    _check(_circle(**case), case["n"])


@pytest.mark.parametrize("count", [8, 9, 360, 4095, 4096])
@pytest.mark.parametrize("admix", [0.0, 0.3])
def test_fit_at_the_harmonic_limit(count, admix):
    # n = (N - 2) // 2: for even N the n + 1 admixture is the Nyquist bin,
    # which rfft does not fold
    n = (count - 2) // 2
    sample = _circle(count, 0.25 * math.pi / count, n, 1e-7, 0.4, 2e-8,
                     1e-9, 1e-7 * admix, seed=count)
    fit = _check(sample, n)
    assert fit.rms_residual > 0.2e-7 * admix


def test_sub_floor_amplitude_has_no_phase():
    sample = _circle(360, 0.0, 4, 0.3 * AMPLITUDE_FLOOR, 0.4, 1e-7, 0.0,
                     1e-7, seed=1)
    fit = _check(sample, 4)
    assert fit.A < AMPLITUDE_FLOOR
    assert fit.phi == 0.0

"""Every semi-infinite integral's error estimate bounds its error across its domain.

The cases are the Bessel moments at a seeded stride of n up to their bounds
(199 for Si, 200 for Ci), the bounds themselves and ``ci_bessel_integral(196)``,
each against its exact rational value with the difference taken in Fraction;
the four integrals with closed forms, within 1e-12 as well; and
``corollary5_rhs`` against ``corollary5_series`` at a seeded stride of a up to
its bound 400, within the sum of both estimates.  None of them bisects: each
ends with as many panels as it started from.  A moment of order near 400
takes about a second, so the cases are dealt by cost to two subprocesses that
run side by side, each under a timeout.  The two cot-weighted transforms,
a few milliseconds each, run in process at tiny a, on the registry's grid and
up to their bound 4000; so do the Neumann expansions of Si and Ci up to
their bound 570, whose tail bounds carry the rounding of their sums, the
Lemma integrals at a seeded stride of n up to their bounds (1999 and 2000),
the Clausen integrals for k = 0..6 against their closed forms and for
k = 7..63 against their series of beta_n, and every Euler-sum oracle at
every legal index, whose fits stall an order of magnitude below their limit.
"""

import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import mpmath
import pytest

import neumann_sici
from neumann_sici import coeffs, eulersum, harness, neumann, quad, specfun

_SWEEP = r'''
import json, math, random, sys
from fractions import Fraction
from neumann_sici import coeffs, eulersum, quad, specfun
from neumann_sici.neumann import corollary5_series

rng = random.Random(2016)
stride = 50
si = sorted({*range(rng.randrange(stride), 200, stride), 0, 199})
ci = sorted({*range(1 + rng.randrange(stride), 201, stride), 1, 196, 200})
offsets = (rng.uniform(0.0, 100.0) + 100.0 * k for k in range(4))
shifts = sorted({0.0, 0.5, 2.0, 5.0, *offsets, 400.0})
g = specfun.CONSTANTS
closed = {
    "bessel_j1_over_t_integral": 1.0,
    "example2_integral": (math.pi ** 2 / 4.0) * g.log2 - 0.875 * specfun.zeta(3),
    "corollary6_integral": eulersum.corollary6_rhs(),
    "corollary6_intermediate_integral": 3.0 - 4.0 * g.catalan_g,
}


def moment(name, n):
    r = getattr(quad, name)(n)
    exact = coeffs.alpha(n) / (2 * n + 1) if name.startswith("si") else coeffs.beta(n) / (2 * n)
    return float(abs(Fraction(r.value) - exact)), r.abs_err_estimate, math.inf, r


def integral(name):
    r = getattr(quad, name)()
    return abs(r.value - closed[name]), r.abs_err_estimate, 1e-12, r


def shifted(a):
    r, s = quad.corollary5_rhs(a), corollary5_series(a)
    return abs(r.value - s.value), r.abs_err_estimate + s.tail_bound, math.inf, r


# (cost, label, check): the cost grows about like the square of the order or a
cases = [((2 * n + 1) ** 2, f"si_bessel_integral({n})", lambda n=n: moment("si_bessel_integral", n))
         for n in si]
cases += [((2 * n) ** 2, f"ci_bessel_integral({n})", lambda n=n: moment("ci_bessel_integral", n))
          for n in ci]
cases += [(a * a, f"corollary5_rhs({a:g})", lambda a=a: shifted(a)) for a in shifts]
cases += [(0.0, f"{name}()", lambda name=name: integral(name)) for name in closed]
shards, load = ([], []), [0.0, 0.0]
for cost, label, check in sorted(cases, key=lambda c: -c[0]):
    lighter = load.index(min(load))
    shards[lighter].append((label, check))
    load[lighter] += cost
failures, labels = [], []
for label, check in shards[int(sys.argv[1])]:
    diff, estimate, bound, r = check()
    labels.append(label)
    # within its estimate, and met the engine's tol with no bisection
    if not (diff <= min(estimate, bound) and r.subdivisions == r.partitions_used):
        failures.append((label, diff, estimate, r.subdivisions, r.partitions_used))
print(json.dumps({"labels": labels, "failures": failures}))
'''


def test_estimates_bound_the_errors_across_each_domain():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(neumann_sici.__path__[0]))
    start = time.perf_counter()
    procs = [
        subprocess.Popen([sys.executable, "-c", _SWEEP, str(shard)], env=env,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for shard in (0, 1)
    ]
    try:
        outputs = [proc.communicate(timeout=120) for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
    elapsed = time.perf_counter() - start
    labels, failures = [], []
    for proc, (out, err) in zip(procs, outputs):
        assert proc.returncode == 0, err
        result = json.loads(out)
        labels += result["labels"]
        failures += result["failures"]
    assert not failures, failures
    for label in ("si_bessel_integral(199)", "ci_bessel_integral(196)", "ci_bessel_integral(200)",
                  "corollary5_rhs(400)", "example2_integral()", "corollary6_integral()"):
        assert label in labels
    assert len(labels) == len(set(labels)) >= 25
    assert elapsed < 10.0, elapsed


def _gamma_log_minus_ci(a):
    # gamma + log a - Ci(a) cancels below a = 1 in mpmath too; there the
    # entire series sum (-1)^(k+1) a^(2k) / (2k (2k)!) is the reference
    if a < 1:
        return mpmath.nsum(
            lambda k: (-1) ** (k + 1) * a ** (2 * k) / (2 * k * mpmath.factorial(2 * k)),
            [1, mpmath.inf],
        )
    return mpmath.euler + mpmath.log(a) - mpmath.ci(a)


@pytest.mark.parametrize("a", [1e-300, 1e-8, 1e-3, *harness._TRANSFORM_GRID, 100.0, 1000.0, 4000.0])
@pytest.mark.parametrize(
    "transform,exact",
    [(quad.si_transform_integral, mpmath.si), (quad.ci_transform_integral, _gamma_log_minus_ci)],
    ids=["si", "ci"],
)
def test_transform_estimates_bound_their_errors(transform, exact, a):
    result = transform(a)
    with mpmath.workdps(30):
        diff = float(abs(mpmath.mpf(result.value) - exact(mpmath.mpf(a))))
    assert diff <= result.abs_err_estimate, (diff, result.abs_err_estimate)


@pytest.mark.parametrize(
    "a", [1e-300, 1e-8, 1e-3, *harness._EXPANSION_GRID, 100.0, 300.0, neumann._MAX_A]
)
@pytest.mark.parametrize(
    "expansion,exact", [(neumann.si_neumann, mpmath.si), (neumann.ci_neumann, mpmath.ci)],
    ids=["si", "ci"],
)
def test_expansion_bounds_hold_with_their_rounding(expansion, exact, a):
    # ci_neumann(1e-300) reported a tail bound of 0 and was off by 7.8e-14, a
    # rounding of gamma + log a = -690; up to the bound _MAX_A the sums run
    # to 400 terms, whose rounding the bound carries as well
    result = expansion(a)
    with mpmath.workdps(30):
        diff = float(abs(mpmath.mpf(result.value) - exact(mpmath.mpf(a))))
    assert result.converged
    assert diff <= result.tail_bound, (diff, result.tail_bound)


def _strided(low, top, *extra, stride=100):
    # a seeded stride of n from low to top, both ends included, and extra
    rng = random.Random(2016 + low)
    return sorted({*range(low + rng.randrange(stride), top + 1, stride), low, top, *extra})


# The extra n are where the estimate missed by up to 18% while it left out
# the rounding of the abscissae
@pytest.mark.parametrize(
    "integral,ns,exact",
    [(quad.lemma1_integral, _strided(0, 1999, 1233, 1538), coeffs.alpha),
     (quad.lemma3_integral, _strided(1, 2000, 1026, 1234, 1942), coeffs.beta)],
    ids=["lemma1", "lemma3"],
)
def test_lemma_estimates_bound_their_errors(integral, ns, exact):
    # each within its estimate of the exact coefficient, the difference taken
    # in Fraction
    for n in ns:
        r = integral(n)
        diff = float(abs(Fraction(r.value) - exact(n)))
        assert diff <= r.abs_err_estimate, (n, diff, r.abs_err_estimate)


@pytest.mark.parametrize("k", range(7))
def test_clausen_estimates_bound_their_errors(k):
    r = quad.clausen_cot_integral(k)
    if k == 0:
        exact = 1.75 * specfun.CONSTANTS.log2 * specfun.zeta(3)
    else:
        exact = 0.5 * eulersum.corollary3_rhs(2 * k + 2).value
    assert abs(r.value - exact) <= r.abs_err_estimate, (r.value, exact, r.abs_err_estimate)


def test_clausen_estimates_bound_their_errors_past_k_6():
    # The integrand is sum_n (1 - cos 2nt) cot t / n^w, w = 2k + 3, so by
    # Lemma 3 the integral is sum_n beta_n / n^w, summed here in Fraction to
    # n = 12.  As beta_n <= n, the rest is at most sum_(n>12) n^(1-w) <=
    # 12^(2-w) / (w - 2), 4.3e-18 at k = 7.  The closed form 1/2
    # corollary3_rhs(2k+2) is no oracle here: it is off by its own rounding,
    # 5.4e-15 at k = 10 and 5.1e-15 at k = 20, past the integral's estimate
    top = 12
    for k in range(7, 64):
        w = 2 * k + 3
        r = quad.clausen_cot_integral(k)
        series = sum(coeffs.beta(n) / Fraction(n) ** w for n in range(1, top + 1))
        rest = Fraction(top) ** (2 - w) / (w - 2)
        diff = abs(Fraction(r.value) - series)
        assert diff <= Fraction(r.abs_err_estimate) + rest, (k, float(diff), r.abs_err_estimate)


def test_every_oracle_fit_stalls_well_below_its_limit(monkeypatch):
    # an oracle raises once its stall estimate passes _FIT_TOL; at a tenth of
    # it every oracle still returns at every legal index (the largest
    # estimate is 3.6e-13, beta_weighted_sum(1, True))
    monkeypatch.setattr(eulersum, "_FIT_TOL", eulersum._FIT_TOL / 10.0)
    top = specfun._ZETA_ONE
    for name, low in (("euler_sum_oracle", 2), ("nielsen_sum_oracle", 2),
                      ("sitaramachandrarao_h_oracle", 1), ("sitaramachandrarao_a_oracle", 1)):
        for k in range(low, top + 1):
            assert math.isfinite(getattr(eulersum, name)(k))
    for alternating in (False, True):
        for exponent in range(1 if alternating else 2, top + 1):
            assert math.isfinite(eulersum.beta_weighted_sum(exponent, alternating))
    assert math.isfinite(eulersum.catalan_alpha_sum())
    assert math.isfinite(eulersum.catalan_auxiliary_sum())

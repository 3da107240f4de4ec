"""Pure-Python scalar kernels: the reference implementation of the hot path.

Everything here is a pure function of floats returning floats (or a tuple
of them).  ``_core.c`` compiles the functions that the density integrands
call per node (Bessel J, 2F1, a node's band kernels, the outer kernel) and
the helpers they use, one-to-one, and exports the seven kernels Python
calls; the compiled module takes the other 14 (its ``shared[]`` list) from
here, so they are one source on every build.  Public argument validation
lives in the wrapper modules; this layer guards only against the failures
that appear mid-computation (poles, nonconvergence, degenerate connection
formulas) and the non-finite arguments a gamma helper cannot take.

Numerical notes
---------------
* The normalized-Bessel power series is summed exactly in integers: nu and
  x are dyadic rationals, so each term is one integer floor of the exact
  term ratio times the last, summed in fixed point at p = 72 + 1.45|x|
  fraction bits with a bound E on the error (``_series_sum``).  The result
  is S / 2^p, which Python rounds correctly, once S - E and S + E round
  alike; p doubles otherwise.  The series cancels by up to e^|x| below the
  crossover max(25, 2 nu^2), which no fixed float precision holds.
  ``_core.c`` returns its double-double loop's double where a bound on
  its rounding certifies it, and NaN otherwise, where its entry defers.
* Per-order tables (``_Table``): tuples grown 32 rows at a time, replaced
  whole and kept up to 160 rows, the longest the benchmark workloads use.
  ``normalized_bessel_series`` reads the integer denominators
  n (nu_num + n nu_den) of its term ratios from them, the Gauss series and
  the terminating sums their term ratios (a+n)(b+n)/((c+n)(1+n)).  An entry
  is the value the loop would compute, by the same operations, so a kernel
  returns the same double or raises the same error whether its table is
  cold, warm or evicted.  The compiled twin keeps no tables.
* Per-parameter plans.  ``hyp2f1``, ``r_band_core`` and ``r_outer_core``
  look up a plan that holds every decision and constant that does not
  depend on z (the finite, pole, terminating and degenerate checks, the
  Gauss tables, the connection gamma ratios, the kernels' order-only
  factors), built where the kernel first meets each stage and kept once it
  succeeds, so an error is raised where it would be without plans, and on
  every call.  The three share one flow (``_hyp2f1``) and two Gauss loops,
  ``_gauss`` and ``_terminating_series``.
* One memo idiom: ``functools.lru_cache(N, typed=True)`` constructors,
  ``_bessel_table(nu)`` 16, ``_hyp2f1_plan(a, b, c)`` 64, ``_band_plan``
  and ``_outer_plan`` 16 each.  Typed keys keep 1 and 1.0 apart; +0.0 and
  -0.0 share one, which is harmless (a zero rounds alike in nu + n and
  a + n, and is a gamma pole either way); a NaN key hits only for the same
  object.  A constructor that raises keeps nothing, and rows and stages are
  replaced whole, so threads share them without a lock.  Band and outer
  plans keep their 2F1 plans alive after eviction: at most 16 Bessel and
  288 Gauss tables (three in each of up to 96 live 2F1 plans), 1.6 MiB at
  160 rows each, under the 2.5 MiB that ``tests/test_corepy_tables.py``
  measures.
* Band and outer values of the triple-Bessel kernel are evaluated in fused
  form: the Legendre prefactors cancel against the sin/sinh powers
  analytically, so no (1-t^2) or (u^2-1) power is formed near a region
  edge, from the complements (1 -+ cos(theta), u - 1) that callers compute
  stably.  ``band_terms`` gives a density node its band kernels in one
  call, the permuted angles' complements formed from exact excesses.
* Integer offsets.  When nu-mu is an integer n >= 0 (the compact-support
  case 2/a = n, and the R_{mu,mu} term at every a), the band 2F1(nu+1/2,
  1/2-nu; mu+1/2; z) is taken in Euler's form (DLMF 15.8.1),
  (1-z)^(mu-1/2) 2F1(-n, mu+nu; mu+1/2; z): a degree-n polynomial summed
  in n terms (none at n = 0, where it is 1), times a power of the supplied
  complement 1-z = opt/2.  It replaces a Gauss or connection sum of about
  27 terms, and where the direct parameters terminate too (mu and nu
  half-integers) it carries in that power, exactly, the zero of order
  mu-1/2 at z = 1 that their polynomial reaches only by cancellation.
  Every other offset keeps its plan and its bits.
"""

import functools
import math

from .errors import (
    ConvergenceError,
    DegenerateParameterError,
    DomainError,
    PoleError,
    RangeOverflowError,
)

_SQRT_PI = math.sqrt(math.pi)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# (pi^3 / 2)^(1/2), the outer-branch normalization
_SQRT_HALF_PI3 = math.sqrt(0.5 * math.pi ** 3)
_LOG_MAX = 709.0
_NMAX = 4000  # terms of the Gauss series loop, and the cap of the terminating sums

# ---------------------------------------------------------------------------
# gamma-family helpers
# ---------------------------------------------------------------------------


def is_nonpositive_integer(x):
    """True when x is within 1e-12 of an integer <= 0."""
    if x > 0.5:
        return False
    r = round(x)
    return r <= 0 and abs(x - r) <= 1e-12


def log_abs_gamma(x):
    """(log|Gamma(x)|, sign); pole error at nonpositive integers, domain
    error at NaN and -inf."""
    if not x > -math.inf:
        raise DomainError(f"gamma argument x={x!r} must be finite or +inf")
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"gamma pole at x={x!r}")
    # Gamma alternates sign between consecutive negative integers.
    return math.lgamma(x), 1.0 if x > 0.0 or math.floor(-x) % 2 == 1 else -1.0


def gammafn(x):
    """Gamma(x) with sign, via lgamma (overflow saturates to +-inf)."""
    ln, s = log_abs_gamma(x)
    if ln > _LOG_MAX:
        return s * math.inf
    return s * math.exp(ln)


def rgamma(x):
    """1/Gamma(x); exactly 0.0 at (near-)nonpositive-integer arguments."""
    if not x > -math.inf:
        raise DomainError(f"gamma argument x={x!r} must be finite or +inf")
    if is_nonpositive_integer(x):
        return 0.0
    ln, s = log_abs_gamma(x)
    if ln < -_LOG_MAX:
        return 0.0
    return s * math.exp(-ln)


def sinpi(x):
    """sin(pi*x), exact at integers."""
    if not math.isfinite(x):
        raise DomainError(f"sinpi argument x={x!r} must be finite")
    r = round(x)
    s = math.sin(math.pi * (x - r))
    return s if (r % 2 == 0) else -s


def digamma(x):
    """psi(x) by reflection + recurrence + asymptotic tail."""
    if not x > -math.inf:
        raise DomainError(f"digamma argument x={x!r} must be finite or +inf")
    if x <= 0.0:
        if x == math.floor(x):
            raise PoleError(f"digamma pole at x={x!r}")
        # psi(x) = psi(1-x) - pi*cot(pi*x), cot taken at the exact x - round(x)
        return digamma(1.0 - x) - math.pi / math.tan(math.pi * (x - round(x)))
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    # Bernoulli tail B_2k/(2k x^2k), k = 1..7
    tail = inv2 * (1.0 / 12.0
                   - inv2 * (1.0 / 120.0
                             - inv2 * (1.0 / 252.0
                                       - inv2 * (1.0 / 240.0
                                                 - inv2 * (1.0 / 132.0
                                                           - inv2 * (691.0 / 32760.0
                                                                     - inv2 / 12.0))))))
    return acc + math.log(x) - 0.5 / x - tail


# ---------------------------------------------------------------------------
# Per-order tables of the series kernels
# ---------------------------------------------------------------------------


_CHUNK = 32  # rows added to a table at a time
_TABLE_ROWS = 160  # rows a table keeps at most


class _Table:
    """row(*params, i), i = 0, 1, ..., as the tuple ``rows``.  No row raises
    for float parameters that pass their kernel's checks (c off the poles
    for the Gauss ratios).  A table longer than _TABLE_ROWS is used but not
    kept."""

    __slots__ = ("row", "params", "rows")

    def __init__(self, row, *params):
        self.row = row
        self.params = params
        self.rows = ()

    def grown(self, rows, n):
        """rows, a prefix of this table, extended to hold row n (to the next
        multiple of _CHUNK past it)."""
        end = (n // _CHUNK + 1) * _CHUNK
        rows += tuple(self.row(*self.params, i) for i in range(len(rows), end))
        if len(rows) <= _TABLE_ROWS:
            self.rows = rows
        return rows


# ---------------------------------------------------------------------------
# Bessel J and its normalized variant
# ---------------------------------------------------------------------------


def bessel_crossover(nu):
    """Series/asymptotic switch point max(25, 2 nu^2)."""
    return max(25.0, 2.0 * nu * nu)


def _bessel_row(nu_num, nu_den, i):
    """B[n] = n (nu_num + n nu_den) for term n = i+1: the denominator
    n (nu + n) of the term ratio, times nu_den."""
    n = i + 1
    return n * (nu_num + n * nu_den)


@functools.lru_cache(maxsize=16, typed=True)
def _bessel_table(nu):
    """The rows B[n] of normalized_bessel_series at order nu."""
    return _Table(_bessel_row, *nu.as_integer_ratio())


_BESSEL_BITS = 1 << 13  # fraction bits past which the series is given up


def _series_sum(nu, x, p):
    """(S, E): the series of normalized_bessel_series summed in fixed point
    with p fraction bits, S / 2^p within E / 2^p of the exact sum.

    nu and x are dyadic rationals, so the term ratio -(x/2)^2 / (n (nu + n))
    is a / (2^c B[n]) in integers, and each term is one floor of the exact
    ratio times the last, off by less than one unit.  An error carried from
    term k to term n grows by |t_n / t_k| <= max(1, |t_n|): the terms rise
    from t_0 = 1 to the largest, at the last n with n (nu + n) <= (x/2)^2,
    and fall after it.  So term n is off by less than n L units, L the
    largest term, and the first term that floors to 0 lies past L, where the
    tail alternates and falls and is within that term's error: n terms and
    the tail are within (n+2)^2 L / 2.  E is twice that, which also covers a
    top one off where two terms nearly tie.
    """
    table = _bessel_table(nu)
    xn, xd = x.as_integer_ratio()
    a = -xn * xn * table.params[1]
    c = 2 * xd.bit_length()  # 2^c = 4 xd^2
    top = int(0.5 * (math.hypot(nu, x) - nu))
    rows = table.rows
    if top >= len(rows):
        rows = table.grown(rows, top)
    t = s = 1 << p
    for b in rows[:top]:
        t = (t * a >> c) // b
        s += t
    big = abs(t)
    n = top
    while t:
        if n == len(rows):
            rows = table.grown(rows, n)
        for b in rows[n:]:
            t = (t * a >> c) // b
            if not t:
                break
            s += t
            n += 1
    return s, (n + 2) ** 2 * ((big >> (p - 1)) + 1)


def normalized_bessel_series(nu, x):
    """sum_n (-1)^n (x/2)^(2n) / (n! (nu+1)_n), correctly rounded.

    Valid for any finite nu > -1 and finite x; intended for x below the
    asymptotic crossover.  The sum runs in fixed point (_series_sum) at
    p = 72 + 1.45 |x| fraction bits, which covers the e^|x| that the
    alternating terms cancel; the result is fl(S / 2^p) once both ends of
    the error bound round to the same double, and p doubles otherwise.
    """
    if not (-1.0 < nu < math.inf and math.isfinite(x)):
        raise DomainError(f"normalized Bessel series needs a finite order nu > -1 and a "
                          f"finite x (nu={nu!r}, x={x!r})")
    p = 72 + int(min(1.45 * abs(x), _BESSEL_BITS))
    while p <= _BESSEL_BITS:
        s, e = _series_sum(nu, x, p)
        one = 1 << p
        lo = (s - e) / one  # int / int rounds correctly
        if lo == (s + e) / one:
            return lo
        p *= 2
    raise ConvergenceError(f"normalized Bessel series not rounded within {_BESSEL_BITS} "
                           f"bits (nu={nu!r}, x={x!r})")


def bessel_j_asymptotic(nu, x):
    """Hankel large-argument expansion, summed to its smallest term."""
    mu4 = 4.0 * nu * nu
    p = 1.0
    q = 0.0
    ak = 1.0
    prev = math.inf
    k = 1
    while k <= 64:
        f = 2.0 * k - 1.0
        ak *= (mu4 - f * f) / (8.0 * k * x)
        if ak == 0.0:
            break  # half-integer order: expansion terminates exactly
        a = abs(ak)
        if a >= prev:
            break  # past the smallest term: stop before divergence
        sign = -1.0 if (k >> 1) & 1 else 1.0
        if k & 1:
            q += sign * ak
        else:
            p += sign * ak
        if a < 1e-17 * (abs(p) + abs(q)):
            break
        prev = a
        k += 1
    omega = x - (0.5 * nu + 0.25) * math.pi
    return math.sqrt(2.0 / (math.pi * x)) * (math.cos(omega) * p - math.sin(omega) * q)


def bessel_j(nu, x):
    """J_nu(x) for nu > -1, x >= 0."""
    if x == 0.0:
        if nu == 0.0:
            return 1.0
        return 0.0 if nu > 0.0 else math.inf
    if x <= bessel_crossover(nu):
        s = normalized_bessel_series(nu, x)
        # (x/2)^nu / Gamma(nu+1) times the normalized series; Gamma(nu+1) > 0
        return math.pow(0.5 * x, nu) * math.exp(-math.lgamma(nu + 1.0)) * s
    return bessel_j_asymptotic(nu, x)


def normalized_bessel_j(nu, x):
    """Gamma(nu+1) (x/2)^(-nu) J_nu(x); equals 1 at x = 0."""
    if x == 0.0:
        return 1.0
    if x <= bessel_crossover(nu):
        return normalized_bessel_series(nu, x)
    pref = math.exp(math.lgamma(nu + 1.0) - nu * math.log(0.5 * x))
    return pref * bessel_j_asymptotic(nu, x)


# ---------------------------------------------------------------------------
# Gauss hypergeometric 2F1 on [0, 1)
# ---------------------------------------------------------------------------


def _gauss_ratio(a, b, c, n):
    """Term ratio of the Gauss series at z = 1 (DLMF 15.2.1)."""
    return (a + n) * (b + n) / ((c + n) * (1.0 + n))


def _gauss_table(a, b, c):
    """The term ratios of the Gauss series of (a, b, c)."""
    return _Table(_gauss_ratio, a, b, c)


def _gauss(table, z):
    """Gauss series of the parameters of a _gauss_table; returns (value, err)."""
    ratios = table.rows
    term = s = abssum = 1.0
    comp = 0.0
    n = 0
    while n < _NMAX:
        if n == len(ratios):
            ratios = table.grown(ratios, n)
        for ratio in ratios[n:_NMAX]:
            term *= ratio * z
            if term == 0.0:
                return s + comp, 1e-16 * abssum
            y = term - comp
            t = s + y
            comp = (t - s) - y
            s = t
            at = term if term > 0.0 else -term
            abssum += at
            n += 1
            if n > 4 and at <= 1e-17 * (s if s > 0.0 else -s):
                if n == len(ratios):
                    ratios = table.grown(ratios, n)
                rho = abs(ratios[n] * z)
                tail = at * rho / (1.0 - rho) if rho < 1.0 else at * 10.0
                return s, tail + 1e-16 * abssum
    a, b, c = table.params
    raise ConvergenceError(
        f"2F1 series did not converge (a={a!r}, b={b!r}, c={c!r}, z={z!r})")


def gauss_series(a, b, c, z):
    """Plain Gauss series with Kahan compensation, on its 2F1 plan's table;
    returns (value, err)."""
    return _gauss(_hyp2f1_plan(a, b, c).table, z)


def _terminating_series(plan, z, nterms):
    """The Gauss series of a plan, in its nterms >= 1 terms; (value, err)."""
    ratios = plan.table.rows
    if nterms > len(ratios):
        ratios = plan.table.grown(ratios, nterms - 1)
    term = s = abssum = 1.0
    comp = 0.0
    for ratio in ratios[:nterms]:
        term *= ratio * z
        y = term - comp
        t = s + y
        comp = (t - s) - y
        s = t
        abssum += abs(term)
    err = 1e-16 * abssum
    # no digit is known when the rounding bound exceeds both the sum and the
    # first term, 1 (an exact zero of a short polynomial stays a value)
    if not (math.isfinite(s) and (err < abs(s) or err < 1.0)):
        a, b, c = plan.abc
        raise ConvergenceError(
            f"terminating 2F1 series lost every digit to cancellation "
            f"(a={a!r}, b={b!r}, c={c!r}, z={z!r})")
    return s, err


def _gamma_ratio(num, den):
    """prod Gamma(num_i) / prod Gamma(den_j), 0.0 when a denominator poles."""
    ln = 0.0
    sign = 1.0
    for v in num:
        if is_nonpositive_integer(v):
            raise PoleError(f"gamma pole at {v!r} in coefficient")
        l, s = log_abs_gamma(v)
        ln += l
        sign *= s
    for v in den:
        if is_nonpositive_integer(v):
            return 0.0
        l, s = log_abs_gamma(v)
        ln -= l
        sign *= s
    if ln > _LOG_MAX:
        raise RangeOverflowError("gamma ratio overflow in 2F1 connection formula")
    return sign * math.exp(ln)


class _Hyp2f1Plan:
    """The z-independent part of 2F1(a, b; c; z), in the order hyp2f1 takes it.

    The finite and pole checks are the first things hyp2f1 does, so they are made here.
    The later stages are built on the call that first reaches them and kept
    once they succeed: nterms (-1 for a series that does not terminate) after
    the range checks on z, the connection parameters on the first z > 1/2,
    and the connection gamma ratios after its two series.
    """

    __slots__ = ("abc", "table", "nterms", "conn", "ratios")

    def __init__(self, a, b, c):
        if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
            raise DomainError(f"2F1 parameters must be finite (a={a!r}, b={b!r}, c={c!r})")
        if is_nonpositive_integer(c):
            raise PoleError(f"2F1 parameter c={c!r} is a nonpositive integer")
        self.abc = a, b, c
        self.table = _gauss_table(a, b, c)
        self.nterms = self.conn = self.ratios = None

    def terminating(self):
        """n when a or b is the nonpositive integer -n, else -1; an n past
        the term cap raises ConvergenceError."""
        for par in self.abc[:2]:
            if is_nonpositive_integer(par):
                n = -round(par)
                if n > _NMAX:
                    a, b, c = self.abc
                    raise ConvergenceError(
                        f"terminating 2F1 series would take {n} terms, past the cap of "
                        f"{_NMAX} (a={a!r}, b={b!r}, c={c!r})")
                return n
        return -1

    def connection(self):
        """c-a-b and the tables of the two series in w = 1-z."""
        a, b, c = self.abc
        d = c - a - b
        if abs(d - round(d)) < 1e-8:
            raise DegenerateParameterError(
                f"2F1 connection formula degenerate: c-a-b={d!r} is (near) an integer")
        return d, _gauss_table(a, b, a + b - c + 1.0), _gauss_table(c - a, c - b, d + 1.0)

    def gamma_ratios(self, d):
        a, b, c = self.abc
        return _gamma_ratio((c, d), (c - a, c - b)), _gamma_ratio((c, -d), (a, b))


_hyp2f1_plan = functools.lru_cache(maxsize=64, typed=True)(_Hyp2f1Plan)


def _hyp2f1(plan, z, zc):
    """hyp2f1 at z through the plan of its parameters."""
    if z == 0.0:
        return 1.0, 0.0
    if z < 0.0:
        # tolerate roundoff from complement arithmetic at region edges
        if z > -1e-12:
            return 1.0, 1e-12
        raise DomainError(f"2F1 argument z={z!r} outside [0, 1)")
    if z >= 1.0 and not (zc is not None and zc > 0.0):
        raise DomainError(f"2F1 argument z={z!r} outside [0, 1)")
    n = plan.nterms
    if n is None:
        n = plan.nterms = plan.terminating()
    if n >= 0:
        return _terminating_series(plan, z, n) if n else (1.0, 1e-16)
    if z <= 0.5:
        return _gauss(plan.table, z)
    w = zc if zc is not None else 1.0 - z
    conn = plan.conn
    if conn is None:
        conn = plan.conn = plan.connection()
    d, table1, table2 = conn
    f1, e1 = _gauss(table1, w)
    f2, e2 = _gauss(table2, w)
    ratios = plan.ratios
    if ratios is None:
        ratios = plan.ratios = plan.gamma_ratios(d)
    c1, g2 = ratios
    try:
        c2 = g2 * math.pow(w, d)
    except OverflowError:
        raise RangeOverflowError(f"(1-z)^(c-a-b) overflow in 2F1 connection formula "
                                 f"(1-z={w!r}, c-a-b={d!r})") from None
    val = c1 * f1 + c2 * f2
    err = abs(c1) * e1 + abs(c2) * e2 + 2e-16 * (abs(c1 * f1) + abs(c2 * f2))
    return val, err


def hyp2f1(a, b, c, z, zc=None):
    """2F1(a, b; c; z) for z in [0, 1); returns (value, est_error).

    ``zc`` may supply an accurately computed 1-z; callers sitting close to
    z = 1 (quadrature near a region edge) need this because forming 1-z by
    subtraction would lose every significant digit there.

    Terminating series (a or b a nonpositive integer) are summed directly
    for any z.  Otherwise the Gauss series handles z <= 1/2, and the linear
    connection formula handles z > 1/2; when c-a-b is within 1e-8 of an
    integer that path is degenerate and an explicit error is raised.
    """
    return _hyp2f1(_hyp2f1_plan(a, b, c), z, zc)


# ---------------------------------------------------------------------------
# Legendre functions
# ---------------------------------------------------------------------------


def _legendre_p0_log(nu, zf, w):
    """Ordinary Legendre P_nu(t) for zf = (1-t)/2 > 1/2, non-integer degree.

    Degenerate (c = a+b) connection series with digamma terms; w = (1+t)/2
    is the accurately-known complement.
    """
    a = nu + 1.0
    b = -nu
    # 1/(Gamma(a) Gamma(b)) with sign
    la, sa = log_abs_gamma(a)
    lb, sb = log_abs_gamma(b)
    g = sa * sb * math.exp(-(la + lb))
    lnw = math.log(w)
    psi_n1 = digamma(1.0)
    psi_an = digamma(a)
    psi_bn = digamma(b)
    coef = 1.0
    s = 0.0
    wn = 1.0
    for n in range(0, 400):
        if n > 0:
            coef *= (a + n - 1.0) * (b + n - 1.0) / (n * n)
            wn *= w
            psi_n1 += 1.0 / n
            psi_an += 1.0 / (a + n - 1.0)
            psi_bn += 1.0 / (b + n - 1.0)
        term = coef * wn * (2.0 * psi_n1 - psi_an - psi_bn - lnw)
        s += term
        if n > 3 and abs(term) <= 1e-17 * abs(s):
            return g * s
    raise ConvergenceError(f"Legendre log-series did not converge (nu={nu!r})")


def legendre_p(mu, nu, t):
    """Associated Legendre P^mu_nu(t) on the cut, t in (-1, 1]."""
    if not (math.isfinite(mu) and math.isfinite(nu)):
        raise DomainError(f"legendre_p order and degree must be finite (mu={mu!r}, nu={nu!r})")
    if not -1.0 < t <= 1.0:
        raise DomainError(f"legendre_p argument t={t!r} outside (-1, 1]")
    if is_nonpositive_integer(1.0 - mu):
        raise PoleError(f"legendre_p order mu={mu!r} makes 1-mu a nonpositive integer")
    if nu < -0.5:
        nu = -1.0 - nu  # degree reflection P^mu_nu = P^mu_{-1-nu}
    if t == 1.0:
        if mu == 0.0:
            return 1.0
        if mu < 0.0:
            return 0.0
        raise RangeOverflowError(
            f"legendre_p prefactor ((1+t)/(1-t))^(mu/2) diverges at t=1 for mu={mu!r}>0")
    zf = 0.5 * (1.0 - t)
    w = 0.5 * (1.0 + t)
    if abs(mu) < 1e-13:
        r = round(nu)
        if abs(nu - r) < 1e-12 and r >= 0:
            if r > _NMAX:
                raise ConvergenceError(
                    f"Legendre recurrence would take {r} terms, past the cap of {_NMAX}")
            return gegenbauer(r, 0.5, t)  # P_n = C_n^(1/2)
        if zf <= 0.5:
            val, _ = hyp2f1(nu + 1.0, -nu, 1.0, zf)
            return val
        return _legendre_p0_log(nu, zf, w)
    f, _ = hyp2f1(nu + 1.0, -nu, 1.0 - mu, zf, zc=w)
    lg, sg = log_abs_gamma(1.0 - mu)
    # ((1+t)/(1-t))^(mu/2) = ((1+t)/2)^(mu/2) * ((1-t)/2)^(-mu/2)
    ln_pref = 0.5 * mu * (math.log(w) - math.log(zf)) - lg
    if ln_pref > _LOG_MAX:
        raise RangeOverflowError(
            f"legendre_p prefactor overflow: mu={mu!r}, t={t!r} too close to 1")
    return sg * math.exp(ln_pref) * f


def legendre_q_phase_free(mu, nu, t):
    """e^(-mu pi i) Q^mu_nu(t) for t > 1: the real, phase-stripped value."""
    if not (math.isfinite(mu) and math.isfinite(nu)):
        raise DomainError(f"legendre_q order and degree must be finite (mu={mu!r}, nu={nu!r})")
    if t <= 1.0:
        raise DomainError(f"legendre_q argument t={t!r} must exceed 1")
    if is_nonpositive_integer(nu + 1.5):
        raise PoleError(f"legendre_q degree nu={nu!r} makes nu+3/2 a nonpositive integer")
    if is_nonpositive_integer(mu + nu + 1.0):
        raise PoleError(f"legendre_q parameters: mu+nu+1={mu + nu + 1.0!r} at a gamma pole")
    tm1 = t - 1.0
    tp1 = t + 1.0
    z = 1.0 / (t * t)
    zc = tm1 * tp1 * z
    f, _ = hyp2f1(0.5 * (mu + nu) + 1.0, 0.5 * (mu + nu + 1.0), nu + 1.5, z, zc=zc)
    l1, s1 = log_abs_gamma(mu + nu + 1.0)
    l2, s2 = log_abs_gamma(nu + 1.5)
    ln = (0.5 * math.log(math.pi) + l1 - l2
          + 0.5 * mu * (math.log(tm1) + math.log(tp1))
          - (nu + 1.0) * math.log(2.0)
          - (mu + nu + 1.0) * math.log(t))
    if ln > _LOG_MAX:
        raise RangeOverflowError(f"legendre_q prefactor overflow at mu={mu!r}, t={t!r}")
    return s1 * s2 * math.exp(ln) * f


def gegenbauer(n, mu, t):
    """Gegenbauer polynomial C_n^mu(t) by the three-term recurrence."""
    if n == 0:
        return 1.0
    cm1 = 1.0
    c = 2.0 * mu * t
    for j in range(2, n + 1):
        cm1, c = c, (2.0 * t * (j + mu - 1.0) * c - (j + 2.0 * mu - 2.0) * cm1) / j
    return c


# ---------------------------------------------------------------------------
# Triple-Bessel (Macdonald) kernel branch values, fused forms
# ---------------------------------------------------------------------------
#
# Band:   R = (xy)^(mu-1) (1-t)^(mu-1/2)
#             * 2F1(nu+1/2, 1/2-nu; mu+1/2; (1-t)/2) / (sqrt(2 pi) z^mu G(mu+1/2))
# Outer:  R = sin((nu-mu) pi) (xy)^(mu-1) sqrt(pi) G(nu-mu+1)
#             * 2F1((nu-mu)/2+1, (nu-mu+1)/2; nu+1; 1/u^2)
#             / ( sqrt(pi^3/2) z^mu 2^(nu+1/2) G(nu+1) u^(nu-mu+1) )
#
# Both follow from inserting the hypergeometric representations of P and Q
# and cancelling the sin/sinh powers against the Legendre prefactors; the
# cancellation is exact, which is also what makes the outer value real.


class _BandPlan:
    """The order-only part of r_band_core, once the orders are finite: its
    2F1 plan, whether that is the Euler form (nu-mu an integer n >= 0 by
    _OuterPlan.zero's test; see "Integer offsets" above), mu-1, mu-1/2 and
    Gamma(mu+1/2), the last built after the first call's powers."""

    __slots__ = ("hyp", "euler", "mu1", "muh", "gm")

    def __init__(self, mu, nu):
        if not (math.isfinite(mu) and math.isfinite(nu)):
            raise DomainError(f"Macdonald orders must be finite (mu={mu!r}, nu={nu!r})")
        self.euler = is_nonpositive_integer(mu - nu)
        if self.euler:
            self.hyp = _hyp2f1_plan(mu - nu, mu + nu, mu + 0.5)
        else:
            self.hyp = _hyp2f1_plan(nu + 0.5, 0.5 - nu, mu + 0.5)
        self.mu1 = mu - 1.0
        self.muh = mu - 0.5
        self.gm = None


_band_plan = functools.lru_cache(maxsize=16, typed=True)(_BandPlan)


def r_band_core(mu, nu, xa, ya, za, omt, opt):
    """Band value of R_{mu,nu}(xa, ya, za) given omt = 1-cos(theta), opt = 1+cos(theta)."""
    plan = _band_plan(mu, nu)
    f, _ = _hyp2f1(plan.hyp, 0.5 * omt, 0.5 * opt)
    if plan.euler:
        f *= math.pow(0.5 * opt, plan.muh)
    num = math.pow(xa * ya, plan.mu1) * math.pow(omt, plan.muh) * f
    den = _SQRT_2PI * math.pow(za, mu)
    gm = plan.gm
    if gm is None:
        gm = plan.gm = math.exp(math.lgamma(mu + 0.5))
    return num / (den * gm)


# band_terms' mask: its four kernels, and R_{mu,mu} at (xa, za, ya) in place
# of (xa, ya, za)
BAND_MM, BAND_XY, BAND_XZ, BAND_YZ, BAND_MM_AT_XZ = 1, 2, 4, 8, 16


def band_terms(mu, nu, xa, ya, za, omt, opt, mask):
    """A density node's band kernels (R_{mu,mu}, R(xa, ya, za), R(xa, za, ya),
    R(ya, za, xa)), R = R_{mu,nu}, each 0.0 unless mask asks for it, taken by
    r_band_core in that order (the first to fail raises); R_{mu,mu} is taken
    at (xa, za, ya) under BAND_MM_AT_XZ.  The complements of the angle
    between xa and ya are (omt, opt), the other two angles' come from the
    triple's exact excesses."""
    r = r_band_core
    rm = rxy = rxz = ryz = 0.0
    mm_xz = mask & BAND_MM and mask & BAND_MM_AT_XZ
    if mm_xz or mask & (BAND_XZ | BAND_YZ):
        twoxy, s, dm = 2.0 * xa * ya, xa + ya + za, abs(xa - ya)
        ez = twoxy * opt / s                    # xa + ya - za
        lo = twoxy * omt / (za + dm)            # za - |xa - ya|
        # the angle between sides a and b has complements (ea eb, ec s) / 2ab by
        # the excesses ea = b + c - a, eb = a + c - b, ec = a + b - c.  Of xa and
        # ya the larger has excess lo, the smaller dm + za (at xa = ya each permuted
        # kernel gives its own first side dm + za: the two round differently)
        if mm_xz or mask & BAND_XZ:
            ex, ey = (dm + za, lo) if ya >= xa else (lo, dm + za)
            ab2 = 2.0 * xa * za
            xo, xp = ex * ez / ab2, ey * s / ab2
        if mask & BAND_YZ:
            ey, ex = (dm + za, lo) if xa >= ya else (lo, dm + za)
            ab2 = 2.0 * ya * za
            yo, yp = ey * ez / ab2, ex * s / ab2
    if mask & BAND_MM:
        rm = r(mu, mu, xa, za, ya, xo, xp) if mm_xz else r(mu, mu, xa, ya, za, omt, opt)
    if mask & BAND_XY:
        rxy = r(mu, nu, xa, ya, za, omt, opt)
    if mask & BAND_XZ:
        rxz = r(mu, nu, xa, za, ya, xo, xp)
    if mask & BAND_YZ:
        ryz = r(mu, nu, ya, za, xa, yo, yp)
    return rm, rxy, rxz, ryz


class _OuterPlan:
    """The order-only part of r_outer_core, in the order it is taken: that
    the orders are finite, whether nu-mu is an integer n >= 0 (the value is
    then 0), sin((mu-nu) pi), delta+1, mu-1 and (nu+1/2) log 2; the 2F1 plan
    after the first u that does not underflow the value, and then (sign
    Gamma(delta+1), log|Gamma(delta+1)| - log Gamma(nu+1)).  Within 1e-12 of
    a negative integer nu-mu, where sin((mu-nu) pi) vanishes on a pole of
    Gamma(delta+1), their product is taken by reflection as pi/Gamma(mu-nu):
    sd is pi and the gamma terms are those of 1/Gamma(mu-nu)."""

    __slots__ = ("zero", "delta", "reflect", "sd", "dp1", "mu1", "l2", "abc", "hyp",
                 "gammas")

    def __init__(self, mu, nu):
        if not (math.isfinite(mu) and math.isfinite(nu)):
            raise DomainError(f"Macdonald orders must be finite (mu={mu!r}, nu={nu!r})")
        delta = nu - mu
        # an overflowed delta is no integer, and sinpi refuses mu - nu, as in _core.c
        self.zero = math.isfinite(delta) and is_nonpositive_integer(mu - nu)
        if self.zero:
            return
        self.delta = delta
        self.sd = sinpi(mu - nu)
        self.reflect = abs(delta - round(delta)) <= 1e-12
        if self.reflect:
            self.sd = math.pi
        self.dp1 = delta + 1.0
        self.mu1 = mu - 1.0
        self.l2 = (nu + 0.5) * math.log(2.0)
        self.abc = (0.5 * delta + 1.0, 0.5 * (delta + 1.0), nu + 1.0)
        self.hyp = self.gammas = None

    def gamma_terms(self, mu, nu):
        if self.reflect:
            lgd, sgd = log_abs_gamma(mu - nu)
            lgd = -lgd
        else:
            lgd, sgd = log_abs_gamma(self.delta + 1.0)
        return sgd, lgd - math.lgamma(nu + 1.0)


_outer_plan = functools.lru_cache(maxsize=16, typed=True)(_OuterPlan)


def r_outer_core(mu, nu, xa, ya, za, u, um1):
    """Outer value of R_{mu,nu}(xa, ya, za) given u = cosh(theta) and um1 = u-1;
    an um1 that is not > 0, which no outer triple has, raises DomainError.

    The sign factor is sin((mu-nu) pi): fixed against direct evaluation of
    the defining triple-Bessel integral (the printed closed form carries the
    opposite sign, which fails that comparison and breaks the mass
    normalization of the product density).
    """
    plan = _outer_plan(mu, nu)
    if plan.zero:
        return 0.0
    if not um1 > 0.0:
        raise DomainError(f"outer kernel needs u - 1 > 0 (um1={um1!r})")
    ln_u = plan.dp1 * math.log(u)
    if ln_u > _LOG_MAX:
        return 0.0  # value underflows: u^-(nu-mu+1) below double range
    z = 1.0 / (u * u)
    zc = um1 * (u + 1.0) * z
    hyp = plan.hyp
    if hyp is None:
        hyp = plan.hyp = _hyp2f1_plan(*plan.abc)
    f, _ = _hyp2f1(hyp, z, zc)
    gammas = plan.gammas
    if gammas is None:
        gammas = plan.gammas = plan.gamma_terms(mu, nu)
    sgd, lg = gammas
    coef = sgd * math.exp(lg - ln_u - plan.l2)
    return (plan.sd * math.pow(xa * ya, plan.mu1) * _SQRT_PI * coef * f
            / (_SQRT_HALF_PI3 * math.pow(za, mu)))


def _band_complements(xa, ya, za):
    """(1-cos(theta), 1+cos(theta)) of a raw band triple (|xa-ya| < za < xa+ya)."""
    twoxy = 2.0 * xa * ya
    d = xa - ya
    s = xa + ya
    return (za - d) * (za + d) / twoxy, (s - za) * (s + za) / twoxy


def r_band(mu, nu, xa, ya, za):
    """Band value from a raw triple (|xa-ya| < za < xa+ya)."""
    return r_band_core(mu, nu, xa, ya, za, *_band_complements(xa, ya, za))


def r_outer(mu, nu, xa, ya, za):
    """Outer value from a raw triple (za > xa+ya)."""
    twoxy = 2.0 * xa * ya
    if twoxy == 0.0:
        raise DomainError(f"outer triple needs 2 xa ya != 0 (xa={xa!r}, ya={ya!r})")
    s = xa + ya
    um1 = (za - s) * (za + s) / twoxy
    return r_outer_core(mu, nu, xa, ya, za, 1.0 + um1, um1)


def r_gegenbauer_band(mu, n, xa, ya, za):
    """Band value in the integer-offset case nu = mu + n, via C_n^mu."""
    if not math.isfinite(mu):
        raise DomainError(f"Gegenbauer band order must be finite (mu={mu!r})")
    omt, opt = _band_complements(xa, ya, za)
    ct = 1.0 - omt
    if ct < -1.0:
        ct = -1.0
    elif ct > 1.0:
        ct = 1.0
    ln_coef = ((0.5 - mu) * math.log(2.0) + math.lgamma(2.0 * mu) + math.lgamma(n + 1.0)
               - math.lgamma(n + 2.0 * mu) - math.lgamma(mu + 0.5))
    return (math.exp(ln_coef) * math.pow(xa * ya, mu - 1.0)
            * math.pow(omt * opt, mu - 0.5) * gegenbauer(n, mu, ct)
            / (_SQRT_2PI * math.pow(za, mu)))

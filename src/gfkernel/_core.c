/* Compiled twin of gfkernel._corepy: the same scalar kernels, by the same
   algorithms, raising the same errors, as a CPython extension.

   Each kernel follows its _corepy namesake operation for operation, but
   for normalized_bessel_series: _corepy sums it exactly in integers, and
   here a double-double loop returns the same double where it can certify
   it and calls _corepy where it cannot.  The pure core's per-order tables
   and per-parameter plans hold values that this file recomputes, by the
   same operations, on every call; here that work is a few cycles.  Build
   with -ffp-contract=off: the double-double loop's bound relies on exact
   IEEE multiply and add rounding, which fused contraction breaks.

   A kernel that fails sets the Python exception (the gfkernel.errors class
   and the message _corepy raises) and returns -1.0.  -1.0 is also a valid
   value, so a caller tests PyErr_Occurred() after each call that can fail;
   calls whose errors an earlier check excludes go untested.  fail() keeps
   an exception already set, so the first error is the one reported. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>  /* with stdio.h and string.h */
#include <math.h>
#include <stdarg.h>

/* the doubles _corepy computes for these at import */
#define PI 0x1.921fb54442d18p+1
#define SQRT_PI 0x1.c5bf891b4ef6ap+0        /* math.sqrt(math.pi) */
#define SQRT_2PI 0x1.40d931ff62705p+1       /* math.sqrt(2.0 * math.pi) */
#define SQRT_HALF_PI3 0x1.f7fccdff344acp+1  /* math.sqrt(0.5 * math.pi ** 3) */
#define LOG_PI 0x1.250d048e7a1bdp+0         /* math.log(math.pi) */
#define LOG_2 0x1.62e42fefa39efp-1          /* math.log(2.0) */
#define LOG_MAX 709.0
#define SPLITTER 134217729.0  /* 2^27 + 1, Dekker split constant */
#define BESSEL_TERMS 600
#define NMAX 4000  /* terms of the Gauss loop, and the cap of the terminating sums */

static PyObject *ConvergenceError, *DegenerateParameterError, *DomainError,
    *PoleError, *RangeOverflowError;

/* Set exception cls with message fmt, where %r takes a double and writes its
   repr, and %d takes an integer-valued double and writes it in full (as
   Python prints the int).  Returns -1.0. */
static double fail(PyObject *cls, const char *fmt, ...)
{
    char buf[1024], *s;
    size_t k = 0, m;
    va_list ap;
    va_start(ap, fmt);
    for (; *fmt && k < sizeof buf - 1; fmt++) {
        if (*fmt != '%') {
            buf[k++] = *fmt;
            continue;
        }
        fmt++;
        s = PyOS_double_to_string(va_arg(ap, double), *fmt == 'r' ? 'r' : 'f', 0,
                                  *fmt == 'r' ? Py_DTSF_ADD_DOT_0 : 0, NULL);
        if (s == NULL) break;
        m = strlen(s);
        if (m > sizeof buf - 1 - k) m = sizeof buf - 1 - k;
        memcpy(buf + k, s, m);
        k += m;
        PyMem_Free(s);
    }
    va_end(ap);
    buf[k] = '\0';
    if (!PyErr_Occurred())
        PyErr_SetString(cls, buf);
    return -1.0;
}

/* ---- gamma-family helpers ---- */

/* True when x is within 1e-12 of an integer <= 0; rint rounds half to even,
   as Python's round does. */
static int is_nonpositive_integer(double x)
{
    double r;
    if (x > 0.5) return 0;
    r = rint(x);
    return r <= 0.0 && fabs(x - r) <= 1e-12;
}

/* Sign of Gamma(x); raises on poles. */
static double gamma_sign(double x)
{
    if (x > 0.0) return 1.0;
    if (x == floor(x)) return fail(PoleError, "gamma pole at x=%r", x);
    /* Gamma alternates sign between consecutive negative integers. */
    return fmod(floor(-x), 2.0) == 1.0 ? 1.0 : -1.0;
}

/* log|Gamma(x)| into *ln, and the sign of Gamma(x); pole error at
   nonpositive integers. */
static double log_abs_gamma(double x, double *ln)
{
    if (x <= 0.0 && x == floor(x)) return fail(PoleError, "gamma pole at x=%r", x);
    *ln = lgamma(x);
    return gamma_sign(x);
}

static double gammafn(double x)
{
    double ln, s = log_abs_gamma(x, &ln);
    if (PyErr_Occurred()) return -1.0;
    if (ln > LOG_MAX) return s * INFINITY;
    return s * exp(ln);
}

static double rgamma(double x)
{
    double ln, s;
    if (is_nonpositive_integer(x)) return 0.0;
    s = log_abs_gamma(x, &ln);
    if (ln < -LOG_MAX) return 0.0;
    return s * exp(-ln);
}

static double sinpi(double x)
{
    double r = rint(x), s = sin(PI * (x - r));
    return fmod(r, 2.0) == 0.0 ? s : -s;
}

static double digamma(double x)
{
    double acc = 0.0, inv2, tail;
    if (x <= 0.0) {
        if (x == floor(x)) return fail(PoleError, "digamma pole at x=%r", x);
        /* psi(x) = psi(1-x) - pi*cot(pi*x) */
        return digamma(1.0 - x) - PI / tan(PI * x);
    }
    while (x < 10.0) {
        acc -= 1.0 / x;
        x += 1.0;
    }
    inv2 = 1.0 / (x * x);
    /* Bernoulli tail B_2k/(2k x^2k), k = 1..7 */
    tail = inv2 * (1.0 / 12.0
                   - inv2 * (1.0 / 120.0
                             - inv2 * (1.0 / 252.0
                                       - inv2 * (1.0 / 240.0
                                                 - inv2 * (1.0 / 132.0
                                                           - inv2 * (691.0 / 32760.0
                                                                     - inv2 / 12.0))))));
    return acc + log(x) - 0.5 / x - tail;
}

/* ---- Bessel J and its normalized variant ---- */

static double bessel_crossover(double nu)
{
    double c = 2.0 * nu * nu;
    return c > 25.0 ? c : 25.0;
}

/* Whether every real within bound of sh + sl rounds to the same double as
   sh + sl; the halved margin absorbs the rounding of this test. */
static int rounds_alike(double sh, double sl, double bound)
{
    double r = sh + sl, e = sl - (r - sh);  /* fast_two_sum: sh + sl = r + e exactly */
    double up = 0.5 * (nextafter(r, INFINITY) - r);
    double down = 0.5 * (r - nextafter(r, -INFINITY));
    double margin = down + e < up - e ? down + e : up - e;
    return bound < 0.5 * margin;
}

/* gfkernel._corepy.normalized_bessel_series, the exact fixed-point sum,
   looked up on first use. */
static PyObject *exact_series;

static double exact_bessel_series(double nu, double x)
{
    PyObject *m, *r;
    double v;
    if (exact_series == NULL) {
        if ((m = PyImport_ImportModule("gfkernel._corepy")) == NULL) return -1.0;
        exact_series = PyObject_GetAttrString(m, "normalized_bessel_series");
        Py_DECREF(m);
        if (exact_series == NULL) return -1.0;
    }
    if ((r = PyObject_CallFunction(exact_series, "dd", nu, x)) == NULL) return -1.0;
    v = PyFloat_AsDouble(r);
    Py_DECREF(r);
    return v;
}

/* sum_n (-1)^n (x/2)^(2n) / (n! (nu+1)_n), correctly rounded: _corepy's
   value.  A double-double loop returns fl(sum) where it can certify it:
   once the term ratio rho is below 1/2 the tail lies within rho |term| of
   the sum, and the loop's own rounding within n 2^-99 of the sum of the n
   terms' magnitudes (each term is off by at most 2^-100.6 relative per
   step taken, each addition by 2^-103.7 of the partial sum and term, and a
   partial sum is at most that magnitude sum).  Where this bound cannot
   certify the rounding (the sum cancels, or sits near a rounding boundary
   or a zero of J), _corepy's exact sum is returned. */
static double normalized_bessel_series(double nu, double x)
{
    double half = 0.5 * x, t, hh, hl, qh, ql, qhh, qhl;
    double th = 1.0, tl = 0.0, sh = 1.0, sl = 0.0, mag = 1.0;
    double fn, ah, bb, al, dh, dl, ahh, ahl, vh, vl, p, uh, ul, pl, q1, q2, rh, rl, r, rho, err;
    int n;
    if (!(nu > -1.0 && nu < INFINITY && isfinite(x)))
        return fail(DomainError, "normalized Bessel series needs a finite order nu > -1 and "
                    "a finite x (nu=%r, x=%r)", nu, x);
    /* q = -two_prod(half, half), the sign building in the alternation, and
       the split of qh that every two_prod(th, qh) below reuses */
    t = SPLITTER * half;
    hh = t - (t - half);
    hl = half - hh;
    qh = half * half;
    ql = ((hh * hh - qh) + hh * hl + hl * hh) + hl * hl;
    qh = -qh;
    ql = -ql;
    t = SPLITTER * qh;
    qhh = t - (t - qh);
    qhl = qh - qhh;
    for (n = 1; n <= BESSEL_TERMS; n++) {
        /* the denominator d = n*(nu+n) exactly, as two_sum(nu, n) then
           two_prod(ah, n) (n splits exactly into (n, 0.0): two_prod drops
           its zeros), and the Dekker split of dh */
        fn = n;
        ah = nu + fn;
        bb = ah - nu;
        al = (nu - (ah - bb)) + (fn - bb);
        dh = ah * fn;
        t = SPLITTER * ah;
        ahh = t - (t - ah);
        ahl = ah - ahh;
        dl = (ahh * fn - dh) + ahl * fn;
        dl += al * fn;
        t = SPLITTER * dh;
        vh = t - (t - dh);
        vl = dh - vh;
        p = th * qh;  /* term *= q: two_prod(th, qh), cross terms, fast_two_sum */
        t = SPLITTER * th;
        uh = t - (t - th);
        ul = th - uh;
        pl = ((uh * qhh - p) + uh * qhl + ul * qhh) + ul * qhl;
        pl += th * ql + tl * qh;
        th = p + pl;
        tl = pl - (th - p);
        q1 = th / dh;  /* term /= d: r = term - q1*d, fast_two_sum(q1, r/dh) */
        p = q1 * dh;
        t = SPLITTER * q1;
        uh = t - (t - q1);
        ul = q1 - uh;
        pl = ((uh * vh - p) + uh * vl + ul * vh) + ul * vl;
        pl += q1 * dl;
        rh = th + -p;
        bb = rh - th;
        rl = (th - (rh - bb)) + (-p - bb);
        rl += tl + -pl;
        r = rh + rl;
        rl = rl - (r - rh);
        q2 = (r + rl) / dh;
        th = q1 + q2;
        tl = q2 - (th - q1);
        rh = sh + th;  /* sum += term: two_sum(sh, th), low parts, fast_two_sum */
        bb = rh - sh;
        rl = (sh - (rh - bb)) + (th - bb);
        rl += sl + tl;
        sh = rh + rl;
        sl = rl - (sh - rh);
        mag += fabs(th);
        if (fabs(th) <= 0x1p-52 * fabs(sh)) {
            rho = half * half / ((n + 1.0) * (nu + n + 1.0));
            err = n * 0x1p-99 * mag;
            if (rho < 0.5) {
                if (rounds_alike(sh, sl, rho * fabs(th) + err)) return sh + sl;
                if (rho * fabs(th) <= err) break;  /* further terms cannot certify it */
            }
        }
    }
    return exact_bessel_series(nu, x);
}

/* Hankel large-argument expansion, summed to its smallest term. */
static double bessel_j_asymptotic(double nu, double x)
{
    double mu4 = 4.0 * nu * nu, p = 1.0, q = 0.0, ak = 1.0, prev = INFINITY;
    double f, a, sign, omega;
    int k;
    for (k = 1; k <= 64; k++) {
        f = 2.0 * k - 1.0;
        ak *= (mu4 - f * f) / (8.0 * k * x);
        if (ak == 0.0)
            break;  /* half-integer order: expansion terminates exactly */
        a = fabs(ak);
        if (a >= prev)
            break;  /* past the smallest term: stop before divergence */
        sign = (k >> 1) & 1 ? -1.0 : 1.0;
        if (k & 1)
            q += sign * ak;
        else
            p += sign * ak;
        if (a < 1e-17 * (fabs(p) + fabs(q))) break;
        prev = a;
    }
    omega = x - (0.5 * nu + 0.25) * PI;
    return sqrt(2.0 / (PI * x)) * (cos(omega) * p - sin(omega) * q);
}

static double bessel_j(double nu, double x)
{
    if (x == 0.0) {
        if (nu == 0.0) return 1.0;
        return nu > 0.0 ? 0.0 : INFINITY;
    }
    if (x <= bessel_crossover(nu))
        /* (x/2)^nu / Gamma(nu+1) times the normalized series; Gamma(nu+1) > 0 */
        return pow(0.5 * x, nu) * exp(-lgamma(nu + 1.0)) * normalized_bessel_series(nu, x);
    return bessel_j_asymptotic(nu, x);
}

static double normalized_bessel_j(double nu, double x)
{
    if (x == 0.0) return 1.0;
    if (x <= bessel_crossover(nu)) return normalized_bessel_series(nu, x);
    return exp(lgamma(nu + 1.0) - nu * log(0.5 * x)) * bessel_j_asymptotic(nu, x);
}

/* ---- Gauss hypergeometric 2F1 on [0, 1) ---- */

/* Term ratio of the Gauss series at z = 1 (DLMF 15.2.1). */
static double gauss_ratio(double a, double b, double c, long n)
{
    return (a + n) * (b + n) / ((c + n) * (1.0 + n));
}

/* Gauss series with Kahan compensation: the value, and its error in *err. */
static double gauss_series(double a, double b, double c, double z, double *err)
{
    double term = 1.0, s = 1.0, comp = 0.0, abssum = 1.0, y, t, at, rho;
    long n = 0;
    *err = 0.0;
    while (n < NMAX) {
        term *= gauss_ratio(a, b, c, n) * z;
        if (term == 0.0) {
            *err = 1e-16 * abssum;
            return s + comp;
        }
        y = term - comp;
        t = s + y;
        comp = (t - s) - y;
        s = t;
        at = fabs(term);
        abssum += at;
        n++;
        if (at <= 1e-17 * fabs(s) && n > 4) {
            rho = fabs(gauss_ratio(a, b, c, n) * z);
            *err = (rho < 1.0 ? at * rho / (1.0 - rho) : at * 10.0) + 1e-16 * abssum;
            return s;
        }
    }
    return fail(ConvergenceError, "2F1 series did not converge (a=%r, b=%r, c=%r, z=%r)",
                a, b, c, z);
}

static double terminating_series(double a, double b, double c, double z, long nterms,
                                 double *err)
{
    double term = 1.0, s = 1.0, comp = 0.0, abssum = 1.0, y, t;
    long n;
    for (n = 0; n < nterms; n++) {
        term *= gauss_ratio(a, b, c, n) * z;
        y = term - comp;
        t = s + y;
        comp = (t - s) - y;
        s = t;
        abssum += fabs(term);
    }
    *err = 1e-16 * abssum;
    /* no digit is known when the rounding bound exceeds both the sum and the
       first term, 1 (an exact zero of a short polynomial stays a value) */
    if (!(isfinite(s) && (*err < fabs(s) || *err < 1.0)))
        return fail(ConvergenceError, "terminating 2F1 series lost every digit to "
                    "cancellation (a=%r, b=%r, c=%r, z=%r)", a, b, c, z);
    return s;
}

/* Gamma(n1) Gamma(n2) / (Gamma(d1) Gamma(d2)), 0.0 when a denominator poles. */
static double gamma_ratio(double n1, double n2, double d1, double d2)
{
    const double v[4] = {n1, n2, d1, d2};
    double ln = 0.0, sign = 1.0, l = 0.0, s;
    int i;
    for (i = 0; i < 4; i++) {
        if (is_nonpositive_integer(v[i])) {
            if (i < 2) return fail(PoleError, "gamma pole at %r in coefficient", v[i]);
            return 0.0;
        }
        s = log_abs_gamma(v[i], &l);
        if (PyErr_Occurred()) return -1.0;
        ln = i < 2 ? ln + l : ln - l;
        sign *= s;
    }
    if (ln > LOG_MAX)
        return fail(RangeOverflowError, "gamma ratio overflow in 2F1 connection formula");
    return sign * exp(ln);
}

/* The checks that open 2F1(a, b; c; z), before any on z, as _corepy's
   _Hyp2f1Plan makes them: finite parameters, and c off the poles.  Returns
   -1.0 with the error set, else 0.0. */
static double check_2f1(double a, double b, double c)
{
    if (!(isfinite(a) && isfinite(b) && isfinite(c)))
        return fail(DomainError, "2F1 parameters must be finite (a=%r, b=%r, c=%r)", a, b, c);
    if (is_nonpositive_integer(c))
        return fail(PoleError, "2F1 parameter c=%r is a nonpositive integer", c);
    return 0.0;
}

/* 2F1(a, b; c; z) for z in [0, 1): the value, and its error in *err.  With
   has_zc, zc is an accurately computed 1-z.  Terminating series are summed
   directly for any z, the Gauss series handles z <= 1/2 and the linear
   connection formula z > 1/2, all in _corepy._hyp2f1's order of checks. */
static double hyp2f1(double a, double b, double c, double z, int has_zc, double zc,
                     double *err)
{
    const double par[2] = {a, b};
    double nterms = -1.0, w, d, f1, e1, f2, e2, c1, g2, pw, c2;
    int i;
    *err = 0.0;
    if (check_2f1(a, b, c)) return -1.0;
    if (z == 0.0) return 1.0;
    if (z < 0.0) {
        /* tolerate roundoff from complement arithmetic at region edges */
        if (z > -1e-12) {
            *err = 1e-12;
            return 1.0;
        }
        return fail(DomainError, "2F1 argument z=%r outside [0, 1)", z);
    }
    if (z >= 1.0 && !(has_zc && zc > 0.0))
        return fail(DomainError, "2F1 argument z=%r outside [0, 1)", z);
    for (i = 0; i < 2 && nterms < 0.0; i++)
        if (is_nonpositive_integer(par[i])) nterms = -rint(par[i]);
    if (nterms > NMAX)
        return fail(ConvergenceError, "terminating 2F1 series would take %d terms, past the "
                    "cap of %d (a=%r, b=%r, c=%r)", nterms, (double)NMAX, a, b, c);
    if (nterms >= 0.0) return terminating_series(a, b, c, z, (long)nterms, err);
    if (z <= 0.5) return gauss_series(a, b, c, z, err);
    w = has_zc ? zc : 1.0 - z;
    d = c - a - b;
    if (fabs(d - rint(d)) < 1e-8)
        return fail(DegenerateParameterError,
                    "2F1 connection formula degenerate: c-a-b=%r is (near) an integer", d);
    f1 = gauss_series(a, b, a + b - c + 1.0, w, &e1);
    if (PyErr_Occurred()) return -1.0;
    f2 = gauss_series(c - a, c - b, d + 1.0, w, &e2);
    if (PyErr_Occurred()) return -1.0;
    c1 = gamma_ratio(c, d, c - a, c - b);
    if (PyErr_Occurred()) return -1.0;
    g2 = gamma_ratio(c, -d, a, b);
    if (PyErr_Occurred()) return -1.0;
    pw = pow(w, d);
    /* where math.pow raises OverflowError */
    if (isinf(pw) && isfinite(w) && w != 0.0 && isfinite(d))
        return fail(RangeOverflowError, "(1-z)^(c-a-b) overflow in 2F1 connection formula "
                    "(1-z=%r, c-a-b=%r)", w, d);
    c2 = g2 * pw;
    *err = fabs(c1) * e1 + fabs(c2) * e2 + 2e-16 * (fabs(c1 * f1) + fabs(c2 * f2));
    return c1 * f1 + c2 * f2;
}

/* ---- Legendre functions ---- */

/* P_n(t) by the three-term recurrence; n past the cap is a ConvergenceError. */
static double legendre_poly(double n, double t)
{
    double pm1 = 1.0, p = t, next;
    long j;
    if (n > NMAX)
        return fail(ConvergenceError, "Legendre recurrence would take %d terms, past the "
                    "cap of %d", n, (double)NMAX);
    if (n == 0.0) return 1.0;
    for (j = 1; j < (long)n; j++) {
        next = ((2.0 * j + 1.0) * t * p - j * pm1) / (j + 1.0);
        pm1 = p;
        p = next;
    }
    return p;
}

/* Ordinary Legendre P_nu(t) for (1-t)/2 > 1/2, non-integer degree: the
   degenerate (c = a+b) connection series with digamma terms, in the
   accurately known complement w = (1+t)/2. */
static double legendre_p0_log(double nu, double w)
{
    double a = nu + 1.0, b = -nu, la = 0.0, lb = 0.0, sa, sb, g, lnw;
    double psi_n1, psi_an, psi_bn, coef = 1.0, s = 0.0, wn = 1.0, term;
    int n;
    sa = log_abs_gamma(a, &la);
    sb = log_abs_gamma(b, &lb);
    g = sa * sb * exp(-(la + lb));
    lnw = log(w);
    psi_n1 = digamma(1.0);
    psi_an = digamma(a);
    psi_bn = digamma(b);
    for (n = 0; n < 400; n++) {
        if (n > 0) {
            coef *= (a + n - 1.0) * (b + n - 1.0) / ((double)n * n);
            wn *= w;
            psi_n1 += 1.0 / n;
            psi_an += 1.0 / (a + n - 1.0);
            psi_bn += 1.0 / (b + n - 1.0);
        }
        term = coef * wn * (2.0 * psi_n1 - psi_an - psi_bn - lnw);
        s += term;
        if (n > 3 && fabs(term) <= 1e-17 * fabs(s)) return g * s;
    }
    return fail(ConvergenceError, "Legendre log-series did not converge (nu=%r)", nu);
}

/* Associated Legendre P^mu_nu(t) on the cut, t in (-1, 1]. */
static double legendre_p(double mu, double nu, double t)
{
    double zf, w, f, err, lg = 0.0, sg, ln_pref, r;
    if (!(isfinite(mu) && isfinite(nu)))
        return fail(DomainError, "legendre_p order and degree must be finite (mu=%r, nu=%r)",
                    mu, nu);
    if (!(-1.0 < t && t <= 1.0))
        return fail(DomainError, "legendre_p argument t=%r outside (-1, 1]", t);
    if (is_nonpositive_integer(1.0 - mu))
        return fail(PoleError, "legendre_p order mu=%r makes 1-mu a nonpositive integer", mu);
    if (nu < -0.5)
        nu = -1.0 - nu;  /* degree reflection P^mu_nu = P^mu_{-1-nu} */
    if (t == 1.0) {
        if (mu == 0.0) return 1.0;
        if (mu < 0.0) return 0.0;
        return fail(RangeOverflowError, "legendre_p prefactor ((1+t)/(1-t))^(mu/2) "
                    "diverges at t=1 for mu=%r>0", mu);
    }
    zf = 0.5 * (1.0 - t);
    w = 0.5 * (1.0 + t);
    if (fabs(mu) < 1e-13) {
        r = rint(nu);
        if (fabs(nu - r) < 1e-12 && r >= 0.0) return legendre_poly(r, t);
        if (zf <= 0.5) return hyp2f1(nu + 1.0, -nu, 1.0, zf, 0, 0.0, &err);
        return legendre_p0_log(nu, w);
    }
    f = hyp2f1(nu + 1.0, -nu, 1.0 - mu, zf, 1, w, &err);
    if (PyErr_Occurred()) return -1.0;
    sg = log_abs_gamma(1.0 - mu, &lg);
    /* ((1+t)/(1-t))^(mu/2) = ((1+t)/2)^(mu/2) * ((1-t)/2)^(-mu/2) */
    ln_pref = 0.5 * mu * (log(w) - log(zf)) - lg;
    if (ln_pref > LOG_MAX)
        return fail(RangeOverflowError,
                    "legendre_p prefactor overflow: mu=%r, t=%r too close to 1", mu, t);
    return sg * exp(ln_pref) * f;
}

/* e^(-mu pi i) Q^mu_nu(t) for t > 1: the real, phase-stripped value. */
static double legendre_q_phase_free(double mu, double nu, double t)
{
    double tm1, tp1, z, zc, f, err, l1 = 0.0, s1, l2 = 0.0, s2, ln;
    if (!(isfinite(mu) && isfinite(nu)))
        return fail(DomainError, "legendre_q order and degree must be finite (mu=%r, nu=%r)",
                    mu, nu);
    if (t <= 1.0) return fail(DomainError, "legendre_q argument t=%r must exceed 1", t);
    if (is_nonpositive_integer(nu + 1.5))
        return fail(PoleError,
                    "legendre_q degree nu=%r makes nu+3/2 a nonpositive integer", nu);
    if (is_nonpositive_integer(mu + nu + 1.0))
        return fail(PoleError, "legendre_q parameters: mu+nu+1=%r at a gamma pole",
                    mu + nu + 1.0);
    tm1 = t - 1.0;
    tp1 = t + 1.0;
    z = 1.0 / (t * t);
    zc = tm1 * tp1 * z;
    f = hyp2f1(0.5 * (mu + nu) + 1.0, 0.5 * (mu + nu + 1.0), nu + 1.5, z, 1, zc, &err);
    if (PyErr_Occurred()) return -1.0;
    s1 = log_abs_gamma(mu + nu + 1.0, &l1);
    s2 = log_abs_gamma(nu + 1.5, &l2);
    ln = (0.5 * LOG_PI + l1 - l2
          + 0.5 * mu * (log(tm1) + log(tp1))
          - (nu + 1.0) * LOG_2
          - (mu + nu + 1.0) * log(t));
    if (ln > LOG_MAX)
        return fail(RangeOverflowError, "legendre_q prefactor overflow at mu=%r, t=%r", mu, t);
    return s1 * s2 * exp(ln) * f;
}

/* Gegenbauer polynomial C_n^mu(t) by the three-term recurrence. */
static double gegenbauer(long n, double mu, double t)
{
    double cm1 = 1.0, c = 2.0 * mu * t, next;
    long j;
    if (n == 0) return 1.0;
    for (j = 2; j <= n; j++) {
        next = (2.0 * t * (j + mu - 1.0) * c - (j + 2.0 * mu - 2.0) * cm1) / j;
        cm1 = c;
        c = next;
    }
    return c;
}

/* ---- Triple-Bessel (Macdonald) kernel branch values, fused forms (see _corepy) ---- */

/* Band value of R_{mu,nu}(xa, ya, za) given omt = 1-cos(theta), opt = 1+cos(theta).
   When nu-mu is an integer n >= 0 the 2F1 is taken in its Euler form,
   (opt/2)^(mu-1/2) times the degree-n polynomial 2F1(-n, mu+nu; mu+1/2; z). */
static double r_band_core(double mu, double nu, double xa, double ya, double za,
                          double omt, double opt)
{
    double err, f;
    int euler = is_nonpositive_integer(mu - nu);
    if (!(isfinite(mu) && isfinite(nu)))
        return fail(DomainError, "Macdonald orders must be finite (mu=%r, nu=%r)", mu, nu);
    if (euler)
        f = hyp2f1(mu - nu, mu + nu, mu + 0.5, 0.5 * omt, 1, 0.5 * opt, &err);
    else
        f = hyp2f1(nu + 0.5, 0.5 - nu, mu + 0.5, 0.5 * omt, 1, 0.5 * opt, &err);
    if (PyErr_Occurred()) return -1.0;
    if (euler) f *= pow(0.5 * opt, mu - 0.5);
    return (pow(xa * ya, mu - 1.0) * pow(omt, mu - 0.5) * f
            / (SQRT_2PI * pow(za, mu) * exp(lgamma(mu + 0.5))));
}

/* Outer value of R_{mu,nu}(xa, ya, za) given u = cosh(theta) and um1 = u-1.
   The sign factor sin((mu-nu) pi) is fixed against the defining
   triple-Bessel integral; see _corepy.r_outer_core. */
static double r_outer_core(double mu, double nu, double xa, double ya, double za,
                           double u, double um1)
{
    double delta = nu - mu, sd, ln_u, z, zc, f, err, lgd = 0.0, sgd, coef;
    if (!(isfinite(mu) && isfinite(nu)))
        return fail(DomainError, "Macdonald orders must be finite (mu=%r, nu=%r)", mu, nu);
    if (fabs(delta - rint(delta)) <= 1e-12) return 0.0;
    sd = sinpi(mu - nu);
    ln_u = (delta + 1.0) * log(u);
    if (ln_u > LOG_MAX)
        return 0.0;  /* value underflows: u^-(nu-mu+1) below double range */
    z = 1.0 / (u * u);
    zc = um1 * (u + 1.0) * z;
    f = hyp2f1(0.5 * delta + 1.0, 0.5 * (delta + 1.0), nu + 1.0, z, 1, zc, &err);
    if (PyErr_Occurred()) return -1.0;
    sgd = log_abs_gamma(delta + 1.0, &lgd);
    coef = sgd * exp(lgd - lgamma(nu + 1.0) - ln_u - (nu + 0.5) * LOG_2);
    return (sd * pow(xa * ya, mu - 1.0) * SQRT_PI * coef * f
            / (SQRT_HALF_PI3 * pow(za, mu)));
}

static double r_band(double mu, double nu, double xa, double ya, double za)
{
    double twoxy = 2.0 * xa * ya, d = xa - ya, s = xa + ya;
    double omt = (za - d) * (za + d) / twoxy, opt = (s - za) * (s + za) / twoxy;
    return r_band_core(mu, nu, xa, ya, za, omt, opt);
}

static double r_outer(double mu, double nu, double xa, double ya, double za)
{
    double twoxy = 2.0 * xa * ya, s = xa + ya, um1 = (za - s) * (za + s) / twoxy;
    return r_outer_core(mu, nu, xa, ya, za, 1.0 + um1, um1);
}

static double r_gegenbauer_band(double mu, long n, double xa, double ya, double za)
{
    double twoxy = 2.0 * xa * ya, d = xa - ya, s = xa + ya;
    double omt = (za - d) * (za + d) / twoxy, opt = (s - za) * (s + za) / twoxy;
    double ct = 1.0 - omt, ln_coef;
    if (!isfinite(mu)) return fail(DomainError, "Gegenbauer band order must be finite (mu=%r)", mu);
    if (ct < -1.0)
        ct = -1.0;
    else if (ct > 1.0)
        ct = 1.0;
    ln_coef = ((0.5 - mu) * LOG_2 + lgamma(2.0 * mu) + lgamma(n + 1.0)
               - lgamma(n + 2.0 * mu) - lgamma(mu + 0.5));
    return (exp(ln_coef) * pow(xa * ya, mu - 1.0)
            * pow(omt * opt, mu - 0.5) * gegenbauer(n, mu, ct)
            / (SQRT_2PI * pow(za, mu)));
}

/* ---- Python entry points ---- */

/* Unpack the positional arguments of name() into the targets out[], one
   per character of fmt: 'd' stores a double, 'l' a long.  No keyword is
   taken (hyp2f1 places its zc first). */
static int parse(PyObject *const *args, Py_ssize_t nargs, PyObject *kwnames,
                 const char *name, const char *fmt, void *const *out)
{
    Py_ssize_t i;
    for (i = 0; fmt[i]; i++) {
        if (i == nargs) {
            PyErr_Format(PyExc_TypeError, "%s() missing required argument %zd", name, i + 1);
            return -1;
        }
        if (fmt[i] == 'l') {
            if ((*(long *)out[i] = PyLong_AsLong(args[i])) == -1 && PyErr_Occurred()) return -1;
        } else if (PyFloat_CheckExact(args[i])) {
            *(double *)out[i] = PyFloat_AS_DOUBLE(args[i]);
        } else if ((*(double *)out[i] = PyFloat_AsDouble(args[i])) == -1.0 && PyErr_Occurred()) {
            return -1;
        }
    }
    if (kwnames != NULL && PyTuple_GET_SIZE(kwnames) > 0) {
        PyErr_Format(PyExc_TypeError, "%s() got an unexpected or repeated argument '%U'",
                     name, PyTuple_GET_ITEM(kwnames, 0));
        return -1;
    }
    if (nargs > i) {
        PyErr_Format(PyExc_TypeError, "%s() takes at most %zd arguments (%zd given)", name, i,
                     nargs);
        return -1;
    }
    return 0;
}

static PyObject *value(double v)
{
    return PyErr_Occurred() ? NULL : PyFloat_FromDouble(v);
}

static PyObject *pair(double v, double e)
{
    PyObject *a = NULL, *b = NULL, *t = NULL;
    if (!PyErr_Occurred() && (a = PyFloat_FromDouble(v)) && (b = PyFloat_FromDouble(e)))
        t = PyTuple_Pack(2, a, b);
    Py_XDECREF(a);
    Py_XDECREF(b);
    return t;
}

#define ARGS PyObject *Py_UNUSED(m), PyObject *const *args, Py_ssize_t n, PyObject *kw
#define PARSE(name, fmt, ...) \
    parse(args, n, kw, #name, fmt, (void *const[]){__VA_ARGS__})

PyDoc_STRVAR(log_abs_gamma_doc, "log_abs_gamma(x)\n--\n\n");
static PyObject *py_log_abs_gamma(ARGS)
{
    double x, ln = 0.0, s;
    if (PARSE(log_abs_gamma, "d", &x)) return NULL;
    s = log_abs_gamma(x, &ln);
    return pair(ln, s);
}

PyDoc_STRVAR(gammafn_doc, "gammafn(x)\n--\n\n");
static PyObject *py_gammafn(ARGS)
{
    double x;
    if (PARSE(gammafn, "d", &x)) return NULL;
    return value(gammafn(x));
}

PyDoc_STRVAR(rgamma_doc, "rgamma(x)\n--\n\n");
static PyObject *py_rgamma(ARGS)
{
    double x;
    if (PARSE(rgamma, "d", &x)) return NULL;
    return value(rgamma(x));
}

PyDoc_STRVAR(sinpi_doc, "sinpi(x)\n--\n\n");
static PyObject *py_sinpi(ARGS)
{
    double x;
    if (PARSE(sinpi, "d", &x)) return NULL;
    return value(sinpi(x));
}

PyDoc_STRVAR(digamma_doc, "digamma(x)\n--\n\n");
static PyObject *py_digamma(ARGS)
{
    double x;
    if (PARSE(digamma, "d", &x)) return NULL;
    return value(digamma(x));
}

PyDoc_STRVAR(bessel_crossover_doc, "bessel_crossover(nu)\n--\n\n");
static PyObject *py_bessel_crossover(ARGS)
{
    double nu;
    if (PARSE(bessel_crossover, "d", &nu)) return NULL;
    return value(bessel_crossover(nu));
}

PyDoc_STRVAR(normalized_bessel_series_doc, "normalized_bessel_series(nu, x)\n--\n\n");
static PyObject *py_normalized_bessel_series(ARGS)
{
    double nu, x;
    if (PARSE(normalized_bessel_series, "dd", &nu, &x)) return NULL;
    return value(normalized_bessel_series(nu, x));
}

PyDoc_STRVAR(bessel_j_asymptotic_doc, "bessel_j_asymptotic(nu, x)\n--\n\n");
static PyObject *py_bessel_j_asymptotic(ARGS)
{
    double nu, x;
    if (PARSE(bessel_j_asymptotic, "dd", &nu, &x)) return NULL;
    return value(bessel_j_asymptotic(nu, x));
}

PyDoc_STRVAR(bessel_j_doc, "bessel_j(nu, x)\n--\n\n");
static PyObject *py_bessel_j(ARGS)
{
    double nu, x;
    if (PARSE(bessel_j, "dd", &nu, &x)) return NULL;
    return value(bessel_j(nu, x));
}

PyDoc_STRVAR(normalized_bessel_j_doc, "normalized_bessel_j(nu, x)\n--\n\n");
static PyObject *py_normalized_bessel_j(ARGS)
{
    double nu, x;
    if (PARSE(normalized_bessel_j, "dd", &nu, &x)) return NULL;
    return value(normalized_bessel_j(nu, x));
}

PyDoc_STRVAR(gauss_series_doc, "gauss_series(a, b, c, z)\n--\n\n");
static PyObject *py_gauss_series(ARGS)
{
    double a, b, c, z, v, err = 0.0;
    if (PARSE(gauss_series, "dddd", &a, &b, &c, &z) || check_2f1(a, b, c)) return NULL;
    v = gauss_series(a, b, c, z, &err);
    return pair(v, err);
}

PyDoc_STRVAR(hyp2f1_doc, "hyp2f1(a, b, c, z, zc=None)\n--\n\n");
static PyObject *py_hyp2f1(ARGS)
{
    double a, b, c, z, zc = 0.0, v, err = 0.0;
    /* zc, by position or keyword: a fifth double, or None for none */
    if (n == 4 && kw != NULL && PyTuple_GET_SIZE(kw) == 1
        && PyUnicode_CompareWithASCIIString(PyTuple_GET_ITEM(kw, 0), "zc") == 0) {
        n = 5;
        kw = NULL;
    }
    if (n == 5 && args[4] == Py_None) n = 4;
    if (PARSE(hyp2f1, n < 5 ? "dddd" : "ddddd", &a, &b, &c, &z, &zc)) return NULL;
    v = hyp2f1(a, b, c, z, n == 5, zc, &err);
    return pair(v, err);
}

PyDoc_STRVAR(legendre_p_doc, "legendre_p(mu, nu, t)\n--\n\n");
static PyObject *py_legendre_p(ARGS)
{
    double mu, nu, t;
    if (PARSE(legendre_p, "ddd", &mu, &nu, &t)) return NULL;
    return value(legendre_p(mu, nu, t));
}

PyDoc_STRVAR(legendre_q_phase_free_doc, "legendre_q_phase_free(mu, nu, t)\n--\n\n");
static PyObject *py_legendre_q_phase_free(ARGS)
{
    double mu, nu, t;
    if (PARSE(legendre_q_phase_free, "ddd", &mu, &nu, &t)) return NULL;
    return value(legendre_q_phase_free(mu, nu, t));
}

PyDoc_STRVAR(gegenbauer_doc, "gegenbauer(n, mu, t)\n--\n\n");
static PyObject *py_gegenbauer(ARGS)
{
    long k;
    double mu, t;
    if (PARSE(gegenbauer, "ldd", &k, &mu, &t)) return NULL;
    return value(gegenbauer(k, mu, t));
}

PyDoc_STRVAR(r_band_core_doc, "r_band_core(mu, nu, xa, ya, za, omt, opt)\n--\n\n");
static PyObject *py_r_band_core(ARGS)
{
    double mu, nu, xa, ya, za, omt, opt;
    if (PARSE(r_band_core, "ddddddd", &mu, &nu, &xa, &ya, &za, &omt, &opt)) return NULL;
    return value(r_band_core(mu, nu, xa, ya, za, omt, opt));
}

PyDoc_STRVAR(r_outer_core_doc, "r_outer_core(mu, nu, xa, ya, za, u, um1)\n--\n\n");
static PyObject *py_r_outer_core(ARGS)
{
    double mu, nu, xa, ya, za, u, um1;
    if (PARSE(r_outer_core, "ddddddd", &mu, &nu, &xa, &ya, &za, &u, &um1)) return NULL;
    return value(r_outer_core(mu, nu, xa, ya, za, u, um1));
}

PyDoc_STRVAR(r_band_doc, "r_band(mu, nu, xa, ya, za)\n--\n\n");
static PyObject *py_r_band(ARGS)
{
    double mu, nu, xa, ya, za;
    if (PARSE(r_band, "ddddd", &mu, &nu, &xa, &ya, &za)) return NULL;
    return value(r_band(mu, nu, xa, ya, za));
}

PyDoc_STRVAR(r_outer_doc, "r_outer(mu, nu, xa, ya, za)\n--\n\n");
static PyObject *py_r_outer(ARGS)
{
    double mu, nu, xa, ya, za;
    if (PARSE(r_outer, "ddddd", &mu, &nu, &xa, &ya, &za)) return NULL;
    return value(r_outer(mu, nu, xa, ya, za));
}

PyDoc_STRVAR(r_gegenbauer_band_doc, "r_gegenbauer_band(mu, n, xa, ya, za)\n--\n\n");
static PyObject *py_r_gegenbauer_band(ARGS)
{
    long k;
    double mu, xa, ya, za;
    if (PARSE(r_gegenbauer_band, "dlddd", &mu, &k, &xa, &ya, &za)) return NULL;
    return value(r_gegenbauer_band(mu, k, xa, ya, za));
}

#define ENTRY(name) \
    {#name, (PyCFunction)(void (*)(void))py_##name, METH_FASTCALL | METH_KEYWORDS, name##_doc}

static PyMethodDef methods[] = {
    ENTRY(log_abs_gamma),
    ENTRY(gammafn),
    ENTRY(rgamma),
    ENTRY(sinpi),
    ENTRY(digamma),
    ENTRY(bessel_crossover),
    ENTRY(normalized_bessel_series),
    ENTRY(bessel_j_asymptotic),
    ENTRY(bessel_j),
    ENTRY(normalized_bessel_j),
    ENTRY(gauss_series),
    ENTRY(hyp2f1),
    ENTRY(legendre_p),
    ENTRY(legendre_q_phase_free),
    ENTRY(gegenbauer),
    ENTRY(r_band_core),
    ENTRY(r_outer_core),
    ENTRY(r_band),
    ENTRY(r_outer),
    ENTRY(r_gegenbauer_band),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "gfkernel._core",
    "Compiled twin of gfkernel._corepy: same functions, same algorithms, same errors.",
    -1, methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__core(void)
{
    PyObject *errors = PyImport_ImportModule("gfkernel.errors"), *m = NULL;
    if (errors == NULL) return NULL;
    if ((ConvergenceError = PyObject_GetAttrString(errors, "ConvergenceError")) != NULL
        && (DegenerateParameterError = PyObject_GetAttrString(
                errors, "DegenerateParameterError")) != NULL
        && (DomainError = PyObject_GetAttrString(errors, "DomainError")) != NULL
        && (PoleError = PyObject_GetAttrString(errors, "PoleError")) != NULL
        && (RangeOverflowError = PyObject_GetAttrString(errors, "RangeOverflowError")) != NULL)
        m = PyModule_Create(&module);
    Py_DECREF(errors);
    return m;
}

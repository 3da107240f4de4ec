/* The hot scalar kernels of gfkernel._corepy, compiled: the seven that
   Python calls per quadrature node (Bessel J and its normalized form, 2F1,
   the band kernels of a node, the outer kernel R) or times as a kernel
   probe (r_band), by the same algorithms, as a CPython extension.
   The helpers they call (the band kernel r_band_core, the series and
   asymptotic Bessel sums, the Gauss series, log_abs_gamma, sinpi) are
   compiled as static functions only.  The module takes every other name of
   _corepy (listed in shared[] below) from _corepy at import, so those
   return the pure core's doubles on every build.

   Each kernel here follows its _corepy namesake operation for operation,
   with two exceptions.  _corepy sums normalized_bessel_series exactly in
   integers; here a double-double loop returns the same double where it can
   certify it.  band_terms takes its kernels in plain order, each from the
   same arguments: _corepy's order only picks which error is raised.  The
   pure core's tables and plans hold values that this file recomputes, by
   the same operations, on every call; here that work is a few cycles.
   Build with -ffp-contract=off: the double-double loop's bound relies on
   exact IEEE multiply and add rounding, which fused contraction breaks.

   This file decides one thing: whether an entry returns a finite double.
   A kernel that cannot give one (a failure, or a Bessel sum the loop cannot
   certify) returns NaN, which its callers propagate (a return that would
   hide it tests for it first); so does an entry given another count of
   arguments or one that does not convert.  The entry then returns what the
   _corepy function of the same name gives for the same arguments, its value
   or its error.  So this file holds no error class, no message, no argument
   rule, no fallback call and no evaluation order of its own. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

/* the doubles _corepy computes for these at import */
#define PI 0x1.921fb54442d18p+1
#define SQRT_PI 0x1.c5bf891b4ef6ap+0        /* math.sqrt(math.pi) */
#define SQRT_2PI 0x1.40d931ff62705p+1       /* math.sqrt(2.0 * math.pi) */
#define SQRT_HALF_PI3 0x1.f7fccdff344acp+1  /* math.sqrt(0.5 * math.pi ** 3) */
#define LOG_2 0x1.62e42fefa39efp-1          /* math.log(2.0) */
#define LOG_MAX 709.0
#define SPLITTER 134217729.0  /* 2^27 + 1, Dekker split constant */
#define BESSEL_TERMS 600
#define NMAX 4000  /* terms of the Gauss loop, and the cap of the terminating sums */

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

/* log|Gamma(x)| into *ln, and the sign of Gamma(x); NaN at NaN, -inf and
   the poles, the nonpositive integers. */
static double log_abs_gamma(double x, double *ln)
{
    if (!(x > -INFINITY) || (x <= 0.0 && x == floor(x))) return NAN;
    *ln = lgamma(x);
    /* Gamma alternates sign between consecutive negative integers. */
    return x > 0.0 || fmod(floor(-x), 2.0) == 1.0 ? 1.0 : -1.0;
}

/* sin(pi x), exact at integers; NaN at a non-finite x, where x - r is NaN. */
static double sinpi(double x)
{
    double r = rint(x), s = sin(PI * (x - r));
    return fmod(r, 2.0) == 0.0 ? s : -s;
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

/* sum_n (-1)^n (x/2)^(2n) / (n! (nu+1)_n), correctly rounded: _corepy's
   value.  A double-double loop returns fl(sum) where it can certify it:
   once the term ratio rho is below 1/2 the tail lies within rho |term| of
   the sum, and the loop's own rounding within n 2^-99 of the sum of the n
   terms' magnitudes (each term is off by at most 2^-100.6 relative per
   step taken, each addition by 2^-103.7 of the partial sum and term, and a
   partial sum is at most that magnitude sum).  Where this bound cannot
   certify the rounding (the sum cancels, or sits near a rounding boundary
   or a zero of J), NaN is returned, and the entry answers with _corepy,
   which sums it exactly. */
static double normalized_bessel_series(double nu, double x)
{
    double half = 0.5 * x, t, hh, hl, qh, ql, qhh, qhl;
    double th = 1.0, tl = 0.0, sh = 1.0, sl = 0.0, mag = 1.0;
    double fn, ah, bb, al, dh, dl, ahh, ahl, vh, vl, p, uh, ul, pl, q1, q2, rh, rl, r, rho, err;
    int n;
    if (!(nu > -1.0 && nu < INFINITY && isfinite(x))) return NAN;
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
    return NAN;
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
    return NAN;  /* not converged in NMAX terms */
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
    return isfinite(s) && (*err < fabs(s) || *err < 1.0) ? s : NAN;
}

/* Gamma(n1) Gamma(n2) / (Gamma(d1) Gamma(d2)), 0.0 when a denominator poles;
   NaN at a numerator pole, a failed log_abs_gamma before the denominator
   pole, or an overflow. */
static double gamma_ratio(double n1, double n2, double d1, double d2)
{
    const double v[4] = {n1, n2, d1, d2};
    double ln = 0.0, sign = 1.0, l = 0.0, s;
    int i;
    for (i = 0; i < 4; i++) {
        if (is_nonpositive_integer(v[i])) return i < 2 ? NAN : 0.0;
        s = log_abs_gamma(v[i], &l);
        if (isnan(s)) return s;
        ln = i < 2 ? ln + l : ln - l;
        sign *= s;
    }
    return ln > LOG_MAX ? NAN : sign * exp(ln);
}

/* 2F1(a, b; c; z) for z in [0, 1): the value, and its error in *err.  With
   has_zc, zc is an accurately computed 1-z.  Terminating series are summed
   directly for any z, the Gauss series handles z <= 1/2 and the linear
   connection formula z > 1/2, all in _corepy._hyp2f1's order of checks: the
   parameter checks of its _Hyp2f1Plan come before any on z. */
static double hyp2f1(double a, double b, double c, double z, int has_zc, double zc,
                     double *err)
{
    const double par[2] = {a, b};
    double nterms = -1.0, w, d, f1, e1, f2, e2, c1, g2, c2;
    int i;
    *err = 0.0;
    if (!(isfinite(a) && isfinite(b) && isfinite(c)) || is_nonpositive_integer(c)) return NAN;
    if (z == 0.0) return 1.0;
    if (z < 0.0) {
        /* tolerate roundoff from complement arithmetic at region edges */
        if (z > -1e-12) {
            *err = 1e-12;
            return 1.0;
        }
        return NAN;
    }
    if (z >= 1.0 && !(has_zc && zc > 0.0)) return NAN;
    for (i = 0; i < 2 && nterms < 0.0; i++)
        if (is_nonpositive_integer(par[i])) nterms = -rint(par[i]);
    if (nterms > NMAX) return NAN;
    if (nterms >= 0.0) return terminating_series(a, b, c, z, (long)nterms, err);
    if (z <= 0.5) return gauss_series(a, b, c, z, err);
    w = has_zc ? zc : 1.0 - z;
    d = c - a - b;
    if (fabs(d - rint(d)) < 1e-8) return NAN;  /* degenerate connection formula */
    f1 = gauss_series(a, b, a + b - c + 1.0, w, &e1);
    f2 = gauss_series(c - a, c - b, d + 1.0, w, &e2);
    c1 = gamma_ratio(c, d, c - a, c - b);
    g2 = gamma_ratio(c, -d, a, b);
    /* an overflowed (1-z)^(c-a-b) leaves the value infinite or NaN */
    c2 = g2 * pow(w, d);
    *err = fabs(c1) * e1 + fabs(c2) * e2 + 2e-16 * (fabs(c1 * f1) + fabs(c2 * f2));
    return c1 * f1 + c2 * f2;
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
    /* a non-finite order gives the 2F1 a non-finite parameter, and f NaN */
    if (euler)
        f = hyp2f1(mu - nu, mu + nu, mu + 0.5, 0.5 * omt, 1, 0.5 * opt, &err);
    else
        f = hyp2f1(nu + 0.5, 0.5 - nu, mu + 0.5, 0.5 * omt, 1, 0.5 * opt, &err);
    if (euler) f *= pow(0.5 * opt, mu - 0.5);
    return (pow(xa * ya, mu - 1.0) * pow(omt, mu - 0.5) * f
            / (SQRT_2PI * pow(za, mu) * exp(lgamma(mu + 0.5))));
}

/* band_terms' mask (_corepy.BAND_*): its four kernels, and R_{mu,mu} at
   (xa, za, ya) in place of (xa, ya, za) */
#define BAND_MM 1
#define BAND_XY 2
#define BAND_XZ 4
#define BAND_YZ 8
#define BAND_MM_AT_XZ 16

/* The band kernels of one density node into r[]: R_{mu,mu}, R(xa, ya, za),
   R(xa, za, ya), R(ya, za, xa), R = R_{mu,nu}, each 0.0 unless mask asks
   for it, from _corepy.band_terms' complements.  Returns 0 when a kernel is
   not finite: the entry then defers, and _corepy raises in its own order. */
static int band_terms(double mu, double nu, double xa, double ya, double za, double omt,
                      double opt, long mask, double r[4])
{
    double twoxy = 2.0 * xa * ya, s = xa + ya + za, dm = fabs(xa - ya);
    double ez = twoxy * opt / s, lo = twoxy * omt / (za + dm);  /* xa + ya - za, za - |xa - ya| */
    double xz[2] = {0.0, 0.0}, yz[2] = {0.0, 0.0};
    /* the excesses of xa and ya: the larger side's is lo, the smaller's dm + za */
    if (mask & (BAND_XZ | BAND_MM_AT_XZ)) {
        xz[0] = (ya >= xa ? dm + za : lo) * ez / (2.0 * xa * za);
        xz[1] = (ya >= xa ? lo : dm + za) * s / (2.0 * xa * za);
    }
    if (mask & BAND_YZ) {
        yz[0] = (xa >= ya ? dm + za : lo) * ez / (2.0 * ya * za);
        yz[1] = (xa >= ya ? lo : dm + za) * s / (2.0 * ya * za);
    }
    r[0] = !(mask & BAND_MM) ? 0.0
           : mask & BAND_MM_AT_XZ ? r_band_core(mu, mu, xa, za, ya, xz[0], xz[1])
           : r_band_core(mu, mu, xa, ya, za, omt, opt);
    r[1] = mask & BAND_XY ? r_band_core(mu, nu, xa, ya, za, omt, opt) : 0.0;
    r[2] = mask & BAND_XZ ? r_band_core(mu, nu, xa, za, ya, xz[0], xz[1]) : 0.0;
    r[3] = mask & BAND_YZ ? r_band_core(mu, nu, ya, za, xa, yz[0], yz[1]) : 0.0;
    return isfinite(r[0]) && isfinite(r[1]) && isfinite(r[2]) && isfinite(r[3]);
}

/* Outer value of R_{mu,nu}(xa, ya, za) given u = cosh(theta) and um1 = u-1.
   The sign factor sin((mu-nu) pi) is fixed against the defining
   triple-Bessel integral; see _corepy.r_outer_core. */
static double r_outer_core(double mu, double nu, double xa, double ya, double za,
                           double u, double um1)
{
    double delta = nu - mu, sd, ln_u, z, zc, f, err, lgd = 0.0, sgd, coef;
    int reflect;
    if (is_nonpositive_integer(mu - nu)) return 0.0;
    /* NaN for a non-finite order, or finite ones whose difference
       overflows, before the underflow return below can hide it */
    sd = sinpi(mu - nu);
    if (isnan(sd)) return sd;
    /* at a negative integer nu - mu, sin((mu-nu) pi) Gamma(delta+1) is
       pi/Gamma(mu-nu) by reflection */
    reflect = fabs(delta - rint(delta)) <= 1e-12;
    if (reflect) sd = PI;
    ln_u = (delta + 1.0) * log(u);
    if (ln_u > LOG_MAX)
        return 0.0;  /* value underflows: u^-(nu-mu+1) below double range */
    z = 1.0 / (u * u);
    zc = um1 * (u + 1.0) * z;
    f = hyp2f1(0.5 * delta + 1.0, 0.5 * (delta + 1.0), nu + 1.0, z, 1, zc, &err);
    if (reflect) {
        sgd = log_abs_gamma(mu - nu, &lgd);
        lgd = -lgd;
    } else {
        sgd = log_abs_gamma(delta + 1.0, &lgd);
    }
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

/* ---- Python entry points ---- */

/* Unpack exactly strlen(fmt) positional arguments into out[], one per
   character of fmt: 'd' a double, 'l' a long (an int, not a float).  -1 for
   any other count or an argument that does not convert: the entry defers. */
static int parse(PyObject *const *args, Py_ssize_t nargs, const char *fmt, void *const *out)
{
    Py_ssize_t i;
    if (nargs != (Py_ssize_t)strlen(fmt)) return -1;
    for (i = 0; i < nargs; i++) {
        if (fmt[i] == 'l') {
            if ((*(long *)out[i] = PyLong_AsLong(args[i])) == -1 && PyErr_Occurred())
                return -1;
        }
        else if (PyFloat_CheckExact(args[i]))
            *(double *)out[i] = PyFloat_AS_DOUBLE(args[i]);
        else if ((*(double *)out[i] = PyFloat_AsDouble(args[i])) == -1.0 && PyErr_Occurred())
            return -1;
    }
    return 0;
}

/* gfkernel._corepy, taken at import */
static PyObject *corepy;

/* What _corepy's name() returns for the entry's arguments: its value, or its
   error.  An error that converting an argument left pending is dropped, as
   that call meets the argument again; an interrupt (no Exception) is kept. */
static PyObject *defer(const char *name, PyObject *const *args, Py_ssize_t n)
{
    PyObject *fn, *r;
    if (PyErr_Occurred()) {
        if (!PyErr_ExceptionMatches(PyExc_Exception)) return NULL;
        PyErr_Clear();
    }
    if ((fn = PyObject_GetAttrString(corepy, name)) == NULL) return NULL;
    r = PyObject_Vectorcall(fn, args, n, NULL);
    Py_DECREF(fn);
    return r;
}

static PyObject *value(double v, const char *name, PyObject *const *args, Py_ssize_t n)
{
    return isfinite(v) ? PyFloat_FromDouble(v) : defer(name, args, n);
}

#define ARGS PyObject *Py_UNUSED(m), PyObject *const *args, Py_ssize_t n
#define PARSE(fmt, ...) parse(args, n, fmt, (void *const[]){__VA_ARGS__})
#define DEFER(name) defer(#name, args, n)
#define VALUE(name, v) value(v, #name, args, n)

PyDoc_STRVAR(bessel_j_doc, "bessel_j(nu, x, /)\n--\n\n");
static PyObject *py_bessel_j(ARGS)
{
    double nu, x;
    if (PARSE("dd", &nu, &x)) return DEFER(bessel_j);
    return VALUE(bessel_j, bessel_j(nu, x));
}

PyDoc_STRVAR(normalized_bessel_j_doc, "normalized_bessel_j(nu, x, /)\n--\n\n");
static PyObject *py_normalized_bessel_j(ARGS)
{
    double nu, x;
    if (PARSE("dd", &nu, &x)) return DEFER(normalized_bessel_j);
    return VALUE(normalized_bessel_j, normalized_bessel_j(nu, x));
}

PyDoc_STRVAR(hyp2f1_doc, "hyp2f1(a, b, c, z, zc=None, /)\n--\n\n");
static PyObject *py_hyp2f1(ARGS)
{
    double a, b, c, z, zc = 0.0, v, err = 0.0;
    Py_ssize_t m = n == 5 && args[4] == Py_None ? 4 : n;  /* a fifth None is no zc */
    if (parse(args, m, m == 5 ? "ddddd" : "dddd", (void *const[]){&a, &b, &c, &z, &zc})
        || !isfinite(v = hyp2f1(a, b, c, z, m == 5, zc, &err)) || !isfinite(err))
        return DEFER(hyp2f1);
    return Py_BuildValue("(dd)", v, err);
}

PyDoc_STRVAR(band_terms_doc, "band_terms(mu, nu, xa, ya, za, omt, opt, mask, /)\n--\n\n");
static PyObject *py_band_terms(ARGS)
{
    double mu, nu, xa, ya, za, omt, opt, r[4];
    long mask;
    if (PARSE("dddddddl", &mu, &nu, &xa, &ya, &za, &omt, &opt, &mask)
        || !band_terms(mu, nu, xa, ya, za, omt, opt, mask, r))
        return DEFER(band_terms);
    return Py_BuildValue("(dddd)", r[0], r[1], r[2], r[3]);
}

PyDoc_STRVAR(r_outer_core_doc, "r_outer_core(mu, nu, xa, ya, za, u, um1, /)\n--\n\n");
static PyObject *py_r_outer_core(ARGS)
{
    double mu, nu, xa, ya, za, u, um1;
    if (PARSE("ddddddd", &mu, &nu, &xa, &ya, &za, &u, &um1)) return DEFER(r_outer_core);
    return VALUE(r_outer_core, r_outer_core(mu, nu, xa, ya, za, u, um1));
}

PyDoc_STRVAR(r_band_doc, "r_band(mu, nu, xa, ya, za, /)\n--\n\n");
static PyObject *py_r_band(ARGS)
{
    double mu, nu, xa, ya, za;
    if (PARSE("ddddd", &mu, &nu, &xa, &ya, &za)) return DEFER(r_band);
    return VALUE(r_band, r_band(mu, nu, xa, ya, za));
}

PyDoc_STRVAR(r_outer_doc, "r_outer(mu, nu, xa, ya, za, /)\n--\n\n");
static PyObject *py_r_outer(ARGS)
{
    double mu, nu, xa, ya, za;
    if (PARSE("ddddd", &mu, &nu, &xa, &ya, &za)) return DEFER(r_outer);
    return VALUE(r_outer, r_outer(mu, nu, xa, ya, za));
}

#define ENTRY(name) \
    {#name, (PyCFunction)(void (*)(void))py_##name, METH_FASTCALL, name##_doc}

static PyMethodDef methods[] = {
    ENTRY(bessel_j),
    ENTRY(normalized_bessel_j),
    ENTRY(hyp2f1),
    ENTRY(band_terms),
    ENTRY(r_outer_core),
    ENTRY(r_band),
    ENTRY(r_outer),
    {NULL, NULL, 0, NULL},
};

/* The functions that Python calls only where speed does not count: the
   seven that no density integrand calls, the six helpers above that the
   kernels call in C, and r_band_core, which band_terms calls in C.  The
   module takes _corepy's own at import; no kernel here calls back to them. */
static const char *const shared[] = {
    "gammafn", "rgamma", "digamma", "legendre_p", "legendre_q_phase_free",
    "gegenbauer", "r_gegenbauer_band", "log_abs_gamma", "sinpi", "bessel_crossover",
    "normalized_bessel_series", "bessel_j_asymptotic", "gauss_series", "r_band_core",
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "gfkernel._core",
    "The hot kernels of gfkernel._corepy compiled: same functions, same algorithms; "
    "every outcome but a finite value, and the cold functions, are _corepy's own.",
    -1, methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__core(void)
{
    PyObject *m = NULL, *fn;
    size_t i;
    if ((corepy = PyImport_ImportModule("gfkernel._corepy")) != NULL) m = PyModule_Create(&module);
    for (i = 0; m != NULL && i < sizeof shared / sizeof *shared; i++) {
        fn = PyObject_GetAttrString(corepy, shared[i]);
        if (fn == NULL || PyModule_AddObjectRef(m, shared[i], fn) < 0) Py_CLEAR(m);
        Py_XDECREF(fn);
    }
    return m;
}

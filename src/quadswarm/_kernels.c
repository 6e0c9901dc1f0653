/* The hot loops of quadswarm, compiled into one shared object.
 *
 * run_chunk flies the RK4 steps of one chunk of a quad.simulate flight;
 * run_samples takes the complete-graph steps of the distance-weighted
 * agreement protocol (consensus._moving_step) and records its samples
 * (consensus._record). Each is a transcription of its Python
 * reference, operation by operation and in the same order. Built with
 * -ffp-contract=off, so no multiply and add are fused, and without
 * -ffast-math, each gives the bits of its reference. format_rows
 * writes a table as CSV lines, each number as Python's '%.17g' % x
 * writes it.
 */
#define _POSIX_C_SOURCE 200809L
#include <locale.h>
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

/* ---- The flight: quad._deriv and quad._rk4_step ----
 *
 * deriv is quad._deriv and run_chunk repeats quad._rk4_step, written
 * expression by expression in the same parenthesization: C groups
 * a * b * c as (a * b) * c and a - b - c as (a - b) - c, as Python
 * does. Every step gives the bits of the Python step wherever cos, sin
 * and fabs are the libm that Python's math calls.
 *
 * A step goes back to Python when a stage meets the gimbal band, as
 * _deriv raises there; when its end state does, as simulate raises
 * there; and when a stage angle is +-inf, where math.cos raises
 * ValueError and C's cos gives NaN. Python retakes that step, so every
 * error keeps its type, its text and its step.
 */

/* The twelve rates of _deriv at the nine stage values it reads, into
 * d. r is a row of quad._rotor_terms and pc is quad._param_tuple.
 * Returns 1, and writes nothing, where the stage goes back to Python. */
static int deriv(double phi, double theta, double psi, double v1,
                 double v2, double v3, double O1, double O2, double O3,
                 const double *r, const double *pc, double pitch_limit,
                 double *d)
{
    if (theta >= pitch_limit || theta <= -pitch_limit || isinf(phi)
        || isinf(psi))
        return 1;
    const double m = pc[0], g = pc[1], Jr = pc[2], J1 = pc[3], J2 = pc[4],
        J3 = pc[5], CD1 = pc[6], CD2 = pc[7], CD3 = pc[8], Ct1 = pc[9],
        Ct2 = pc[10], Ct3 = pc[11], J23 = pc[12], J31 = pc[13],
        J12 = pc[14];
    const double thrust = r[0], sigma = r[1], roll = r[2], pitch = r[3],
        yaw = r[4];

    const double cf = cos(phi), sf = sin(phi);
    const double ct = cos(theta), st = sin(theta);
    const double cp = cos(psi), sp = sin(psi);
    const double tt = st / ct;
    const double cpst = cp * st, spst = sp * st, gct = g * ct;
    const double O2sf = O2 * sf, O3cf = O3 * cf;

    d[0] = v1 * cp * ct + v2 * (cpst * sf - sp * cf)
        + v3 * (cpst * cf + sp * sf);
    d[1] = v1 * sp * ct + v2 * (spst * sf + cp * cf)
        + v3 * (spst * cf - cp * sf);
    d[2] = -v1 * st + v2 * ct * sf + v3 * ct * cf;
    d[3] = O1 + O2sf * tt + O3cf * tt;
    d[4] = O2 * cf - O3 * sf;
    d[5] = O2sf / ct + O3cf / ct;
    d[6] = v2 * O3 - v3 * O2 - v1 * fabs(v1) * CD1 / m + g * st;
    d[7] = v3 * O1 - v1 * O3 - v2 * fabs(v2) * CD2 / m - gct * sf;
    d[8] = v1 * O2 - v2 * O1 + (thrust - v3 * fabs(v3) * CD3) / m
        - gct * cf;
    d[9] = (J23 * O2 * O3 + Jr * O2 * sigma
            + roll - O1 * fabs(O1) * Ct1) / J1;
    d[10] = (J31 * O1 * O3 - Jr * O1 * sigma
             + pitch - O2 * fabs(O2) * Ct2) / J2;
    d[11] = (J12 * O1 * O2 + yaw - O3 * fabs(O3) * Ct3) / J3;
    return 0;
}

/* The nine values a stage reads: x[k] + f * k_prev[k] for k = 3..11. */
#define STAGE(f, k) x[3] + (f) * (k)[3], x[4] + (f) * (k)[4], \
    x[5] + (f) * (k)[5], x[6] + (f) * (k)[6], x[7] + (f) * (k)[7], \
    x[8] + (f) * (k)[8], x[9] + (f) * (k)[9], x[10] + (f) * (k)[10], \
    x[11] + (f) * (k)[11]

/* Up to n RK4 steps of size h from the 12-float state x0. Step i reads
 * the 5-term rotor rows r1, rm and r4 at i * rstride (rstride 0 holds
 * one row for every step) and writes its end state to out[12 i:].
 * Returns the first step that Python must take instead, or -1 when all
 * n ran. */
long run_chunk(const double *x0, long n, double h, const double *r1,
               const double *rm, const double *r4, long rstride,
               const double *pc, double pitch_limit, double *out)
{
    const double half = 0.5 * h, s = h / 6.0;
    const double *x = x0;
    double a[12], b[12], c[12], d[12];
    for (long i = 0; i < n; i++) {
        const long o = i * rstride;
        if (deriv(x[3], x[4], x[5], x[6], x[7], x[8], x[9], x[10], x[11],
                  r1 + o, pc, pitch_limit, a)
            || deriv(STAGE(half, a), rm + o, pc, pitch_limit, b)
            || deriv(STAGE(half, b), rm + o, pc, pitch_limit, c)
            || deriv(STAGE(h, c), r4 + o, pc, pitch_limit, d))
            return i;
        double *y = out + 12 * i;
        for (int k = 0; k < 12; k++)
            y[k] = x[k] + s * (((a[k] + 2.0 * b[k]) + 2.0 * c[k]) + d[k]);
        if (y[4] >= pitch_limit || y[4] <= -pitch_limit)
            return i;
        x = y;
    }
    return -1;
}

/* ---- The protocol: the complete-graph branch of _moving_step ----
 *
 * Each step re-weights the complete graph from the current positions,
 * M = D - W with W the pairwise distances and D their row sums, and
 * advances q by the degree-4 Taylor polynomial of the step propagator,
 * q + sum_k signed[k] M^(k+1) q. The elementwise operations are IEEE
 * operations in numpy's order; the row sums follow numpy's pairwise
 * summation; and the products and the Taylor combination are the very
 * BLAS calls that ndarray.dot makes for these shapes, through pointers
 * to the routines numpy itself calls, so every bit is numpy's on any
 * BLAS kernel.
 */

/* The CBLAS enums and the ILP64 entry points of numpy's bundled
 * OpenBLAS (scipy_cblas_dgemm64_, scipy_cblas_dgemv64_). */
enum { ROW_MAJOR = 101, NO_TRANS = 111, TRANS = 112 };
typedef void (*dgemm_fn)(int, int, int, int64_t, int64_t, int64_t, double,
                         const double *, int64_t, const double *, int64_t,
                         double, double *, int64_t);
typedef void (*dgemv_fn)(int, int, int64_t, int64_t, double,
                         const double *, int64_t, const double *, int64_t,
                         double, double *, int64_t);

/* numpy's pairwise sum of a[0..n-1] (pairwise_sum_DOUBLE): below 8
 * terms in sequence from -0.0, up to 128 terms in 8 accumulators,
 * above that split at n / 2 rounded down to a multiple of 8. */
static double pairwise(const double *a, long n)
{
    if (n < 8) {
        double res = -0.0;
        for (long i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        long i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3]))
            + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    long n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise(a, n2) + pairwise(a + n2, n - n2);
}

/* count steps of the complete-graph protocol on the (n, r) C-ordered
 * state q, in place; n >= 2 and r >= 2, so that ndarray.dot takes
 * gemm for M q. signed holds (-c1, c2, -c3, c4). m is an (n, n)
 * buffer, row an n-buffer, p a (4, n, r) buffer and acc an (n, r)
 * buffer, all C-ordered. */
static void run_protocol(double *q, long n, long r, const double *signed_,
                  dgemm_fn dgemm, dgemv_fn dgemv, double *m, double *row,
                  double *p, double *acc, long count)
{
    const long nr = n * r;
    for (long s = 0; s < count; s++) {
        for (long i = 0; i < n; i++) {
            const double *qi = q + i * r;
            double *mi = m + i * n;
            for (long j = 0; j < n; j++) {
                /* coordinate-major squares summed ((d0 + d1) + d2) */
                const double *qj = q + j * r;
                double d = qi[0] - qj[0];
                double sum = d * d;
                for (long c = 1; c < r; c++) {
                    d = qi[c] - qj[c];
                    sum = sum + d * d;
                }
                row[j] = sqrt(sum);
                mi[j] = -row[j];
            }
            /* np.add.reduce starts from add's identity, 0.0 */
            mi[i] = 0.0 + pairwise(row, n);
        }
        /* ndarray.dot zeroes its out before every BLAS call */
        memset(p, 0, 4 * nr * sizeof(double));
        dgemm(ROW_MAJOR, NO_TRANS, NO_TRANS, n, r, n, 1.0, m, n, q, r,
              0.0, p, r);
        for (int k = 1; k < 4; k++)
            dgemm(ROW_MAJOR, NO_TRANS, NO_TRANS, n, r, n, 1.0, m, n,
                  p + (k - 1) * nr, r, 0.0, p + k * nr, r);
        memset(acc, 0, nr * sizeof(double));
        dgemv(ROW_MAJOR, TRANS, 4, nr, 1.0, p, nr, signed_, 1, 0.0, acc, 1);
        for (long k = 0; k < nr; k++)
            q[k] = q[k] + acc[k];
    }
}

/* The sample loop of consensus._record on a complete graph. From step
 * ctl[0] of steps, take the steps up to each recorded sample (every
 * stride-th step, and the last) with run_protocol, and write the
 * sample's time, k * dt, to times[j] and its state to states[j n r],
 * for j below cap. After each sample the run stops, as _record does,
 * when the spread max |q - alpha| is below stop_tol (ctl[1] = 1) or is
 * not finite (ctl[1] = 2); the spread is NaN where any offset is, as
 * np.maximum.reduce propagates NaN. Returns the samples written, with
 * ctl[0] the step reached and ctl[1] 0 where the run goes on. The
 * arguments up to acc are run_protocol's, alpha an r-vector. */
long run_samples(double *q, long n, long r, const double *signed_,
                 dgemm_fn dgemm, dgemv_fn dgemv, double *m, double *row,
                 double *p, double *acc, int64_t *ctl, long steps,
                 long stride, double dt, const double *alpha,
                 double stop_tol, double *times, double *states, long cap)
{
    const long nr = n * r;
    long k = ctl[0], j = 0;
    ctl[1] = 0;
    while (j < cap && k < steps) {
        long count = stride - k % stride;
        if (count > steps - k)
            count = steps - k;
        run_protocol(q, n, r, signed_, dgemm, dgemv, m, row, p, acc, count);
        k += count;
        times[j] = (double)k * dt;
        memcpy(states + j * nr, q, nr * sizeof(double));
        j++;
        double spread = 0.0;
        for (long i = 0; i < nr; i++) {
            const double d = fabs(q[i] - alpha[i % r]);
            if (isnan(d)) {
                spread = d;
                break;
            }
            if (d > spread)
                spread = d;
        }
        if (spread < stop_tol) {
            ctl[1] = 1;
            break;
        }
        if (!isfinite(spread)) {
            ctl[1] = 2;
            break;
        }
    }
    ctl[0] = k;
    return j;
}

/* ---- The CSV rows: '%.17g' % x, exactly ----
 *
 * Python writes each number of a CSV row as '%.17g' % x: the 17
 * significant digits of x's exact binary value, rounded half to even,
 * then %g's layout. format_rows finds those digits in 128-bit integer
 * arithmetic (an exact scaling, as in Steele and White, "How to print
 * floating-point numbers accurately", PLDI 1990) wherever the scaled
 * value fits: every x from about 1e-6 up to 2^128. Smaller numbers,
 * subnormals among them, and larger ones go to snprintf in the "C"
 * locale, whose %.17g is exact too and whose decimal point does not
 * follow LC_NUMERIC. A compiler without unsigned __int128 builds no
 * format_rows, and the CSVs keep Python's '%' formatting.
 */
#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;

static const uint64_t P10[20] = {
    1ULL, 10ULL, 100ULL, 1000ULL, 10000ULL, 100000ULL, 1000000ULL,
    10000000ULL, 100000000ULL, 1000000000ULL, 10000000000ULL,
    100000000000ULL, 1000000000000ULL, 10000000000000ULL,
    100000000000000ULL, 1000000000000000ULL, 10000000000000000ULL,
    100000000000000000ULL, 1000000000000000000ULL,
    10000000000000000000ULL};

/* 10^k for k = 0..38, every power of ten below 2^128 */
static u128 pow10_128(int k)
{
    return k < 20 ? (u128)P10[k] : (u128)P10[k - 19] * P10[19];
}

/* The number of decimal digits of v > 0 */
static int digits(u128 v)
{
    const uint64_t hi = (uint64_t)(v >> 64), lo = (uint64_t)v;
    const int bits = hi ? 128 - __builtin_clzll(hi) : 64 - __builtin_clzll(lo);
    const int t = bits * 1233 >> 12;   /* floor or one below log10(v) */
    return t + (v >= pow10_128(t));
}

/* The 17 significant digits of the positive normal double of biased
 * exponent be and fraction f, as an integer *d in [10^16, 10^17), and
 * its decimal exponent *x, so that d 10^(x - 16) is the value rounded
 * half to even; 0 where the exact scaling does not fit 128 bits. */
static int digits17(uint64_t f, int be, uint64_t *d, int *x)
{
    const uint64_t m = f | 1ULL << 52;
    const int e = be - 1075;
    u128 v, rb = 0, hb = 0;   /* v + rb / 2^-e is the scaled value */
    int s10 = 0;
    if (e >= 0) {
        if (e > 75)
            return 0;
        v = (u128)m << e;
    } else {
        if (e < -127)
            return 0;
        s10 = 22;
        const u128 w = (u128)m * pow10_128(22);
        v = w >> -e;
        rb = w & (((u128)1 << -e) - 1);
        hb = (u128)1 << (-e - 1);
        if (v < P10[16])
            return 0;
    }
    const int n = digits(v);
    int up;
    if (n <= 17) {
        /* an integer of 17 digits or fewer, or 17 digits and rb */
        *d = (uint64_t)v * P10[17 - n];
        up = rb > hb || (rb == hb && rb && (*d & 1));
    } else {
        const u128 p = pow10_128(n - 17), h = p / 2;
        const u128 rem = v % p;
        *d = (uint64_t)(v / p);
        up = rem > h || (rem == h && (rb || (*d & 1)));
    }
    *x = n - 1 - s10;
    /* %g's exponent is that of the rounded digits; no double from 1e-6
     * to 2^128 lies close enough below a power of ten to carry here */
    if (up && ++*d == P10[17]) {
        *d = P10[16];
        ++*x;
    }
    return 1;
}

/* Writes '%.17g' % x at s and returns its end, at most 24 bytes on.
 * *loc holds the "C" locale once a number has needed snprintf, and
 * *old the thread's locale it replaced; (locale_t)0 until then.
 * Returns NULL where that locale cannot be had. */
static char *g17(double x, char *s, locale_t *loc, locale_t *old)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    if (isnan(x)) {   /* Python writes every NaN as nan */
        memcpy(s, "nan", 3);
        return s + 3;
    }
    if (bits >> 63)
        *s++ = '-';
    if (isinf(x)) {
        memcpy(s, "inf", 3);
        return s + 3;
    }
    const uint64_t f = bits & ((1ULL << 52) - 1);
    const int be = (int)(bits >> 52 & 0x7ff);
    if (be == 0 && f == 0) {
        *s++ = '0';
        return s;
    }
    uint64_t d;
    int e;
    if (be == 0 || !digits17(f, be, &d, &e)) {
        char tmp[32];
        if (!*loc) {
            *loc = newlocale(LC_NUMERIC_MASK, "C", (locale_t)0);
            if (!*loc)
                return NULL;
            *old = uselocale(*loc);
        }
        const int len = snprintf(tmp, sizeof tmp, "%.17g", fabs(x));
        memcpy(s, tmp, len);
        return s + len;
    }
    char dig[17];
    for (int i = 16; i >= 0; i--, d /= 10)
        dig[i] = (char)('0' + d % 10);
    int nd = 17;   /* the digits but trailing zeros, which %g drops */
    while (nd > 1 && dig[nd - 1] == '0')
        nd--;
    if (e < -4 || e >= 17) {
        *s++ = dig[0];
        if (nd > 1) {
            *s++ = '.';
            memcpy(s, dig + 1, nd - 1);
            s += nd - 1;
        }
        *s++ = 'e';
        *s++ = e < 0 ? '-' : '+';
        if (e < 0)
            e = -e;
        if (e >= 100)
            *s++ = (char)('0' + e / 100);
        *s++ = (char)('0' + e / 10 % 10);
        *s++ = (char)('0' + e % 10);
    } else if (e >= 0) {
        memcpy(s, dig, e + 1);
        s += e + 1;
        if (nd > e + 1) {
            *s++ = '.';
            memcpy(s, dig + e + 1, nd - e - 1);
            s += nd - e - 1;
        }
    } else {
        *s++ = '0';
        *s++ = '.';
        for (int i = -1; i > e; i--)
            *s++ = '0';
        memcpy(s, dig, nd);
        s += nd;
    }
    return s;
}

/* The rows x cols C-ordered table t as CSV lines at out, each number as
 * '%.17g' % x writes it, joined by commas, each line ended by LF; out
 * holds 25 rows cols bytes, the longest a line can take. Returns the
 * bytes written, or -1 where the "C" locale cannot be had. */
long format_rows(const double *t, long rows, long cols, char *out)
{
    char *s = out;
    locale_t loc = (locale_t)0, old = (locale_t)0;
    for (long i = 0; i < rows * cols && s; i++) {
        s = g17(t[i], s, &loc, &old);
        if (s)
            *s++ = (i + 1) % cols ? ',' : '\n';
    }
    if (loc) {
        uselocale(old);
        freelocale(loc);
    }
    return s ? s - out : -1;
}
#endif

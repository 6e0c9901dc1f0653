/* The two hot loops of quadswarm, compiled into one shared object.
 *
 * run_chunk flies the RK4 steps of one chunk of a quad.simulate flight;
 * run_protocol takes the complete-graph steps of the distance-weighted
 * agreement protocol (consensus._moving_step). Each is a transcription
 * of its Python reference, operation by operation and in the same
 * order. Built with -ffp-contract=off, so no multiply and add are
 * fused, and without -ffast-math, each gives the bits of its reference.
 */
#include <math.h>
#include <stdint.h>
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
void run_protocol(double *q, long n, long r, const double *signed_,
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

/* Compiled twin of pure.train_loop, bound through ctypes by kernels.load().

Bit-for-bit lockstep with the numpy reference is a hard requirement (see
pure.py): each neuron's squared distance accumulates over j left to right,
ties go to the lowest index, the per-step theta table comes from libm exp()
and is indexed by the hop distance max(|dq|, |dr|, |dq + dr|) between axial
coordinates, and every update is three separately rounded steps. Build with
-ffp-contract=off so that no multiply-add fuses. The Python wrapper checks
dtypes, shapes and indices; nothing here validates its input.

w is (n, dim), data is (n_rows, dim), coords is (2, n) axial (q, r), order,
alphas and sigmas have total entries, theta has max_dist + 1 entries of
scratch space, max_dist >= every hop distance between two neurons. */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

void train_loop(double *w, const double *data, const int64_t *order,
                const int32_t *coords, const double *alphas,
                const double *sigmas, double *theta, int64_t max_dist,
                int64_t n, int64_t dim, int64_t total, int64_t competitive_start)
{
    const int32_t *q = coords, *r = coords + n;
    for (int64_t s = 0; s < total; s++) {
        const double *x = data + order[s] * dim;
        int64_t u = 0;
        double best = 0.0;
        for (int64_t v = 0; v < n; v++) {
            double acc = 0.0;
            for (int64_t j = 0; j < dim; j++) {
                double diff = w[v * dim + j] - x[j];
                acc += diff * diff;
            }
            if (v == 0 || acc < best) {
                best = acc;
                u = v;
            }
        }

        double alpha = alphas[s];
        if (s < competitive_start) {
            double denom = 2.0 * sigmas[s] * sigmas[s];
            /* 2 sigma^2 can underflow to 0; the Gaussian's limit is then a
               Kronecker delta, as in the numpy reference. */
            for (int64_t d = 0; d <= max_dist; d++)
                theta[d] = denom == 0.0 ? (d == 0) : exp(-(double)(d * d) / denom);
            for (int64_t v = 0; v < n; v++) {
                int64_t dq = llabs((int64_t)q[v] - q[u]), dr = llabs((int64_t)r[v] - r[u]);
                int64_t ds = llabs((int64_t)q[v] + r[v] - q[u] - r[u]), h = dq > dr ? dq : dr;
                double coef = theta[h > ds ? h : ds] * alpha;
                for (int64_t j = 0; j < dim; j++) {
                    double t = x[j] - w[v * dim + j];
                    t = coef * t;
                    w[v * dim + j] = w[v * dim + j] + t;
                }
            }
        } else {
            for (int64_t j = 0; j < dim; j++) {
                double t = x[j] - w[u * dim + j];
                t = alpha * t;
                w[u * dim + j] = w[u * dim + j] + t;
            }
        }
        if (alpha == 1.0) /* a unit coefficient reproduces the row exactly */
            for (int64_t j = 0; j < dim; j++)
                w[u * dim + j] = x[j];
    }
}

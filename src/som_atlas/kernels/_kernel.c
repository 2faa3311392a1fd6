/* Compiled twin of pure.train_loop, bound through ctypes by kernels.load().

Bit-for-bit lockstep with the numpy reference is a hard requirement (see
pure.py): each neuron's squared distance accumulates over j left to right,
ties go to the lowest index, the per-step theta table comes from libm exp()
and is indexed by the hop distances of hexgrid.hop_table, and every update is
three separately rounded steps. Build with -ffp-contract=off so that no
multiply-add fuses. The Python wrapper checks dtypes, shapes and indices,
and builds hops and theta; nothing here validates its input.

w is (n, dim) with n = width * height, data is (n_rows, dim); order, alphas
and sigmas have total entries. hops is hexgrid.hop_table(width, height), a
(2, 2 height - 1, 2 width - 1) table whose entry [p, dr + height - 1,
dc + width - 1] is the hop distance from a node in a row of parity p to the
node dr rows and dc columns away. theta has max_dist + 1 entries of scratch
space, max_dist being the largest entry of hops. */

#include <math.h>
#include <stdint.h>

void train_loop(double *w, const double *data, const int64_t *order,
                const double *alphas, const double *sigmas, const int64_t *hops,
                double *theta, int64_t max_dist, int64_t width, int64_t height,
                int64_t dim, int64_t total, int64_t competitive_start)
{
    const int64_t n = width * height, span = 2 * width - 1;
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
            /* The winner's hop row: row offset -ur and column offset -uc
               reach node (0, 0); each map row is one table row further. */
            int64_t ur = u / width, uc = u % width;
            const int64_t *hop = hops + ((ur & 1) * (2 * height - 1) + height - 1 - ur) * span
                                 + width - 1 - uc;
            for (int64_t vr = 0; vr < height; vr++, hop += span) {
                for (int64_t vc = 0; vc < width; vc++) {
                    double *wv = w + (vr * width + vc) * dim;
                    double coef = theta[hop[vc]] * alpha;
                    for (int64_t j = 0; j < dim; j++) {
                        double t = x[j] - wv[j];
                        t = coef * t;
                        wv[j] = wv[j] + t;
                    }
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

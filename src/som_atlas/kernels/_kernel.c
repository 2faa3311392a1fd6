/* Compiled twin of pure.train_loop, bound through ctypes by kernels.load().

Bit-for-bit lockstep with the numpy reference is a hard requirement (see
pure.py): each neuron's squared distance accumulates over j left to right,
ties go to the lowest index, the per-step theta table comes from libm exp()
and is indexed by the hop distances of hexgrid.hop_table, and every update is
three separately rounded steps. Build with -ffp-contract=off so that no
multiply-add fuses. The Python wrapper checks dtypes, shapes and indices,
and builds hops and allocates the scratch; nothing here validates its input
or allocates.

w is (n, dim) with n = width * height, data is (n_rows, dim); order, alphas
and sigmas have total entries. hops is hexgrid.hop_table(width, height), a
(2, 2 height - 1, 2 width - 1) table whose entry [p, dr + height - 1,
dc + width - 1] is the hop distance from a node in a row of parity p to the
node dr rows and dc columns away. Scratch: theta has max_dist + 1 entries,
max_dist being the largest entry of hops; wt has n * dim, acc and coef n.

The loop works neuron-major, in the (dim, n) layout of pure._sq_distances:
w is transposed into wt on entry and back on return. The scan adds one
dimension to every neuron's sum before the next, so each neuron still adds
its dimensions left to right, and the inner loop over neurons, free of any
carried sum, vectorizes without reassociating. The cooperative update fills
coef[v] = theta[hop] * alpha once per step and then runs per dimension.

Dispatch: on x86-64 with glibc, whose ifunc lets the loader pick a variant
when the library is loaded, gcc >= 6 and clang >= 14 compile train_loop once
per target in target_clones, and the widest the CPU has runs. Every clone
runs the same rounded operations. Anywhere else, or with
-DSOM_ATLAS_PLAIN_LOOP, the one plain loop is compiled. No -march flag: the
cached library is named by source and command alone, so it must run on
every CPU that shares its digest. */

#include <math.h>
#include <stdint.h> /* on glibc, defines __GLIBC__ before the test below */

#if defined(__x86_64__) && defined(__GLIBC__) && !defined(SOM_ATLAS_PLAIN_LOOP) \
    && ((defined(__clang__) && __clang_major__ >= 14) || (!defined(__clang__) && __GNUC__ >= 6))
#define DISPATCH __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define DISPATCH
#endif

DISPATCH
void train_loop(double *w, const double *data, const int64_t *order,
                const double *alphas, const double *sigmas, const int64_t *hops,
                double *restrict theta, double *restrict wt, double *restrict acc,
                double *restrict coef, int64_t max_dist, int64_t width, int64_t height,
                int64_t dim, int64_t total, int64_t competitive_start)
{
    const int64_t n = width * height, span = 2 * width - 1;
    for (int64_t v = 0; v < n; v++)
        for (int64_t j = 0; j < dim; j++)
            wt[j * n + v] = w[v * dim + j];

    for (int64_t s = 0; s < total; s++) {
        const double *x = data + order[s] * dim;
        for (int64_t v = 0; v < n; v++)
            acc[v] = 0.0;
        for (int64_t j = 0; j < dim; j++) {
            const double *row = wt + j * n, xj = x[j];
            for (int64_t v = 0; v < n; v++) {
                double diff = row[v] - xj;
                acc[v] = acc[v] + diff * diff;
            }
        }
        int64_t u = 0;
        double best = acc[0];
        for (int64_t v = 1; v < n; v++)
            if (acc[v] < best) {
                best = acc[v];
                u = v;
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
            for (int64_t vr = 0; vr < height; vr++, hop += span)
                for (int64_t vc = 0; vc < width; vc++)
                    coef[vr * width + vc] = theta[hop[vc]] * alpha;
            for (int64_t j = 0; j < dim; j++) {
                double *row = wt + j * n, xj = x[j];
                for (int64_t v = 0; v < n; v++) {
                    double t = xj - row[v];
                    t = coef[v] * t;
                    row[v] = row[v] + t;
                }
            }
        } else {
            for (int64_t j = 0; j < dim; j++) {
                double t = x[j] - wt[j * n + u];
                t = alpha * t;
                wt[j * n + u] = wt[j * n + u] + t;
            }
        }
        if (alpha == 1.0) /* a unit coefficient reproduces the row exactly */
            for (int64_t j = 0; j < dim; j++)
                wt[j * n + u] = x[j];
    }

    for (int64_t v = 0; v < n; v++)
        for (int64_t j = 0; j < dim; j++)
            w[v * dim + j] = wt[j * n + v];
}

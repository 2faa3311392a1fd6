/* Compiled twin of pure.train_loop, bound through ctypes by kernels.load().

Bit-for-bit lockstep with the numpy reference is a hard requirement (see
pure.py): each neuron's squared distance accumulates over j left to right,
the winner is np.argmin's (the first NaN sum if any sum is NaN, else the
lowest index of the smallest sum), the per-step theta table comes from libm
exp() and is indexed by the hop distances of hexgrid.hop_table, and every
update is w - c (w - x) in three separately rounded steps, as the numpy
reference takes them (w + c (x - w) would differ in the sign of a zero
when w and x are both -0). Build with -ffp-contract=off so that no
multiply-add fuses. pure.check_arguments checks dtypes, shapes and
indices for both loops and gives hops, and the Python wrapper allocates the
scratch; nothing here validates its input or allocates.

w is (n, dim) with n = width * height, data is (n_rows, dim); order, alphas
and sigmas have total entries. hops is hexgrid.hop_table(width, height), a
(2, 2 height - 1, 2 width - 1) table whose entry [p, dr + height - 1,
dc + width - 1] is the hop distance from a node in a row of parity p to the
node dr rows and dc columns away. Scratch: theta has max_dist + 1 entries
(theta * alpha per hop distance), max_dist being the largest entry of hops;
wt has stride * dim entries and acc and coef stride, stride being n rounded
up to whole blocks of BLOCK neurons; the padded neurons start at 0 in wt and
coef. wt is 64-byte aligned, and so is each of its rows, stride * 8 being a
multiple of 256.

The loop works neuron-major, in the (dim, n) layout of pure._sq_distances:
w is transposed into wt's first n columns on entry and back on return. The
scan and the cooperative update run over whole blocks of BLOCK neurons,
padded ones included, whose sums (scan) or coefficients c = coef[v],
theta * alpha at v's hop (update), stay in registers while the loop walks
the dimensions. Each neuron adds its dimensions left to right, and the loops
over neurons, free of any carried value, vectorize without reassociating.
gcc 12 left blocks of 16 scalar; blocks of 32 vectorize in every clone. A
padded neuron's c stays 0, so its weight stays 0, or turns NaN through
0 * inf where a row holds an inf; the winner search reads only acc[0..n)
and only the first n columns go back into w, so no padded value is read.

theta * alpha is taken once per hop distance, the product the numpy
reference takes. Where it is subnormal (far hops while sigma is small),
every vector multiply holding it takes a microcode assist of about 100
cycles on x86: on a 20x20 map with sigma falling from 1 to 0 that was a
third of the loop's time. So a block holding a subnormal c takes a second
loop, in which a lane takes c = 0 where the exact |c t|, t = w - x rounded,
is below 2^-1023 and |w| is at least 2^-968. There c t rounds to at most
2^-1023, under half the spacing of doubles around w, so w - c t is w, and
w - (+-0) is w too, bit for bit. The test never multiplies by c: cs =
|c| 2^100, built from c's bits, is exact and normal, and a rounded |t| cs
below 2^-923 puts the exact |c t| below 2^-1023. Every other lane takes its
rounded steps as written.

The winner search passes over acc in LANES lanes, each keeping the
smallest sum it saw and the total of its sums, then scans acc from the start
to the winner. Sums are >= 0 or NaN, so a total is NaN exactly when some
sum is; then the first NaN wins, else the first sum equal to the smallest.

Dispatch: on x86-64 with glibc, whose ifunc lets the loader pick a variant
when the library is loaded, gcc >= 6 and clang >= 14 compile train_loop once
per target in target_clones, and the widest the CPU has runs. Every clone
runs the same rounded operations. Anywhere else, or with
-DSOM_ATLAS_PLAIN_LOOP, the one plain loop is compiled. No -march flag: the
cached library is named by source and command alone, so it must run on
every CPU that shares its digest. */

#include <math.h>
#include <stdint.h> /* on glibc, defines __GLIBC__ before the test below */
#include <string.h>

#if defined(__x86_64__) && defined(__GLIBC__) && !defined(SOM_ATLAS_PLAIN_LOOP) \
    && ((defined(__clang__) && __clang_major__ >= 14) || (!defined(__clang__) && __GNUC__ >= 6))
#define DISPATCH __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define DISPATCH
#endif

/* Neurons per register block, and lanes of the winner search. */
#define BLOCK 32
#define LANES 8

const int64_t block_neurons = BLOCK; /* read by the wrapper to pad wt */

DISPATCH
void train_loop(double *w, const double *data, const int64_t *order,
                const double *alphas, const double *sigmas, const int32_t *hops,
                double *restrict theta, double *restrict wt, double *restrict acc,
                double *restrict coef, int64_t max_dist, int64_t width, int64_t height,
                int64_t stride, int64_t dim, int64_t total, int64_t competitive_start)
{
    const int64_t n = width * height, span = 2 * width - 1;
    for (int64_t v = 0; v < n; v++)
        for (int64_t j = 0; j < dim; j++)
            wt[j * stride + v] = w[v * dim + j];

    for (int64_t s = 0; s < total; s++) {
        const double *x = data + order[s] * dim;
        for (int64_t b = 0; b < stride; b += BLOCK) {
            double sum[BLOCK] = {0.0};
            for (int64_t j = 0; j < dim; j++) {
                const double *row = wt + j * stride + b, xj = x[j];
                for (int l = 0; l < BLOCK; l++) {
                    double diff = row[l] - xj;
                    sum[l] = sum[l] + diff * diff;
                }
            }
            for (int l = 0; l < BLOCK; l++)
                acc[b + l] = sum[l];
        }

        /* np.argmin's winner (see the header): the lane minima skip NaNs,
           the totals catch them. */
        double low[LANES], sums[LANES];
        for (int l = 0; l < LANES; l++) {
            low[l] = INFINITY;
            sums[l] = 0.0;
        }
        int64_t v = 0;
        for (; v + LANES <= n; v += LANES)
            for (int l = 0; l < LANES; l++) {
                low[l] = acc[v + l] < low[l] ? acc[v + l] : low[l];
                sums[l] = sums[l] + acc[v + l];
            }
        double best = INFINITY, all = 0.0;
        for (; v < n; v++) {
            best = acc[v] < best ? acc[v] : best;
            all = all + acc[v];
        }
        for (int l = 0; l < LANES; l++) {
            best = low[l] < best ? low[l] : best;
            all = all + sums[l];
        }
        int64_t u = 0;
        if (all != all)
            while (acc[u] == acc[u])
                u++;
        else
            while (acc[u] != best)
                u++;

        double alpha = alphas[s];
        if (s < competitive_start) {
            double denom = 2.0 * sigmas[s] * sigmas[s];
            /* theta times alpha, per hop distance. 2 sigma^2 can underflow
               to 0; the Gaussian's limit is then a Kronecker delta, as in
               the numpy reference. */
            for (int64_t d = 0; d <= max_dist; d++)
                theta[d] = (denom == 0.0 ? (d == 0) : exp(-(double)(d * d) / denom)) * alpha;
            /* The winner's hop row: row offset -ur and column offset -uc
               reach node (0, 0); each map row is one table row further. */
            int64_t ur = u / width, uc = u % width;
            const int32_t *hop = hops + ((ur & 1) * (2 * height - 1) + height - 1 - ur) * span
                                 + width - 1 - uc;
            for (int64_t vr = 0; vr < height; vr++, hop += span)
                for (int64_t vc = 0; vc < width; vc++)
                    coef[vr * width + vc] = theta[hop[vc]];
            for (int64_t b = 0; b < stride; b += BLOCK) {
                double c[BLOCK], cs[BLOCK];
                int64_t subnormal = 0;
                for (int l = 0; l < BLOCK; l++) {
                    c[l] = coef[b + l];
                    subnormal |= (int64_t)(c[l] != 0.0) & (int64_t)(fabs(c[l]) < 0x1p-1022);
                }
                if (!subnormal) {
                    for (int64_t j = 0; j < dim; j++) {
                        double *row = wt + j * stride + b, xj = x[j];
                        for (int l = 0; l < BLOCK; l++) {
                            double t = row[l] - xj;
                            t = c[l] * t;
                            row[l] = row[l] - t;
                        }
                    }
                    continue;
                }
                /* cs = |c| 2^100 for a subnormal c (exact, from its bits), inf
                   otherwise; see the header for why a lane may take c = 0. */
                for (int l = 0; l < BLOCK; l++) {
                    double a = fabs(c[l]);
                    uint64_t bits;
                    memcpy(&bits, &a, sizeof bits);
                    cs[l] = a < 0x1p-1022 ? (double)bits * 0x1p-974 : INFINITY;
                }
                for (int64_t j = 0; j < dim; j++) {
                    double *row = wt + j * stride + b, xj = x[j];
                    for (int l = 0; l < BLOCK; l++) {
                        double t = row[l] - xj;
                        double k = fabs(t) * cs[l] < 0x1p-923 && fabs(row[l]) >= 0x1p-968 ? 0.0 : c[l];
                        t = k * t;
                        row[l] = row[l] - t;
                    }
                }
            }
        } else {
            for (int64_t j = 0; j < dim; j++) {
                double t = wt[j * stride + u] - x[j];
                t = alpha * t;
                wt[j * stride + u] = wt[j * stride + u] - t;
            }
        }
        if (alpha == 1.0) /* a unit coefficient reproduces the row exactly */
            for (int64_t j = 0; j < dim; j++)
                wt[j * stride + u] = x[j];
    }

    for (int64_t v = 0; v < n; v++)
        for (int64_t j = 0; j < dim; j++)
            w[v * dim + j] = wt[j * stride + v];
}

/* Whole races in C, bit for bit with race._tick stepped by random.Random.
 *
 * The generator is CPython's MT19937 (Modules/_randommodule.c): the same
 * seeding from an int, the same 53-bit random() and the same state layout
 * as random.getstate() (624 words, then the index).  A tick repeats _tick
 * operation for operation, so every double is computed from the same
 * operands in the same order; build without fast-math and with
 * -ffp-contract=off so that no multiply-add is fused.
 *
 * A runner is the 10 doubles of one race._compile tuple: theta, breakpoint
 * position, early, late, early_free, late_free, lognormal (0 or 1), a, b,
 * scale.  A finish tick of -1 marks a competitor still racing.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#define N 624
#define M 397
#define MATRIX_A 0x9908b0dfU
#define UPPER_MASK 0x80000000U
#define LOWER_MASK 0x7fffffffU

enum { RUNNER = 10 };
/* rm_run's status codes and start modes, as _kernel.py names them */
enum { RM_FINISHED, RM_BUDGET_SPENT, RM_DIVERGED, RM_OVERFLOW, RM_NO_MEMORY };
enum { RM_CONTINUE, RM_SEED, RM_PRIME };

static void init_genrand(uint32_t *mt, uint32_t s)
{
    mt[0] = s;
    for (uint32_t i = 1; i < N; i++)
        mt[i] = 1812433253U * (mt[i - 1] ^ (mt[i - 1] >> 30)) + i;
    mt[N] = N;
}

/* random.seed(seed) for 0 <= seed < 2**64: init_by_array over the
 * little-endian 32-bit words of seed, one word below 2**32. */
static void seed_mt(uint32_t *mt, uint64_t seed)
{
    uint32_t key[2] = {(uint32_t)seed, (uint32_t)(seed >> 32)};
    uint32_t key_length = key[1] ? 2 : 1;
    uint32_t i = 1, j = 0, k;
    init_genrand(mt, 19650218U);
    for (k = N; k; k--) {
        mt[i] = (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1664525U)) + key[j] + j;
        i++;
        j++;
        if (i >= N) {
            mt[0] = mt[N - 1];
            i = 1;
        }
        if (j >= key_length)
            j = 0;
    }
    for (k = N - 1; k; k--) {
        mt[i] = (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1566083941U)) - i;
        i++;
        if (i >= N) {
            mt[0] = mt[N - 1];
            i = 1;
        }
    }
    mt[0] = 0x80000000U;
}

static uint32_t genrand_uint32(uint32_t *mt)
{
    static const uint32_t mag01[2] = {0x0U, MATRIX_A};
    uint32_t y;
    if (mt[N] >= N) {
        int kk;
        for (kk = 0; kk < N - M; kk++) {
            y = (mt[kk] & UPPER_MASK) | (mt[kk + 1] & LOWER_MASK);
            mt[kk] = mt[kk + M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < N - 1; kk++) {
            y = (mt[kk] & UPPER_MASK) | (mt[kk + 1] & LOWER_MASK);
            mt[kk] = mt[kk + (M - N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (mt[N - 1] & UPPER_MASK) | (mt[0] & LOWER_MASK);
        mt[N - 1] = mt[M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        mt[N] = 0;
    }
    y = mt[mt[N]++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* random.random(): genrand_res53. */
static double uniform01(uint32_t *mt)
{
    uint32_t a = genrand_uint32(mt) >> 5, b = genrand_uint32(mt) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* random.lognormvariate(mu, sigma): Kinderman-Monahan normalvariate, then
 * math.exp, which raises OverflowError where exp of a finite value is inf.
 * nv_magic is random.NV_MAGICCONST.  Returns 0 on that overflow. */
static int lognormvariate(uint32_t *mt, double mu, double sigma, double nv_magic, double *out)
{
    double z, x;
    for (;;) {
        double u1 = uniform01(mt);
        double u2 = 1.0 - uniform01(mt);
        z = nv_magic * (u1 - 0.5) / u2;
        double zz = z * z / 4.0;
        if (zz <= -log(u2))
            break;
    }
    x = mu + z * sigma;
    *out = exp(x);
    return !(isinf(*out) && isfinite(x));
}

/* (position, index) order, which a stable sort of the index-ordered
 * racing field by position gives. */
static int before(const double *pos, int a, int b)
{
    return pos[a] < pos[b] || (pos[a] == pos[b] && a < b);
}

/* Race scratch: racing field in index order, its (position, index) order
 * from the last sort, positions in that order, and this tick's steps. */
typedef struct {
    int *racing, *order;
    double *ranked, *steps;
    int m, sorted;
} field_t;

/* order becomes the racing field by (position, index).  The field only
 * shrinks, so the last order minus the finished is nearly sorted already:
 * an insertion sort costs little more than the scan. */
static void rank_field(field_t *f, const double *pos, const int64_t *finish)
{
    int m = 0;
    if (!f->sorted) {
        for (int i = 0; i < f->m; i++)
            f->order[i] = f->racing[i];
        m = f->m;
        f->sorted = 1;
    } else {
        for (int i = 0; m < f->m; i++)
            if (finish[f->order[i]] < 0)
                f->order[m++] = f->order[i];
    }
    for (int i = 1; i < m; i++) {
        int c = f->order[i], k = i;
        while (k > 0 && before(pos, c, f->order[k - 1])) {
            f->order[k] = f->order[k - 1];
            k--;
        }
        f->order[k] = c;
    }
    for (int i = 0; i < m; i++)
        f->ranked[i] = pos[f->order[i]];
}

/* First k with ranked[k] > p: bisect.bisect_right. */
static int bisect_right(const double *ranked, int m, double p)
{
    int lo = 0, hi = m;
    while (lo < hi) {
        int mid = (lo + hi) / 2;
        if (p < ranked[mid])
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

/* race._tick on the racing field; returns RM_OVERFLOW or RM_FINISHED. */
static int tick(const double *runners, double length, double nv_magic, double *pos,
                double *prev, int64_t *finish, int64_t *counters, uint32_t *mt, field_t *f)
{
    int m = f->m, ranked = 0;
    for (int i = 0; i < m; i++) {
        int c = f->racing[i];
        const double *r = runners + (size_t)c * RUNNER;
        double theta = r[0], bp = r[1], p = pos[c], raw;
        if (theta > 0.0) {
            if (!ranked) {
                rank_field(f, pos, finish);
                ranked = 1;
            }
            int j = bisect_right(f->ranked, m, p);
            if (j < m && f->ranked[j] - p <= theta) {
                double gap = f->ranked[j] - p;
                int front = f->order[j];
                for (int k = j + 1; k < m && f->ranked[k] - p == gap; k++)
                    if (f->order[k] < front)
                        front = f->order[k];
                double own = prev[c], ahead = prev[front];
                f->steps[i] = (p < bp ? r[2] : r[3]) * (ahead < own ? ahead : own);
                counters[1]++;
                continue;
            }
        }
        if (r[6] != 0.0) {
            if (!lognormvariate(mt, r[7], r[8], nv_magic, &raw))
                return RM_OVERFLOW;
            raw = r[9] * raw;
        } else {
            raw = r[7] + r[8] * uniform01(mt);
        }
        f->steps[i] = (p < bp ? r[4] : r[5]) * raw;
    }
    int64_t t = ++counters[0];
    int still = 0;
    for (int i = 0; i < m; i++) {
        int c = f->racing[i];
        double s = f->steps[i], p = pos[c] + s;
        if (p == pos[c])
            p = nextafter(p, INFINITY);
        pos[c] = p;
        prev[c] = s;
        if (p >= length)
            finish[c] = t;
        else
            f->racing[still++] = c;
    }
    f->m = still;
    return RM_FINISHED;
}

/* race.race_ticks run in place for at most budget ticks (-1: no budget).
 *
 * floats holds the n positions, then the n previous steps; ints the n
 * finish ticks, then the tick and the blocked steps.  start is RM_CONTINUE
 * to go on drawing from mt, RM_SEED to seed mt with random.seed(seed)
 * first, RM_PRIME to also set the state to race.initial_state: everyone at
 * 0 with previous steps from one tick off the line of an endless track.
 * When snapshots is not NULL, the n positions after each tick are appended
 * to it.  Returns RM_FINISHED when nobody is racing, RM_BUDGET_SPENT when
 * budget ticks ran and some still race, RM_DIVERGED when the tick reached
 * stop first, RM_OVERFLOW when a lognormal draw overflowed (the tick is
 * left half done), or RM_NO_MEMORY.
 */
int rm_run(const double *runners, int n, double length, double nv_magic, uint64_t seed,
           int start, double *floats, int64_t *ints, uint32_t *mt, int64_t stop,
           int64_t budget, double *snapshots)
{
    double *pos = floats, *prev = floats + n;
    int64_t *finish = ints, *counters = ints + n, done = 0;
    field_t f = {0};
    int status = RM_FINISHED;
    f.racing = malloc(sizeof(int) * ((size_t)n * 2 + 1));
    f.ranked = malloc(sizeof(double) * ((size_t)n * 2 + 1));
    if (!f.racing || !f.ranked) {
        free(f.racing);
        free(f.ranked);
        return RM_NO_MEMORY;
    }
    f.order = f.racing + n;
    f.steps = f.ranked + n;
    if (start >= RM_SEED)
        seed_mt(mt, seed);
    if (start == RM_PRIME) {
        for (int c = 0; c < n; c++) {
            pos[c] = prev[c] = 0.0;
            finish[c] = -1;
            f.racing[c] = c;
        }
        f.m = n;
        counters[0] = counters[1] = 0;
        status = tick(runners, INFINITY, nv_magic, pos, prev, finish, counters, mt, &f);
        for (int c = 0; c < n; c++) {
            pos[c] = 0.0;
            finish[c] = -1;
        }
        counters[0] = counters[1] = 0;
        f.m = f.sorted = 0;
    }
    for (int c = 0; c < n && status == RM_FINISHED; c++)
        if (finish[c] < 0)
            f.racing[f.m++] = c;
    while (f.m) {
        if (counters[0] >= stop) {
            status = RM_DIVERGED;
            break;
        }
        if (done == budget) {
            status = RM_BUDGET_SPENT;
            break;
        }
        status = tick(runners, length, nv_magic, pos, prev, finish, counters, mt, &f);
        if (status != RM_FINISHED)
            break;
        if (snapshots)
            for (int c = 0; c < n; c++)
                snapshots[(size_t)done * n + c] = pos[c];
        done++;
    }
    free(f.racing);
    free(f.ranked);
    return status;
}

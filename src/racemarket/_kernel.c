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
 *
 * Three entry points: rm_run runs one race, rm_batch a chunk of a batch's
 * races, and rm_wins the dry-run continuations of one state.  None keeps
 * state between calls, so calls may run on several threads at once.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define N 624
#define M 397
#define MATRIX_A 0x9908b0dfU
#define UPPER_MASK 0x80000000U
#define LOWER_MASK 0x7fffffffU

enum { RUNNER = 10 };
/* the entry points' status codes, as _kernel.py names them */
enum { RM_FINISHED, RM_BUDGET_SPENT, RM_DIVERGED, RM_OVERFLOW, RM_NO_MEMORY };

static void init_genrand(uint32_t *mt, uint32_t s)
{
    mt[0] = s;
    for (uint32_t i = 1; i < N; i++)
        mt[i] = 1812433253U * (mt[i - 1] ^ (mt[i - 1] >> 30)) + i;
    mt[N] = N;
}

/* random.seed(seed) for 0 <= seed < 2**64 on mt holding init_genrand's
 * table for 19650218: init_by_array over the little-endian 32-bit words of
 * seed, one word below 2**32. */
static void seed_key(uint32_t *mt, uint64_t seed)
{
    uint32_t key[2] = {(uint32_t)seed, (uint32_t)(seed >> 32)};
    uint32_t key_length = key[1] ? 2 : 1;
    uint32_t i = 1, j = 0, k;
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

static int field_alloc(field_t *f, int n)
{
    f->racing = malloc(sizeof(int) * ((size_t)n * 2 + 1));
    f->ranked = malloc(sizeof(double) * ((size_t)n * 2 + 1));
    if (!f->racing || !f->ranked)
        return 0;
    f->order = f->racing + n;
    f->steps = f->ranked + n;
    return 1;
}

static void field_free(field_t *f)
{
    free(f->racing);
    free(f->ranked);
}

/* race.race_ticks on pos, prev, finish and counters (tick, blocked steps),
 * drawing from mt: see rm_run.  With prime, the state is first set to
 * race.initial_state. */
static int race(const double *runners, int n, double length, double nv_magic, int prime,
                double *pos, double *prev, int64_t *finish, int64_t *counters, uint32_t *mt,
                field_t *f, int64_t stop, int64_t budget, double *snapshots)
{
    int64_t done = 0;
    int status = RM_FINISHED;
    f->m = f->sorted = 0;
    if (prime) {
        for (int c = 0; c < n; c++) {
            pos[c] = prev[c] = 0.0;
            finish[c] = -1;
            f->racing[c] = c;
        }
        f->m = n;
        counters[0] = counters[1] = 0;
        status = tick(runners, INFINITY, nv_magic, pos, prev, finish, counters, mt, f);
        for (int c = 0; c < n; c++) {
            pos[c] = 0.0;
            finish[c] = -1;
        }
        counters[0] = counters[1] = 0;
        f->m = f->sorted = 0;
    }
    for (int c = 0; c < n && status == RM_FINISHED; c++)
        if (finish[c] < 0)
            f->racing[f->m++] = c;
    while (f->m) {
        if (counters[0] >= stop) {
            status = RM_DIVERGED;
            break;
        }
        if (done == budget) {
            status = RM_BUDGET_SPENT;
            break;
        }
        status = tick(runners, length, nv_magic, pos, prev, finish, counters, mt, f);
        if (status != RM_FINISHED)
            break;
        if (snapshots)
            for (int c = 0; c < n; c++)
                snapshots[(size_t)done * n + c] = pos[c];
        done++;
    }
    return status;
}

/* race.race_ticks run in place for at most budget ticks (-1: no budget).
 *
 * floats holds the n positions, then the n previous steps; ints the n
 * finish ticks, then the tick and the blocked steps.  With prime, mt is
 * first seeded with random.seed(seed) and the state set to
 * race.initial_state: everyone at 0 with previous steps from one tick off
 * the line of an endless track; without, the race goes on drawing from mt,
 * as a call whose budget ran out left it.  When snapshots is not NULL, the
 * n positions after each tick are appended to it.  Returns RM_FINISHED
 * when nobody is racing, RM_BUDGET_SPENT when budget ticks ran and some
 * still race, RM_DIVERGED when the tick reached stop first, RM_OVERFLOW
 * when a lognormal draw overflowed (the tick is left half done), or
 * RM_NO_MEMORY.
 */
int rm_run(const double *runners, int n, double length, double nv_magic, uint64_t seed,
           int prime, double *floats, int64_t *ints, uint32_t *mt, int64_t stop,
           int64_t budget, double *snapshots)
{
    field_t f = {0};
    int status = RM_NO_MEMORY;
    if (field_alloc(&f, n)) {
        if (prime) {
            init_genrand(mt, 19650218U);
            seed_key(mt, seed);
        }
        status = race(runners, n, length, nv_magic, prime, floats, floats + n, ints, ints + n,
                      mt, &f, stop, budget, snapshots);
    }
    field_free(&f);
    return status;
}

static uint64_t splitmix64(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

static uint64_t fnv1a(const unsigned char *data, size_t len)
{
    uint64_t h = 0xCBF29CE484222325ULL;
    for (size_t k = 0; k < len; k++)
        h = (h ^ data[k]) * 0x100000001B3ULL;
    return h;
}

/* A finish place: race._finish_order ranks by tick, then length - position
 * (the larger overshoot first), then index. */
typedef struct {
    int64_t tick;
    double back;
    int index;
} place_t;

static int by_place(const void *x, const void *y)
{
    const place_t *a = x, *b = y;
    if (a->tick != b->tick)
        return a->tick < b->tick ? -1 : 1;
    if (a->back != b->back)
        return a->back < b->back ? -1 : 1;
    return (a->index > b->index) - (a->index < b->index);
}

/* Runs first .. first + count - 1 of a batch on master: run i is primed and
 * raced on random.seed(seeding.derive_seed(master, "run", i)) with stop as
 * its tick limit.  Run k of the chunk writes its n finish ticks to
 * ticks_out + k * n and its finish order (competitor indices) to
 * order_out + k * n.  The first run that does not finish stops the chunk:
 * its index goes to *failed_index, its finish ticks so far to its row, and
 * its status (as rm_run's) is returned.  Returns RM_FINISHED when every run
 * finished.
 */
int rm_batch(const double *runners, int n, double length, double nv_magic, uint64_t master,
             int64_t first, int64_t count, int64_t stop, int64_t *ticks_out, int32_t *order_out,
             int64_t *failed_index)
{
    static const unsigned char run_tag[] = {'s', ':', 'r', 'u', 'n'};
    uint32_t table[N + 1], mt[N + 1];
    uint64_t path = splitmix64(splitmix64(master) ^ fnv1a(run_tag, sizeof run_tag));
    int64_t counters[2];
    field_t f = {0};
    double *pos = malloc(sizeof(double) * ((size_t)n * 2 + 1));
    place_t *places = malloc(sizeof(place_t) * ((size_t)n + 1));
    int status = RM_NO_MEMORY;
    if (!field_alloc(&f, n) || !pos || !places) {
        *failed_index = first;
        goto out;
    }
    init_genrand(table, 19650218U);
    status = RM_FINISHED;
    for (int64_t k = 0; k < count; k++) {
        uint64_t i = (uint64_t)(first + k);
        unsigned char index_key[10] = {'i', ':'};
        int64_t *finish = ticks_out + (size_t)k * n;
        for (int b = 0; b < 8; b++)
            index_key[2 + b] = (unsigned char)(i >> (56 - 8 * b));
        memcpy(mt, table, sizeof table);
        seed_key(mt, splitmix64(path ^ fnv1a(index_key, sizeof index_key)));
        status = race(runners, n, length, nv_magic, 1, pos, pos + n, finish, counters, mt, &f,
                      stop, -1, NULL);
        if (status != RM_FINISHED) {
            *failed_index = (int64_t)i;
            break;
        }
        for (int c = 0; c < n; c++) {
            places[c].tick = finish[c];
            places[c].back = length - pos[c];
            places[c].index = c;
        }
        qsort(places, (size_t)n, sizeof *places, by_place);
        for (int c = 0; c < n; c++)
            order_out[(size_t)k * n + c] = places[c].index;
    }
out:
    field_free(&f);
    free(pos);
    free(places);
    return status;
}

/* Win counts of d continuations of one state, continuation k drawing from
 * random.seed(seeds[k]), as race.simulate_from runs them: wins[c] counts the
 * continuations that c wins (first by race._finish_order).  floats and ints
 * hold the state as for rm_run and are left as they are, unless a
 * continuation does not finish: then they hold its state, and its status
 * (as rm_run's) is returned.  Returns RM_FINISHED when all d finished.
 */
int rm_wins(const double *runners, int n, double length, double nv_magic, const uint64_t *seeds,
            int64_t d, double *floats, int64_t *ints, int64_t stop, int64_t *wins)
{
    size_t floats_size = sizeof(double) * (size_t)n * 2;
    size_t ints_size = sizeof(int64_t) * ((size_t)n + 2);
    uint32_t table[N + 1], mt[N + 1];
    field_t f = {0};
    double *pos = malloc(floats_size + sizeof(double));
    int64_t *finish = malloc(ints_size);
    int status = RM_NO_MEMORY;
    if (!field_alloc(&f, n) || !pos || !finish)
        goto out;
    init_genrand(table, 19650218U);
    status = RM_FINISHED;
    for (int64_t k = 0; k < d; k++) {
        memcpy(pos, floats, floats_size);
        memcpy(finish, ints, ints_size);
        memcpy(mt, table, sizeof table);
        seed_key(mt, seeds[k]);
        status = race(runners, n, length, nv_magic, 0, pos, pos + n, finish, finish + n, mt, &f,
                      stop, -1, NULL);
        if (status != RM_FINISHED) {
            memcpy(floats, pos, floats_size);
            memcpy(ints, finish, ints_size);
            break;
        }
        int w = 0;
        for (int c = 1; c < n; c++)
            if (finish[c] < finish[w] ||
                (finish[c] == finish[w] && length - pos[c] < length - pos[w]))
                w = c;
        wins[w]++;
    }
out:
    field_free(&f);
    free(pos);
    free(finish);
    return status;
}

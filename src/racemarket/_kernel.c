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
 * Two entry points run races and one derives seeds: rm_run continues one
 * race from a given state and generator, rm_races runs many races, each on
 * its own seed, from race.initial_state (a batch's runs) or from one given
 * state (a prediction's dry runs), and rm_run_seeds derives a batch's run
 * seeds.
 * None keeps state between calls, so calls may run on several threads at
 * once.
 *
 * Streams are seeded in lanes: seed_lanes runs random.seed for up to LANES
 * seeds at once, each a column of one table, and lane_out hands a column to
 * the one generator a race draws from.  rm_races seeds each group of LANES
 * races in one call.
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
}

/* Streams seeded side by side: column l of a [N][LANES] table is lane l's
 * generator.  The seeding's multiply chain is serial within a stream, so the
 * loops below step all lanes at each position: the lanes' chains overlap and
 * the work is not bound by the multiply's latency. */
enum { LANES = 8 };

/* random.seed(seeds[l]) for each lane l < lanes (0 <= seed < 2**64), on
 * start holding init_genrand's table for 19650218: init_by_array over the
 * seed's little-endian 32-bit words, one word below 2**32.  Step s adds
 * key[j] + j with j = s mod the key length: key[0] on every step for a
 * 1-word key, key[0] and key[1] + 1 in turn for a 2-word one.  Lanes from
 * lanes on are seeded with 0 and not read. */
static void seed_lanes(uint32_t (*restrict mt)[LANES], const uint32_t *restrict start,
                       const uint64_t *seeds, int lanes)
{
    uint32_t add[2][LANES];
    for (int l = 0; l < LANES; l++) {
        uint64_t seed = l < lanes ? seeds[l] : 0;
        add[0][l] = (uint32_t)seed;
        add[1][l] = seed >> 32 ? (uint32_t)(seed >> 32) + 1 : (uint32_t)seed;
    }
    for (int i = 0; i < N; i++)
        for (int l = 0; l < LANES; l++)
            mt[i][l] = start[i];
    int i = 1;
    for (int k = 0; k < N; k++) {
        const uint32_t *a = add[k & 1];
        for (int l = 0; l < LANES; l++)
            mt[i][l] = (mt[i][l] ^ ((mt[i - 1][l] ^ (mt[i - 1][l] >> 30)) * 1664525U)) + a[l];
        if (++i >= N) {
            memcpy(mt[0], mt[N - 1], sizeof mt[0]);
            i = 1;
        }
    }
    for (int k = 0; k < N - 1; k++) {
        for (int l = 0; l < LANES; l++)
            mt[i][l] = (mt[i][l] ^ ((mt[i - 1][l] ^ (mt[i - 1][l] >> 30)) * 1566083941U)) -
                       (uint32_t)i;
        if (++i >= N) {
            memcpy(mt[0], mt[N - 1], sizeof mt[0]);
            i = 1;
        }
    }
    for (int l = 0; l < LANES; l++)
        mt[0][l] = 0x80000000U;
}

/* The generator mt (N words, then the index) takes lane's stream, freshly
 * seeded. */
static void lane_out(uint32_t *mt, uint32_t (*lanes)[LANES], int lane)
{
    for (int i = 0; i < N; i++)
        mt[i] = lanes[i][lane];
    mt[N] = N;
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
 * drawing from mt: see rm_run. */
static int race(const double *runners, int n, double length, double nv_magic, double *pos,
                double *prev, int64_t *finish, int64_t *counters, uint32_t *mt, field_t *f,
                int64_t stop, int64_t budget, double *snapshots)
{
    int64_t done = 0;
    int status = RM_FINISHED;
    f->m = f->sorted = 0;
    for (int c = 0; c < n; c++)
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

/* race.initial_state into pos, prev, finish and counters, drawing from mt:
 * everyone at 0 with previous steps from one tick off the line of an endless
 * track.  Returns RM_OVERFLOW or RM_FINISHED. */
static int prime(const double *runners, int n, double nv_magic, double *pos, double *prev,
                 int64_t *finish, int64_t *counters, uint32_t *mt, field_t *f)
{
    for (int c = 0; c < n; c++) {
        pos[c] = prev[c] = 0.0;
        finish[c] = -1;
        f->racing[c] = c;
    }
    f->m = n;
    f->sorted = 0;
    counters[0] = counters[1] = 0;
    int status = tick(runners, INFINITY, nv_magic, pos, prev, finish, counters, mt, f);
    for (int c = 0; c < n; c++) {
        pos[c] = 0.0;
        finish[c] = -1;
    }
    counters[0] = counters[1] = 0;
    return status;
}

/* race.race_ticks run in place for at most budget ticks (-1: no budget).
 *
 * floats holds the n positions, then the n previous steps; ints the n
 * finish ticks, then the tick and the blocked steps; mt the generator as
 * random.getstate() gives it (N words, then the index), which the race goes
 * on drawing from.  A call whose budget ran out leaves all three ready for
 * the next.  When snapshots is not NULL, the n positions after each tick are
 * appended to it.  Returns RM_FINISHED when nobody is racing,
 * RM_BUDGET_SPENT when budget ticks ran and some still race, RM_DIVERGED
 * when the tick reached stop first, RM_OVERFLOW when a lognormal draw
 * overflowed (the tick is left half done), or RM_NO_MEMORY.
 */
int rm_run(const double *runners, int n, double length, double nv_magic, double *floats,
           int64_t *ints, uint32_t *mt, int64_t stop, int64_t budget, double *snapshots)
{
    field_t f = {0};
    int status = RM_NO_MEMORY;
    if (field_alloc(&f, n))
        status = race(runners, n, length, nv_magic, floats, floats + n, ints, ints + n, mt, &f,
                      stop, budget, snapshots);
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

/* seeds[k] = seeding.derive_seed(master, "run", first + k) for k < count:
 * the seeds of a batch's runs first .. first + count - 1. */
void rm_run_seeds(uint64_t master, int64_t first, int64_t count, uint64_t *seeds)
{
    static const unsigned char run_tag[] = {'s', ':', 'r', 'u', 'n'};
    uint64_t path = splitmix64(splitmix64(master) ^ fnv1a(run_tag, sizeof run_tag));
    for (int64_t k = 0; k < count; k++) {
        uint64_t i = (uint64_t)first + (uint64_t)k;
        unsigned char index_key[10] = {'i', ':'};
        for (int b = 0; b < 8; b++)
            index_key[2 + b] = (unsigned char)(i >> (56 - 8 * b));
        seeds[k] = splitmix64(path ^ fnv1a(index_key, sizeof index_key));
    }
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

/* count races, race k drawing from random.seed(seeds[k]) with stop as its
 * tick limit.  Each starts from race.initial_state when floats is NULL, and
 * otherwise from the state floats and ints hold (as for rm_run; only read).
 * Race k writes its n finish ticks to ticks_out + k * n and its finish order
 * (competitor indices, by race._finish_order) to order_out + k * n.  The
 * first race that does not finish stops the call, with its finish ticks so
 * far in its row.  Returns the number of races finished; *status is
 * RM_FINISHED when all count finished, and otherwise the failing race's
 * status, as rm_run's.
 */
int64_t rm_races(const double *runners, int n, double length, double nv_magic,
                 const uint64_t *seeds, int64_t count, const double *floats, const int64_t *ints,
                 int64_t stop, int64_t *ticks_out, int32_t *order_out, int *status)
{
    uint32_t table[N], mt[N + 1], lanes[N][LANES];
    int64_t counters[2], k = 0;
    field_t f = {0};
    double *pos = malloc(sizeof(double) * ((size_t)n * 2 + 1));
    place_t *places = malloc(sizeof(place_t) * ((size_t)n + 1));
    *status = RM_NO_MEMORY;
    if (!field_alloc(&f, n) || !pos || !places)
        goto out;
    init_genrand(table, 19650218U);
    *status = RM_FINISHED;
    for (; k < count; k++) {
        int64_t *finish = ticks_out + (size_t)k * n;
        if (k % LANES == 0)
            seed_lanes(lanes, table, seeds + k, count - k < LANES ? (int)(count - k) : LANES);
        lane_out(mt, lanes, (int)(k % LANES));
        if (floats) {
            memcpy(pos, floats, sizeof(double) * (size_t)n * 2);
            memcpy(finish, ints, sizeof(int64_t) * (size_t)n);
            counters[0] = ints[n];
            counters[1] = ints[n + 1];
        } else {
            *status = prime(runners, n, nv_magic, pos, pos + n, finish, counters, mt, &f);
        }
        if (*status == RM_FINISHED)
            *status = race(runners, n, length, nv_magic, pos, pos + n, finish, counters, mt, &f,
                           stop, -1, NULL);
        if (*status != RM_FINISHED)
            break;
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
    return k;
}

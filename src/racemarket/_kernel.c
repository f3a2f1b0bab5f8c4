/* Whole races in C, bit for bit with race._tick stepped by random.Random.
 *
 * The generator is CPython's MT19937 (Modules/_randommodule.c): the same
 * seeding from an int and the same 53-bit random().  A tick repeats _tick
 * operation for operation, so every double is computed from the same
 * operands in the same order; build without fast-math and with
 * -ffp-contract=off so that no multiply-add is fused.
 *
 * A runner is the 10 doubles of one race._compile tuple: theta, breakpoint
 * position, early, late, early_free, late_free, lognormal (0 or 1), a, b,
 * scale.  A finish tick of -1 marks a competitor still racing.
 *
 * One entry point runs races: rm_races, each race on its own seed, from
 * race.initial_state (a batch's runs, or run_race's one race, recorded) or
 * from one given state (a prediction's dry runs).  rm_run_seeds derives a
 * batch's run seeds and rm_free frees a recorded race's rows.  A fourth,
 * rm_position_lines, writes trajectory.csv's lines, each
 * position as repr writes it, over 0.0 and [2**-6, 2**53): one exact
 * scaled product, in 128 bits from 32-bit halves, gives the position's 17
 * significant digits and, by addition, its rounding bounds; trailing digits
 * are taken off while a shorter number stays within them, and the rest are
 * written straight into the line (see repr_double).  It refuses any other
 * value, and the writer then writes that chunk by repr.
 * The source is strict C99: no 128-bit integer or other extension.
 * It reads the positions in place from a trajectory's snapshots array.
 * None keeps state between calls but a record, which the caller owns, so
 * calls may run on several threads at once.
 *
 * Streams are seeded in lanes: seed_lanes runs random.seed for up to LANES
 * seeds at once, each a column of one table, and lane_out hands a column to
 * the one generator a race draws from.  rm_races seeds each group of LANES
 * races in one call, and a last group of fewer (a one-seed call's, or the
 * rest of a count that is not a multiple of LANES) in only its own lanes.
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
enum { RM_FINISHED, RM_DIVERGED, RM_OVERFLOW, RM_NO_MEMORY };

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

/* random.seed(seeds[l]) for each lane l < width (0 <= seed < 2**64), on
 * start holding init_genrand's table for 19650218: init_by_array over the
 * seed's little-endian 32-bit words, one word below 2**32.  Step s adds
 * key[j] + j with j = s mod the key length: key[0] on every step for a
 * 1-word key, key[0] and key[1] + 1 in turn for a 2-word one.  Columns
 * from width on hold no stream and are not read. */
static inline void seed_columns(uint32_t (*restrict mt)[LANES], const uint32_t *restrict start,
                                const uint64_t *seeds, int width)
{
    uint32_t add[2][LANES];
    for (int l = 0; l < width; l++) {
        add[0][l] = (uint32_t)seeds[l];
        add[1][l] = seeds[l] >> 32 ? (uint32_t)(seeds[l] >> 32) + 1 : (uint32_t)seeds[l];
    }
    for (int i = 0; i < N; i++)
        for (int l = 0; l < width; l++)
            mt[i][l] = start[i];
    int i = 1;
    for (int k = 0; k < N; k++) {
        const uint32_t *a = add[k & 1];
        for (int l = 0; l < width; l++)
            mt[i][l] = (mt[i][l] ^ ((mt[i - 1][l] ^ (mt[i - 1][l] >> 30)) * 1664525U)) + a[l];
        if (++i >= N) {
            memcpy(mt[0], mt[N - 1], sizeof mt[0]);
            i = 1;
        }
    }
    for (int k = 0; k < N - 1; k++) {
        for (int l = 0; l < width; l++)
            mt[i][l] = (mt[i][l] ^ ((mt[i - 1][l] ^ (mt[i - 1][l] >> 30)) * 1566083941U)) -
                       (uint32_t)i;
        if (++i >= N) {
            memcpy(mt[0], mt[N - 1], sizeof mt[0]);
            i = 1;
        }
    }
    for (int l = 0; l < width; l++)
        mt[0][l] = 0x80000000U;
}

/* seed_columns for lanes seeds, 1 <= lanes <= LANES.  A full group steps
 * all LANES columns in loops of constant length, which the compiler turns
 * into vector code; a part of one steps only its lanes, so a one-seed call
 * does not pay for eight. */
static void seed_lanes(uint32_t (*restrict mt)[LANES], const uint32_t *restrict start,
                       const uint64_t *seeds, int lanes)
{
    if (lanes == LANES)
        seed_columns(mt, start, seeds, LANES);
    else
        seed_columns(mt, start, seeds, lanes);
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

/* A recorded race (see rm_races): count of rows' capacity rows written. */
typedef struct {
    double *rows;
    int64_t count, capacity, blocked;
} record_t;

enum { RECORD_ROWS = 256 };

/* pos's n values appended to r as a row; 0 when the rows could not grow. */
static int record_row(record_t *r, const double *pos, int n)
{
    if (r->count == r->capacity) {
        int64_t capacity = r->capacity ? 2 * r->capacity : RECORD_ROWS;
        double *rows = realloc(r->rows, sizeof(double) * (size_t)capacity * (size_t)n);
        if (!rows)
            return 0;
        r->rows = rows;
        r->capacity = capacity;
    }
    memcpy(r->rows + (size_t)(r->count++ * n), pos, sizeof(double) * (size_t)n);
    return 1;
}

/* race.race_ticks on pos, prev, finish and counters (tick, blocked steps),
 * drawing from mt, each tick's positions appended to record unless it is
 * NULL; returns a status as rm_races gives it (an overflow leaves the tick
 * half done). */
static int race(const double *runners, int n, double length, double nv_magic, double *pos,
                double *prev, int64_t *finish, int64_t *counters, uint32_t *mt, field_t *f,
                int64_t stop, record_t *record)
{
    f->m = f->sorted = 0;
    for (int c = 0; c < n; c++)
        if (finish[c] < 0)
            f->racing[f->m++] = c;
    while (f->m) {
        if (counters[0] >= stop)
            return RM_DIVERGED;
        int status = tick(runners, length, nv_magic, pos, prev, finish, counters, mt, f);
        if (status != RM_FINISHED)
            return status;
        if (record && !record_row(record, pos, n))
            return RM_NO_MEMORY;
    }
    return RM_FINISHED;
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
 * otherwise from one given state, which is only read: floats holds its n
 * positions, then its n previous steps; ints its n finish ticks, then its
 * tick and blocked steps.
 * Race k writes its n finish ticks to ticks_out + k * n and its finish order
 * (competitor indices, by race._finish_order) to order_out + k * n.  The
 * first race that does not finish stops the call, with its finish ticks so
 * far in its row.  Returns the number of races finished; *status is
 * RM_FINISHED when all count finished, and otherwise the failing race's:
 * RM_DIVERGED when its tick reached stop, RM_OVERFLOW when a lognormal draw
 * overflowed, or RM_NO_MEMORY.  record is NULL or, for a call with count 1,
 * a zeroed record_t that gets the race's blocked steps and, as rows, its
 * start and the positions after each tick: its rows start at RECORD_ROWS
 * and double when full, and the caller frees them with rm_free, whatever
 * the status.
 */
int64_t rm_races(const double *runners, int n, double length, double nv_magic,
                 const uint64_t *seeds, int64_t count, const double *floats, const int64_t *ints,
                 int64_t stop, int64_t *ticks_out, int32_t *order_out, record_t *record,
                 int *status)
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
        if (*status == RM_FINISHED && record && !record_row(record, pos, n))
            *status = RM_NO_MEMORY;
        if (*status == RM_FINISHED)
            *status = race(runners, n, length, nv_magic, pos, pos + n, finish, counters, mt, &f,
                           stop, record);
        if (record)
            record->blocked = counters[1];
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

/* Frees the rows rm_races recorded. */
void rm_free(record_t *record)
{
    free(record->rows);
}

/* repr(x) written to out, for x = 0.0 or 2**-6 <= x < 2**53; returns its
 * length, at most REPR_MAX, or 0 for any other x (-0.0, negatives,
 * subnormals, below 2**-6, 2**53 and up, nan, inf), which is not written.
 *
 * The digits are the shortest that read back as x, and of those the nearest
 * to x, the even one on a tie, as CPython's dtoa.c mode 0 writes them.  They
 * come from exact scaled integers, as in Ryu (Adams, PLDI 2018) but with no
 * table of approximations.  x = m * 2**e with 2**52 <= m < 2**53 and
 * -58 <= e <= 0; the halfway points to its neighbours are (4m + 2) * 2**(e-2)
 * and (4m - 2) * 2**(e-2), or (4m - 1) * 2**(e-2) below a power of two, and
 * they read back as x when m is even.  With k integer digits in x
 * (10**(k-1) <= x < 10**k, -1 <= k <= 16), P = 10**(17 - k) and
 * s = 2 - e, 4m is multiplied once by P and shifted right by s: v, the
 * integer part of x * 10**(17 - k), has 17 digits, and rem holds the bits
 * shifted out.  As 4m < 2**55 and P <= 10**18 < 2**60, the product fits in
 * 128 bits and v in 64.  The bounds' products, 4mP + 2P and 4mP - D with
 * D = 2P, or P below a power of two, differ from 4mP only in a term below
 * 2**61, so they come from v and rem by addition: the integer parts of the
 * scaled bounds are v plus the carry out of rem + 2P and v less the borrow
 * that rem - D takes, and the bits shifted out of each are kept (rem <
 * 2**60, so no sum leaves 64 bits).  vp and vm, the largest and smallest
 * integers between the scaled bounds, follow, and every comparison is
 * exact.
 * The scaled bounds lie 0.55 to 11.1 from the scaled x, so vp - vm <= 22
 * and [vm, vp] holds at most one multiple of 100.  When it holds one, that
 * is the only candidate with 15 digits or fewer, and so the shortest: its
 * trailing zeros come off and no digit is rounded.  Otherwise, when a
 * multiple of 10 lies in [vm, vp], one digit is taken off v and vm; then v
 * is rounded to the nearest by what was taken off (that digit, then the
 * bits shifted out), the even on a tie.  That nearest is between the bounds
 * (v + 1 is kept where v is below them, which only a power of two's nearer
 * lower bound could cause).  In this range a bound's digits end further
 * out than x's, and a power of two's digits within 17, so neither the
 * inclusive bounds nor that nearer lower bound ever changes a digit; they
 * keep the rule exact beyond it.  repr writes such an x in fixed notation,
 * with ".0" after an integral value; the digits are written where they
 * stand in it, with no buffer between. */
enum { REPR_MAX = 20, REPR_DIGITS = 17 };

static const uint64_t POW10[REPR_DIGITS + 2] = {
    1ULL, 10ULL, 100ULL, 1000ULL, 10000ULL, 100000ULL, 1000000ULL, 10000000ULL,
    100000000ULL, 1000000000ULL, 10000000000ULL, 100000000000ULL, 1000000000000ULL,
    10000000000000ULL, 100000000000000ULL, 1000000000000000ULL, 10000000000000000ULL,
    100000000000000000ULL, 1000000000000000000ULL,
};

/* "00" to "99": digits are written two at a time */
static const char DIGIT_PAIRS[] = "0001020304050607080910111213141516171819"
                                  "2021222324252627282930313233343536373839"
                                  "4041424344454647484950515253545556575859"
                                  "6061626364656667686970717273747576777879"
                                  "8081828384858687888990919293949596979899";

/* a * b >> shift for 2 <= shift <= 60, the product below 2**(64 + shift),
 * from 32-bit halves, as C99 has no 128-bit integer; *rem gets the bits
 * shifted out. */
static uint64_t mul_shift(uint64_t a, uint64_t b, int shift, uint64_t *rem)
{
    uint64_t a0 = a & 0xFFFFFFFFU, a1 = a >> 32, b0 = b & 0xFFFFFFFFU, b1 = b >> 32;
    uint64_t low = a0 * b0, cross1 = a1 * b0, cross0 = a0 * b1;
    uint64_t mid = (low >> 32) + (cross1 & 0xFFFFFFFFU) + (cross0 & 0xFFFFFFFFU);
    uint64_t high = a1 * b1 + (cross1 >> 32) + (cross0 >> 32) + (mid >> 32);
    uint64_t lo = mid << 32 | (low & 0xFFFFFFFFU);
    *rem = lo & ((1ULL << shift) - 1);
    return high << (64 - shift) | lo >> shift;
}

/* v's nd digits, v < 10**17, to out[0 .. nd): two at a time from the
 * right, the low eight from 32 bits, then the rest, below 10**9, from 32. */
static void write_digits(char *out, uint64_t v, int nd)
{
    char *p = out + nd;
    uint32_t high = (uint32_t)v;
    if (nd > 8) {
        uint32_t low = (uint32_t)(v % 100000000U);
        high = (uint32_t)(v / 100000000U);
        for (int j = 0; j < 4; j++, low /= 100) {
            p -= 2;
            memcpy(p, DIGIT_PAIRS + 2 * (low % 100), 2);
        }
        nd -= 8;
    }
    for (; nd > 1; nd -= 2, high /= 100) {
        p -= 2;
        memcpy(p, DIGIT_PAIRS + 2 * (high % 100), 2);
    }
    if (nd)
        p[-1] = (char)('0' + high);
}

static int repr_double(double x, char *out)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    if (bits == 0) {
        memcpy(out, "0.0", 3);
        return 3;
    }
    /* the biased exponent, with the sign bit above it: 1017 is 2**-6, 1075 2**52 */
    int biased = (int)(bits >> 52);
    if (biased < 1017 || biased > 1075)
        return 0;
    uint64_t m = (bits & ((1ULL << 52) - 1)) | 1ULL << 52;
    int e = biased - 1075, shift = 2 - e;
    /* x's integer digits, estimated as those of 2**(52 + e), the least value
     * of its binade: floor((52 + e) * log10(2)) + 1, with 1233 / 4096 for
     * log10(2), exact for -6 <= 52 + e <= 52; the 8192 (2 * 4096, taken off
     * again) keeps the dividend positive, as C rounds a quotient toward 0 */
    int k = ((52 + e) * 1233 + 8192) / 4096 - 1;
    uint64_t p10 = POW10[REPR_DIGITS - k], rem, v = mul_shift(4 * m, p10, shift, &rem);
    if (v >= POW10[REPR_DIGITS]) { /* x >= 10**k: one integer digit more */
        k++;
        p10 = POW10[REPR_DIGITS - k];
        v = mul_shift(4 * m, p10, shift, &rem);
    }
    /* the bounds' scaled products, 4m * P + 2P and 4m * P - D, from v and
     * rem by addition: their bits shifted out are rem + 2P and rem - D, with
     * a carry into v or a borrow from it */
    uint64_t mask = (1ULL << shift) - 1, lopsided = m == 1ULL << 52, even = (m & 1) == 0;
    uint64_t up = rem + 2 * p10, vp = v + (up >> shift), rp = up & mask;
    uint64_t d = (2 - lopsided) * p10, borrow = rem < d ? (d - rem + mask) >> shift : 0;
    uint64_t vm = v - borrow, rm = rem + (borrow << shift) - d;
    vp -= rp == 0 && !even; /* a bound itself reads back as x only for an even m */
    vm += rm != 0 || !even;
    int nd = REPR_DIGITS;
    if (vp / 100 * 100 >= vm) { /* the one multiple of 100 in [vm, vp] */
        v = vp / 100;
        for (nd -= 2; v % 10 == 0; nd--)
            v /= 10;
    } else {
        /* the digit below v's last, from the bits shifted out, and whether
         * any nonzero digit follows it */
        int below = (int)(rem * 10 >> shift), more = (rem * 10 & mask) != 0;
        if (vp / 10 * 10 >= vm) { /* a multiple of 10 in [vm, vp] */
            more |= below != 0;
            below = (int)(v % 10);
            v /= 10;
            vm = (vm + 9) / 10;
            nd--;
        }
        /* bitwise, not short-circuit: which term decides is random, so a
         * branch on each would often be mispredicted */
        v += (v < vm) | (below > 5) | ((below == 5) & (more | (int)(v & 1)));
    }
    /* v has nd digits, the last not a 0 (a multiple of 10 would have been
     * taken off), and v + 1 never reaches 10**nd, as no power of ten lies
     * between an x here and its upper bound.  x = 0.digits * 10**k: the
     * digits are written where they stand in the line */
    char *p = out;
    if (k <= 0) {
        *p++ = '0';
        *p++ = '.';
        for (int z = k; z < 0; z++)
            *p++ = '0';
        write_digits(p, v, nd);
        p += nd;
    } else if (k < nd) {
        /* one place right of the line's start, then the integer digits move
         * back over it to make room for the point */
        write_digits(p + 1, v, nd);
        for (int i = 0; i < k; i++)
            p[i] = p[i + 1];
        p[k] = '.';
        p += nd + 1;
    } else {
        write_digits(p, v, nd);
        p += nd;
        for (int z = nd; z < k; z++)
            *p++ = '0';
        *p++ = '.';
        *p++ = '0';
    }
    return (int)(p - out);
}

/* trajectory.csv's lines for rows of n positions, row t at tick
 * first_tick + t: value c of a row is the line of the tick, competitor c's
 * prefix, repr of the value and "\r\n".  values holds the rows one after
 * another; prefix c is prefixes[ends[c - 1] .. ends[c]) (from 0 for c = 0),
 * the competitor's ",<csv-quoted id>,".  out must hold rows * (n * (the
 * last tick's digits + REPR_MAX + 2) + ends[n - 1]) bytes.  Returns the
 * number of bytes written, or -1 when a value is one repr_double refuses.
 */
int64_t rm_position_lines(const double *values, int64_t rows, int n, int64_t first_tick,
                          const char *prefixes, const int64_t *ends, char *out)
{
    char *p = out;
    for (int64_t t = 0; t < rows; t++) {
        char tick[20];
        int width = 0;
        for (uint64_t v = (uint64_t)(first_tick + t); width == 0 || v; v /= 10)
            tick[sizeof tick - ++width] = (char)('0' + v % 10);
        for (int c = 0; c < n; c++) {
            int64_t start = c ? ends[c - 1] : 0;
            memcpy(p, tick + sizeof tick - width, (size_t)width);
            p += width;
            memcpy(p, prefixes + start, (size_t)(ends[c] - start));
            p += ends[c] - start;
            int len = repr_double(values[(size_t)t * n + c], p);
            if (!len)
                return -1;
            p += len;
            *p++ = '\r';
            *p++ = '\n';
        }
    }
    return p - out;
}

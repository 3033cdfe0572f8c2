/* Step kernel of nrrw.engine.run: the walker on its growing tree, in one
 * call that keeps no state after it, drawing from the run's PCG64 stream
 * itself; the star sampler of nrrw.oracles.sample_star on the same stream;
 * and the depth pass of nrrw.stats.depths.
 *
 * Each vertex keeps its walk neighbours in draw order, [0, 0, children...]
 * at the root (the self-loop twice) and [parent, children...] elsewhere, so
 * a step is pos = nb[r % len], the mapping of engine.PrngStream.randbelow.
 * After every s steps the next vertex attaches to the walker's position.
 *
 * A non-root vertex without a child has one neighbour, its parent, and the
 * walker can only have come from there: a step off such a leaf goes back to
 * the previous position without loading the leaf's list, which misses the
 * cache once the tree is large. One byte per vertex says whether it has a
 * child (the root always counts as having one, for its self-loop). The leaf
 * step still uses up its draw, as r % 1 == 0 does, so every later step reads
 * the same draw as before and the outputs are those of the full rule.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* numpy's PCG64 (XSL-RR 128/64): each output first steps the 128-bit LCG,
 * then folds the new state's halves and rotates them by its top six bits.
 * Generator.integers(0, 2**62), the draws of engine.run, is that output
 * >> 2: Lemire's method on a power-of-two range never rejects and keeps the
 * top bits. Without unsigned __int128 (a 32-bit gcc) the file does not
 * compile, and the package steps in Python on numpy's draws. */
typedef unsigned __int128 u128;

typedef struct {
    u128 state, inc;
} pcg64;

static pcg64 pcg64_at(uint64_t state_hi, uint64_t state_lo, uint64_t inc_hi,
                      uint64_t inc_lo)
{
    return (pcg64){(u128)state_hi << 64 | state_lo, (u128)inc_hi << 64 | inc_lo};
}

static inline void pcg64_step(pcg64 *g)
{
    const u128 mult = (u128)0x2360ed051fc65da4ULL << 64 | 0x4385df649fccf645ULL;
    g->state = g->state * mult + g->inc;
}

/* The next 62-bit draw. */
static inline uint64_t pcg64_draw(pcg64 *g)
{
    pcg64_step(g);
    uint64_t x = (uint64_t)(g->state >> 64) ^ (uint64_t)g->state;
    unsigned rot = (unsigned)(g->state >> 122);
    return ((x >> rot) | (x << (-rot & 63))) >> 2;
}

typedef struct {
    int32_t *nb;     /* neighbours in draw order: own, or a heap array */
    uint32_t len, cap;
    int32_t own[2];  /* storage until the vertex has more than two */
} vertex;

static int append(vertex *x, int32_t child)
{
    if (x->len == x->cap) {
        size_t size = 2 * (size_t)x->cap * sizeof *x->nb;
        int32_t *nb = x->nb == x->own ? malloc(size) : realloc(x->nb, size);
        if (!nb)
            return -1;
        if (x->nb == x->own)
            memcpy(nb, x->own, sizeof x->own);
        x->nb = nb;
        x->cap *= 2;
    }
    x->nb[x->len++] = child;
    return 0;
}

/* Takes up to total steps from the root alone, one draw a step from the
 * PCG64 generator of the given state and increment (as high and low
 * halves), on a tree that grows to n vertices, writing the walker's
 * position after each step to positions[0..total) and each attached
 * vertex's parent to parent[1..n). Returns the number of steps taken with
 * their attachments: fewer than total only when out of memory. Frees all it
 * allocates. */
int64_t walk(int64_t s, int64_t n, uint64_t state_hi, uint64_t state_lo,
             uint64_t inc_hi, uint64_t inc_lo, int64_t total,
             int32_t *positions, int64_t *parent)
{
    pcg64 gen = pcg64_at(state_hi, state_lo, inc_hi, inc_lo);
    vertex *v = calloc((size_t)n, sizeof *v);
    uint8_t *has_child = calloc((size_t)n, 1);
    if (!v || !has_child) {
        free(v);
        free(has_child);
        return 0;
    }
    v[0] = (vertex){v[0].own, 2, 2, {0, 0}};
    has_child[0] = 1;
    int32_t pos = 0, prev = 0;
    int64_t built = 1, until_attach = s, i;
    for (i = 0; i < total; i++) {
        const vertex *here = &v[pos];
        int32_t from = pos;
        if (has_child[pos])
            pos = here->nb[pcg64_draw(&gen) % here->len];
        else {
            pcg64_step(&gen);  /* the leaf's draw, unused */
            pos = prev;
        }
        prev = from;
        positions[i] = pos;
        if (--until_attach == 0) {
            if (append(&v[pos], (int32_t)built) != 0)
                break;
            has_child[pos] = 1;
            v[built] = (vertex){v[built].own, 1, 2, {pos, 0}};
            parent[built++] = pos;
            until_attach = s;
        }
    }
    for (int64_t j = 0; j < built; j++)
        if (v[j].nb != v[j].own)
            free(v[j].nb);
    free(v);
    free(has_child);
    return i;
}

/* Runs samples star processes of nrrw.oracles.simulate_star one after
 * another on the PCG64 generator of the given state and increment: the
 * centre starts with one leaf and a parent edge of the given weight, the
 * walker on the centre. A step from the centre draws r and stops the
 * process on r % (leaves + weight) < weight, else goes to a leaf, from
 * where the next step comes back; after every s steps a leaf joins. So the
 * walker is on the centre after each even number t of steps, with
 * 1 + t / s leaves, and draws only there. Writes each run's stop time, or
 * 0 if none came by max_time, to stop[] and the centre's final degree,
 * weight included, to degree[]. */
void star(int64_t s, int64_t weight, int64_t max_time, uint64_t state_hi,
          uint64_t state_lo, uint64_t inc_hi, uint64_t inc_lo,
          int64_t samples, int64_t *stop, int64_t *degree)
{
    pcg64 gen = pcg64_at(state_hi, state_lo, inc_hi, inc_lo);
    uint64_t w = (uint64_t)weight;
    for (int64_t j = 0; j < samples; j++) {
        int64_t t = 0;
        while (t < max_time && pcg64_draw(&gen) % (1 + t / s + w) >= w)
            t += 2;
        stop[j] = t < max_time ? t + 1 : 0;
        /* the leaves that joined by the stop, or by max_time */
        degree[j] = 1 + (stop[j] ? t : max_time > 0 ? max_time : 0) / s
                    + weight;
    }
}

/* Writes the depth of every vertex of a tree of n vertices, given each
 * vertex's parent, to depth[0..n): one pass in label order, as every parent
 * is older than its child. Returns 0, or the first v >= 1 whose parent is
 * not in [0, v), having written depth[0..v) only. */
int64_t depths(int64_t n, const int64_t *parent, int64_t *depth)
{
    if (n > 0)
        depth[0] = 0;
    for (int64_t v = 1; v < n; v++) {
        int64_t p = parent[v];
        if (p < 0 || p >= v)
            return v;
        depth[v] = depth[p] + 1;
    }
    return 0;
}

/* Step kernel of nrrw.engine.run: the walker on its growing tree, in one
 * call that keeps no state after it, drawing from the run's PCG64 stream
 * itself and taking the run's statistics as it steps; the star sampler of
 * nrrw.oracles.sample_star on the same stream; and the depth pass of
 * nrrw.stats.depths.
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
 *
 * The statistics ride on what the loop holds already (see struct tally):
 * the walker's position and the one before it give the root's counts, the
 * has_child byte of an attachment point says whether the new vertex leaves
 * the leaf count as it was, each vertex's depth is its parent's plus one,
 * and the list lengths freed at the end are the walk degrees. Each one has
 * a numpy derivation from the run's arrays in nrrw.stats.derive_record,
 * which criterion 9 and the tests hold it to.
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
    uint32_t len, depth;
    int32_t own[2];  /* storage until the vertex has more than two */
} vertex;

/* A list holds two entries in own, then moves to the heap and doubles
 * whenever its length reaches a power of two: full at 2, 4, 8, ... Returns
 * -1, with x unchanged, when out of memory. Inlined, as a call per
 * attachment costs the loop more than its body. */
static inline __attribute__((always_inline)) int append(vertex *x,
                                                        int32_t child)
{
    uint32_t len = x->len;
    if (len >= 2 && !(len & (len - 1))) {
        size_t size = 2 * (size_t)len * sizeof *x->nb;
        int32_t *nb = x->nb == x->own ? malloc(size) : realloc(x->nb, size);
        if (!nb)
            return -1;
        if (x->nb == x->own)
            memcpy(nb, x->own, sizeof x->own);
        x->nb = nb;
    }
    x->nb[x->len++] = child;
    return 0;
}

/* What walk takes of a run as it steps, for nrrw.stats.collect_run, in the
 * layout of nrrw.engine.Tally. The caller sets the inputs and gives each
 * array its room:
 *  - sizes[0..n_sizes) and checkpoints[0..n_checkpoints), ascending vertex
 *    counts from 1 to n. leaves_at[k] gets the leaf count of the tree of
 *    sizes[k] vertices; visits_at[k] and loops_at[k] get the root visits
 *    and self-loop traversals of the s * (checkpoints[k] - 1) steps after
 *    which the tree has that many vertices.
 *  - anchors and tails: NULL, or one entry each per even t >= s. anchors
 *    gets the walker's degree after step t and its attachment, tails the
 *    number of two-step returns to that vertex that follow before their
 *    run ends.
 *  - neutral_gaps, room for n - 2: the time of the first leaf-neutral
 *    attachment, one to a non-root vertex that had no child, then the time
 *    from each to the next. A leaf-neutral vertex leaves the leaf count
 *    unchanged; every other one adds a leaf.
 *  - degrees and degree_counts, room for the distinct walk degrees, of
 *    which there are at most sqrt(4n), as the degrees of the n vertices sum
 *    to 2n: the non-empty bins of the walk-degree histogram, ascending.
 * walk writes the rest, and the number of entries of neutral_gaps and of
 * the histogram in neutral and n_degrees. */
typedef struct {
    const int64_t *sizes, *checkpoints;
    int64_t n_sizes, n_checkpoints;
    int32_t *anchors, *tails;
    int64_t *leaves_at, *visits_at, *loops_at, *neutral_gaps, *degrees,
        *degree_counts;
    int64_t neutral, n_degrees, leaf_count, max_depth, root_visits, loops,
        root_last_visit;
} tally;

/* Writes the grid entries due now that the tree has built vertices, the
 * two grids' next indices in next[0] and next[1]. Returns the vertex count
 * at which the next entry falls due, 0 past both grids. Called only then,
 * so the loop checks one count per attachment. */
static int64_t mark(tally *out, int64_t built, int64_t leaves,
                    int64_t visits, int64_t loops, int64_t next[2])
{
    while (next[0] < out->n_sizes && out->sizes[next[0]] == built)
        out->leaves_at[next[0]++] = leaves;
    while (next[1] < out->n_checkpoints
           && out->checkpoints[next[1]] == built) {
        out->visits_at[next[1]] = visits;
        out->loops_at[next[1]++] = loops;
    }
    int64_t due = next[0] < out->n_sizes ? out->sizes[next[0]] : 0;
    if (next[1] < out->n_checkpoints
        && (!due || out->checkpoints[next[1]] < due))
        due = out->checkpoints[next[1]];
    return due;
}

/* Takes up to total steps from the root alone, one draw a step from the
 * PCG64 generator of the given state and increment (as high and low
 * halves), on a tree that grows to n vertices, writing the walker's
 * position after each step to positions[0..total) and each attached
 * vertex's parent to parent[1..n), and, unless out is NULL, the run's
 * statistics to *out. Returns the number of steps taken with their
 * attachments: fewer than total only when out of memory. Frees all it
 * allocates, on every return. */
int64_t walk(int64_t s, int64_t n, uint64_t state_hi, uint64_t state_lo,
             uint64_t inc_hi, uint64_t inc_lo, int64_t total,
             int32_t *positions, int64_t *parent, tally *out)
{
    pcg64 gen = pcg64_at(state_hi, state_lo, inc_hi, inc_lo);
    tally none = {0};
    if (!out)
        out = &none;
    vertex *v = calloc((size_t)n, sizeof *v);
    uint8_t *has_child = calloc((size_t)n, 1);
    if (!v || !has_child) {
        free(v);
        free(has_child);
        return 0;
    }
    v[0] = (vertex){v[0].own, 2, 0, {0, 0}};
    has_child[0] = 1;
    int32_t pos = 0, prev = 0;
    uint32_t max_depth = 0;
    int64_t built = 1, until_attach = s, i;
    int64_t neutral = 0, neutral_at = 0, visits = 0, loops = 0, last = 0;
    int64_t next[2] = {0, 0}, due = mark(out, 1, 0, 0, 0, next);
    /* step index of each anchor: t = s rounded up to even, then every 2 */
    int64_t first_anchor = s + s % 2 - 1, n_anchors = 0;
    int64_t anchor_i = out->anchors ? first_anchor : -1;
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
        if (pos == 0) {
            visits++;
            loops += from == 0;
            last = i + 1;
        }
        if (--until_attach == 0) {
            if (append(&v[pos], (int32_t)built) != 0)
                break;
            if (!has_child[pos]) {  /* leaf-neutral */
                if (out->neutral_gaps)
                    out->neutral_gaps[neutral] = i + 1 - neutral_at;
                neutral++;
                neutral_at = i + 1;
            }
            has_child[pos] = 1;
            uint32_t depth = v[pos].depth + 1;
            v[built] = (vertex){v[built].own, 1, depth, {pos, 0}};
            max_depth = depth > max_depth ? depth : max_depth;
            parent[built++] = pos;
            if (built == due)
                due = mark(out, built, built - 1 - neutral, visits, loops,
                           next);
            until_attach = s;
        }
        if (i == anchor_i) {
            out->anchors[n_anchors++] = has_child[pos] ? (int32_t)v[pos].len
                                                       : 1;
            anchor_i += 2;
        }
    }
    /* the tails, in one pass back over the anchors: anchor k's position is
     * positions[first_anchor + 2k] */
    int32_t follow = 0;
    for (int64_t k = n_anchors - 1; k >= 0; k--) {
        int64_t at = first_anchor + 2 * k;
        follow = k + 1 < n_anchors && positions[at + 2] == positions[at]
                     ? follow + 1 : 0;
        out->tails[k] = follow;
    }
    /* The lists' lengths are the walk degrees. Each list is freed as its
     * length is read, and a length above 1 (a leaf's is 1) moves to the
     * front of the slots, into bytes of slots read already. The histogram
     * then counts those lengths in the slots' memory after them: at most
     * 4n + 4(n + 2) of its 24n bytes, as no list is longer than n + 1. */
    uint32_t *lens = (uint32_t *)v, max_len = 1;
    int64_t inner = 0;
    for (int64_t j = 0; j < built; j++) {
        uint32_t len = v[j].len;
        if (v[j].nb != v[j].own)
            free(v[j].nb);
        if (len > 1) {
            lens[inner++] = len;
            max_len = len > max_len ? len : max_len;
        }
    }
    int64_t leaves = built - 1 - neutral, bins = 0;
    if (out->degrees) {
        uint32_t *count = lens + inner;
        memset(count, 0, ((size_t)max_len + 1) * sizeof *count);
        count[1] = (uint32_t)leaves;
        for (int64_t k = 0; k < inner; k++)
            count[lens[k]]++;
        for (uint32_t d = 1; d <= max_len; d++)
            if (count[d]) {
                out->degrees[bins] = d;
                out->degree_counts[bins++] = count[d];
            }
    }
    out->neutral = neutral;
    out->n_degrees = bins;
    out->leaf_count = leaves;
    out->max_depth = max_depth;
    out->root_visits = visits;
    out->loops = loops;
    out->root_last_visit = last;
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

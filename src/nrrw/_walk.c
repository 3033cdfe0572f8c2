/* Step kernel of nrrw.engine.run: the walker on its growing tree, over a
 * run's pre-drawn 62-bit values, in one call that keeps no state after it;
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

/* Takes up to total steps on draws[0..total) from the root alone, on a tree
 * that grows to n vertices, writing the walker's position after each step
 * to positions[0..total) and each attached vertex's parent to
 * parent[1..n). Returns the number of steps taken with their attachments:
 * fewer than total only when out of memory. Frees all it allocates. */
int64_t walk(int64_t s, int64_t n, const uint64_t *draws, int64_t total,
             int32_t *positions, int64_t *parent)
{
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
        pos = has_child[pos] ? here->nb[draws[i] % (uint64_t)here->len] : prev;
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

/* Step kernel of nrrw.engine.run: the walker on its growing tree, fed one
 * chunk of pre-drawn 62-bit values at a time, its state kept between chunks.
 *
 * Each vertex keeps its walk neighbours in draw order, [0, 0, children...]
 * at the root (the self-loop twice) and [parent, children...] elsewhere, so
 * a step is pos = nb[r % len], the mapping of engine.PrngStream.randbelow.
 * After every s steps the next vertex attaches to the walker's position.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef struct {
    int32_t *nb;     /* neighbours in draw order: own, or a heap array */
    uint32_t len, cap;
    int32_t own[2];  /* storage until the vertex has more than two */
} vertex;

typedef struct {
    vertex *v;        /* one slot per vertex of the finished tree */
    int64_t *parent;  /* the caller's array, written as vertices attach */
    int64_t built, s, until_attach;
    int32_t pos;
} walk;

/* A walk on the root alone that will grow to n vertices; NULL when out of
 * memory. */
walk *walk_new(int64_t s, int64_t n, int64_t *parent)
{
    walk *w = malloc(sizeof *w);
    vertex *v = calloc((size_t)n, sizeof *v);
    if (!w || !v) {
        free(w);
        free(v);
        return NULL;
    }
    v[0] = (vertex){v[0].own, 2, 2, {0, 0}};
    *w = (walk){v, parent, 1, s, s, 0};
    return w;
}

void walk_free(walk *w)
{
    for (int64_t i = 0; i < w->built; i++)
        if (w->v[i].nb != w->v[i].own)
            free(w->v[i].nb);
    free(w->v);
    free(w);
}

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

/* Takes up to size steps on draws[0..size), writing the walker's position
 * after each to positions[0..size). Returns the number of steps taken with
 * their attachments: fewer than size only when out of memory. */
int64_t walk_steps(walk *w, const uint64_t *draws, int64_t size,
                   int32_t *positions)
{
    vertex *v = w->v;
    int32_t pos = w->pos;
    int64_t until_attach = w->until_attach;
    int64_t i;
    for (i = 0; i < size; i++) {
        const vertex *here = &v[pos];
        pos = here->nb[draws[i] % (uint64_t)here->len];
        positions[i] = pos;
        if (--until_attach == 0) {
            int32_t child = (int32_t)w->built;
            if (append(&v[pos], child) != 0)
                break;
            v[child] = (vertex){v[child].own, 1, 2, {pos, 0}};
            w->parent[child] = pos;
            w->built++;
            until_attach = w->s;
        }
    }
    w->pos = pos;
    w->until_attach = until_attach;
    return i;
}

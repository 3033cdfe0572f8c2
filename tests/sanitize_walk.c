/* A program that runs the step kernel, which it includes, built under
 * -fsanitize=address,undefined (tests/test_engine.py): walks s = 1..4 at
 * N = 20,000, once with every tally array given and once with no tally.
 * Exits 1 if a walk takes fewer than its steps. */
#include <stdio.h>

#include "_walk.c"

#define N 20000

int main(void)
{
    int failed = 0;
    for (int64_t s = 1; s <= 4; s++) {
        int64_t total = s * (N - 1), first = s + s % 2;
        int64_t n_anchors = total >= first ? (total - first) / 2 + 1 : 0;
        int64_t distinct = 284;  /* isqrt(4N) + 1, as engine.Tally */
        int64_t sizes[] = {1, 2, 100, 5000, N}, checkpoints[] = {1, 10, N};
        int32_t *positions = calloc((size_t)total, sizeof *positions);
        int64_t *parent = calloc(N, sizeof *parent);
        int32_t *anchors = calloc((size_t)n_anchors, sizeof *anchors);
        int32_t *tails = calloc((size_t)n_anchors, sizeof *tails);
        int64_t *leaves_at = calloc(5, sizeof *leaves_at);
        int64_t *visits_at = calloc(3, sizeof *visits_at);
        int64_t *loops_at = calloc(3, sizeof *loops_at);
        int64_t *gaps = calloc(N - 2, sizeof *gaps);
        int64_t *degrees = calloc((size_t)distinct, sizeof *degrees);
        int64_t *degree_counts = calloc((size_t)distinct,
                                        sizeof *degree_counts);
        tally out = {.sizes = sizes, .checkpoints = checkpoints,
                     .n_sizes = 5, .n_checkpoints = 3, .anchors = anchors,
                     .tails = tails, .leaves_at = leaves_at,
                     .visits_at = visits_at, .loops_at = loops_at,
                     .neutral_gaps = gaps, .degrees = degrees,
                     .degree_counts = degree_counts};
        uint64_t hi = 0x9e3779b97f4a7c15ULL * (uint64_t)s;
        int64_t with = walk(s, N, hi, ~hi, hi ^ 0xda3e39cb94b95bdbULL, 1,
                            total, positions, parent, &out);
        int64_t without = walk(s, N, ~hi, hi, hi, 3, total, positions,
                               parent, NULL);
        if (with != total || without != total) {
            fprintf(stderr, "s=%lld: %lld and %lld of %lld steps\n",
                    (long long)s, (long long)with, (long long)without,
                    (long long)total);
            failed = 1;
        }
        free(positions);
        free(parent);
        free(anchors);
        free(tails);
        free(leaves_at);
        free(visits_at);
        free(loops_at);
        free(gaps);
        free(degrees);
        free(degree_counts);
    }
    return failed;
}

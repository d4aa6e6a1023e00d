/*
 * Radix-4 Viterbi kernels behind the "c" backend of repro.coding.kernels.
 *
 * kernels.py compiles this file with the local C compiler at
 * -O3 -ffp-contract=off (never -ffast-math) and loads it through ctypes.
 * Every float operation is the IEEE one the numpy backend performs, in
 * the same order, and every compare is strict-less, so codewords, costs
 * and writability masks are bit-identical to the numpy reference.
 *
 * Array layouts (all C-contiguous):
 *   path           (lanes, states) path metrics, advanced in place
 *   costs          flat cost rows; a half-step's row starts at its offset
 *   xg2_late/early (values, 4 * states) cost-row index of each radix-4
 *                  branch j = kk * states + s for a coset chunk value
 *   *_rep, *_off   (pairs, lanes) coset chunk and cost-row offset of the
 *                  later/earlier step of each pair
 *   prev2          (4 * states) two-step predecessor of branch j
 *   sel/low01/low23 (pairs, lanes, states) backpointer planes, 0 or 1
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define DEFINE_ACS(NAME, REAL)                                                \
    int NAME(REAL *path, const REAL *costs, const int32_t *xg2_late,          \
             const int64_t *late_rep, const int32_t *late_off,                \
             const int32_t *xg2_early, const int64_t *early_rep,              \
             const int32_t *early_off, const int64_t *prev2, uint8_t *sel,    \
             uint8_t *low01, uint8_t *low23, int64_t pairs, int64_t lanes,    \
             int64_t states)                                                  \
    {                                                                         \
        REAL *old = malloc((size_t)states * sizeof(REAL));                    \
        if (old == NULL)                                                      \
            return -1;                                                        \
        const int64_t width = 4 * states;                                     \
        for (int64_t b = 0; b < lanes; b++) {                                 \
            REAL *row = path + b * states;                                    \
            for (int64_t i = 0; i < pairs; i++) {                             \
                const int64_t at = i * lanes + b;                             \
                const int32_t *late = xg2_late + late_rep[at] * width;        \
                const int32_t *early = xg2_early + early_rep[at] * width;     \
                const REAL *late_costs = costs + late_off[at];                \
                const REAL *early_costs = costs + early_off[at];              \
                uint8_t *sel_row = sel + at * states;                         \
                uint8_t *low01_row = low01 + at * states;                     \
                uint8_t *low23_row = low23 + at * states;                     \
                memcpy(old, row, (size_t)states * sizeof(REAL));              \
                for (int64_t s = 0; s < states; s++) {                        \
                    REAL c[4];                                                \
                    for (int kk = 0; kk < 4; kk++) {                          \
                        const int64_t j = kk * states + s;                    \
                        /* (late + early) first: the numpy backend folds   \
                           the pair's branch cost before adding the path. */  \
                        c[kk] = old[prev2[j]] +                               \
                                (late_costs[late[j]] + early_costs[early[j]]);\
                    }                                                         \
                    const int l01 = c[1] < c[0];                              \
                    const int l23 = c[3] < c[2];                              \
                    const REAL m01 = l01 ? c[1] : c[0];                       \
                    const REAL m23 = l23 ? c[3] : c[2];                       \
                    const int chose23 = m23 < m01;                            \
                    low01_row[s] = (uint8_t)l01;                              \
                    low23_row[s] = (uint8_t)l23;                              \
                    sel_row[s] = (uint8_t)chose23;                            \
                    row[s] = chose23 ? m23 : m01;                             \
                }                                                             \
            }                                                                 \
        }                                                                     \
        free(old);                                                            \
        return 0;                                                             \
    }

DEFINE_ACS(acs_radix4_f32, float)
DEFINE_ACS(acs_radix4_f64, double)

/*
 * Walk every lane's survivor path backward from its end state, writing the
 * state entered before each step into before (lanes, steps).  tail is the
 * (lanes, states) radix-2 backpointer plane of an odd final step, or NULL;
 * prev_src (states, 2), mid_tab and src_tab (states, 4) are the trellis's
 * one- and two-step predecessor tables.
 */
void backtrace_radix4(int64_t *before, const int64_t *end_state,
                      const uint8_t *sel, const uint8_t *low01,
                      const uint8_t *low23, const uint8_t *tail,
                      const int64_t *prev_src, const int64_t *mid_tab,
                      const int64_t *src_tab, int64_t pairs, int64_t lanes,
                      int64_t states, int64_t steps)
{
    for (int64_t b = 0; b < lanes; b++) {
        int64_t *seq = before + b * steps;
        int64_t state = end_state[b];
        if (tail != NULL) {
            state = prev_src[2 * state + tail[b * states + state]];
            seq[steps - 1] = state;
        }
        for (int64_t pair = pairs - 1; pair >= 0; pair--) {
            const int64_t at = (pair * lanes + b) * states + state;
            const int64_t kk = sel[at] ? 2 + low23[at] : low01[at];
            seq[2 * pair + 1] = mid_tab[4 * state + kk];
            state = src_tab[4 * state + kk];
            seq[2 * pair] = state;
        }
    }
}

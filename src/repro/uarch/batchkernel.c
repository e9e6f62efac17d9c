/* Compiled per-lane kernel for the batched lockstep engine.
 *
 * This is a transliteration of OoOCore.run (repro/uarch/pipeline.py)
 * under the campaign invariants checked by batchcore.build_plan.  It
 * operates IN PLACE on the structure-of-arrays numpy state allocated by
 * repro.uarch.batchcore.BatchEngine: python builds the plan, tapes and
 * (N,)-shaped state arrays, then hands raw pointers here; results are
 * read back from the same arrays by BatchEngine._export.  Bit-identity
 * against the scalar core is asserted by
 * tests/snapshot/test_batch_equivalence.py.
 *
 * Lanes are advanced independently (the virtual-time/burn excision
 * makes each lane's trajectory self-contained); an evicted lane stops
 * immediately and is re-run by the caller on the scalar path.
 *
 * Compiled on demand by repro.uarch.batchkernel with the system C
 * compiler; when that fails, BatchEngine.run raises BatchFallback and
 * the whole batch runs on the scalar snapshot-fork path.
 */

#include <stdint.h>
#include <string.h>

#define K_INF (((int64_t)1) << 60)
#define K_RING 4096
#define K_RMASK (K_RING - 1)

/* eviction codes, mapped to reason strings in python */
#define EV_WILD_MEM 1
#define EV_UNPADDED 2
#define EV_STREAM_END 3
#define EV_WATCHDOG 4
#define EV_FORCED 5

#define FRZ_NONE 0
#define FRZ_SLOT 1
#define FRZ_UNTIL 2
#define FRZ_BUSY 3
#define FRZ_WB 4

#define OP_IDIV 3
#define SEL_AGE 0
#define SEL_FFS 1
#define SEL_EXACT 2
#define TS_MASK 63

typedef struct {
    /* ---- plan (lane-invariant, read-only) ---- */
    const int64_t *op, *lat, *fu, *nsrcs, *has_dest;
    const uint8_t *is_load, *is_store, *is_mem, *cond_mispred;
    const int64_t *ts, *SM, *M, *HD;
    const int64_t *srank, *st_addr8, *addr8, *mem_addr;
    const int64_t *ws0, *ws1;
    const int64_t *g_start, *g_len, *g_branches;
    const uint8_t *g_mispred, *g_has_miss;
    const int64_t *g_miss_off, *miss_pcs;
    const int64_t *tepi, *tept;
    const int64_t *T_RR, *T_EX, *T_MEM, *T_WB, *T_HAS;
    const int8_t *T_FRZ;
    /* ---- per-lane rows (set up per lane before lane_run) ---- */
    const int16_t *tape;
    int8_t *pred;
    int64_t *cec, *wake, *iq_slot;
    int64_t *conv_start, *conv_len, *fu_ni;
    int16_t *wbring;
    int32_t *epring;
    int64_t *store_resolve, *premax;
    int64_t *tep_tag, *tep_cnt, *tep_stage;
    int64_t *l1d_tags, *l1d_cnt, *l2_tags, *l2_cnt;
    /* ---- per-lane scalars (copied in/out around lane_run) ---- */
    int64_t iq_len, frontier, pm_run, lsq_occ, free_cnt, cp, dp;
    int64_t blk_resolve_v, blk_fetch_abs, resume_v, g_ptr, burned;
    int64_t last_commit_real, force_at;
    int blk_active;
    /* stats */
    int64_t committed, fetched, dispatched, issued, replays;
    int64_t branch_mispredicts, branches, false_predictions, ep_stalls;
    int64_t slot_freezes, padded, wrong_path, regreads, regwrites;
    int64_t broadcasts, broadcast_occ, iq_occ, cam_searches, forwards;
    int64_t faults_total, faults_predicted, faults_unpredicted;
    int64_t *stage_faults, *fu_op_counts;
    int64_t l1d_hits, l1d_misses, l2_hits, l2_misses, mem_accesses;
    /* outputs */
    int64_t v_end;
    int evict_code;
    /* ---- params ---- */
    int64_t N, NS, NW, n_stores, width, depth, iq_size, rob_size;
    int64_t lsq_size, target, redirect_penalty, replay_recovery;
    int64_t recovery_bubbles, model_wrong_path, tep_probe, uses_vte;
    int64_t uses_ep_stall, tolerates, sel_mode, max_cycles, hang_cycles;
    int64_t NG, tep_n, tep_cmax;
    int64_t d_shift, d_mask, d_assoc, l2_shift, l2_mask, l2_assoc;
    int64_t lat_l1, lat_l2, lat_mem;
} Ctx;

/* ---- cache model: LRU list semantics on flat tag arrays ------------- */

static int64_t cache_probe(int64_t *tags, int64_t *cntp, int64_t assoc,
                           int64_t tag) {
    /* returns 1 on hit (with MRU update), 0 on miss (with fill) */
    int64_t cnt = *cntp;
    for (int64_t i = 0; i < cnt; i++) {
        if (tags[i] == tag) {
            if (i != cnt - 1) {
                memmove(tags + i, tags + i + 1,
                        (size_t)(cnt - 1 - i) * sizeof(int64_t));
                tags[cnt - 1] = tag;
            }
            return 1;
        }
    }
    if (cnt >= assoc) {
        memmove(tags, tags + 1, (size_t)(cnt - 1) * sizeof(int64_t));
        cnt--;
    }
    tags[cnt] = tag;
    *cntp = cnt + 1;
    return 0;
}

static int64_t access_l2(Ctx *c, int64_t addr) {
    int64_t tag = addr >> c->l2_shift;
    int64_t si = tag & c->l2_mask;
    if (cache_probe(c->l2_tags + si * c->l2_assoc, c->l2_cnt + si,
                    c->l2_assoc, tag)) {
        c->l2_hits++;
        return c->lat_l2;
    }
    c->l2_misses++;
    c->mem_accesses++;
    return c->lat_mem;
}

static int64_t access_data(Ctx *c, int64_t addr) {
    int64_t tag = addr >> c->d_shift;
    int64_t si = tag & c->d_mask;
    if (cache_probe(c->l1d_tags + si * c->d_assoc, c->l1d_cnt + si,
                    c->d_assoc, tag)) {
        c->l1d_hits++;
        return c->lat_l1;
    }
    c->l1d_misses++;
    return access_l2(c, addr);
}

/* ---- TEP commit-time training --------------------------------------- */

static void train_tep(Ctx *c, int64_t slot, int64_t fmask, int64_t pr) {
    int64_t ti = c->tepi[slot];
    int64_t tg = c->tept[slot];
    if (fmask) {
        int64_t stage = 0;
        while (!(fmask & (1 << stage)))
            stage++;
        if (c->tep_tag[ti] == tg) {
            if (c->tep_cnt[ti] < c->tep_cmax)
                c->tep_cnt[ti]++;
            c->tep_stage[ti] = stage;
        } else {
            c->tep_tag[ti] = tg;
            c->tep_cnt[ti] = 1;
            c->tep_stage[ti] = stage;
        }
    } else if (pr >= 0) {
        c->false_predictions++;
        if (c->tep_tag[ti] == tg && c->tep_cnt[ti] > 0)
            c->tep_cnt[ti]--;
    }
}

/* ---- issue-time helpers --------------------------------------------- */

static void count_fault(Ctx *c, int64_t stage, int predicted) {
    c->faults_total++;
    c->stage_faults[stage]++;
    if (predicted)
        c->faults_predicted++;
    else
        c->faults_unpredicted++;
}

static int64_t stage_cycle(int64_t stage, int64_t v, int64_t agen_end,
                           int64_t exec_end, int64_t wb_c, int is_mem) {
    /* returns -1 for "no stall point" (pipeline._stage_cycle -> None) */
    if (stage == 4)
        return v;
    if (stage == 5)
        return v + 1;
    if (stage == 6)
        return exec_end;
    if (stage == 7)
        return is_mem ? agen_end : -1;
    if (stage == 8)
        return wb_c;
    return -1;
}

static int64_t load_data_lat(Ctx *c, int64_t slot, int64_t cam_real) {
    int64_t lo = c->SM[c->cp];
    int64_t hi = c->SM[slot];
    if (hi > lo) {
        int64_t a8 = c->addr8[slot];
        for (int64_t r = lo; r < hi; r++) {
            if (c->st_addr8[r] == a8 && c->store_resolve[r] <= cam_real) {
                c->forwards++;
                return 1;
            }
        }
    }
    return access_data(c, c->mem_addr[slot]);
}

/* issue one selected instruction; returns 0 on eviction */
static int issue_one(Ctx *c, int64_t v, int64_t slot, int64_t jj,
                     int64_t ucol, int64_t iq_len0) {
    int64_t o = c->op[slot];
    c->issued++;
    c->regreads += c->nsrcs[slot];
    c->fu_op_counts[o]++;
    int64_t pr = c->pred[slot];
    int64_t rr_e = 0, ex_e = 0, mem_e = 0, wb_e = 0;
    int frz = FRZ_NONE;
    if (c->uses_vte) {
        int64_t pi = (pr + 1) * 8 + o;
        rr_e = c->T_RR[pi];
        ex_e = c->T_EX[pi];
        mem_e = c->T_MEM[pi];
        wb_e = c->T_WB[pi];
        frz = c->T_FRZ[pi];
        c->padded += c->T_HAS[pi];
    }
    int64_t f = c->tape[slot];
    int64_t bubble_stage[5];
    int nb = 0;
    if (f) {
        int im = c->is_mem[slot];
        int64_t pen = c->replay_recovery;
        for (int64_t stage = 4; stage <= 8; stage++) {
            if (!(f & (1 << stage)))
                continue;
            if (stage == 7 && !im) {
                count_fault(c, stage, 0);
                c->evict_code = EV_WILD_MEM;
                return 0;
            }
            int tol = (stage == pr) && c->tolerates;
            if (tol && c->uses_vte && !c->T_HAS[(pr + 1) * 8 + o]) {
                c->evict_code = EV_UNPADDED;
                return 0;
            }
            count_fault(c, stage, tol);
            if (tol)
                continue;
            c->replays++;
            if (stage <= 5)
                rr_e += pen;
            else if (stage == 6)
                ex_e += pen;
            else if (stage == 7)
                mem_e += pen;
            else
                wb_e += pen;
            bubble_stage[nb++] = stage;
        }
    }
    int64_t exec_lat = c->lat[slot] + ex_e;
    int64_t agen_end = v + 2 + rr_e;
    int64_t exec_end = v + 1 + rr_e + exec_lat;
    int64_t wakeup, wbreq;
    int im = c->is_mem[slot];
    if (!im) {
        wakeup = v + c->lat[slot] + rr_e + ex_e;
        wbreq = v + 2 + rr_e + exec_lat;
    } else if (c->is_load[slot]) {
        c->cam_searches++;
        /* the CAM compares store resolve times, which the scalar core
         * keeps in unshifted REAL cycles -- probe in real time */
        int64_t dlat = load_data_lat(c, slot, agen_end + c->burned);
        wakeup = agen_end + mem_e + dlat;
        wbreq = wakeup + 1;
    } else { /* store: resolve in REAL cycles, WB request stays virtual */
        c->cam_searches++;
        int64_t r = c->srank[slot];
        c->store_resolve[r] = agen_end + c->burned;
        int64_t fr = c->frontier, pm = c->pm_run;
        while (fr < c->n_stores && c->store_resolve[fr] < K_INF) {
            if (c->store_resolve[fr] > pm)
                pm = c->store_resolve[fr];
            c->premax[fr] = pm;
            fr++;
        }
        c->frontier = fr;
        c->pm_run = pm;
        wakeup = K_INF;
        wbreq = agen_end + mem_e + 1;
    }
    /* writeback arbitration: first cycle with a free port */
    int64_t cc = wbreq;
    while (c->wbring[cc & K_RMASK] >= c->width)
        cc++;
    c->wbring[cc & K_RMASK]++;
    if (wb_e)
        c->wbring[(cc + 1) & K_RMASK]++;
    c->cec[slot] = cc + wb_e;
    /* result broadcast (set_ready): consumers read next cycle */
    if (c->has_dest[slot] && !c->is_store[slot]) {
        c->wake[slot] = wakeup;
        c->broadcasts++;
        c->broadcast_occ += iq_len0 - (jj + 1);
    }
    /* functional-unit reservation + VTE freezing */
    int64_t ni = v + (o == OP_IDIV ? exec_lat : 1);
    if (c->uses_vte) {
        if (frz != FRZ_NONE)
            c->slot_freezes++;
        if (frz == FRZ_SLOT) {
            if (ni < v + 2)
                ni = v + 2;
        } else if (frz == FRZ_UNTIL) {
            if (ni < exec_end)
                ni = exec_end;
        } else if (frz == FRZ_BUSY) {
            ni++;
        }
    }
    c->fu_ni[ucol] = ni;
    if (c->cond_mispred[slot])
        c->blk_resolve_v = exec_end;
    if (c->uses_ep_stall && pr >= 0) {
        int64_t sc = stage_cycle(pr, v, agen_end, exec_end, cc, im);
        if (sc >= 0) {
            c->padded++;
            int64_t at = sc > v + 1 ? sc : v + 1;
            c->epring[at & K_RMASK]++;
        }
    }
    for (int b = 0; b < nb; b++) {
        int64_t sc =
            stage_cycle(bubble_stage[b], v, agen_end, exec_end, cc, im);
        if (sc >= 0) {
            int64_t at = sc > v + 1 ? sc : v + 1;
            c->epring[at & K_RMASK] += (int32_t)c->recovery_bubbles;
        }
    }
    return 1;
}

/* ---- one cycle's stages --------------------------------------------- */

static void commit_cycle(Ctx *c, int64_t v) {
    for (int64_t w = 0; w < c->width; w++) {
        if (c->cp >= c->dp)
            return;
        int64_t s = c->cp;
        if (c->cec[s] > v)
            return;
        c->committed++;
        int64_t hd = c->has_dest[s];
        c->regwrites += hd;
        c->free_cnt += hd;
        c->lsq_occ -= c->is_mem[s];
        c->last_commit_real = v + c->burned;
        if (c->is_store[s])
            access_data(c, c->mem_addr[s]);
        if (c->tep_probe) {
            int64_t f = c->tape[s];
            int64_t pr = c->pred[s];
            if (f || pr >= 0)
                train_tep(c, s, f, pr);
        }
        c->cp++;
    }
}

/* returns 0 on eviction */
static int select_issue_cycle(Ctx *c, int64_t v) {
    int64_t n = c->iq_len;
    if (!n)
        return 1;
    int64_t ready_pos[64], ready_key[64];
    int nr = 0;
    int64_t head_ts = c->ts[c->iq_slot[0]];
    int64_t real = v + c->burned;
    for (int64_t pos = 0; pos < n; pos++) {
        int64_t slot = c->iq_slot[pos];
        int64_t w0 = c->wake[c->ws0[slot]];
        int64_t w1 = c->wake[c->ws1[slot]];
        if ((w0 > w1 ? w0 : w1) > v)
            continue;
        if (c->is_load[slot] && c->n_stores) {
            int64_t oc = c->SM[slot];
            if (oc) {
                /* premax holds REAL resolve cycles (scalar's LSQ is
                 * never shifted by EP stalls) -- gate in real time */
                if (c->frontier < oc || c->premax[oc - 1] > real)
                    continue;
            }
        }
        int64_t key;
        if (c->sel_mode == SEL_EXACT) {
            key = pos;
        } else {
            key = ((c->ts[slot] - head_ts) & TS_MASK) * c->iq_size + pos;
            if (c->sel_mode == SEL_FFS && c->pred[slot] < 0)
                key += (TS_MASK + 1) * c->iq_size;
        }
        /* insertion into key-sorted order (keys are unique) */
        int i = nr++;
        while (i > 0 && ready_key[i - 1] > key) {
            ready_key[i] = ready_key[i - 1];
            ready_pos[i] = ready_pos[i - 1];
            i--;
        }
        ready_key[i] = key;
        ready_pos[i] = pos;
    }
    if (!nr)
        return 1;
    int64_t cap_s = (c->fu_ni[0] <= v) + (c->fu_ni[1] <= v);
    int64_t cap_c = c->fu_ni[2] <= v;
    int64_t cap_m = c->fu_ni[3] <= v;
    int c0 = c->fu_ni[0] <= v;
    int64_t cum_s = 0, cum_c = 0, cum_m = 0;
    int64_t sel_pos[8], sel_ucol[8];
    int nsel = 0;
    for (int i = 0; i < nr && nsel < c->width; i++) {
        int64_t slot = c->iq_slot[ready_pos[i]];
        int64_t kind = c->fu[slot];
        int64_t ucol;
        if (kind == 0) {
            cum_s++;
            if (cum_s > cap_s)
                continue;
            ucol = cum_s - 1 + (c0 ? 0 : 1);
        } else if (kind == 1) {
            cum_c++;
            if (cum_c > cap_c)
                continue;
            ucol = 2;
        } else {
            cum_m++;
            if (cum_m > cap_m)
                continue;
            ucol = 3;
        }
        sel_pos[nsel] = ready_pos[i];
        sel_ucol[nsel] = ucol;
        nsel++;
    }
    if (!nsel)
        return 1;
    int64_t iq_len0 = n;
    for (int j = 0; j < nsel; j++) {
        if (!issue_one(c, v, c->iq_slot[sel_pos[j]], j, sel_ucol[j],
                       iq_len0))
            return 0;
    }
    /* compact the IQ, preserving age order (sel_pos ascends in j only
     * per FU class; sort removals by position first) */
    int64_t rm[8];
    for (int j = 0; j < nsel; j++)
        rm[j] = sel_pos[j];
    for (int a = 1; a < nsel; a++) {
        int64_t x = rm[a];
        int b = a;
        while (b > 0 && rm[b - 1] > x) {
            rm[b] = rm[b - 1];
            b--;
        }
        rm[b] = x;
    }
    int64_t out = rm[0];
    int next = 1;
    for (int64_t pos = rm[0] + 1; pos < n; pos++) {
        if (next < nsel && pos == rm[next]) {
            next++;
            continue;
        }
        c->iq_slot[out++] = c->iq_slot[pos];
    }
    c->iq_len = n - nsel;
    return 1;
}

static void dispatch_cycle(Ctx *c) {
    int64_t d = c->depth - 1;
    int64_t cnt = c->conv_len[d];
    if (!cnt)
        return;
    int64_t s = c->conv_start[d];
    int64_t k = 0;
    for (int64_t i = 0; i < cnt; i++) {
        int64_t si = s + i;
        if (c->dp - c->cp + i >= c->rob_size)
            break;
        if (c->iq_len + i >= c->iq_size)
            break;
        if (c->is_mem[si] &&
            c->lsq_occ + (c->M[si] - c->M[s]) >= c->lsq_size)
            break;
        if (c->has_dest[si] &&
            c->free_cnt - (c->HD[si] - c->HD[s]) < 1)
            break;
        k++;
    }
    if (!k)
        return;
    for (int64_t i = 0; i < k; i++)
        c->iq_slot[c->iq_len + i] = s + i;
    c->dp += k;
    c->lsq_occ += c->M[s + k] - c->M[s];
    c->free_cnt -= c->HD[s + k] - c->HD[s];
    c->dispatched += k;
    c->iq_len += k;
    c->conv_start[d] += k;
    c->conv_len[d] -= k;
}

/* returns 0 on eviction */
static int fetch_cycle(Ctx *c, int64_t v) {
    if (c->conv_len[0] || c->blk_active || c->resume_v > v)
        return 1;
    int64_t g = c->g_ptr;
    if (g >= c->NG) {
        c->evict_code = EV_STREAM_END;
        return 0;
    }
    int64_t gs = c->g_start[g];
    int64_t gl = c->g_len[g];
    c->conv_start[0] = gs;
    c->conv_len[0] = gl;
    c->fetched += gl;
    c->branches += c->g_branches[g];
    if (c->g_mispred[g]) {
        c->branch_mispredicts++;
        c->blk_active = 1;
        c->blk_fetch_abs = v + c->burned;
    }
    if (c->tep_probe) {
        for (int64_t j = 0; j < gl; j++) {
            int64_t sl = gs + j;
            int64_t ti = c->tepi[sl];
            if (c->tep_tag[ti] == c->tept[sl] && c->tep_cnt[ti] > 0)
                c->pred[sl] = (int8_t)c->tep_stage[ti];
            else
                c->pred[sl] = -1;
        }
    }
    if (c->g_has_miss[g]) {
        int64_t stall = 0;
        for (int64_t m = c->g_miss_off[g]; m < c->g_miss_off[g + 1]; m++) {
            int64_t lat2 = access_l2(c, c->miss_pcs[m]) - 1;
            if (lat2 > stall)
                stall = lat2;
        }
        if (stall && v + 1 + stall > c->resume_v)
            c->resume_v = v + 1 + stall;
    }
    c->g_ptr++;
    return 1;
}

/* ---- per-lane virtual-time loop ------------------------------------- */

static void lane_run(Ctx *c) {
    int64_t v = 0;
    for (;;) {
        if (c->committed >= c->target) {
            c->v_end = v;
            return;
        }
        if (c->force_at >= 0 && v >= c->force_at) {
            c->evict_code = EV_FORCED;
            return;
        }
        if (!(v & 255)) {
            int64_t real = v + c->burned;
            if (real > c->max_cycles ||
                real - c->last_commit_real >= c->hang_cycles) {
                c->evict_code = EV_WATCHDOG;
                return;
            }
        }
        int64_t vm = v & K_RMASK;
        /* whole-pipeline stalls burn in bulk (virtual-time excision) */
        int64_t k = c->epring[vm];
        if (k) {
            c->burned += k;
            c->ep_stalls += k;
            c->epring[vm] = 0;
        }
        if (c->blk_resolve_v == v) {
            c->blk_active = 0;
            c->blk_resolve_v = K_INF;
            int64_t res = v + c->redirect_penalty;
            if (res > c->resume_v)
                c->resume_v = res;
            if (c->model_wrong_path) {
                int64_t wasted = (v + c->burned) - c->blk_fetch_abs - 1;
                if (wasted > 0)
                    c->wrong_path += wasted * c->width;
            }
        }
        commit_cycle(c, v);
        if (!select_issue_cycle(c, v))
            return;
        dispatch_cycle(c);
        for (int64_t i = c->depth - 1; i > 0; i--) {
            if (!c->conv_len[i]) {
                c->conv_len[i] = c->conv_len[i - 1];
                c->conv_start[i] = c->conv_start[i - 1];
                c->conv_len[i - 1] = 0;
            }
        }
        if (!fetch_cycle(c, v))
            return;
        c->iq_occ += c->iq_len;
        c->wbring[vm] = 0;
        v++;
    }
}

/* ---- entry point ----------------------------------------------------- */

#define I64(i) ((int64_t *)A[i])
#define U8(i) ((uint8_t *)A[i])

void repro_batch_run(void **A, const int64_t *p) {
    Ctx base;
    memset(&base, 0, sizeof(base));
    base.op = I64(0);
    base.lat = I64(1);
    base.fu = I64(2);
    base.nsrcs = I64(3);
    base.has_dest = I64(4);
    base.is_load = U8(5);
    base.is_store = U8(6);
    base.is_mem = U8(7);
    base.cond_mispred = U8(8);
    base.ts = I64(9);
    base.SM = I64(10);
    base.M = I64(11);
    base.HD = I64(12);
    base.srank = I64(13);
    base.st_addr8 = I64(14);
    base.addr8 = I64(15);
    base.mem_addr = I64(16);
    base.ws0 = I64(17);
    base.ws1 = I64(18);
    base.g_start = I64(19);
    base.g_len = I64(20);
    base.g_branches = I64(21);
    base.g_mispred = U8(22);
    base.g_has_miss = U8(23);
    base.g_miss_off = I64(24);
    base.miss_pcs = I64(25);
    base.tepi = I64(26);
    base.tept = I64(27);
    base.T_RR = I64(28);
    base.T_EX = I64(29);
    base.T_MEM = I64(30);
    base.T_WB = I64(31);
    base.T_FRZ = (int8_t *)A[32];
    base.T_HAS = I64(33);
    base.N = p[0];
    base.NS = p[1];
    base.NW = p[2];
    base.n_stores = p[3];
    /* p[4] = allocated store row stride (max(n_stores, 1)) */
    base.width = p[5];
    base.depth = p[6];
    base.iq_size = p[7];
    base.rob_size = p[8];
    base.lsq_size = p[9];
    base.target = p[10];
    base.redirect_penalty = p[11];
    base.replay_recovery = p[12];
    base.recovery_bubbles = p[13];
    base.model_wrong_path = p[14];
    base.tep_probe = p[15];
    base.uses_vte = p[16];
    base.uses_ep_stall = p[17];
    base.tolerates = p[18];
    base.sel_mode = p[19];
    base.max_cycles = p[20];
    base.hang_cycles = p[21];
    base.NG = p[22];
    base.tep_n = p[23];
    base.tep_cmax = p[24];
    base.d_shift = p[25];
    base.d_mask = p[26];
    base.d_assoc = p[27];
    /* p[28] = d_nsets */
    base.l2_shift = p[29];
    base.l2_mask = p[30];
    base.l2_assoc = p[31];
    /* p[32] = l2_nsets */
    base.lat_l1 = p[33];
    base.lat_l2 = p[34];
    base.lat_mem = p[35];
    int64_t nst_alloc = p[4];
    int64_t d_nsets = p[28];
    int64_t l2_nsets = p[32];

    const int16_t *tape = (const int16_t *)A[34];
    int8_t *pred = (int8_t *)A[35];
    uint8_t *active = U8(61);
    int64_t *evict_code = I64(62);
    const int64_t *force_at = I64(63);

    for (int64_t lane = 0; lane < base.N; lane++) {
        if (!active[lane])
            continue;
        Ctx c = base;
        c.tape = tape + lane * base.NS;
        c.pred = pred + lane * base.NS;
        c.cec = I64(36) + lane * base.NS;
        c.wake = I64(37) + lane * base.NW;
        c.iq_slot = I64(38) + lane * base.iq_size;
        c.conv_start = I64(40) + lane * base.depth;
        c.conv_len = I64(41) + lane * base.depth;
        c.fu_ni = I64(42) + lane * 4;
        c.wbring = (int16_t *)A[43] + lane * K_RING;
        c.epring = (int32_t *)A[44] + lane * K_RING;
        c.store_resolve = I64(45) + lane * nst_alloc;
        c.premax = I64(46) + lane * nst_alloc;
        if (base.tep_probe) {
            c.tep_tag = I64(88) + lane * base.tep_n;
            c.tep_cnt = I64(89) + lane * base.tep_n;
            c.tep_stage = I64(90) + lane * base.tep_n;
        }
        c.l1d_tags = I64(91) + lane * d_nsets * base.d_assoc;
        c.l1d_cnt = I64(92) + lane * d_nsets;
        c.l2_tags = I64(93) + lane * l2_nsets * base.l2_assoc;
        c.l2_cnt = I64(94) + lane * l2_nsets;
        c.iq_len = I64(39)[lane];
        c.frontier = I64(47)[lane];
        c.pm_run = I64(48)[lane];
        c.lsq_occ = I64(49)[lane];
        c.free_cnt = I64(50)[lane];
        c.cp = I64(51)[lane];
        c.dp = I64(52)[lane];
        c.blk_active = U8(53)[lane];
        c.blk_resolve_v = I64(54)[lane];
        c.blk_fetch_abs = I64(55)[lane];
        c.resume_v = I64(56)[lane];
        c.g_ptr = I64(57)[lane];
        c.burned = I64(58)[lane];
        c.last_commit_real = I64(60)[lane];
        c.force_at = force_at[lane];
        c.committed = I64(64)[lane];
        c.stage_faults = I64(86) + lane * 10;
        c.fu_op_counts = I64(87) + lane * 8;
        c.evict_code = 0;

        lane_run(&c);

        I64(39)[lane] = c.iq_len;
        I64(47)[lane] = c.frontier;
        I64(48)[lane] = c.pm_run;
        I64(49)[lane] = c.lsq_occ;
        I64(50)[lane] = c.free_cnt;
        I64(51)[lane] = c.cp;
        I64(52)[lane] = c.dp;
        U8(53)[lane] = (uint8_t)c.blk_active;
        I64(54)[lane] = c.blk_resolve_v;
        I64(55)[lane] = c.blk_fetch_abs;
        I64(56)[lane] = c.resume_v;
        I64(57)[lane] = c.g_ptr;
        I64(58)[lane] = c.burned;
        I64(59)[lane] = c.v_end;
        I64(60)[lane] = c.last_commit_real;
        I64(64)[lane] = c.committed;
        I64(65)[lane] += c.fetched;
        I64(66)[lane] += c.dispatched;
        I64(67)[lane] += c.issued;
        I64(68)[lane] += c.replays;
        I64(69)[lane] += c.branch_mispredicts;
        I64(70)[lane] += c.branches;
        I64(71)[lane] += c.false_predictions;
        I64(72)[lane] += c.ep_stalls;
        I64(73)[lane] += c.slot_freezes;
        I64(74)[lane] += c.padded;
        I64(75)[lane] += c.wrong_path;
        I64(76)[lane] += c.regreads;
        I64(77)[lane] += c.regwrites;
        I64(78)[lane] += c.broadcasts;
        I64(79)[lane] += c.broadcast_occ;
        I64(80)[lane] += c.iq_occ;
        I64(81)[lane] += c.cam_searches;
        I64(82)[lane] += c.forwards;
        I64(83)[lane] += c.faults_total;
        I64(84)[lane] += c.faults_predicted;
        I64(85)[lane] += c.faults_unpredicted;
        I64(95)[lane] += c.l1d_hits;
        I64(96)[lane] += c.l1d_misses;
        I64(97)[lane] += c.l2_hits;
        I64(98)[lane] += c.l2_misses;
        I64(99)[lane] += c.mem_accesses;
        if (c.evict_code) {
            evict_code[lane] = c.evict_code;
            active[lane] = 0;
        }
    }
}

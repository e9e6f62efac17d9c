"""Structure-of-arrays lockstep engine: N campaign draws per dispatch.

All draws of one campaign point fork the same warmup snapshot and fetch
the identical instruction stream; only the injected timing faults differ
per measurement seed. This module exploits that: :func:`build_plan`
flattens the forked core's boundary state plus the shared future stream
(:mod:`repro.uarch.batchstream`) into plain arrays, and
:class:`BatchEngine` allocates (N,)-shaped per-lane state over them and
hands everything to the compiled kernel (``batchkernel.c``), which
advances every lane to the end of its window in one call.

The kernel is a transliteration of ``OoOCore.run`` (pipeline.py) under
the invariants the campaign path guarantees (selective replay mode, no
store-set predictor, no telemetry, static TEP gate). Per-lane divergence
that it does not cover — safety-net replays, watchdog hangs, running
past the prepared stream — *evicts* the lane: it is marked dead and the
caller re-runs that seed on the scalar path, so correctness never
depends on the kernel handling every corner. Without a kernel, or for a
plan beyond its static limits, :meth:`BatchEngine.run` raises
:class:`~repro.uarch.batchstream.BatchFallback` and the whole batch
takes the scalar path.

EP stalls use a virtual-time trick: a whole-pipeline stall shifts every
in-flight event by one cycle (``_shift_in_flight``), which means the
machine state is *invariant* in stall-excised time. The kernel therefore
burns all pending stalls in bulk at the top of each virtual cycle and
tracks them in a per-lane ``burned`` counter; real cycles are
``v + burned``.

Bit-identity with the scalar path is asserted by
``tests/snapshot/test_batch_equivalence.py`` over a scheme x vdd x lanes
grid.
"""

try:  # pragma: no cover - exercised on numpy-free installs
    import numpy as np
except Exception:  # pragma: no cover
    np = None

from repro.core.vte import FreezeKind, vte_effects
from repro.isa.opcodes import OP_FU_KIND, OP_LATENCY, OpClass, PipeStage
from repro.uarch.batchkernel import call_kernel, load_kernel
from repro.uarch.batchstream import BatchFallback, build_stream
from repro.uarch.issue_queue import TIMESTAMP_MASK
from repro.uarch.regfile import INFINITE as _SCOREBOARD_INF

INF = 1 << 60
_RING = 4096          # schedulable horizon in cycles (events land < ~300 out)
_INORDER_MASK = 0b1000001111

# freeze codes; batchkernel.c mirrors them as FRZ_*
_FRZ_NONE, _FRZ_SLOT, _FRZ_UNTIL, _FRZ_BUSY, _FRZ_WB = range(5)
_FRZ_CODE = {
    FreezeKind.NONE: _FRZ_NONE,
    FreezeKind.SLOT_ONE_CYCLE: _FRZ_SLOT,
    FreezeKind.UNTIL_COMPLETE: _FRZ_UNTIL,
    FreezeKind.BUSY_PLUS_ONE: _FRZ_BUSY,
    FreezeKind.WB_SLOT: _FRZ_WB,
}

_LOAD = int(OpClass.LOAD)
_STORE = int(OpClass.STORE)

# selection-key modes; batchkernel.c mirrors them as SEL_*
_SEL_AGE, _SEL_FFS, _SEL_EXACT = range(3)

_VTE_TABLES = None


def _vte_tables():
    """(pred_stage+1, op) -> VTE effect tables, built once."""
    global _VTE_TABLES
    if _VTE_TABLES is None:
        rr = np.zeros((11, 8), dtype=np.int64)
        ex = np.zeros((11, 8), dtype=np.int64)
        mem = np.zeros((11, 8), dtype=np.int64)
        wb = np.zeros((11, 8), dtype=np.int64)
        frz = np.zeros((11, 8), dtype=np.int8)
        has = np.zeros((11, 8), dtype=np.int64)
        for pi in range(11):
            stage = None if pi == 0 else PipeStage(pi - 1)
            for o in range(8):
                eff = vte_effects(stage, OpClass(o))
                rr[pi, o] = eff.rr_extra
                ex[pi, o] = eff.ex_extra
                mem[pi, o] = eff.mem_extra
                wb[pi, o] = eff.wb_extra
                frz[pi, o] = _FRZ_CODE[eff.freeze]
                has[pi, o] = 0 if eff.stage is None else 1
        _VTE_TABLES = (rr, ex, mem, wb, frz, has)
    return _VTE_TABLES


class BatchPlan:
    """Lane-invariant flattening of one forked core + its future stream.

    Slots are the engine's global instruction space: ROB residents first
    (``[0, R)``, ascending age), then conveyor residents (``[R, P)``),
    then the prepared stream (``[P, NS)``). Lanes index every per-slot
    array with their own commit/dispatch pointers.
    """

    # plain attribute bag; built only by build_plan
    pass


def _fallback(cond, why):
    if cond:
        raise BatchFallback(why)


#: the compiled kernel sizes its selection scratch statically
#: (``ready_pos[64]``/``sel_pos[8]`` in batchkernel.c)
_KERNEL_MAX_IQ = 64
_KERNEL_MAX_WIDTH = 8


def config_fallback(scheme, config):
    """Why every batch plan for ``scheme`` on ``config`` falls back.

    ``None`` when the kernel models the pair. These rejections hold
    whatever the boundary state, so the batch planner keeps such specs
    out of batches altogether.
    """
    if scheme.detects_criticality:
        return "criticality detection (CDS)"
    if config.mem_dependence == "store_sets":
        return "store-set predictor"
    if config.replay_mode != "selective":
        return "flush-style replay mode"
    if config.iq_size > _KERNEL_MAX_IQ:
        return (f"iq_size {config.iq_size} exceeds the kernel limit "
                f"{_KERNEL_MAX_IQ}")
    if config.width > _KERNEL_MAX_WIDTH:
        return (f"width {config.width} exceeds the kernel limit "
                f"{_KERNEL_MAX_WIDTH}")
    return None


def build_plan(core, target, margin=256):
    """Flatten ``core`` (a forked, measurement-ready OoOCore) for a batch.

    ``target`` is the commit budget of the measured window. Raises
    :class:`~repro.uarch.batchstream.BatchFallback` whenever any piece of
    the boundary state or configuration falls outside the vector model.
    """
    _fallback(np is None, "numpy unavailable")
    cfg = core.config
    scheme = core.scheme
    A0 = core.cycle

    _fallback(bool(core._refetch), "refetch queue not empty at boundary")
    _fallback(core._done_fetching, "trace exhausted at boundary")
    _fallback(core._dispatch_hold_until > A0, "in-order stall at boundary")
    _fallback(core._tep_gate == 2, "dynamic sensor gate")
    why = config_fallback(scheme, cfg)
    _fallback(why is not None, why)
    _fallback(core.ebus is not None, "telemetry event bus attached")
    _fallback(core.telemetry_sampler is not None, "telemetry sampler")
    _fallback(core.commit_listener is not None, "commit listener attached")
    _fallback(
        getattr(core.sensor, "thermal", None) is not None,
        "thermal-coupled sensor",
    )
    _fallback(
        core.injector is not None
        and type(core.injector).__name__ != "FaultInjector",
        "wrapped/chaos injector",
    )
    _fallback(TIMESTAMP_MASK != 63, "non-default timestamp width")
    from repro.isa.opcodes import FuKind

    fu_counts = {k: len(v) for k, v in core.fus.units.items()}
    _fallback(
        fu_counts != {FuKind.SIMPLE: 2, FuKind.COMPLEX: 1, FuKind.MEM: 1},
        "non-core1 functional unit inventory",
    )
    hier = core.hierarchy
    for cache in (hier.l1i, hier.l1d, hier.l2):
        _fallback(not cache._pow2_sets, "non-power-of-two cache sets")

    policy_name = type(scheme.policy).__name__
    if policy_name == "AgeBasedSelection":
        sel_mode = _SEL_EXACT if scheme.policy.exact else _SEL_AGE
    elif policy_name == "FaultyFirstSelection":
        sel_mode = _SEL_FFS
    else:
        raise BatchFallback(f"unsupported selection policy {policy_name}")

    # ---- slot space: ROB + conveyor + prepared stream -----------------
    rob_list = list(core.rob._entries)
    R = len(rob_list)
    conv_insts = []
    for latch in core._conveyor:
        conv_insts.extend(latch)
    conv_insts.sort(key=lambda i: i.seq)
    P = R + len(conv_insts)
    prelude = rob_list + conv_insts
    for a, b in zip(prelude, prelude[1:]):
        _fallback(a.seq >= b.seq, "non-monotonic prelude sequence")
    seq_slot = {inst.seq: s for s, inst in enumerate(prelude)}

    n_stream = int(target) + int(margin)
    stream = build_stream(core, n_stream, cfg.width)
    NS = P + n_stream

    plan = BatchPlan()
    plan.A0 = A0
    plan.R = R
    plan.P = P
    plan.NS = NS
    plan.target = int(target)
    plan.width = cfg.width
    plan.depth = cfg.frontend_depth
    plan.rob_size = cfg.rob_size
    plan.iq_size = cfg.iq_size
    plan.lsq_size = cfg.lsq_size
    plan.redirect_penalty = cfg.redirect_penalty
    plan.replay_recovery = cfg.replay_recovery
    plan.recovery_bubbles = cfg.recovery_bubbles
    plan.model_wrong_path = cfg.model_wrong_path
    plan.uses_tep = scheme.uses_tep
    plan.uses_vte = scheme.uses_vte
    plan.uses_ep_stall = scheme.uses_ep_stall
    plan.tolerates = scheme.tolerates_predicted_faults
    plan.sel_mode = sel_mode
    plan.tep_gate = core._tep_gate
    plan.max_cycles = 400 * int(target) + 20000
    plan.hang_cycles = 20000

    # ---- per-slot static arrays --------------------------------------
    lat_by_op = np.array([OP_LATENCY[OpClass(i)] for i in range(8)],
                         dtype=np.int64)
    fu_by_op = np.array([int(OP_FU_KIND[OpClass(i)]) for i in range(8)],
                        dtype=np.int64)
    pc = np.zeros(NS, dtype=np.int64)
    op = np.zeros(NS, dtype=np.int64)
    mem_addr = np.zeros(NS, dtype=np.int64)
    nsrcs = np.zeros(NS, dtype=np.int64)
    has_dest = np.zeros(NS, dtype=np.int64)
    cond_mispred = np.zeros(NS, dtype=bool)
    ts = np.zeros(NS, dtype=np.int64)
    pred0 = np.full(NS, -1, dtype=np.int8)
    prelude_tape = np.zeros(P, dtype=np.int16)

    for s, inst in enumerate(prelude):
        pc[s] = inst.pc
        op[s] = int(inst.op)
        mem_addr[s] = inst.mem_addr
        nsrcs[s] = len(inst.static.srcs)
        has_dest[s] = 0 if inst.static.dest is None else 1
        cond_mispred[s] = inst.mispredicted
        if s < R:
            ts[s] = inst.dispatch_order & TIMESTAMP_MASK
        if inst.pred_fault_stage is not None:
            pred0[s] = int(inst.pred_fault_stage)
        prelude_tape[s] = inst.fault_stages
    _fallback(
        bool(prelude_tape[np.asarray(
            [(m & _INORDER_MASK) != 0 for m in prelude_tape.tolist()],
            dtype=bool)].size),
        "in-order-stage fault latched in prelude",
    )
    C0 = core.iq._dispatch_counter
    ts[R:] = (C0 + np.arange(NS - R, dtype=np.int64)) & TIMESTAMP_MASK

    pc[P:] = stream.pc
    op[P:] = stream.op
    mem_addr[P:] = stream.mem_addr
    nsrcs[P:] = stream.nsrcs
    has_dest[P:] = stream.dest >= 0
    cond_mispred[P:] = stream.mispredicted

    lat = lat_by_op[op]
    fu = fu_by_op[op]
    is_load = op == _LOAD
    is_store = op == _STORE
    is_mem = is_load | is_store

    plan.pc = pc
    plan.op = op
    plan.mem_addr = mem_addr
    plan.addr8 = mem_addr >> 3
    plan.nsrcs = nsrcs
    plan.has_dest = has_dest
    plan.cond_mispred = cond_mispred
    plan.ts = ts
    plan.pred0 = pred0
    plan.prelude_tape = prelude_tape
    plan.lat = lat
    plan.fu = fu
    plan.is_load = is_load
    plan.is_store = is_store
    plan.is_mem = is_mem

    # prefix sums over slots: mem count, dest count, store count
    plan.M = np.concatenate(([0], np.cumsum(is_mem)))
    plan.HD = np.concatenate(([0], np.cumsum(has_dest)))
    plan.SM = np.concatenate(([0], np.cumsum(is_store)))

    srank = np.full(NS, -1, dtype=np.int64)
    store_slots = np.nonzero(is_store)[0]
    srank[store_slots] = np.arange(len(store_slots))
    plan.srank = srank
    plan.n_stores = len(store_slots)
    plan.st_addr8 = plan.addr8[store_slots]

    # TEP lookup keys for every slot (pure PC hash: history_bits == 0)
    if core._tep_gate == 0:
        imask = core.tep._index_mask
        tmask = core.tep._tag_mask
        word = pc >> 2
        plan.tepi = word & imask
        plan.tept = (word >> 10) & tmask
        plan.tep_n = core.tep.config.n_entries
        plan.tep_cmax = core.tep.config.counter_max
        tag0 = np.full(plan.tep_n, -1, dtype=np.int64)
        cnt0 = np.zeros(plan.tep_n, dtype=np.int64)
        stage0 = np.full(plan.tep_n, -1, dtype=np.int64)
        for i, e in enumerate(core.tep._entries):
            tag0[i] = e.tag
            cnt0[i] = e.counter
            if e.stage is not None:
                st = int(e.stage)
                _fallback(not 4 <= st <= 8,
                          "TEP entry with in-order stage")
                stage0[i] = st
        plan.tep_tag0 = tag0
        plan.tep_cnt0 = cnt0
        plan.tep_stage0 = stage0
    else:
        plan.tepi = plan.tept = None
        plan.tep_n = 0

    # ---- wake-source indices (producer slots / scoreboard pseudo) ----
    n_phys = cfg.n_phys_regs
    plan.n_phys = n_phys
    NW = NS + n_phys + 1
    ALWAYS = NS + n_phys
    plan.NW = NW
    plan.ALWAYS = ALWAYS
    rename = core.rename
    wake0 = np.full(NW, INF, dtype=np.int64)
    wake0[ALWAYS] = -1
    for p in range(n_phys):
        rc = rename.ready_cycle[p]
        if rc < _SCOREBOARD_INF:
            wake0[NS + p] = rc - A0
    producer_slot = {}
    for s, inst in enumerate(rob_list):
        if inst.phys_dest >= 0:
            producer_slot[inst.phys_dest] = s

    def src_index(p):
        if rename.ready_cycle[p] < _SCOREBOARD_INF:
            return NS + p
        slot = producer_slot.get(p)
        _fallback(slot is None, "unissued source with no in-flight producer")
        return slot

    ws0 = np.full(NS, ALWAYS, dtype=np.int64)
    ws1 = np.full(NS, ALWAYS, dtype=np.int64)
    iq0 = []
    for inst in core.iq.entries:
        s = seq_slot.get(inst.seq)
        _fallback(s is None or s >= R, "IQ entry outside the ROB")
        iq0.append(s)
        srcs = inst.phys_srcs
        if srcs:
            ws0[s] = src_index(srcs[0])
            if len(srcs) == 2:
                ws1[s] = src_index(srcs[1])
    plan.iq0 = np.asarray(iq0, dtype=np.int64)

    last_writer = [src_index(rename.rat[a]) for a in range(cfg.n_arch_regs)]
    for s in range(R, NS):
        if s < P:
            static = prelude[s].static
            srcs = static.srcs
            _fallback(len(srcs) > 2, "conveyor instruction with >2 sources")
            if srcs:
                ws0[s] = last_writer[srcs[0]]
                if len(srcs) == 2:
                    ws1[s] = last_writer[srcs[1]]
            dest = static.dest
        else:
            j = s - P
            a0 = stream.src0[j]
            if a0 >= 0:
                ws0[s] = last_writer[a0]
                a1 = stream.src1[j]
                if a1 >= 0:
                    ws1[s] = last_writer[a1]
            dest = int(stream.dest[j])
            if dest < 0:
                dest = None
        if dest is not None:
            last_writer[dest] = s
    plan.ws0 = ws0
    plan.ws1 = ws1
    plan.wake0 = wake0

    _plan_boundary_state(plan, core, seq_slot, srank)
    _plan_stream_groups(plan, stream)
    _plan_lane_mem(plan, hier)
    plan.stream = stream
    return plan


def _plan_boundary_state(plan, core, seq_slot, srank):
    """Flatten the forked core's in-flight state into plan arrays."""
    from repro.uarch.pipeline import _EV_COMPLETE, _EV_REPLAY, _EV_RESOLVE

    A0 = plan.A0
    NS = plan.NS
    R = plan.R

    cec0 = np.full(NS, INF, dtype=np.int64)
    rob_list = list(core.rob._entries)
    for s, inst in enumerate(rob_list):
        if inst.completed:
            cec0[s] = -1
    blk_resolve0 = INF
    for c, evs in core._events.items():
        vc = c - A0
        _fallback(vc < 0 or vc >= _RING, "event outside schedulable horizon")
        for kind, inst, version in evs:
            if inst.squashed or inst.version != version:
                continue  # stale, a no-op when fired
            if kind == _EV_COMPLETE:
                s = seq_slot.get(inst.seq)
                _fallback(s is None, "completion event for unknown inst")
                cec0[s] = vc
            elif kind == _EV_RESOLVE:
                if core._blocking_branch == inst.seq:
                    blk_resolve0 = vc
            else:
                _fallback(kind == _EV_REPLAY, "replay event in flight")
                raise BatchFallback("unknown event kind")
    plan.cec0 = cec0

    if core._blocking_branch is not None:
        s = seq_slot.get(core._blocking_branch)
        _fallback(s is None, "blocking branch not among slots")
        inst = rob_list[s] if s < R else None
        if inst is None:
            # still in the conveyor: its RESOLVE is scheduled at issue
            for latch in core._conveyor:
                for cand in latch:
                    if cand.seq == core._blocking_branch:
                        inst = cand
        _fallback(inst is None, "blocking branch instruction lost")
        plan.blk_active0 = True
        plan.blk_fetch_abs0 = inst.fetch_cycle - A0
        plan.blk_resolve0 = blk_resolve0
    else:
        plan.blk_active0 = False
        plan.blk_fetch_abs0 = 0
        plan.blk_resolve0 = INF

    ep0 = []
    for c, n in core._ep_stalls.items():
        vc = c - A0
        _fallback(vc < 0 or vc >= _RING, "EP stall outside horizon")
        ep0.append((vc, n))
    plan.ep0 = ep0
    wb0 = []
    for c, n in core._wb_count.items():
        vc = c - A0
        _fallback(vc < 0 or vc >= _RING, "WB reservation outside horizon")
        wb0.append((vc, n))
    plan.wb0 = wb0

    from repro.isa.opcodes import FuKind

    units = core.fus.units
    plan.fu_ni0 = np.array(
        [
            units[FuKind.SIMPLE][0].next_issue - A0,
            units[FuKind.SIMPLE][1].next_issue - A0,
            units[FuKind.COMPLEX][0].next_issue - A0,
            units[FuKind.MEM][0].next_issue - A0,
        ],
        dtype=np.int64,
    )
    plan.free_cnt0 = len(core.rename.free_list)
    plan.resume_v0 = max(0, core._fetch_resume_at - A0)

    n_st = plan.n_stores
    sr0 = np.full(n_st, INF, dtype=np.int64)
    lsq_store_count = 0
    for entry in core.lsq._entries:
        inst = entry.inst
        s = seq_slot.get(inst.seq)
        _fallback(s is None or s >= R, "LSQ entry outside the ROB")
        if inst.is_store:
            lsq_store_count += 1
            if entry.resolve_cycle is not None:
                sr0[srank[s]] = entry.resolve_cycle - A0
    _fallback(
        lsq_store_count != int(plan.SM[R]),
        "ROB stores and LSQ stores disagree",
    )
    premax0 = np.zeros(max(n_st, 1), dtype=np.int64)
    fr = 0
    pm = 0
    while fr < n_st and sr0[fr] < INF:
        pm = max(pm, int(sr0[fr]))
        premax0[fr] = pm
        fr += 1
    plan.store_resolve0 = sr0
    plan.premax0 = premax0[:n_st] if n_st else premax0[:0]
    plan.frontier0 = fr
    plan.pm_run0 = pm
    plan.lsq_occ0 = len(core.lsq._entries)

    conv0 = np.zeros((plan.depth, 2), dtype=np.int64)
    for i, latch in enumerate(core._conveyor):
        if not latch:
            continue
        slots = [seq_slot[inst.seq] for inst in latch]
        start = slots[0]
        _fallback(
            slots != list(range(start, start + len(slots))),
            "conveyor latch is not a contiguous slot run",
        )
        conv0[i, 0] = start
        conv0[i, 1] = len(slots)
    plan.conv0 = conv0


def _plan_stream_groups(plan, stream):
    """Fetch-group metadata, offset into global slot space."""
    P = plan.P
    plan.g_start = P + stream.g_start
    plan.g_len = stream.g_len
    plan.g_mispred = stream.g_mispred
    plan.g_branches = stream.g_branches
    plan.NG = len(stream.g_len)
    plan.cum_l1i_hits = np.concatenate(([0], np.cumsum(stream.g_l1i_hits)))
    plan.cum_l1i_misses = np.concatenate(([0], np.cumsum(stream.g_l1i_misses)))
    plan.g_miss_off = stream.g_miss_off
    plan.miss_pcs = stream.miss_pcs
    # groups with at least one L1I miss (rare) get the scalar fixup
    plan.g_has_miss = (stream.g_miss_off[1:] - stream.g_miss_off[:-1]) > 0


#: compiled-kernel eviction codes -> the scalar-fallback reason strings
_EVICT_REASON = {
    1: "safety-net replay (wild MEM fault)",
    2: "safety-net replay (unpadded)",
    3: "ran past the prepared stream",
    4: "watchdog (hang or cycle budget)",
    5: "forced eviction (test hook)",
}


def _flat_sets(sets, nsets, assoc):
    """Materialize shared LRU set lists into flat (tags, count) arrays.

    Way order is preserved: index 0 is the LRU victim, the last filled
    index the MRU — the compiled kernel keeps the same ordering.
    """
    tags = np.full((nsets, assoc), -1, dtype=np.int64)
    cnt = np.zeros(nsets, dtype=np.int64)
    for i, ways in enumerate(sets):
        k = len(ways)
        if k:
            tags[i, :k] = ways
        cnt[i] = k
    return tags, cnt


def _plan_lane_mem(plan, hier):
    """Shared d-side cache geometry and contents, copied per lane."""
    plan.l1d_sets = hier.l1d._sets
    plan.l1d_shift = hier.l1d._line_shift
    plan.l1d_mask = hier.l1d._set_mask
    plan.l1d_assoc = hier.l1d._assoc
    plan.l2_sets = hier.l2._sets
    plan.l2_shift = hier.l2._line_shift
    plan.l2_mask = hier.l2._set_mask
    plan.l2_assoc = hier.l2._assoc
    plan.lat_l1 = hier._lat_l1
    plan.lat_l2 = hier._lat_l2
    plan.lat_mem = hier._lat_mem


class BatchEngine:
    """Per-lane state arrays for N fault-tape lanes over one plan.

    All lanes share the plan's slot space and fetch-group schedule; only
    fault tapes (and everything downstream of them: timing, TEP state,
    d-side cache contents) differ. The compiled kernel advances the
    lanes in place over these arrays; :meth:`run` exports the result. A
    lane leaves the convoy only by *eviction* — the caller re-runs that
    seed on the scalar path.
    """

    def __init__(self, plan, stream_tapes):
        self.plan = plan
        N = self.N = stream_tapes.shape[0]
        NS = plan.NS
        self.tape = np.zeros((N, NS), dtype=np.int16)
        self.tape[:, :plan.P] = plan.prelude_tape[None, :]
        self.tape[:, plan.P:] = stream_tapes
        self.pred = np.repeat(plan.pred0[None, :], N, axis=0)
        self.cec = np.repeat(plan.cec0[None, :], N, axis=0)
        self.wake = np.repeat(plan.wake0[None, :], N, axis=0)
        self.iq_slot = np.zeros((N, plan.iq_size), dtype=np.int64)
        n0 = len(plan.iq0)
        if n0:
            self.iq_slot[:, :n0] = plan.iq0[None, :]
        self.iq_len = np.full(N, n0, dtype=np.int64)
        self.conv_start = np.repeat(plan.conv0[None, :, 0], N, axis=0)
        self.conv_len = np.repeat(plan.conv0[None, :, 1], N, axis=0)
        self.fu_ni = np.repeat(plan.fu_ni0[None, :], N, axis=0)
        self.wbring = np.zeros((N, _RING), dtype=np.int16)
        self.epring = np.zeros((N, _RING), dtype=np.int32)
        for vc, n in plan.wb0:
            self.wbring[:, vc] = n
        for vc, n in plan.ep0:
            self.epring[:, vc] = n
        nst = max(plan.n_stores, 1)
        self.store_resolve = np.full((N, nst), INF, dtype=np.int64)
        self.premax = np.zeros((N, nst), dtype=np.int64)
        if plan.n_stores:
            self.store_resolve[:, :len(plan.store_resolve0)] = (
                plan.store_resolve0[None, :]
            )
            self.premax[:, :len(plan.premax0)] = plan.premax0[None, :]
        self.frontier = np.full(N, plan.frontier0, dtype=np.int64)
        self.pm_run = np.full(N, plan.pm_run0, dtype=np.int64)
        self.lsq_occ = np.full(N, plan.lsq_occ0, dtype=np.int64)
        self.free_cnt = np.full(N, plan.free_cnt0, dtype=np.int64)
        self.cp = np.zeros(N, dtype=np.int64)
        self.dp = np.full(N, plan.R, dtype=np.int64)
        self.blk_active = np.full(N, plan.blk_active0, dtype=bool)
        self.blk_resolve_v = np.full(N, plan.blk_resolve0, dtype=np.int64)
        self.blk_fetch_abs = np.full(N, plan.blk_fetch_abs0, dtype=np.int64)
        self.resume_v = np.full(N, plan.resume_v0, dtype=np.int64)
        self.g_ptr = np.zeros(N, dtype=np.int64)
        self.burned = np.zeros(N, dtype=np.int64)
        self.v_end = np.zeros(N, dtype=np.int64)
        self.last_commit_real = np.zeros(N, dtype=np.int64)
        self.active = np.ones(N, dtype=bool)
        self.evicted_reason = [None] * N

        z = lambda: np.zeros(N, dtype=np.int64)
        self.committed = z()
        self.fetched = z()
        self.dispatched = z()
        self.issued = z()
        self.replays = z()
        self.branch_mispredicts = z()
        self.branches = z()
        self.false_predictions = z()
        self.ep_stalls_stat = z()
        self.slot_freezes = z()
        self.padded = z()
        self.wrong_path = z()
        self.regreads = z()
        self.regwrites = z()
        self.broadcasts = z()
        self.broadcast_occ = z()
        self.iq_occ = z()
        self.cam_searches = z()
        self.forwards = z()
        self.faults_total = z()
        self.faults_predicted = z()
        self.faults_unpredicted = z()
        self.stage_faults = np.zeros((N, 10), dtype=np.int64)
        self.fu_op_counts = np.zeros((N, 8), dtype=np.int64)

        self.tep_probe = plan.uses_tep and plan.tep_gate == 0
        if self.tep_probe:
            self.tep_tag = np.repeat(plan.tep_tag0[None, :], N, axis=0)
            self.tep_cnt = np.repeat(plan.tep_cnt0[None, :], N, axis=0)
            self.tep_stage = np.repeat(plan.tep_stage0[None, :], N, axis=0)

    # ------------------------------------------------------------------
    def _evict(self, lane, reason):
        if self.evicted_reason[lane] is None:
            self.evicted_reason[lane] = reason
        self.active[lane] = False

    # ------------------------------------------------------------------
    def run(self, force_evict=None):
        """Advance all lanes to completion; returns per-lane raw results.

        One compiled-kernel call mutates this engine's arrays in place.
        Raises :class:`BatchFallback` when the kernel is unavailable
        (:func:`build_plan` already rejected a configuration beyond its
        static limits). ``force_evict`` maps lane ->
        virtual cycle; the lane is evicted at the top of that cycle (test
        hook for the divergence path).
        """
        p = self.plan
        N = self.N
        fn = load_kernel()
        if fn is None:
            raise BatchFallback("compiled batch kernel unavailable")
        # tapes carrying in-order-stage bits would hit the scalar
        # dispatch-side checks the kernel doesn't model
        bad = np.nonzero((self.tape & _INORDER_MASK).any(axis=1))[0]
        for lane in bad.tolist():
            self._evict(lane, "in-order-stage fault on tape")

        # the kernel keeps each lane's d-side caches as flat tag arrays
        d_nsets = p.l1d_mask + 1
        l2_nsets = p.l2_mask + 1
        dt, dc = _flat_sets(p.l1d_sets, d_nsets, p.l1d_assoc)
        lt, lc = _flat_sets(p.l2_sets, l2_nsets, p.l2_assoc)
        l1d_tags = np.repeat(dt.reshape(1, -1), N, axis=0)
        l1d_cnt = np.repeat(dc.reshape(1, -1), N, axis=0)
        l2_tags = np.repeat(lt.reshape(1, -1), N, axis=0)
        l2_cnt = np.repeat(lc.reshape(1, -1), N, axis=0)
        dside = {
            k: np.zeros(N, dtype=np.int64)
            for k in ("l1d_hits", "l1d_misses", "l2_hits", "l2_misses",
                      "mem_accesses")
        }
        evict_code = np.zeros(N, dtype=np.int64)
        force_at = np.full(N, -1, dtype=np.int64)
        for lane, at in (force_evict or {}).items():
            force_at[lane] = at
        d64 = np.zeros(1, dtype=np.int64)
        d8 = np.zeros(1, dtype=np.int8)
        if self.tep_probe:
            tepi, tept = p.tepi, p.tept
            ttag, tcnt, tstg = self.tep_tag, self.tep_cnt, self.tep_stage
        else:
            tepi = tept = ttag = tcnt = tstg = d64
        if p.uses_vte:
            t_rr, t_ex, t_mem, t_wb, t_frz, t_has = _vte_tables()
        else:
            t_rr = t_ex = t_mem = t_wb = t_has = d64
            t_frz = d8
        arrays = [
            p.op, p.lat, p.fu, p.nsrcs, p.has_dest,
            p.is_load, p.is_store, p.is_mem, p.cond_mispred,
            p.ts, p.SM, p.M, p.HD,
            p.srank, p.st_addr8, p.addr8, p.mem_addr,
            p.ws0, p.ws1,
            p.g_start, p.g_len, p.g_branches, p.g_mispred, p.g_has_miss,
            p.g_miss_off, p.miss_pcs,
            tepi, tept,
            t_rr, t_ex, t_mem, t_wb, t_frz, t_has,
            self.tape, self.pred,
            self.cec, self.wake, self.iq_slot, self.iq_len,
            self.conv_start, self.conv_len, self.fu_ni,
            self.wbring, self.epring,
            self.store_resolve, self.premax, self.frontier, self.pm_run,
            self.lsq_occ, self.free_cnt, self.cp, self.dp,
            self.blk_active, self.blk_resolve_v, self.blk_fetch_abs,
            self.resume_v, self.g_ptr, self.burned, self.v_end,
            self.last_commit_real, self.active, evict_code, force_at,
            self.committed, self.fetched, self.dispatched, self.issued,
            self.replays, self.branch_mispredicts, self.branches,
            self.false_predictions, self.ep_stalls_stat, self.slot_freezes,
            self.padded, self.wrong_path, self.regreads, self.regwrites,
            self.broadcasts, self.broadcast_occ, self.iq_occ,
            self.cam_searches, self.forwards,
            self.faults_total, self.faults_predicted, self.faults_unpredicted,
            self.stage_faults, self.fu_op_counts,
            ttag, tcnt, tstg,
            l1d_tags, l1d_cnt, l2_tags, l2_cnt,
            dside["l1d_hits"], dside["l1d_misses"], dside["l2_hits"],
            dside["l2_misses"], dside["mem_accesses"],
        ]
        for i, a in enumerate(arrays):
            if not a.flags["C_CONTIGUOUS"]:
                raise BatchFallback(f"non-contiguous kernel array #{i}")
        params = [
            N, p.NS, p.NW, p.n_stores, self.premax.shape[1],
            p.width, p.depth, p.iq_size, p.rob_size, p.lsq_size,
            p.target, p.redirect_penalty, p.replay_recovery,
            p.recovery_bubbles, int(bool(p.model_wrong_path)),
            int(self.tep_probe), int(bool(p.uses_vte)),
            int(bool(p.uses_ep_stall)), int(bool(p.tolerates)),
            p.sel_mode, p.max_cycles, p.hang_cycles,
            p.NG, p.tep_n, getattr(p, "tep_cmax", 0),
            p.l1d_shift, p.l1d_mask, p.l1d_assoc, d_nsets,
            p.l2_shift, p.l2_mask, p.l2_assoc, l2_nsets,
            p.lat_l1, p.lat_l2, p.lat_mem,
        ]
        call_kernel(fn, arrays, params)
        for lane in np.nonzero(evict_code)[0].tolist():
            code = int(evict_code[lane])
            self._evict(lane, _EVICT_REASON.get(code, "kernel eviction"))
        self.active[:] = False  # every lane either finished or evicted
        return self._export(dside)

    # ------------------------------------------------------------------
    def _export(self, dside):
        """Raw per-lane results: a counter dict per lane, None if evicted.

        ``dside`` holds the kernel's per-lane d-side cache counters.
        """
        p = self.plan
        out = []
        for lane in range(self.N):
            if self.evicted_reason[lane] is not None:
                out.append(None)
                continue
            ve = int(self.v_end[lane])
            cec = self.cec[lane]
            g = int(self.g_ptr[lane])
            stage_faults = {}
            for st in range(10):
                cnt = int(self.stage_faults[lane, st])
                if cnt:
                    stage_faults[st] = cnt
            fu_ops = {}
            for o in range(8):
                cnt = int(self.fu_op_counts[lane, o])
                if cnt:
                    fu_ops[o] = cnt
            out.append({
                "cycles": ve + int(self.burned[lane]),
                "committed": int(self.committed[lane]),
                "fetched": int(self.fetched[lane]),
                "dispatched": int(self.dispatched[lane]),
                "issued": int(self.issued[lane]),
                "squashed": 0,
                "replays": int(self.replays[lane]),
                "safety_net_replays": 0,
                "storm_faults": 0,
                "branches": int(self.branches[lane]),
                "branch_mispredicts": int(self.branch_mispredicts[lane]),
                "wrong_path_fetched": int(self.wrong_path[lane]),
                "faults_total": int(self.faults_total[lane]),
                "faults_predicted": int(self.faults_predicted[lane]),
                "faults_unpredicted": int(self.faults_unpredicted[lane]),
                "false_predictions": int(self.false_predictions[lane]),
                "stage_faults": stage_faults,
                "ep_stalls": int(self.ep_stalls_stat[lane]),
                "slot_freezes": int(self.slot_freezes[lane]),
                "padded_instructions": int(self.padded[lane]),
                "inorder_stalls": 0,
                "memdep_violations": 0,
                "fu_ops": fu_ops,
                "regreads": int(self.regreads[lane]),
                "regwrites": int(self.regwrites[lane]),
                "broadcasts": int(self.broadcasts[lane]),
                "broadcast_occupancy": int(self.broadcast_occ[lane]),
                "iq_occupancy_accum": int(self.iq_occ[lane]),
                "wb_writes": int(((cec >= 0) & (cec < ve)).sum()),
                "lsq_searches": int(self.cam_searches[lane]),
                "store_forwards": int(self.forwards[lane]),
                "hier": {
                    "l1i_hits": int(p.cum_l1i_hits[g]),
                    "l1i_misses": int(p.cum_l1i_misses[g]),
                    **{k: int(v[lane]) for k, v in dside.items()},
                },
            })
        return out

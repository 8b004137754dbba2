import random

import pytest

from hvsim.vgic import (
    GICD_CTLR,
    GICD_ICENABLER,
    GICD_ICPENDR,
    GICD_IPRIORITYR,
    GICD_ISENABLER,
    GICD_ISPENDR,
    GICD_ITARGETSR,
    SPURIOUS_IRQ,
    Vgic,
)

from oracles import OracleGic

TARGETS = {32: 0, 33: 0, 34: 0, 40: 1, 41: 1}
VIRQS = {0: frozenset({100}), 1: frozenset({101})}


def make_gic(lr_count=4, boot=True):
    gic = Vgic(TARGETS, VIRQS, lr_count=lr_count)
    if boot:
        for vm in (0, 1):
            gic.boot_enable(vm)
    return gic


def lr_states(gic, vm):
    return {(virq, state) for virq, (_, state) in gic.lrs[vm].items()}


class TestRegisters:
    def test_isenabler_set_and_readback(self):
        gic = make_gic(boot=False)
        # IRQ 34 lives in word 1, bit 2
        eff = gic.mmio(0, GICD_ISENABLER + 4, True, 1 << 2)
        assert not eff.unmodeled
        assert gic.enabled[34]
        read = gic.mmio(0, GICD_ISENABLER + 4, False)
        assert read.read_value & (1 << 2)

    def test_writing_zero_bits_has_no_effect(self):
        gic = make_gic()
        assert gic.enabled[34]
        gic.mmio(0, GICD_ISENABLER + 4, True, 0)  # set-register written with 0
        assert gic.enabled[34]
        gic.mmio(0, GICD_ICENABLER + 4, True, 1 << 2)
        assert not gic.enabled[34]

    def test_cross_vm_enable_write_is_noop(self):
        gic = make_gic(boot=False)
        # vm1 tries to enable vm0's IRQ 34
        gic.mmio(1, GICD_ISENABLER + 4, True, 1 << 2)
        assert not gic.enabled[34]
        read = gic.mmio(1, GICD_ISENABLER + 4, False)
        assert read.read_value == 0

    def test_reads_are_filtered_per_vm(self):
        gic = make_gic()
        # word 1 covers irqs 32..63: vm0 sees 32,33,34; vm1 sees 40,41
        r0 = gic.mmio(0, GICD_ISENABLER + 4, False).read_value
        r1 = gic.mmio(1, GICD_ISENABLER + 4, False).read_value
        assert r0 == (1 << 0) | (1 << 1) | (1 << 2)
        assert r1 == (1 << 8) | (1 << 9)

    def test_itargetsr_reflects_static_assignment_and_ignores_writes(self):
        gic = make_gic()
        word = GICD_ITARGETSR + 32  # irqs 32..35
        r0 = gic.mmio(0, word, False).read_value
        assert r0 == 0x00010101  # 32,33,34 owned by vm0
        gic.mmio(0, word, True, 0xFFFFFFFF)
        assert gic.mmio(0, word, False).read_value == r0

    def test_ctlr_is_banked_per_vm(self):
        gic = make_gic()
        gic.mmio(0, GICD_CTLR, True, 0)
        assert gic.mmio(0, GICD_CTLR, False).read_value == 0
        assert gic.mmio(1, GICD_CTLR, False).read_value == 1

    def test_unmodeled_offset_flagged(self):
        gic = make_gic()
        assert gic.mmio(0, 0xC00, True, 1).unmodeled  # ICFGR not modeled
        assert gic.mmio(0, 0x002, False).unmodeled  # unaligned

    @pytest.mark.parametrize("base, words", [(GICD_ISENABLER, 4), (GICD_ICENABLER, 4), (GICD_ISPENDR, 4),
                                             (GICD_ICPENDR, 4), (GICD_IPRIORITYR, 32), (GICD_ITARGETSR, 32)])
    def test_each_bank_ends_at_its_last_word(self, base, words):
        gic = make_gic()
        assert not gic.mmio(0, base + 4 * (words - 1), False).unmodeled
        assert gic.mmio(0, base + 4 * words, False).unmodeled

    def test_sgis_never_pending(self):
        gic = make_gic()
        gic.mmio(0, GICD_ISPENDR, True, 0xFFFF)  # ids 0..15
        assert not any(gic.pending[:16])
        assert gic.phys_arrival(3) == "dropped"

    def test_first_non_sgi_is_writable_and_the_last_sgi_is_not(self):
        """A VM owning irqs 15 and 16 (a target map built by hand; the loader
        never assigns an SGI) sets and clears 16 through the bit banks, while
        the same writes leave SGI 15 alone."""
        gic = Vgic({15: 0, 16: 0}, {0: frozenset()})
        both = (1 << 15) | (1 << 16)
        gic.mmio(0, GICD_ISENABLER, True, both)
        gic.mmio(0, GICD_ISPENDR, True, both)  # distributor off: 16 stays latched
        assert gic.enabled[15:17] == gic.pending[15:17] == [False, True]
        assert gic.mmio(0, GICD_ISPENDR, False).read_value == 1 << 16
        gic.enabled[15] = gic.pending[15] = True
        gic.mmio(0, GICD_ICENABLER, True, both)
        gic.mmio(0, GICD_ICPENDR, True, both)
        assert gic.enabled[15:17] == gic.pending[15:17] == [True, False]


class TestInterruptFlow:
    def test_arrival_injects_into_target(self):
        gic = make_gic()
        assert gic.phys_arrival(40) == "injected" and gic.irq_targets[40] == 1
        assert lr_states(gic, 1) == {(40, "pending")}
        assert not gic.pending[40]

    def test_arrival_while_disabled_latches_then_enable_injects(self):
        gic = make_gic()
        gic.mmio(1, GICD_ICENABLER + 4, True, 1 << 8)  # disable 40
        assert gic.phys_arrival(40) == "pending"
        assert gic.pending[40] and lr_states(gic, 1) == set()
        eff2 = gic.mmio(1, GICD_ISENABLER + 4, True, 1 << 8)
        assert eff2.injections == [1]
        assert lr_states(gic, 1) == {(40, "pending")}

    def test_unassigned_irq_dropped(self):
        gic = make_gic()
        assert gic.phys_arrival(99) == "dropped"

    def test_arrival_bounds_are_the_first_non_sgi_and_the_interrupt_count(self):
        """16 is the first id an arrival latches; 128 and above drop even when
        a target map built by hand names them (the loader never does)."""
        gic = Vgic({15: 0, 16: 0, 128: 0}, {0: frozenset()})
        assert gic.phys_arrival(15) == "dropped"
        assert gic.phys_arrival(16) == "pending" and gic.pending[16]  # distributor off: latched
        assert gic.irq_targets[16] == 0
        assert gic.phys_arrival(128) == "dropped"

    def test_lr_overflow_queues_until_eoi(self):
        gic = make_gic(lr_count=1)
        assert gic.phys_arrival(40) == "injected"
        assert gic.phys_arrival(41) == "pending"  # LR full
        assert gic.pending[41]
        assert gic.guest_ack(1) == 40
        ok, injected = gic.guest_eoi(1, 40)
        assert ok and injected == [1]  # freed slot drains 41
        assert lr_states(gic, 1) == {(41, "pending")}

    def test_eoi_drains_only_when_a_visible_interrupt_is_latched(self):
        """An EOI calls the drain only while one of the EOIing VM's own
        interrupts is latched: another VM's latch is not a reason, and a
        latch of its own is drained into the freed list register."""
        gic = make_gic(lr_count=1)
        drains = []
        plain = gic._drain
        gic._drain = lambda vm: drains.append(vm) or plain(vm)
        gic.mmio(0, GICD_ICENABLER + 4, True, 1 << 0)  # disable 32: its arrival latches
        assert gic.phys_arrival(32) == "pending"
        assert gic.phys_arrival(40) == "injected"
        assert gic.guest_ack(1) == 40
        assert gic.guest_eoi(1, 40) == (True, []) and drains == []  # only vm0's 32 is latched
        assert gic.phys_arrival(40) == "injected"
        assert gic.phys_arrival(41) == "pending"  # the one LR holds 40
        assert gic.guest_ack(1) == 40
        assert gic.guest_eoi(1, 40) == (True, [1]) and drains == [1]
        assert lr_states(gic, 1) == {(41, "pending")} and not gic.pending[41]

    def test_ack_takes_highest_priority_pending(self):
        gic = make_gic()
        gic.priority[40] = 0x80
        gic.priority[41] = 0x20
        gic.phys_arrival(40)
        gic.phys_arrival(41)
        assert gic.guest_ack(1) == 41  # lower value = more urgent
        assert gic.guest_ack(1) == 40

    def test_ack_priority_all_pairs(self):
        for pa in range(0, 256, 51):
            for pb in range(0, 256, 51):
                gic = make_gic()
                gic.priority[40] = pa
                gic.priority[41] = pb
                gic.phys_arrival(40)
                gic.phys_arrival(41)
                expected = 40 if (pa, 40) < (pb, 41) else 41
                assert gic.guest_ack(1) == expected, (pa, pb)

    def test_ack_without_pending_is_spurious(self):
        gic = make_gic()
        assert gic.guest_ack(0) == SPURIOUS_IRQ

    def test_eoi_clears_active_and_allows_rearrival(self):
        gic = make_gic()
        gic.phys_arrival(40)
        assert gic.guest_ack(1) == 40
        ok, _ = gic.guest_eoi(1, 40)
        assert ok
        assert lr_states(gic, 1) == set()
        assert gic.phys_arrival(40) == "injected"  # full cycle again

    def test_arrival_while_active_waits_for_eoi(self):
        gic = make_gic()
        gic.phys_arrival(40)
        gic.guest_ack(1)
        assert gic.phys_arrival(40) == "pending"  # active blocks re-inject
        ok, injected = gic.guest_eoi(1, 40)
        assert ok and injected == [1]

    def test_eoi_of_non_active_is_noop(self):
        gic = make_gic()
        gic.phys_arrival(40)  # pending, never acked
        ok, injected = gic.guest_eoi(1, 40)
        assert not ok and injected == []
        assert lr_states(gic, 1) == {(40, "pending")}

    def test_ack_eoi_balance_matches_active_lrs(self):
        gic = make_gic()
        gic.phys_arrival(40)
        gic.phys_arrival(41)
        gic.guest_ack(1)
        gic.guest_ack(1)
        assert lr_states(gic, 1) == {(40, "active"), (41, "active")}
        gic.guest_eoi(1, 40)
        assert lr_states(gic, 1) == {(41, "active")}

    def test_soft_inject_and_collapse(self):
        gic = make_gic()
        assert gic.inject_soft(0, 100) == "injected"
        assert gic.inject_soft(0, 100) == "collapsed"
        assert lr_states(gic, 0) == {(100, "pending")}  # single delivery

    def test_soft_inject_into_full_lrs_waits_for_eoi(self):
        gic = make_gic(lr_count=1)
        assert gic.phys_arrival(32) == "injected"
        assert gic.inject_soft(0, 100) == "pending"  # the one LR holds 32
        assert gic.pending[100] and lr_states(gic, 0) == {(32, "pending")}
        assert gic.guest_ack(0) == 32
        ok, injected = gic.guest_eoi(0, 32)
        assert ok and injected == [0]  # the freed slot takes the latched virq
        assert not gic.pending[100] and lr_states(gic, 0) == {(100, "pending")}
        assert gic.guest_ack(0) == 100

    def test_soft_inject_undeclared_virq_rejected(self):
        gic = make_gic()
        with pytest.raises(ValueError, match="not declared"):
            gic.inject_soft(0, 101)


# -- differential check against the per-interrupt oracle -----------------------


def snapshot(gic):
    """A Vgic's full architectural state, for differential testing.  An
    assigned irq is active while its target's LRs hold it, and an LR entry is
    linked to the physical interrupt of the same id when that id is assigned."""
    targets = gic.irq_targets
    return {
        "enabled": tuple(gic.enabled),
        "pending": tuple(gic.pending),
        "active": tuple(i in targets and i in gic.lrs[targets[i]] for i in range(len(gic.enabled))),
        "priority": bytes(gic.priority),
        "ctlr": dict(gic.ctlr),
        "lrs": {
            vm: tuple((virq, p, state, virq if virq in targets else None) for virq, (p, state) in lrs.items())
            for vm, lrs in gic.lrs.items()
        },
    }


def canonical(gic_snapshot):
    out = dict(gic_snapshot)
    out["lrs"] = {vm: frozenset(slots) for vm, slots in gic_snapshot["lrs"].items()}
    return out


def random_op(rng, model, oracle):
    """Apply one random operation to both models; return comparable outputs."""
    choice = rng.random()
    vm = rng.choice((0, 1))
    if choice < 0.45:
        base = rng.choice((GICD_CTLR, GICD_ISENABLER, GICD_ICENABLER, GICD_ISPENDR,
                           0x280, GICD_IPRIORITYR, GICD_ITARGETSR))
        if base == GICD_CTLR:
            offset = base
        elif base == GICD_IPRIORITYR or base == GICD_ITARGETSR:
            offset = base + 4 * rng.randrange(32)
        else:
            offset = base + 4 * rng.randrange(4)
        if rng.random() < 0.5:
            value = rng.getrandbits(32)
            m = model.mmio(vm, offset, True, value)
            oracle.mmio(vm, offset, True, value)
            return ("w", m.unmodeled)
        m = model.mmio(vm, offset, False)
        o = oracle.mmio(vm, offset, False)
        return ("r", m.read_value if not m.unmodeled else "unmodeled",
                o if o != "unmodeled" else "unmodeled")
    if choice < 0.65:
        irq = rng.choice(list(TARGETS) + [99])
        return ("arrival", model.phys_arrival(irq), oracle.phys_arrival(irq))
    if choice < 0.75:
        virq = 100 if vm == 0 else 101
        model.inject_soft(vm, virq)
        oracle.inject_soft(vm, virq)
        return ("soft",)
    if choice < 0.9:
        a = model.guest_ack(vm)
        b = oracle.guest_ack(vm)
        return ("ack", a, b)
    virq = rng.choice(sorted({100, 101} | set(TARGETS)))
    ok_m, _ = model.guest_eoi(vm, virq) if virq in model.visible(vm) else (False, [])
    ok_o = oracle.guest_eoi(vm, virq)
    return ("eoi", ok_m, ok_o)


def test_random_sequence_matches_oracle():
    rng = random.Random(20_240_817)
    for seq in range(200):
        model = make_gic(lr_count=64, boot=False)
        oracle = OracleGic(TARGETS, VIRQS)
        if rng.random() < 0.8:
            for vm in (0, 1):
                model.boot_enable(vm)
                oracle.boot_enable(vm)
        for step in range(200):
            out = random_op(rng, model, oracle)
            if out[0] in ("r", "arrival", "ack", "eoi"):
                assert out[1] == out[2], (seq, step, out)
        assert canonical(snapshot(model)) == oracle.snapshot(), seq


@pytest.mark.parametrize("lr_count", [1, 2, 4])
def test_random_sequence_at_lr_capacity_matches_oracle(lr_count):
    """Full LRs: drain order and stop, changed-bit drains, soft latching."""
    rng = random.Random(0xCA9 + lr_count)
    for seq in range(400):
        model = make_gic(lr_count=lr_count, boot=False)
        oracle = OracleGic(TARGETS, VIRQS, lr_count=lr_count)
        if rng.random() < 0.8:
            for vm in (0, 1):
                model.boot_enable(vm)
                oracle.boot_enable(vm)
        for step in range(30):
            out = random_op(rng, model, oracle)
            if out[0] in ("r", "arrival", "ack", "eoi"):
                assert out[1] == out[2], (lr_count, seq, step, out)
        assert canonical(snapshot(model)) == oracle.snapshot(), (lr_count, seq)


def test_full_lrs_hold_back_a_merge_until_a_drain_reaches_it():
    """A drain stops at the first eligible interrupt that does not fit, and
    only a write that changes a bit (or a CTLR enable) drains again."""
    model, oracle = make_gic(lr_count=1), OracleGic(TARGETS, VIRQS, lr_count=1)
    for gic in (model, oracle):
        gic.boot_enable(0)
        gic.boot_enable(1)
    set_100_pending = (0, GICD_ISPENDR + 12, True, 1 << 4)
    steps = [
        ("mmio", (0, GICD_IPRIORITYR + 32, True, 0x10)),  # irq 32 more urgent than virq 100
        ("mmio", (0, GICD_IPRIORITYR + 100, True, 0x80)),
        ("inject_soft", (0, 100)),  # the one LR holds 100
        ("phys_arrival", (32,)),  # latched: no room
        ("mmio", set_100_pending),  # changed: the drain stops at 32, 100 stays latched
        ("mmio", (0, GICD_IPRIORITYR + 100, True, 0)),  # now 100 is the more urgent
        ("mmio", set_100_pending),  # no bit changed: no drain
        ("mmio", (0, GICD_ISENABLER + 4, True, 1)),  # irq 32 already enabled: no drain
        ("mmio", (0, GICD_CTLR, True, 1)),  # always drains: 100 merges, 32 still waits
    ]
    latched_100 = []
    for name, args in steps:
        for gic in (model, oracle):
            getattr(gic, name)(*args)
        assert canonical(snapshot(model)) == oracle.snapshot(), name
        latched_100.append(model.pending[100])
    assert latched_100 == [False, False, False, False, True, True, True, True, False]
    assert model.pending[32] and lr_states(model, 0) == {(100, "pending")}


def test_drain_skips_held_and_disabled_irqs_before_full_lrs_stop_it():
    """An assigned irq that the LRs hold, or that is disabled, is skipped
    before full LRs stop the drain, so a less urgent held virq behind both
    still merges."""
    model, oracle = make_gic(lr_count=2, boot=False), OracleGic(TARGETS, VIRQS, lr_count=2)
    steps = [
        ("boot_enable", (0,)),
        ("mmio", (0, GICD_IPRIORITYR + 32, True, 0x1000)),  # irq 32 at 0x00, irq 33 at 0x10
        ("mmio", (0, GICD_IPRIORITYR + 100, True, 0x20)),  # virq 100 after both
        ("mmio", (0, GICD_ICENABLER + 4, True, 1 << 1)),  # disable 33
        ("phys_arrival", (32,)),
        ("guest_ack", (0,)),  # 32 active in the first LR
        ("inject_soft", (0, 100)),  # 100 pending in the second: the LRs are full
        ("phys_arrival", (32,)),  # latched: the LRs hold 32
        ("phys_arrival", (33,)),  # latched: disabled
        ("mmio", (0, GICD_ISPENDR + 12, True, 1 << 4)),  # latches 100 and drains
    ]
    for name, args in steps:
        for gic in (model, oracle):
            getattr(gic, name)(*args)
    assert canonical(snapshot(model)) == oracle.snapshot()
    assert [model.pending[i] for i in (32, 33, 100)] == [True, True, False]  # 100 merged
    assert lr_states(model, 0) == {(32, "active"), (100, "pending")}

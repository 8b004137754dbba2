# The interrupt path, register by register.
#
# The distributor has no hardware virtualization support, so every guest
# access to it is trapped and emulated against a per-VM filtered view.  The
# CPU interface (list registers, ACK/EOI) is direct: taking and completing
# an interrupt costs the guest no trap at all.  This walks the whole life of
# a physical interrupt against the raw register model.

from hvsim.vgic import (
    GICD_CTLR,
    GICD_ICENABLER,
    GICD_IPRIORITYR,
    GICD_ISENABLER,
    SPURIOUS_IRQ,
    Vgic,
)

gic = Vgic(irq_targets={34: 0, 40: 1}, declared_virqs={0: frozenset({100}), 1: frozenset()})

print("reset state: distributor off, everything disabled\n")

print("vm0 programs its distributor view (each access would cost one mmio trap):")
gic.mmio(0, GICD_CTLR, True, 1)
print("  CTLR <- 1")
eff = gic.mmio(0, GICD_ISENABLER + 4, True, 1 << 2)  # irq 34 = word 1 bit 2
print(f"  ISENABLER[1] <- bit2 (irq 34), readback {gic.mmio(0, GICD_ISENABLER + 4, False).read_value:#x}")
gic.mmio(0, GICD_IPRIORITYR + 32, True, 0x40 << 16)  # priority byte of irq 34
print("  IPRIORITYR[8] <- 0x40 for irq 34")

print("\nvm1 cannot touch vm0's interrupt: its writes are silently dropped")
gic.mmio(1, GICD_ICENABLER + 4, True, 1 << 2)
print(f"  after vm1's ICENABLER write, irq 34 enabled = {gic.enabled[34]}")

print("\nphysical irq 34 arrives:")
eff = gic.phys_arrival(34)
print(f"  outcome: {eff} into vm{gic.irq_targets[34]} (list register filled, hw-linked)")

print("\na second arrival while the first is still in flight stays latched:")
print(f"  outcome: {gic.phys_arrival(34)}")

print("\nthe guest takes it with zero hypervisor involvement:")
virq = gic.guest_ack(0)
print(f"  ACK -> {virq}")
print(f"  ACK again -> {gic.guest_ack(0)} (spurious id, nothing else pending)")
ok, follow_up = gic.guest_eoi(0, virq)
print(f"  EOI -> linked physical deactivation, latched arrival re-injected: {follow_up}")
print(f"  ACK -> {gic.guest_ack(0)}, EOI")
gic.guest_eoi(0, 34)

print("\nsoftware virtual interrupt (the inter-VM notification path):")
print(f"  inject virq 100 into vm0: {gic.inject_soft(0, 100)}")
print(f"  inject again before delivery: {gic.inject_soft(0, 100)} (single delivery)")
print(f"  ACK -> {gic.guest_ack(0)}")
gic.guest_eoi(0, 100)
assert gic.guest_ack(0) == SPURIOUS_IRQ
print("  queue drained")

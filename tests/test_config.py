import copy
import dataclasses
import io
import json
import re
from enum import IntEnum
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hvsim import (
    ConfigError,
    CostModel,
    SimulationAborted,
    dumps_config,
    implied_clock_mhz,
    load_config,
    load_manifest,
    run,
    validate_cost_model,
)
from hvsim.cli import main
from hvsim.engine import Engine
from hvsim.model import PAGE_SIZE, IrqEvents, MemRegion, SystemSpec
from hvsim.schedulers import SCHEDULERS, RoundRobinScheduler, get_plugin
from hvsim.trace import read_csv

from manifests import ZERO_COST, busy_workload, edf_manifest, fp_manifest, make_manifest, make_vm, rr_manifest
from oracles import layout_conflicts


def two_vm_manifest(**overrides):
    m = make_manifest(
        vms=[
            make_vm(0, busy_workload(1_000_000)),
            make_vm(1, busy_workload(1_000_000)),
        ],
        scheduler={"name": "fp", "sched_param": {"0": {"priority": 1}, "1": {"priority": 2}}},
        cost_model=ZERO_COST,
    )
    m.update(overrides)
    return m


def test_two_disjoint_vms_load():
    spec = load_manifest(two_vm_manifest())
    assert len(spec.vms) == 2
    assert spec.vms[0].assigned_irqs == frozenset({32})
    assert spec.vms[1].regions[0].pa_base == 0x4010_0000


def test_pa_overlap_names_both_vms():
    m = two_vm_manifest()
    m["vms"][1]["regions"] = [{"ipa": "0x40000000", "pa": "0x40000000", "len": "0x100000", "perms": "rw"}]
    m["vms"][0]["regions"] = [{"ipa": "0x40000000", "pa": "0x40000000", "len": "0x100000", "perms": "rw"}]
    with pytest.raises(ConfigError, match="PA overlap") as err:
        load_manifest(m)
    assert "vm 0" in str(err.value) and "vm 1" in str(err.value)


def test_unaligned_region_rejected():
    m = two_vm_manifest()
    m["vms"][0]["regions"][0]["len"] = 6000
    with pytest.raises(ConfigError, match="not 4KB aligned"):
        load_manifest(m)


def test_irq_double_assignment_rejected():
    m = two_vm_manifest()
    m["vms"][1]["irqs"] = [32]
    with pytest.raises(ConfigError, match="IRQ 32"):
        load_manifest(m)


@pytest.mark.parametrize("field", ["irqs", "virqs"])
def test_interrupt_id_listed_twice_rejected(field):
    """One VM listing an id twice is rejected the same way for irqs and virqs."""
    m = two_vm_manifest()
    m["vms"][1][field] = [100, 100]
    with pytest.raises(ConfigError) as err:
        load_manifest(m)
    assert str(err.value) == f"vms[1].{field}: duplicate interrupt ids"
    assert layout_conflicts(m)


def three_vm_manifest():
    return make_manifest([make_vm(i, busy_workload(1_000_000)) for i in range(3)], {"name": "rr"},
                         cost_model=ZERO_COST)


def virq_is_another_vms_irq():
    m = three_vm_manifest()
    m["vms"][0]["irqs"] = [32, 40]
    m["vms"][1]["virqs"] = [40]
    return m


def virq_of_two_vms():
    m = three_vm_manifest()
    m["vms"][1]["virqs"] = [100]
    m["vms"][2]["virqs"] = [100]
    return m


# Both once loaded: vm 1's ICENABLER write then disabled vm 0's hardware irq
# 40, and vm 2's IPRIORITYR write changed the priority vm 1 reads for virq 100.
SHARED_INTERRUPT_IDS = {
    "virq-is-another-vms-irq": (virq_is_another_vms_irq, "IRQ 40 assigned to both vm 0 and vm 1"),
    "virq-of-two-vms": (virq_of_two_vms, "IRQ 100 assigned to both vm 1 and vm 2"),
}


@pytest.mark.parametrize("case", SHARED_INTERRUPT_IDS)
def test_interrupt_id_with_two_owners_rejected(case):
    make, message = SHARED_INTERRUPT_IDS[case]
    with pytest.raises(ConfigError) as err:
        load_manifest(make())
    assert str(err.value) == message
    assert layout_conflicts(make())


def test_interrupt_id_with_two_owners_cli_exits_2(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(virq_is_another_vms_irq()))
    assert main(["--config", str(cfg), "--horizon-ns", "1000000", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "configuration error: IRQ 40 assigned to both vm 0 and vm 1\n"


def test_unknown_key_rejected_everywhere():
    m = two_vm_manifest()
    m["surprise"] = 1
    with pytest.raises(ConfigError, match="unknown keys"):
        load_manifest(m)
    m = two_vm_manifest()
    m["vms"][0]["color"] = "red"
    with pytest.raises(ConfigError, match="unknown keys"):
        load_manifest(m)
    m = two_vm_manifest()
    m["cost_model"] = dict(ZERO_COST, cache_flush=1)
    with pytest.raises(ConfigError, match="unknown keys"):
        load_manifest(m)


def test_addresses_accept_hex_and_decimal_strings():
    m = two_vm_manifest()
    m["vms"][0]["regions"][0]["ipa"] = str(0x4000_0000)
    m["vms"][0]["regions"][0]["pa"] = 0x4000_0000
    spec = load_manifest(m)
    assert spec.vms[0].regions[0].ipa_base == 0x4000_0000


def test_vm_ids_must_be_dense_in_order():
    m = two_vm_manifest()
    m["vms"][1]["id"] = 5
    with pytest.raises(ConfigError, match="dense"):
        load_manifest(m)


def test_config_round_trip_is_identity():
    spec = load_manifest(two_vm_manifest())
    again = load_config(dumps_config(spec))
    assert again == spec
    # and a second serialization is byte-identical
    assert dumps_config(again) == dumps_config(spec)


def test_cost_model_defaults_when_absent():
    m = two_vm_manifest()
    del m["cost_model"]
    spec = load_manifest(m)
    assert spec.cost_model == CostModel()
    assert spec.cost_model.hyp_call == 6_580
    assert spec.cost_model.mmio_emulation == 6_580


def test_negative_cost_rejected():
    m = two_vm_manifest()
    m["cost_model"] = dict(ZERO_COST, hyp_call=-1)
    with pytest.raises(ConfigError):
        load_manifest(m)


def test_edf_budget_beyond_period_rejected():
    m = make_manifest(
        vms=[make_vm(0, busy_workload(1))],
        scheduler={"name": "edf", "sched_param": {"0": {"period_ns": 1000, "budget_ns": 2000}}},
        cost_model=ZERO_COST,
    )
    with pytest.raises(ConfigError, match="budget"):
        load_manifest(m)


def test_sched_param_for_unknown_vm_rejected():
    m = two_vm_manifest()
    m["scheduler"]["sched_param"]["7"] = {"priority": 1}
    with pytest.raises(ConfigError, match="no such VM"):
        load_manifest(m)


def test_sched_param_for_the_vm_after_the_last_rejected():
    m = two_vm_manifest()
    m["scheduler"]["sched_param"]["2"] = {"priority": 3}
    with pytest.raises(ConfigError) as err:
        load_manifest(m)
    assert str(err.value) == "scheduler.sched_param: no such VM 2"


def test_address_at_the_time_bound_rejected():
    m = two_vm_manifest()
    m["vms"][0]["regions"][0]["ipa"] = 2**62
    with pytest.raises(ConfigError) as err:
        load_manifest(m)
    assert str(err.value) == f"vms[0].regions[0].ipa: value {2**62} out of range"


def test_virq_colliding_with_own_irq_rejected():
    m = two_vm_manifest()
    m["vms"][0]["virqs"] = [32]
    with pytest.raises(ConfigError, match="collide"):
        load_manifest(m)


def test_region_overlapping_distributor_window_rejected():
    m = two_vm_manifest()
    m["vms"][0]["regions"][0]["ipa"] = "0x01C81000"
    with pytest.raises(ConfigError, match="distributor window"):
        load_manifest(m)


def test_sgi_range_not_assignable():
    m = two_vm_manifest()
    m["vms"][0]["irqs"] = [3]
    with pytest.raises(ConfigError, match="out of range"):
        load_manifest(m)


def test_bad_json_reports_line():
    with pytest.raises(ConfigError, match="line"):
        load_config("{\n  broken\n}")


def test_loop_workload_needs_compute():
    m = two_vm_manifest()
    m["vms"][0]["workload"] = {"loop": True, "segments": [{"hyp_call": None}]}
    with pytest.raises(ConfigError, match="compute"):
        load_manifest(m)


@pytest.mark.parametrize("payload", ["a\nb,c", "a\rb"])
def test_hyp_call_payload_with_line_break_rejected(payload):
    m = two_vm_manifest()
    m["vms"][0]["workload"] = [{"hyp_call": payload}, {"compute": 1_000}]
    with pytest.raises(ConfigError, match="line break"):
        load_manifest(m)


def test_hyp_call_payload_string_or_null_loads():
    m = two_vm_manifest()
    m["vms"][0]["workload"] = [{"hyp_call": None}, {"hyp_call": ""}, {"hyp_call": "a,b"}]
    spec = load_manifest(m)
    assert [seg.payload for seg in spec.vms[0].workload.segments] == ["", "", "a,b"]


# Exact loader messages for rejected phys_irqs entries and compute segments,
# recorded before the accept path of these loops took exact-type shortcuts.
GOOD_IRQ = {"at_ns": 1_000, "irq": 32}
PHYS_IRQ_REJECTIONS = {
    "entry-int": ([5], "phys_irqs[0]: expected an object, got int"),
    "entry-list": ([[1000, 32]], "phys_irqs[0]: expected an object, got list"),
    "entry-null": ([GOOD_IRQ, None], "phys_irqs[1]: expected an object, got NoneType"),
    "unknown-key": ([{"at_ns": 1, "irq": 32, "prio": 0}], "phys_irqs[0]: unknown keys ['prio']"),
    "unknown-and-missing": ([{"at": 1, "irq": 32}], "phys_irqs[0]: unknown keys ['at']"),
    "missing-irq": ([{"at_ns": 1}], "phys_irqs[0]: missing keys ['irq']"),
    "missing-both": ([{}], "phys_irqs[0]: missing keys ['at_ns', 'irq']"),
    "at_ns-bool": ([{"at_ns": True, "irq": 32}], "phys_irqs[0].at_ns: expected integer, got True"),
    "at_ns-float": ([{"at_ns": 1.0, "irq": 32}], "phys_irqs[0].at_ns: expected integer, got 1.0"),
    "at_ns-string": ([{"at_ns": "5", "irq": 32}], "phys_irqs[0].at_ns: expected integer, got '5'"),
    "at_ns-negative": ([{"at_ns": -1, "irq": 32}],
                       "phys_irqs[0].at_ns: value -1 out of range [0, 4611686018427387904)"),
    "at_ns-2^62": ([{"at_ns": 2**62, "irq": 32}], "phys_irqs[0].at_ns: value 4611686018427387904 "
                                                  "out of range [0, 4611686018427387904)"),
    "irq-bool": ([{"at_ns": 1, "irq": False}], "phys_irqs[0].irq: expected integer, got False"),
    "irq-float": ([{"at_ns": 1, "irq": 32.0}], "phys_irqs[0].irq: expected integer, got 32.0"),
    "irq-negative": ([{"at_ns": 1, "irq": -1}], "phys_irqs[0].irq: value -1 out of range [0, 1024)"),
    "irq-1024": ([GOOD_IRQ, GOOD_IRQ, {"at_ns": 1, "irq": 1024}],
                 "phys_irqs[2].irq: value 1024 out of range [0, 1024)"),
    "both-bad": ([{"at_ns": -1, "irq": 1024}],
                 "phys_irqs[0].at_ns: value -1 out of range [0, 4611686018427387904)"),
}
COMPUTE_REJECTIONS = {
    "bool": (True, "vms[1].workload[1].compute: expected integer, got True"),
    "float": (5.0, "vms[1].workload[1].compute: expected integer, got 5.0"),
    "string": ("5", "vms[1].workload[1].compute: expected integer, got '5'"),
    "null": (None, "vms[1].workload[1].compute: expected integer, got None"),
    "list": ([5], "vms[1].workload[1].compute: expected integer, got [5]"),
    "negative": (-1, "vms[1].workload[1].compute: value -1 out of range [0, 4611686018427387904)"),
    "2^62": (2**62, "vms[1].workload[1].compute: value 4611686018427387904 "
                    "out of range [0, 4611686018427387904)"),
}


@pytest.mark.parametrize("case", PHYS_IRQ_REJECTIONS)
def test_phys_irqs_rejection_text(case):
    entries, message = PHYS_IRQ_REJECTIONS[case]
    with pytest.raises(ConfigError) as err:
        load_manifest(two_vm_manifest(phys_irqs=entries))
    assert str(err.value) == message


@pytest.mark.parametrize("case", COMPUTE_REJECTIONS)
def test_compute_rejection_text(case):
    value, message = COMPUTE_REJECTIONS[case]
    m = two_vm_manifest()
    m["vms"][1]["workload"] = {"loop": False, "segments": [{"compute": 5}, {"compute": value}]}
    with pytest.raises(ConfigError) as err:
        load_manifest(m)
    assert str(err.value) == message


# Exact messages for the other rejected segments, each the second segment of
# vms[0]'s list workload; the "vms[1]" cases sit in vms[1]'s looping script.
SEGMENT_REJECTIONS = {
    "list": ([1], "vms[0].workload[1]: each segment is an object with exactly one key, got [1]"),
    "two-keys": ({"compute": 5, "wfi": True}, "vms[0].workload[1]: each segment is an object "
                                              "with exactly one key, got {'compute': 5, 'wfi': True}"),
    "empty": ({}, "vms[0].workload[1]: each segment is an object with exactly one key, got {}"),
    "wfi-false": ({"wfi": False}, "vms[0].workload[1].wfi: must be true"),
    "wfi-1": ({"wfi": 1}, "vms[0].workload[1].wfi: must be true"),
    "hyp_call-list": ({"hyp_call": [1, 2]}, "vms[0].workload[1].hyp_call: expected a string or null, got [1, 2]"),
    "hyp_call-false": ({"hyp_call": False}, "vms[0].workload[1].hyp_call: expected a string or null, got False"),
    "hyp_call-line-break": ({"hyp_call": "a\rb"},
                            "vms[0].workload[1].hyp_call: payload may not contain a line break"),
    "unknown-kind": ({"sleep": 5}, "vms[0].workload[1]: unknown segment kind 'sleep'"),
    "generate": ({"generate": {"kind": "busy"}},
                 "vms[0].workload[1]: generated workload not expanded; run through the CLI with --seed"),
    "mmio-not-object": ({"mmio": 5}, "vms[0].workload[1].mmio: expected an object, got int"),
    "mmio-missing-op": ({"mmio": {"ipa": 0}}, "vms[0].workload[1].mmio: missing keys ['op']"),
    "mmio-op": ({"mmio": {"ipa": 0, "op": "rw"}}, "vms[0].workload[1].mmio.op: must be read or write, got 'rw'"),
    "mmio-ipa": ({"mmio": {"ipa": "x", "op": "read"}},
                 "vms[0].workload[1].mmio.ipa: cannot parse 'x' as an address"),
    "mmio-value": ({"mmio": {"ipa": 0, "op": "write", "value": -1}},
                   "vms[0].workload[1].mmio.value: value -1 out of range"),
    "ivc_notify-negative": ({"ivc_notify": -1},
                            "vms[0].workload[1].ivc_notify: value -1 out of range [0, 4611686018427387904)"),
    "ivc_acquire-bool": ({"ivc_acquire": True}, "vms[0].workload[1].ivc_acquire: expected integer, got True"),
    "ivc_release-unknown": ({"ivc_release": 3}, "vms[0].workload[1]: unknown channel 3"),
    "vms[1]-wfi": ({"wfi": None}, "vms[1].workload[1].wfi: must be true"),
    "vms[1]-unknown-kind": ({"wait": 1}, "vms[1].workload[1]: unknown segment kind 'wait'"),
}
WORKLOAD_REJECTIONS = {
    "not-a-list": (5, "vms[0].workload: expected a segment list"),
    "loop-without-time": ({"loop": True, "segments": [{"compute": 0}, {"wfi": True}]},
                          "vms[0].workload: a looping script needs a compute segment with time > 0"),
    "loop-bool": ({"loop": 1, "segments": []}, "vms[0].workload.loop: expected true or false, got 1"),
    "segments-missing": ({"loop": True}, "vms[0].workload: missing keys ['segments']"),
}


@pytest.mark.parametrize("case", SEGMENT_REJECTIONS)
def test_segment_rejection_text(case):
    seg, message = SEGMENT_REJECTIONS[case]
    m = two_vm_manifest()
    if case.startswith("vms[1]"):
        m["vms"][1]["workload"] = {"loop": True, "segments": [{"compute": 5}, seg]}
    else:
        m["vms"][0]["workload"] = [{"compute": 5}, seg]
    with pytest.raises(ConfigError) as err:
        load_manifest(m)
    assert str(err.value) == message


@pytest.mark.parametrize("case", WORKLOAD_REJECTIONS)
def test_workload_rejection_text(case):
    workload, message = WORKLOAD_REJECTIONS[case]
    m = two_vm_manifest()
    m["vms"][0]["workload"] = workload
    with pytest.raises(ConfigError) as err:
        load_manifest(m)
    assert str(err.value) == message


def test_phys_irqs_and_compute_bounds_load():
    m = two_vm_manifest(phys_irqs=[{"at_ns": 0, "irq": 0}, {"at_ns": 2**62 - 1, "irq": 1023}])
    m["vms"][1]["workload"] = [{"compute": 0}, {"compute": 2**62 - 1}]
    spec = load_manifest(m)
    assert spec.phys_irqs == IrqEvents(at=(0, 2**62 - 1), irq=(0, 1023))
    assert [seg.duration_ns for seg in spec.vms[1].workload.segments] == [0, 2**62 - 1]


def per_entry_phys_irqs(entries):
    """phys_irqs read one entry at a time by the documented rules: the
    (at_ns, irq) pairs, or the ConfigError text of the first bad entry."""
    events = []
    for j, raw in enumerate(entries):
        where = f"phys_irqs[{j}]"
        if not isinstance(raw, dict):
            return f"{where}: expected an object, got {type(raw).__name__}"
        if set(raw) - {"at_ns", "irq"}:
            return f"{where}: unknown keys {sorted(set(raw) - {'at_ns', 'irq'})}"
        if {"at_ns", "irq"} - set(raw):
            return f"{where}: missing keys {sorted({'at_ns', 'irq'} - set(raw))}"
        for key, hi in (("at_ns", 2**62), ("irq", 1024)):
            value = raw[key]
            if isinstance(value, bool) or not isinstance(value, int):
                return f"{where}.{key}: expected integer, got {value!r}"
            if not 0 <= value < hi:
                return f"{where}.{key}: value {value} out of range [0, {hi})"
        events.append((raw["at_ns"], raw["irq"]))
    return tuple(events)


class _DictSubclass(dict):
    pass


class _Irq(IntEnum):
    SPI = 33


# Field values at and past each bound, and of each type the column passes
# must hand to the per-entry checks.
FIELD_VALUES = [0, 1023, 2**62 - 1, -1, 1024, 2**62, True, False, 1.0, 32.0, "5", None, _Irq.SPI]
ODD_IRQS = [
    5, None, 1.5, "at_ns", [1_000, 32],  # not objects
    _DictSubclass(at_ns=5, irq=33),
    {"at_ns": 5, "irq": 33, "prio": 0}, {"at_ns": 5}, {"irq": 33}, {},  # extra and missing keys
    {"at": 5, "irq": 33}, {"at_ns": 5, "irq_id": 33},  # a swapped key
    *({"at_ns": v, "irq": 33} for v in FIELD_VALUES),
    *({"at_ns": 5, "irq": v} for v in FIELD_VALUES),
    {"at_ns": -1, "irq": 1024},
]
VALID_IRQ = st.fixed_dictionaries({"at_ns": st.integers(0, 2**62 - 1), "irq": st.integers(0, 1023)})
BASE_SPEC = load_manifest(two_vm_manifest())


@settings(max_examples=400, deadline=None)
@given(entries=st.lists(VALID_IRQ, max_size=6), index=st.integers(0, 6),
       odd=st.lists(st.sampled_from(ODD_IRQS), min_size=1, max_size=1))
@example(entries=[], index=0, odd=[])
@example(entries=[{"at_ns": 0, "irq": 0}, {"at_ns": 2**62 - 1, "irq": 1023}], index=0, odd=[])
def test_phys_irqs_load_as_read_per_entry(entries, index, odd):
    """The loader's column passes and its per-entry checks agree with a
    per-entry reading on every list: the same spec, or the same message."""
    entries[index:index] = odd
    expected = per_entry_phys_irqs(entries)
    try:
        spec = load_manifest(two_vm_manifest(phys_irqs=entries))
    except ConfigError as exc:
        assert str(exc) == expected
        return
    columns = IrqEvents(tuple(at for at, _ in expected), tuple(irq for _, irq in expected))
    assert spec == dataclasses.replace(BASE_SPEC, phys_irqs=columns)
    assert type(spec.phys_irqs) is IrqEvents and spec.phys_irqs == columns
    assert type(spec.phys_irqs.at) is tuple and type(spec.phys_irqs.irq) is tuple
    assert [tuple(map(type, ev)) for ev in zip(*spec.phys_irqs)] == [tuple(map(type, ev)) for ev in expected]


def test_irq_events_hash_their_columns():
    events, other = IrqEvents((5, 5, 9), (33, 32, 33)), IrqEvents((5, 5, 9), (33, 32, 32))
    assert hash(events) == hash(((5, 5, 9), (33, 32, 33))) and hash(events) != hash(other)
    bare = SystemSpec(vms=(), cost_model=CostModel(), scheduler_name="rr", scheduler_options=None)
    same = IrqEvents((5, 5, 9), (33, 32, 33))
    assert hash(dataclasses.replace(bare, phys_irqs=same)) == hash(dataclasses.replace(bare, phys_irqs=events))
    assert hash(dataclasses.replace(bare, phys_irqs=other)) != hash(dataclasses.replace(bare, phys_irqs=events))
    assert hash(bare) == hash(dataclasses.replace(bare, phys_irqs=IrqEvents((), ())))


def test_a_loaded_spec_hashes_only_if_its_scheduler_values_do():
    """As the SystemSpec docstring says: a loaded EDF, FP or RR spec holds
    dict sched_params or scheduler options, so it does not hash."""
    for manifest in (edf_manifest([(1_000_000, 500_000)], horizon_ns=1_000_000),
                     fp_manifest([1], [busy_workload(1_000_000)], horizon=1_000_000),
                     rr_manifest(1, quantum_ns=100_000, horizon=1_000_000)):
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(load_manifest(manifest))


# Containers of the wrong JSON type: each but sched_param once raised
# TypeError from the loader.
WRONG_CONTAINERS = {
    "phys_irqs": lambda m: m.update(phys_irqs=5),
    "scheduler.name": lambda m: m["scheduler"].update(name={}),
    "vms[0].irqs": lambda m: m["vms"][0].update(irqs=True),
    "vms[1].regions": lambda m: m["vms"][1].update(regions=None),
    "channels": lambda m: m.update(channels=3),
    "scheduler.sched_param": lambda m: m["scheduler"].update(sched_param=[{"priority": 1}]),
}


@pytest.mark.parametrize("where", WRONG_CONTAINERS)
def test_container_of_wrong_type_rejected(where):
    m = two_vm_manifest()
    WRONG_CONTAINERS[where](m)
    with pytest.raises(ConfigError, match=re.escape(where)):
        load_manifest(m)


@pytest.mark.parametrize("where", WRONG_CONTAINERS)
def test_container_of_wrong_type_cli_exits_2(where, tmp_path, capsys):
    m = two_vm_manifest()
    WRONG_CONTAINERS[where](m)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(m))
    assert main(["--config", str(cfg), "--horizon-ns", "1000000", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert where in err and "Traceback" not in err


# Values that once loaded: bool() coerced the two flags, int() read any
# spelling of a VM id, a read kept a value the dump then dropped, and str()
# turned any JSON value into a hyp_call payload.  Four are values no other
# test rejects: a boolean address, an empty region, a generate object in
# place of a segment and an unknown fault policy.  The "addr" cases are
# spellings that int() read as the region's own address, 0x40000000.
LOOSE_VALUES = {
    "gic_boot_init-string": lambda m: m.update(gic_boot_init="false"),
    "gic_boot_init-int": lambda m: m.update(gic_boot_init=0),
    "loop-string": lambda m: m["vms"][0].update(workload={"loop": "no", "segments": [{"compute": 5}]}),
    "loop-null": lambda m: m["vms"][0].update(workload={"loop": None, "segments": [{"compute": 5}]}),
    "sched_param-two-keys-one-vm": lambda m: m["scheduler"].update(
        sched_param={"0": {"priority": 1}, "00": {"priority": 2}, "1": {"priority": 3}}),
    "sched_param-padded-key": lambda m: m["scheduler"]["sched_param"].update({" 1 ": {"priority": 3}}),
    "sched_param-signed-key": lambda m: m["scheduler"].update(
        sched_param={"+0": {"priority": 1}, "1": {"priority": 3}}),
    "sched_param-underscore-key": lambda m: m["scheduler"].update(
        sched_param={"0": {"priority": 1}, "0_1": {"priority": 3}}),
    "mmio-read-value": lambda m: m["vms"][0].update(
        workload=[{"mmio": {"ipa": "0x40000000", "op": "read", "value": 5}}]),
    "hyp_call-list": lambda m: m["vms"][0].update(workload=[{"hyp_call": [1, 2]}]),
    "hyp_call-true": lambda m: m["vms"][0].update(workload=[{"hyp_call": True}]),
    "hyp_call-object": lambda m: m["vms"][0].update(workload=[{"hyp_call": {"a": 1}}]),
    "hyp_call-number": lambda m: m["vms"][0].update(workload=[{"hyp_call": 1.5}]),
    "ipa-true": lambda m: m["vms"][0]["regions"][0].update(ipa=True),
    "len-zero": lambda m: m["vms"][0]["regions"][0].update(len="0x0"),
    "generate-segment": lambda m: m["vms"][0].update(workload=[{"generate": {"kind": "busy"}}]),
    "faults-dist_unmodeled": lambda m: m.update(faults={"dist_unmodeled": "warn"}),
    "addr-underscore": lambda m: m["vms"][0]["regions"][0].update(ipa="1_073_741_824"),
    "addr-blanks": lambda m: m["vms"][0]["regions"][0].update(ipa=" 1073741824 "),
    "addr-signed": lambda m: m["vms"][0]["regions"][0].update(ipa="+1073741824"),
    "addr-newline": lambda m: m["vms"][0]["regions"][0].update(ipa="1073741824\n"),
    "addr-hex-underscore": lambda m: m["vms"][0]["regions"][0].update(ipa="0x_40000000"),
    "addr-arabic-indic-digits": lambda m: m["vms"][0]["regions"][0].update(
        ipa="1073741824".translate({ord("0") + d: 0x660 + d for d in range(10)})),
}
LOOSE_MESSAGES = {
    "gic_boot_init": "gic_boot_init: expected true or false",
    "loop": "vms[0].workload.loop: expected true or false",
    "sched_param": "scheduler.sched_param: bad VM id key",
    "mmio": "vms[0].workload[0].mmio.value: a read carries no value",
    "hyp_call": "vms[0].workload[0].hyp_call: expected a string or null, got ",
    "ipa": "vms[0].regions[0].ipa: expected integer, got True",
    "len": "vms[0].regions[0]: region at ipa 0x40000000: length must be > 0",
    "generate": "vms[0].workload[0]: generated workload not expanded",
    "faults": "faults.dist_unmodeled: must be fault or ignore, got 'warn'",
    "addr": "vms[0].regions[0].ipa: cannot parse ",
}


def test_unknown_stage2_fault_policy_rejected(tmp_path, capsys):
    """The one check on faults.stage2: any other value would load and run as inject."""
    m = two_vm_manifest(faults={"stage2": "bogus"})
    with pytest.raises(ConfigError) as err:
        load_manifest(m)
    assert str(err.value) == "faults.stage2: must be inject or halt, got 'bogus'"
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(m))
    assert main(["--config", str(cfg), "--horizon-ns", "1000000", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"configuration error: {err.value}\n"


# A region field's parser names the field's full path; only MemRegion's own
# checks, which know no path, get the region's path in front.
REGION_MESSAGES = {
    "ipa-true": "vms[0].regions[0].ipa: expected integer, got True",
    "len-zero": "vms[0].regions[0]: region at ipa 0x40000000: length must be > 0",
}


@pytest.mark.parametrize("case", REGION_MESSAGES)
def test_region_error_names_its_path_once(case):
    m = two_vm_manifest()
    LOOSE_VALUES[case](m)
    with pytest.raises(ConfigError) as err:
        load_manifest(m)
    assert str(err.value) == REGION_MESSAGES[case]


@pytest.mark.parametrize("case", LOOSE_VALUES)
def test_loose_value_rejected(case):
    m = two_vm_manifest()
    LOOSE_VALUES[case](m)
    with pytest.raises(ConfigError, match=re.escape(LOOSE_MESSAGES[case.split("-")[0]])):
        load_manifest(m)


@pytest.mark.parametrize("case", LOOSE_VALUES)
def test_loose_value_cli_exits_2(case, tmp_path, capsys):
    m = two_vm_manifest()
    LOOSE_VALUES[case](m)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(m))
    assert main(["--config", str(cfg), "--horizon-ns", "1000000", "--out", str(tmp_path / "o")]) == 2
    assert LOOSE_MESSAGES[case.split("-")[0]] in capsys.readouterr().err


def test_flags_and_mmio_write_value_round_trip():
    m = two_vm_manifest(gic_boot_init=False)
    m["vms"][0]["workload"] = {
        "loop": True,
        "segments": [{"compute": 5}, {"mmio": {"ipa": "0x40000000", "op": "write", "value": 5}},
                     {"mmio": {"ipa": "0x40000000", "op": "read"}}],
    }
    spec = load_manifest(m)
    assert not spec.gic_boot_init and spec.vms[0].workload.loop
    assert spec.vms[0].workload.segments[1].value == 5
    assert load_config(dumps_config(spec)) == spec


def test_every_segment_kind_loads_as_an_immutable_value_that_round_trips():
    script = [{"compute": 5}, {"hyp_call": "a,b"}, {"hyp_call": None}, {"wfi": True},
              {"mmio": {"ipa": "0x40000000", "op": "write", "value": 7}},
              {"mmio": {"ipa": "0x40000000", "op": "read"}},
              {"ivc_acquire": 5}, {"ivc_release": 5}, {"ivc_notify": 5}]
    m = channel_manifest()
    m["vms"][0]["workload"] = {"loop": True, "segments": script}
    spec = load_manifest(m)
    text = dumps_config(spec)
    assert json.loads(text)["vms"][0]["workload"] == {"loop": True, "segments": script}
    again = load_config(text)
    assert again == spec and dumps_config(again) == text
    segments = spec.vms[0].workload.segments
    assert [seg.payload for seg in segments[1:3]] == ["a,b", ""] and segments[4].value == 7
    for seg in segments:
        with pytest.raises(AttributeError):
            seg.kind = "compute"
    assert load_manifest(m).vms[0].workload == spec.vms[0].workload
    assert hash(load_manifest(m).vms[0].workload) == hash(spec.vms[0].workload)


@pytest.mark.parametrize("text", ["{\n  broken\n}", "[1, 2]"])
def test_cli_and_load_config_share_json_errors(text, tmp_path, capsys):
    with pytest.raises(ConfigError) as err:
        load_config(text)
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    assert main(["--config", str(cfg), "--horizon-ns", "1000000", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"configuration error: {err.value}\n"


# Channel and shared-page faults are named by the entry's index path, which
# differs here from the channel's id (5, 6) and the pages' ids (7, 9).
def channel_manifest():
    m = two_vm_manifest(shared_pages=[{"id": 7, "pa": "0x70000000"}, {"id": 9, "pa": "0x70001000"}],
                        channels=[{"id": 5, "endpoints": [0, 1], "pages": [9], "virqs": [100, 101]}])
    m["vms"][0].update(virqs=[100], shared_pages=[{"page": 7, "ipa": "0x60000000", "perms": "rw"},
                                                  {"page": 9, "ipa": "0x60001000", "perms": "rw"}])
    m["vms"][1].update(virqs=[101], shared_pages=[{"page": 9, "ipa": "0x60001000", "perms": "rw"}])
    return m


def _second_channel(**fields):
    return lambda m: m["channels"].append(dict(m["channels"][0], **fields))


CHANNEL_AND_PAGE_FAULTS = {
    "page-unaligned": (lambda m: m["shared_pages"][0].update(pa="0x70000800"),
                       "shared_pages[0].pa: not 4KB aligned"),
    "page-duplicate-id": (lambda m: m["shared_pages"][1].update(id=7), "shared_pages[1].id: duplicate id 7"),
    "page-undeclared": (lambda m: m["vms"][1]["shared_pages"][0].update(page=8),
                        "vms[1].shared_pages[0].page: shared page 8 not declared in shared_pages"),
    "page-referenced-twice": (lambda m: m["vms"][0]["shared_pages"].append(dict(m["vms"][0]["shared_pages"][0])),
                              "vms[0].shared_pages[2]: page 7 referenced twice"),
    "page-ipa-unaligned": (lambda m: m["vms"][1]["shared_pages"][0].update(ipa="0x60001800"),
                           "vms[1].shared_pages[0].ipa: 0x60001800 not 4KB aligned"),
    "channel-duplicate-id": (_second_channel(pages=[7]), "channels[1].id: duplicate channel id 5"),
    "channel-endpoints": (lambda m: m["channels"][0].update(endpoints=[1, 1]),
                          "channels[0].endpoints: must be two distinct VM ids, got 1,1"),
    "channel-endpoint-past-last-vm": (lambda m: m["channels"][0].update(endpoints=[2, 0]),
                                      "channels[0].endpoints: must be two distinct VM ids, got 2,0"),
    "channel-endpoint-unknown": (lambda m: m["channels"][0].update(endpoints=[0, 2]),
                                 "channels[0].endpoints: must be two distinct VM ids, got 0,2"),
    "channel-variant": (lambda m: m["channels"][0].update(variant="open"), "channels[0].variant: unknown variant"),
    "channel-no-pages": (lambda m: m["channels"][0].update(pages=[]),
                         "channels[0].pages: a channel needs at least one page"),
    "channel-page-undeclared": (lambda m: m["channels"][0].update(pages=[8]),
                                "channels[0].pages: page 8 not in shared_pages"),
    "channel-page-reused": (_second_channel(id=6), "channels[1].pages: page 9 already used by channels[0]"),
    "channel-page-unmapped": (lambda m: m["channels"][0].update(pages=[7]),
                              "channels[0].pages: endpoint vm 1 does not declare page 7"),
    "channel-virq": (lambda m: m["channels"][0].update(virqs=[100, 102]),
                     "channels[0].virqs: virq 102 not declared by endpoint vm 1"),
}


def test_channel_manifest_loads():
    spec = load_manifest(channel_manifest())
    assert [ch.id for ch in spec.channels] == [5]
    assert [p.page_id for p in spec.shared_pages] == [7, 9]


@pytest.mark.parametrize("case", CHANNEL_AND_PAGE_FAULTS)
def test_channel_and_page_faults_name_the_index_path(case):
    m = channel_manifest()
    edit, message = CHANNEL_AND_PAGE_FAULTS[case]
    edit(m)
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_manifest(m)


# -- loader property: reject with ConfigError, or load a spec that round-trips --

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _property_manifests():
    edf = {"name": "edf", "sched_param": {"0": {"period_ns": 2_000, "budget_ns": 1_000},
                                          "1": {"period_ns": 4_000, "budget_ns": 1_000}}}
    fp = {"name": "fp", "sched_param": {"0": {"priority": 1}, "1": {"priority": 2}}}
    rr = {"name": "rr", "quantum_ns": 1_000}
    channel = {"id": 0, "endpoints": [0, 1], "pages": [0], "virqs": [100, 101]}
    for scheduler in (edf, fp, rr):
        m = two_vm_manifest(scheduler=scheduler, gic_boot_init=True, phys_irqs=[{"at_ns": 500, "irq": 33}],
                            shared_pages=[{"id": 0, "pa": "0x70000000"}], channels=[channel],
                            faults={"stage2": "inject", "dist_unmodeled": "fault"}, lr_count=4)
        for vm, virq in zip(m["vms"], (100, 101)):
            vm.update(virqs=[virq], shared_pages=[{"page": 0, "ipa": "0x60000000", "perms": "rw"}])
        m["vms"][0]["workload"] = {"loop": True, "segments": [{"compute": 1_000}, {"hyp_call": "x"}]}
        m["vms"][1]["workload"] = [
            {"compute": 1_000}, {"hyp_call": None}, {"wfi": True},
            {"mmio": {"ipa": "0x40000000", "op": "write", "value": 5}},
            {"mmio": {"ipa": "0x40000000", "op": "read"}},
            {"ivc_acquire": 0}, {"ivc_release": 0}, {"ivc_notify": 0},
        ]
        yield m


def _paths(node, prefix):
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _node(m, path):
    for key in path:
        m = m[key]
    return m


# Every node of every manifest, the root excluded.
MUTATION_SITES = [(m, path) for m in _property_manifests() for path in list(_paths(m, ()))[1:]]
# Where a key or an element can be inserted: every object and every list.
INSERTION_SITES = [(m, path) for m, path in MUTATION_SITES if isinstance(_node(m, path), (dict, list))]
# Keys worth inserting: every key the manifests use, the optional ones they omit, and noise.
MANIFEST_KEYS = sorted({key for m, path in MUTATION_SITES for key in path if isinstance(key, str)}
                       | {"variant", "loop", "value", "sched_param", "quantum_ns"})
# Values that reach the semantic checks: the manifests' own leaves, their
# valid alternatives, an unaligned address and small integers.
MANIFEST_LEAVES = list({repr(v): v for v in [
    *(_node(m, path) for m, path in MUTATION_SITES if not isinstance(_node(m, path), (dict, list))),
    "halt", "ignore", "hypcall_gated", "free_access", "0x70001000", "0x70000800", "0x60001000",
]}.values())
VALUES = JSON_VALUES | st.integers(-1, 4) | st.sampled_from(MANIFEST_LEAVES)
PROPERTY_HORIZON = 20_000


def _rejected_or_round_trips_and_runs(m):
    """The loader raises ConfigError, or its spec round-trips and runs for
    PROPERTY_HORIZON to an exact account or to a contract violation."""
    try:
        spec = load_manifest(m)
    except ConfigError:
        return
    assert load_config(dumps_config(spec)) == spec
    try:
        result = run(spec, PROPERTY_HORIZON)
    except SimulationAborted:
        return
    assert result.metrics.conserved()


@settings(max_examples=300, deadline=None)
@given(site=st.sampled_from(MUTATION_SITES), value=VALUES)
def test_any_value_is_rejected_or_round_trips(site, value):
    base, path = site
    m = copy.deepcopy(base)
    _node(m, path[:-1])[path[-1]] = value
    _rejected_or_round_trips_and_runs(m)


@settings(max_examples=200, deadline=None)
@given(site=st.sampled_from(MUTATION_SITES), insertion=st.sampled_from(INSERTION_SITES),
       key=st.sampled_from(MANIFEST_KEYS) | st.text(max_size=4), value=VALUES, index=st.integers(0, 3),
       clone=st.booleans())
def test_any_key_deleted_or_inserted_is_rejected_or_runs(site, insertion, key, value, index, clone):
    base, path = site
    m = copy.deepcopy(base)
    del _node(m, path[:-1])[path[-1]]
    _rejected_or_round_trips_and_runs(m)
    m = copy.deepcopy(insertion[0])
    node = _node(m, insertion[1])
    if isinstance(node, dict):
        node[key] = value
    else:  # a new element, or a copy of one already there
        node.insert(index, copy.deepcopy(node[index % len(node)]) if clone and node else value)
    _rejected_or_round_trips_and_runs(m)


# -- layout property: rejected exactly when the all-pairs oracle finds a conflict --

# Small pools so that overlaps are common: IPA pages straddle the distributor
# window (page 3 of the pool), PA pages and interrupt ids are few.
IPA_PAGES = st.integers(0, 12).map(lambda k: hex(0x01C7_E000 + k * 0x1000))
PA_PAGES = st.integers(0, 24).map(lambda k: hex(0x4000_0000 + k * 0x1000))
INTERRUPT_IDS = st.lists(st.integers(32, 44), unique=True, max_size=2)


@st.composite
def layouts(draw):
    n_pages = draw(st.integers(0, 3))
    vms = []
    for i in range(draw(st.integers(1, 3))):
        regions = [{"ipa": draw(IPA_PAGES), "pa": draw(PA_PAGES), "len": hex(draw(st.integers(1, 3)) * 0x1000),
                    "perms": "rw"} for _ in range(draw(st.integers(1, 2)))]
        page_ids = draw(st.lists(st.integers(0, n_pages - 1), unique=True)) if n_pages else []
        refs = [{"page": p, "ipa": draw(IPA_PAGES), "perms": "rw"} for p in page_ids]
        vms.append(make_vm(i, busy_workload(1_000), irqs=draw(INTERRUPT_IDS), regions=regions,
                           virqs=draw(INTERRUPT_IDS), shared_pages=refs))
    pages = [{"id": p, "pa": draw(PA_PAGES)} for p in range(n_pages)]
    return make_manifest(vms, {"name": "rr"}, cost_model=ZERO_COST, shared_pages=pages)


@settings(max_examples=300, deadline=None)
@given(m=layouts())
def test_layout_rejected_exactly_on_a_conflict(m):
    try:
        load_manifest(m)
    except ConfigError:
        assert layout_conflicts(m)
    else:
        assert not layout_conflicts(m)


# -- cost-model consistency ----------------------------------------------------


def test_implied_clock_is_912mhz_class():
    clock = implied_clock_mhz()
    assert abs(clock - 912.0) / 912.0 < 0.001


def test_hyp_call_cycles_at_912mhz():
    report = validate_cost_model(CostModel(), 912.0)
    row = {r.field: r for r in report.rows}["hyp_call"]
    assert round(row.cycles) == 6001
    assert row.reference_cycles == 6000
    assert row.deviation < 0.001


def test_world_switch_cycles_at_912mhz():
    report = validate_cost_model(CostModel(), 912.0)
    row = {r.field: r for r in report.rows}["world_switch"]
    assert round(row.cycles) == 23566
    assert row.reference_cycles == 23564
    assert row.deviation < 0.001


def test_all_measured_rows_consistent_at_implied_clock():
    report = validate_cost_model(CostModel(), implied_clock_mhz())
    assert report.consistent(0.001)
    measured = [r for r in report.rows if r.reference_cycles is not None]
    assert len(measured) == 4


def test_zero_latency_reports_zero_cycles():
    report = validate_cost_model(CostModel(0, 0, 0, 0, 0, 0), 912.0)
    assert all(r.cycles == 0 for r in report.rows)


def test_measured_rows_inconsistent_at_a_wrong_clock():
    assert not validate_cost_model(CostModel(), 500.0).consistent()


def test_consistency_tolerance_is_inclusive():
    report = validate_cost_model(CostModel(), implied_clock_mhz())
    assert report.consistent(report.max_reference_deviation())


def test_custom_latency_has_no_reference_deviation():
    report = validate_cost_model(CostModel(hyp_call=1234), 912.0)
    row = {r.field: r for r in report.rows}["hyp_call"]
    assert row.reference_cycles is None and row.deviation is None


def _rr_manifest_plus(keys: dict, scheduler_keys: dict) -> dict:
    """A one-VM RR manifest with keys added at the top and to its scheduler object."""
    manifest = rr_manifest(1, quantum_ns=100_000, horizon=1_000_000)
    manifest["scheduler"].update(scheduler_keys)
    return {**manifest, **keys}


# Library calls that check their own arguments, and python-built manifests no JSON text can spell.
ARGUMENT_REJECTIONS = {
    "clock-zero": (lambda: validate_cost_model(CostModel(), 0), ConfigError, "clock_mhz must be > 0, got 0"),
    "cost-bool": (lambda: CostModel(world_switch=True), ConfigError,
                  "cost_model.world_switch must be a non-negative integer, got True"),
    "region-perms": (lambda: MemRegion(0, 0, PAGE_SIZE, frozenset("rx")), ConfigError, "bad perms ['r', 'x']"),
    "horizon-zero": (lambda: Engine(load_manifest(two_vm_manifest()), 0), ValueError, "horizon must be > 0"),
    "horizon-float": (lambda: Engine(load_manifest(two_vm_manifest()), 1.5e6), ValueError,
                      "horizon must be an int, got 1500000.0"),
    "horizon-bool": (lambda: Engine(load_manifest(two_vm_manifest()), True), ValueError,
                     "horizon must be an int, got True"),
    "csv-header": (lambda: read_csv(io.StringIO("time,actor\n0,hv\n")), ValueError,
                   "unexpected trace header 'time,actor'"),
    # Keys and names of mixed types sort by their text, not with a TypeError.
    "manifest-mixed-keys": (lambda: load_manifest(_rr_manifest_plus({5: 1, "x": 2}, {})), ConfigError,
                            "manifest: unknown keys [5, 'x']"),
    "rr-mixed-options": (lambda: load_manifest(_rr_manifest_plus({}, {7: 1, "y": 2})), ConfigError,
                         "unknown rr options [7, 'y']"),
    "region-mixed-perms": (lambda: MemRegion(0, 0, PAGE_SIZE, frozenset({"r", 1})), ConfigError,
                           "bad perms [1, 'r']"),
    "plugin-mixed-names": (patch.dict(SCHEDULERS, {5: RoundRobinScheduler})(lambda: get_plugin("nope")),
                           ConfigError, "unknown scheduler 'nope'; have [5, 'edf', 'fp', 'rr']"),
}


@pytest.mark.parametrize("case", ARGUMENT_REJECTIONS)
def test_argument_rejection_text(case):
    call, error, message = ARGUMENT_REJECTIONS[case]
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


def test_report_renders():
    text = str(validate_cost_model(CostModel(), 912.0))
    assert "hyp_call" in text and "MHz" in text

"""Scheduler plugins: every rejection message of the scheduler section, through
the loader and the CLI, and the one-class plugin contract."""

import json

import pytest

from hvsim import ConfigError, load_manifest, run
from hvsim.cli import main
from hvsim.schedulers import SCHEDULERS, FixedPriorityScheduler, register
from hvsim.workloadgen import ZERO_COST, busy_workload, make_manifest, make_vm

MS = 1_000_000


def manifest(scheduler):
    vms = [make_vm(i, busy_workload(MS)) for i in range(2)]
    return make_manifest(vms, scheduler, cost_model=ZERO_COST)


def edf(p0, p1=None, **options):
    params = {"0": p0, "1": p1 or {"period_ns": 2 * MS, "budget_ns": MS}}
    return dict(name="edf", sched_param=params, **options)


def fp(p0, p1=None, **options):
    params = {"0": p0, "1": p1 or {"priority": 2}}
    return dict(name="fp", sched_param=params, **options)


GOOD_EDF = {"period_ns": MS, "budget_ns": MS // 2}

# (scheduler section, exact message); the first fault in check order wins.
REJECTIONS = {
    "edf-keys": (edf({"period_ns": MS}),
                 "vm 0: edf sched_param must be {'period_ns', 'budget_ns'}, got {'period_ns': 1000000}"),
    "edf-missing": ({"name": "edf", "sched_param": {"0": GOOD_EDF}},
                    "vm 1: edf sched_param must be {'period_ns', 'budget_ns'}, got None"),
    "edf-not-object": (edf(5), "vm 0: edf sched_param must be {'period_ns', 'budget_ns'}, got 5"),
    "edf-float": (edf({"period_ns": 1.5, "budget_ns": 1}), "vm 0: edf parameters must be integers"),
    "edf-string": (edf({"period_ns": MS, "budget_ns": "1"}), "vm 0: edf parameters must be integers"),
    "edf-bool-period": (edf({"period_ns": True, "budget_ns": True}),
                        "vm 0: edf parameters must be integers"),
    "edf-bool-budget": (edf({"period_ns": MS, "budget_ns": True}),
                        "vm 0: edf parameters must be integers"),
    "edf-over-budget": (edf({"period_ns": 1000, "budget_ns": 2000}),
                        "vm 0: need 0 < budget_ns <= period_ns, got 2000/1000"),
    "edf-zero-budget": (edf({"period_ns": 1000, "budget_ns": 0}),
                        "vm 0: need 0 < budget_ns <= period_ns, got 0/1000"),
    "edf-options": (edf(GOOD_EDF, quantum_ns=5), "edf takes no scheduler options, got {'quantum_ns': 5}"),
    "edf-param-before-options": (edf({"period_ns": 1.5, "budget_ns": 1}, quantum_ns=5),
                                 "vm 0: edf parameters must be integers"),
    "fp-keys": (fp({"prio": 1}), "vm 0: fp sched_param must be {'priority': int}, got {'prio': 1}"),
    "fp-missing": ({"name": "fp", "sched_param": {"0": {"priority": 1}}},
                   "vm 1: fp sched_param must be {'priority': int}, got None"),
    "fp-string": (fp({"priority": "1"}),
                  "vm 0: fp sched_param must be {'priority': int}, got {'priority': '1'}"),
    "fp-bool": (fp({"priority": 1}, {"priority": False}),
                "vm 1: fp sched_param must be {'priority': int}, got {'priority': False}"),
    "fp-options": (fp({"priority": 1}, x=1), "fp takes no scheduler options, got {'x': 1}"),
    "rr-option": ({"name": "rr", "slice_ns": MS}, "unknown rr options ['slice_ns']"),
    "rr-zero": ({"name": "rr", "quantum_ns": 0}, "quantum_ns must be a positive integer, got 0"),
    "rr-negative": ({"name": "rr", "quantum_ns": -5}, "quantum_ns must be a positive integer, got -5"),
    "rr-string": ({"name": "rr", "quantum_ns": "5"}, "quantum_ns must be a positive integer, got '5'"),
    "rr-bool": ({"name": "rr", "quantum_ns": True}, "quantum_ns must be a positive integer, got True"),
    "rr-sched-param": ({"name": "rr", "sched_param": {"1": {"priority": 1}}},
                       "vm 1: rr takes no per-VM sched_param"),
    "rr-quantum-before-param": ({"name": "rr", "quantum_ns": 0, "sched_param": {"0": {"x": 1}}},
                                "quantum_ns must be a positive integer, got 0"),
    "unknown": ({"name": "lottery"}, "unknown scheduler 'lottery'; have ['edf', 'fp', 'rr']"),
}


@pytest.mark.parametrize("case", REJECTIONS)
def test_rejection_message(case):
    scheduler, message = REJECTIONS[case]
    with pytest.raises(ConfigError) as err:
        load_manifest(manifest(scheduler))
    assert str(err.value) == message


@pytest.mark.parametrize("case", REJECTIONS)
def test_rejection_cli_exits_2(case, tmp_path, capsys):
    scheduler, message = REJECTIONS[case]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(manifest(scheduler)))
    assert main(["--config", str(cfg), "--horizon-ns", str(MS), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"


def test_layout_error_reported_before_scheduler_error():
    m = manifest(edf({"period_ns": 1.5, "budget_ns": 1}))
    m["vms"][1]["regions"] = m["vms"][0]["regions"]
    with pytest.raises(ConfigError, match="PA overlap"):
        load_manifest(m)


def test_accepted_values_still_load():
    assert load_manifest(manifest(fp({"priority": -3}, {"priority": 0}))).vms[0].sched_param == {
        "priority": -3
    }
    assert load_manifest(manifest({"name": "rr", "sched_param": {"0": {}}})).vms[0].sched_param == {}
    assert load_manifest(manifest({"name": "rr", "quantum_ns": 1})).scheduler_options == {
        "quantum_ns": 1
    }


def test_parse_returns_what_the_constructor_takes():
    spec = load_manifest(manifest(fp({"priority": 4})))
    assert FixedPriorityScheduler.parse(spec) == {0: 4, 1: 2}
    spec = load_manifest(manifest({"name": "rr", "quantum_ns": 7 * MS}))
    assert SCHEDULERS["rr"].parse(spec) == 7 * MS
    params = SCHEDULERS["edf"].parse(load_manifest(manifest(edf(GOOD_EDF))))
    assert [(p.period, p.budget) for p in params.values()] == [(MS, MS // 2), (2 * MS, MS)]


def test_registered_fp_subclass_inherits_fp_checks():
    class Renamed(FixedPriorityScheduler):
        pass

    register("fp_renamed", Renamed)
    try:
        bad = manifest(fp({"priority": "high"}))
        bad["scheduler"]["name"] = "fp_renamed"
        with pytest.raises(ConfigError, match="vm 0: fp sched_param must be"):
            load_manifest(bad)
        good = manifest(fp({"priority": 3}, {"priority": 1}))
        plain = run(load_manifest(good), 2 * MS)
        good["scheduler"]["name"] = "fp_renamed"
        renamed = run(load_manifest(good), 2 * MS)
    finally:
        del SCHEDULERS["fp_renamed"]
    assert renamed.records[0].detail == "scheduler=fp_renamed;vms=2"
    assert renamed.records[1:] == plain.records[1:]

import pytest

from hvsim import ContractViolation, RunState, VcpuRecord, load_manifest
from hvsim.engine import Engine
from hvsim.framework import _MAX_CHECKPOINT_ROUNDS, END_OF_HYP_CALL, END_OF_PHYSICAL_INTERRUPT, Framework
from hvsim.schedulers import SCHEDULERS, FixedPriorityScheduler, register

from conftest import FakeHost, RecordingTable, assert_conserved, run_manifest
from manifests import ZERO_COST, busy_workload, fp_manifest, make_manifest

MS = 1_000_000


def make_framework(n_vms, plan=None):
    host = FakeHost()
    table = RecordingTable(plan)
    vcpus = [VcpuRecord(id=i, sched_param=None) for i in range(n_vms)]
    fw = Framework(host, table, vcpus)
    return host, table, vcpus, fw


def dispatch(fw, plan_entry=None, kind=END_OF_HYP_CALL):
    if plan_entry is not ...:
        fw.table.plan.append(plan_entry)
    fw.set_reschedule_flag()
    fw.dispatch_checkpoint(kind)


class TestInit:
    def test_three_vms_callback_order(self):
        host, table, vcpus, fw = make_framework(3)
        fw.initialize()
        assert table.calls == [
            ("init",),
            ("allocate", 0),
            ("allocate", 1),
            ("allocate", 2),
            ("enque", 0),
            ("enque", 1),
            ("enque", 2),
        ]
        assert all(v.sched_state == {"state": v.id} for v in vcpus)

    def test_zero_vms(self):
        host, table, _, fw = make_framework(0)
        fw.initialize()
        assert table.calls == [("init",)]

    def test_double_init_rejected(self):
        _, _, _, fw = make_framework(1)
        fw.initialize()
        with pytest.raises(ContractViolation, match="twice"):
            fw.initialize()

    def test_use_before_init_rejected(self):
        _, _, _, fw = make_framework(1)
        with pytest.raises(ContractViolation, match="before init"):
            fw.dispatch_checkpoint(END_OF_HYP_CALL)

    @pytest.mark.parametrize("entry", ["set_reschedule_flag", "dispatch_checkpoint", "on_vm_sleep", "on_vm_wakeup"])
    def test_every_entry_point_rejects_use_before_init(self, entry):
        host, table, vcpus, fw = make_framework(1)
        args = {"dispatch_checkpoint": (END_OF_HYP_CALL,), "on_vm_sleep": (vcpus[0],),
                "on_vm_wakeup": (vcpus[0],)}.get(entry, ())
        with pytest.raises(ContractViolation) as err:
            getattr(fw, entry)(*args)
        assert str(err.value) == "framework used before initialization"
        assert host.records == [] and table.calls == [] and not fw.flag


class TestDispatchCases:
    """The four (flag x same/different) dispatch combinations."""

    def test_flag_unset_is_a_no_op(self):
        host, table, _, fw = make_framework(2)
        fw.initialize()
        dispatch(fw, 0)  # get vm0 running
        calls_before = len(table.calls)
        fw.dispatch_checkpoint(END_OF_HYP_CALL)  # flag not set
        assert len(table.calls) == calls_before
        assert not any(r[2] == "world_switch" and r[3] for r in host.records[-1:])

    def test_flag_set_same_vcpu_no_block_no_cost(self):
        host, table, vcpus, fw = make_framework(2)
        fw.initialize()
        dispatch(fw, 0)
        switches = sum(1 for r in host.records if r[0] == "dispatch")
        dispatch(fw, 0)  # schedule returns the running vcpu again
        assert not fw.flag
        assert ("block", 0) not in table.calls
        assert sum(1 for r in host.records if r[0] == "dispatch") == switches
        assert vcpus[0].run_state is RunState.RUNNING

    def test_flag_set_different_vcpu_blocks_and_charges(self):
        host, table, vcpus, fw = make_framework(2)
        fw.initialize()
        dispatch(fw, 0)
        dispatch(fw, 1)
        assert ("block", 0) in table.calls
        assert vcpus[0].run_state is RunState.READY
        assert vcpus[1].run_state is RunState.RUNNING
        switch_costs = [r for r in host.records if r[2] == "world_switch"]
        assert len(switch_costs) == 2  # boot dispatch + this one
        assert switch_costs[-1][3] == 25_840

    def test_flag_set_none_idles_and_blocks_current(self):
        host, table, vcpus, fw = make_framework(1)
        fw.initialize()
        dispatch(fw, 0)
        dispatch(fw, None)
        assert fw.current is None
        assert ("block", 0) in table.calls
        assert vcpus[0].run_state is RunState.READY

    def test_idle_to_vm_charges_switch(self):
        host, _, _, fw = make_framework(1)
        fw.initialize()
        dispatch(fw, 0)
        assert [r for r in host.records if r[2] == "world_switch"][0][4] == "from=-;to=0"


class TestSleepWakeup:
    def test_sleep_sets_sleeping_and_calls_yield(self):
        host, table, vcpus, fw = make_framework(2)
        fw.initialize()
        dispatch(fw, 0)
        fw.on_vm_sleep(vcpus[0])
        assert vcpus[0].run_state is RunState.SLEEPING
        assert ("yield",) in table.calls

    def test_sleep_of_non_running_rejected(self):
        _, _, vcpus, fw = make_framework(2)
        fw.initialize()
        with pytest.raises(ContractViolation, match="sleep"):
            fw.on_vm_sleep(vcpus[1])

    def test_sleeper_vacates_cpu_without_reschedule(self):
        host, table, vcpus, fw = make_framework(1)
        fw.initialize()
        dispatch(fw, 0)
        fw.on_vm_sleep(vcpus[0])
        fw.dispatch_checkpoint(END_OF_HYP_CALL)  # RecordingTable.yield_ sets no flag
        assert fw.current is None
        assert host.records[-2:] == [("checkpoint", "hv", "", 0, "kind=end_of_hyp_call;flag=0"),
                                     ("cpu_idle", "hv", "", 0, "vacated=vm0")]

    def test_engine_run_with_a_yield_that_leaves_the_flag_clear(self):
        """An FP table whose yield_ never sets the flag: each sleeper vacates
        the CPU with a cpu_idle record, and the ready low-priority VM waits
        until a wakeup sets the flag.  Time is still conserved."""

        class QuietYield(FixedPriorityScheduler):
            def yield_(self):
                self._awake.discard(self._dispatched)
                self._dispatched = None

        m = fp_manifest([0, 1], [[{"compute": MS}, {"wfi": True}, {"compute": MS}], busy_workload(6 * MS)],
                        6 * MS, cost_model=None, phys_irqs=[{"at_ns": 3 * MS, "irq": 32}])
        m["scheduler"]["name"] = "quiet_yield"
        register("quiet_yield", QuietYield)
        try:
            res = run_manifest(m, 6 * MS)
        finally:
            del SCHEDULERS["quiet_yield"]
        idle = [r for r in res.records if r.kind == "cpu_idle"]
        assert [r.detail for r in idle] == ["vacated=vm0", "vacated=vm0"]  # after the wfi, then the script's end
        assert all(res.records[res.records.index(r) - 1].detail.endswith("flag=0") for r in idle)
        assert res.metrics.per_vm[1].cpu_time == 0
        assert res.metrics.per_vm[0].cpu_time == 2 * MS
        assert_conserved(res)

    def test_wakeup_makes_ready_and_calls_unblock(self):
        host, table, vcpus, fw = make_framework(2)
        fw.initialize()
        dispatch(fw, 0)
        fw.on_vm_sleep(vcpus[0])
        fw.on_vm_wakeup(vcpus[0])
        assert vcpus[0].run_state is RunState.READY
        assert ("unblock", 0) in table.calls

    def test_wakeup_of_ready_vm_rejected(self):
        _, _, vcpus, fw = make_framework(2)
        fw.initialize()
        with pytest.raises(ContractViolation, match="wakeup"):
            fw.on_vm_wakeup(vcpus[1])  # Ready, never slept

    def test_wakeup_of_running_vm_rejected(self):
        _, _, vcpus, fw = make_framework(1)
        fw.initialize()
        dispatch(fw, 0)
        with pytest.raises(ContractViolation, match="wakeup"):
            fw.on_vm_wakeup(vcpus[0])


class TestFlag:
    def test_flag_is_idempotent_one_dispatch(self):
        host, table, _, fw = make_framework(1)
        fw.initialize()
        fw.set_reschedule_flag()
        fw.set_reschedule_flag()
        fw.dispatch_checkpoint(END_OF_PHYSICAL_INTERRUPT)
        assert sum(1 for c in table.calls if c == ("schedule",)) == 1

    def test_never_set_never_schedules(self):
        host, table, _, fw = make_framework(1)
        fw.initialize()
        fw.dispatch_checkpoint(END_OF_HYP_CALL)
        fw.dispatch_checkpoint(END_OF_PHYSICAL_INTERRUPT)
        assert ("schedule",) not in table.calls

    def test_unknown_checkpoint_kind_rejected(self):
        _, _, _, fw = make_framework(0)
        fw.initialize()
        with pytest.raises(ContractViolation, match="checkpoint"):
            fw.dispatch_checkpoint("sometime")


class TestScheduleContracts:
    def test_schedule_returning_sleeping_vcpu_rejected(self):
        _, table, vcpus, fw = make_framework(2)
        fw.initialize()
        dispatch(fw, 0)
        fw.on_vm_sleep(vcpus[0])
        with pytest.raises(ContractViolation, match="sleeping"):
            dispatch(fw, 0)  # returns the now-sleeping vcpu0

    def test_schedule_mutating_run_state_rejected(self):
        class Mutator(RecordingTable):
            def schedule(self):
                self.vcpus[0].run_state = RunState.RUNNING
                return None

        host = FakeHost()
        table = Mutator()
        vcpus = [VcpuRecord(id=0, sched_param=None)]
        fw = Framework(host, table, vcpus)
        fw.initialize()
        fw.set_reschedule_flag()
        with pytest.raises(ContractViolation, match="run states"):
            fw.dispatch_checkpoint(END_OF_HYP_CALL)

    def test_schedule_replacing_sched_param_rejected(self):
        class Swapper(RecordingTable):
            def schedule(self):
                self.vcpus[0].sched_param = {"stolen": True}
                return None

        host = FakeHost()
        table = Swapper()
        vcpus = [VcpuRecord(id=0, sched_param={"priority": 1})]
        fw = Framework(host, table, vcpus)
        fw.initialize()
        fw.set_reschedule_flag()
        with pytest.raises(ContractViolation, match="sched_param"):
            fw.dispatch_checkpoint(END_OF_HYP_CALL)

    def test_schedule_returning_non_vcpu_rejected(self):
        class ReturnsInt(RecordingTable):
            def schedule(self):
                return 0

        fw = Framework(FakeHost(), ReturnsInt(), [VcpuRecord(id=0, sched_param=None)])
        fw.initialize()
        fw.set_reschedule_flag()
        with pytest.raises(ContractViolation, match=r"^schedule\(\) returned 0: not a vCPU of this run$"):
            fw.dispatch_checkpoint(END_OF_HYP_CALL)
        assert fw.current is None

    def test_schedule_returning_vcpu_of_another_framework_rejected(self):
        _, _, others, _ = make_framework(1)  # vm 0 of a second run, also Ready
        _, _, _, fw = make_framework(1)
        fw.initialize()
        with pytest.raises(ContractViolation, match=r"returned vcpu0\(ready\): not a vCPU of this run"):
            dispatch(fw, others[0])
        assert fw.current is None and others[0].run_state is RunState.READY

    def test_schedule_swapping_two_run_states_rejected(self):
        """The multiset of run states is unchanged; the check is per vCPU."""

        class Swapper(RecordingTable):
            def schedule(self):
                a, b = self.vcpus
                a.run_state, b.run_state = b.run_state, a.run_state
                return None

        vcpus = [VcpuRecord(id=0, sched_param=None), VcpuRecord(id=1, sched_param=None)]
        fw = Framework(FakeHost(), Swapper(), vcpus)
        fw.initialize()
        vcpus[1].run_state = RunState.SLEEPING
        fw.set_reschedule_flag()
        with pytest.raises(ContractViolation, match="run states"):
            fw.dispatch_checkpoint(END_OF_HYP_CALL)

    def test_schedule_replacing_sched_param_with_equal_copy_rejected(self):
        """The check is identity: an equal but distinct dict still violates it."""

        class Copier(RecordingTable):
            def schedule(self):
                self.vcpus[0].sched_param = dict(self.vcpus[0].sched_param)
                return None

        vcpus = [VcpuRecord(id=0, sched_param={"priority": 1})]
        fw = Framework(FakeHost(), Copier(), vcpus)
        fw.initialize()
        fw.set_reschedule_flag()
        with pytest.raises(ContractViolation, match="sched_param"):
            fw.dispatch_checkpoint(END_OF_HYP_CALL)

    def test_schedule_restoring_run_state_before_return_rejected(self):
        """A write undone before schedule() returns is still a write."""

        class Restorer(RecordingTable):
            def schedule(self):
                v = self.vcpus[0]
                state = v.run_state
                v.run_state = RunState.RUNNING
                v.run_state = state
                return None

        vcpus = [VcpuRecord(id=0, sched_param=None)]
        fw = Framework(FakeHost(), Restorer(), vcpus)
        fw.initialize()
        fw.set_reschedule_flag()
        with pytest.raises(ContractViolation, match="run states"):
            fw.dispatch_checkpoint(END_OF_HYP_CALL)

    def test_flag_storm_detected(self):
        """A table whose schedule() always sets the flag gets exactly
        _MAX_CHECKPOINT_ROUNDS decisions in one checkpoint, then the guard."""

        class Storm(RecordingTable):
            def __init__(self, fw_ref):
                super().__init__()
                self.fw_ref = fw_ref

            def schedule(self):
                self.fw_ref[0].set_reschedule_flag()
                return super().schedule()  # None: the plan is empty

        host = FakeHost()
        fw_ref = []
        table = Storm(fw_ref)
        fw = Framework(host, table, [])
        fw_ref.append(fw)
        fw.initialize()
        fw.set_reschedule_flag()
        with pytest.raises(ContractViolation, match="livelock"):
            fw.dispatch_checkpoint(END_OF_HYP_CALL)
        assert table.calls.count(("schedule",)) == _MAX_CHECKPOINT_ROUNDS == 64


class TestTimers:
    @staticmethod
    def make_engine():
        return Engine(load_manifest(make_manifest([], {"name": "fp"}, cost_model=ZERO_COST)), MS)

    def test_register_in_past_rejected(self):
        engine = self.make_engine()
        engine._now = 100
        with pytest.raises(ContractViolation, match="past"):
            engine.register_timer(99)

    def test_register_delegates_and_returns_handle(self):
        """The handle is the timer's id, the one the timer_set record prints."""
        engine = self.make_engine()
        assert engine.register_timer(42) == 1
        assert engine.register_timer(42) == 2
        assert engine.records[-1][2:] == ("timer_set", "", 0, "id=2;at=42")

    def test_timer_action_sets_flag(self):
        """Each fired timer sets the flag once, before the checkpoint that follows."""
        engine = self.make_engine()
        engine.register_timer(42)
        engine.register_timer(42)
        records = engine.run().records
        i = next(i for i, r in enumerate(records) if r.kind == "timer_fire")
        assert [r.kind for r in records[i + 1 : i + 4]] == ["flag_set", "flag_set", "checkpoint"]
        assert records[i + 3].detail.endswith("flag=1")


def _writes_run_state_in(op):
    """A RecordingTable whose `op` sets vcpu 0 RUNNING, then records the call."""

    def write(self, *args):
        (args[0] if args else self.vcpus[0]).run_state = RunState.RUNNING
        return getattr(RecordingTable, op)(self, *args)

    return type(f"Writes{op}", (RecordingTable,), {op: write})


def _drive_to(op, fw, vcpus):
    """Run a two-vCPU framework until its table's `op` has been called."""
    fw.initialize()  # allocate, enque
    dispatch(fw, 0)
    if op == "block":
        dispatch(fw, 1)
    elif op in ("yield_", "unblock"):
        fw.on_vm_sleep(vcpus[0])
        fw.on_vm_wakeup(vcpus[0])


class TestRunStateGuard:
    """Run states are the framework's during every table operation."""

    @pytest.mark.parametrize("op", ["init", "schedule", "block", "unblock", "yield_", "enque", "allocate"])
    def test_write_in_operation_rejected(self, op):
        vcpus = [VcpuRecord(id=0, sched_param=None), VcpuRecord(id=1, sched_param=None)]
        table = _writes_run_state_in(op)()
        if op == "init":  # init() is the first call: the table holds the vCPUs before it
            table.vcpus = list(vcpus)
        fw = Framework(FakeHost(), table, vcpus)
        with pytest.raises(ContractViolation, match=rf"^{op}\(\) changed vCPU run states \(vm 0\)$"):
            _drive_to(op, fw, vcpus)
        assert vcpus[0].run_state is not RunState.RUNNING

    @pytest.mark.parametrize("op", ["init", "allocate", "enque", "schedule", "block", "unblock", "yield_"])
    def test_guard_lowered_after_a_raising_operation(self, op):
        def raiser(self, *args):
            raise RuntimeError("table bug")

        vcpus = [VcpuRecord(id=0, sched_param=None), VcpuRecord(id=1, sched_param=None)]
        fw = Framework(FakeHost(), type("Raiser", (RecordingTable,), {op: raiser})(), vcpus)
        with pytest.raises(RuntimeError, match="table bug"):
            _drive_to(op, fw, vcpus)
        assert fw._guard == [""]
        vcpus[0].run_state = RunState.SLEEPING
        assert vcpus[0].run_state is RunState.SLEEPING

    def test_sched_param_rebind_outside_operations_rejected(self):
        vcpu = VcpuRecord(id=3, sched_param={"priority": 1})
        with pytest.raises(ContractViolation, match="^sched_param of vm 3 was replaced$"):
            vcpu.sched_param = {"priority": 1}
        assert vcpu.sched_param == {"priority": 1}

    def test_constructor_and_repr_unchanged(self):
        vcpu = VcpuRecord(3, None, RunState.SLEEPING, sched_state="s", total_consumed=7)
        assert repr(vcpu) == "vcpu3(sleeping)"
        assert (vcpu.id, vcpu.sched_state, vcpu.total_consumed) == (3, "s", 7)
        vcpu.run_state = RunState.READY
        assert vcpu.run_state is RunState.READY

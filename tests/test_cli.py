import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import hvsim.cli
import hvsim.engine
from hvsim.cli import cmd_run, cmd_sweep, main
from hvsim.schedulers import SCHEDULERS, FixedPriorityScheduler, register
from hvsim.trace import CSV_HEADER, TraceRecord, metrics_from_trace, read_csv, run_intervals, write_csv, write_json
from hvsim.workloadgen import expand_generated

from conftest import BAD_SERVICE_CALLS, bad_service_call_manifest, bad_service_call_table, run_manifest
from manifests import ZERO_COST, busy_workload, edf_manifest, fp_manifest, make_manifest, make_vm, rr_manifest
from test_trace import RUNS as TRACE_RUNS

MS = 1_000_000
GOLDEN = Path(__file__).parent / "data" / "golden_trace.csv"
# What the same-instant timer livelock of a 1 ms FP run ends in, at zero cost.
LIVELOCK_MESSAGE = "65 timer interrupts at 0 ns: virtual time does not advance (scheduler livelock)"


def write_manifest(tmp_path, manifest, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(manifest, indent=2))
    return str(path)


def small_edf_manifest():
    return edf_manifest([(10 * MS, 3 * MS), (20 * MS, 5 * MS)], 20 * MS)


def generated_manifest(gen, **vm_fields):
    """One fp VM whose workload is {"generate": gen}."""
    m = fp_manifest([1], [None], 5 * MS)
    m["vms"][0].update(workload={"generate": gen}, **vm_fields)
    return m


# SHA-256 of json.dumps(expand_generated(manifest, seed, 5 ms), sort_keys=True),
# recorded while the generator drew with rng.randint: any change to the draw
# sequence changes a script.  "mean-1" clamps the lower bound to 1.
GENERATED_SCRIPTS = {
    "defaults": (generated_manifest({"kind": "mixed"}), 7919,
                 "79a17f8f7d8e86a9a0659002e5c49c628e78e956fd5842bcfa513869f48315a4"),
    "mean-1": (generated_manifest({"kind": "mixed", "segments": 64, "mean_compute_ns": 1, "hyp_call_prob": 0.5}),
               7919, "063ca1326afce7ddeb9cfc98af1533a005d2c11d941096618210b274b2f7b7de"),
    "mean-3-prob-0": (generated_manifest({"kind": "mixed", "segments": 40, "mean_compute_ns": 3,
                                          "hyp_call_prob": 0}),
                      104729, "2ba68d16a97e09e6acdf26dc636db517574fd57aafe5590d28ddeacfeaefd8be"),
    "prob-1": (generated_manifest({"kind": "mixed", "segments": 40, "mean_compute_ns": 1000, "hyp_call_prob": 1}),
               1, "f36ef264c371b175074039e0837636d4dab27b895e13dc307078dcfd036f1d09"),
    "three-vms": (rr_manifest(3, 100_000, 5 * MS, workloads=[
        {"generate": {"kind": "mixed", "segments": 48, "mean_compute_ns": 300_000, "hyp_call_prob": 0.2}},
        {"generate": {"kind": "busy"}},
        {"generate": {"kind": "mixed", "mean_compute_ns": 2}},
    ]), 104729, "4e06e68b0128c35a8b8859258f531b6ba3cef1a4b6b59eb1d159e49b06695f87"),
}


@pytest.mark.parametrize("case", GENERATED_SCRIPTS)
def test_generated_scripts_are_pinned(case):
    manifest, seed, digest = GENERATED_SCRIPTS[case]
    text = json.dumps(expand_generated(manifest, seed, 5 * MS), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_hyp_call_follows_a_draw_strictly_below_its_probability():
    rng = random.Random(7919 * 1_000_003)  # the generator's stream for vm 0 at seed 7919
    compute = rng.randrange(500, 2001)
    draw = rng.random()
    for prob, script in ((draw, [{"compute": compute}]),
                         (math.nextafter(draw, 1), [{"compute": compute}, {"hyp_call": None}])):
        gen = {"kind": "mixed", "segments": 1, "mean_compute_ns": 1000, "hyp_call_prob": prob}
        assert expand_generated(generated_manifest(gen), 7919, 5 * MS)["vms"][0]["workload"] == {
            "loop": True, "segments": script}


def run_python_process(*argv, interpreter_flags=()):
    """`python [interpreter_flags] [argv]` in a fresh process, on this checkout's src."""
    src = str(Path(hvsim.cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, *interpreter_flags, *map(str, argv)],
        env=env, capture_output=True, text=True, timeout=120,
    )


def run_hvsim_process(*args, interpreter_flags=()):
    """`python [interpreter_flags] -m hvsim [args]` in a fresh process."""
    return run_python_process("-m", "hvsim", *args, interpreter_flags=interpreter_flags)


# The hvsim CLI with one more registered table: RR whose block() writes the
# run state of the vCPU it is handed.
BLOCK_WRITER_CLI = """
import sys
from hvsim.cli import main
from hvsim.model import RunState
from hvsim.schedulers import RoundRobinScheduler, register

class BlockWriter(RoundRobinScheduler):
    def block(self, vcpu):
        vcpu.run_state = RunState.RUNNING
        super().block(vcpu)

register("block_writer", BlockWriter)
sys.exit(main(sys.argv[1:]))
"""

# The hvsim CLI with "bad_call" registered: the table of
# conftest.bad_service_call_table for the case named by the first argument.
BAD_SERVICE_CALL_CLI = f"""
import sys
sys.path.insert(0, {str(Path(__file__).parent)!r})
from conftest import bad_service_call_table
from hvsim.cli import main
from hvsim.schedulers import register

register("bad_call", bad_service_call_table(sys.argv.pop(1)))
sys.exit(main(sys.argv[1:]))
"""

# The hvsim CLI, then its process's peak resident set in KiB on stdout.
PEAK_RSS_CLI = """
import resource
import sys
from hvsim.cli import main
assert main(sys.argv[1:]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""

# The hvsim CLI with "bad_call" registered: FP whose schedule() raises a
# contract violation with a two-line message from 1 ms on.
MULTI_LINE_VIOLATION_CLI = """
import sys
from hvsim.cli import main
from hvsim.model import ContractViolation
from hvsim.schedulers import FixedPriorityScheduler, register

class MultiLine(FixedPriorityScheduler):
    def schedule(self):
        if self.services.now() >= 1_000_000:
            raise ContractViolation("line one\\nline two,\\r")
        return super().schedule()

register("bad_call", MultiLine)
sys.exit(main(sys.argv[1:]))
"""


MIXED = {"kind": "mixed", "segments": 4}

MALFORMED_EXPANSION = {
    "vms-missing": {"scheduler": {"name": "fp"}},
    "vms-int": dict(fp_manifest([1], [None], 5 * MS), vms=5),
    "vms-entry-int": dict(fp_manifest([1], [None], 5 * MS), vms=[5]),
    "generate-int": generated_manifest(3),
    "busy-extra-key": generated_manifest({"kind": "busy", "bogus": 1}),
    "busy-mixed-key": generated_manifest({"kind": "busy", "segments": 4}),
    "mixed-extra-key": generated_manifest(dict(MIXED, bogus=1)),
    "kind-missing": generated_manifest({"segments": 4}),
    "kind-list": generated_manifest({"kind": ["busy"]}),
    "segments-str": generated_manifest(dict(MIXED, segments="x")),
    "segments-bool": generated_manifest(dict(MIXED, segments=True)),
    "mean-zero": generated_manifest(dict(MIXED, mean_compute_ns=0)),
    "mean-float": generated_manifest(dict(MIXED, mean_compute_ns=1000.5)),
    "prob-str": generated_manifest(dict(MIXED, hyp_call_prob="p")),
    "prob-bool": generated_manifest(dict(MIXED, hyp_call_prob=True)),
    "prob-above-1": generated_manifest(dict(MIXED, hyp_call_prob=1.5)),
    "prob-negative": generated_manifest(dict(MIXED, hyp_call_prob=-0.1)),
    "id-str": generated_manifest({"kind": "busy"}, id="a"),
}


class TestCmdRun:
    def test_happy_path_writes_three_files(self, tmp_path):
        cfg = write_manifest(tmp_path, small_edf_manifest())
        out = tmp_path / "out"
        assert cmd_run(cfg, 20 * MS, str(out)) == 0
        assert (out / "trace.csv").exists()
        assert (out / "metrics.json").exists()
        assert (out / "timeline.dat").exists()

    def test_json_format(self, tmp_path):
        cfg = write_manifest(tmp_path, small_edf_manifest())
        out = tmp_path / "out"
        assert cmd_run(cfg, 20 * MS, str(out), fmt="json") == 0
        lines = (out / "trace.json").read_text().splitlines()
        assert all(json.loads(line)["kind"] for line in lines)

    def test_pa_overlap_exits_2_naming_both_vms(self, tmp_path, capsys):
        m = small_edf_manifest()
        m["vms"][1]["regions"] = list(m["vms"][0]["regions"])
        cfg = write_manifest(tmp_path, m)
        assert cmd_run(cfg, MS, str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert "PA overlap" in err and "vm 0" in err and "vm 1" in err

    def test_missing_config_exits_4(self, tmp_path):
        assert cmd_run(str(tmp_path / "nope.json"), MS, str(tmp_path / "out")) == 4

    def test_contract_violation_exits_3_with_trace(self, tmp_path):
        class BadSleeper(FixedPriorityScheduler):
            vcpus = []

            def allocate(self, vcpu):
                self.vcpus.append(vcpu)
                return super().allocate(vcpu)

            def schedule(self):
                for v in self.vcpus:
                    if v.run_state.value == "sleeping":
                        return v
                return super().schedule()

        register("cli_bad_sleeper", BadSleeper)
        try:
            m = fp_manifest([1, 2], [[{"compute": MS}, {"wfi": True}], busy_workload(9 * MS)], 9 * MS)
            m["scheduler"]["name"] = "cli_bad_sleeper"
            cfg = write_manifest(tmp_path, m)
            out = tmp_path / "out"
            assert cmd_run(cfg, 9 * MS, str(out)) == 3
        finally:
            del SCHEDULERS["cli_bad_sleeper"]
        text = (out / "trace.csv").read_text()
        assert "contract_violation" in text

    def test_same_instant_livelock_exits_3_with_trace(self, tmp_path, same_instant_timer, capsys):
        m = fp_manifest([1], [[{"compute": MS}]], MS)
        m["scheduler"]["name"] = same_instant_timer
        cfg = write_manifest(tmp_path, m)
        out = tmp_path / "out"
        assert cmd_run(cfg, MS, str(out)) == 3
        assert capsys.readouterr().err == f"contract violation: {LIVELOCK_MESSAGE}\n"
        assert sorted(p.name for p in out.iterdir()) == ["trace.csv"]
        with open(out / "trace.csv") as fh:
            records = read_csv(fh)
        assert records[-1].kind == "contract_violation"
        assert "virtual time does not advance" in records[-1].detail
        assert {r.time for r in records} == {0}

    @pytest.mark.parametrize("service, args", [
        ("set_flag", ()), ("register_timer", (5,)), ("cancel_timer", (1,)), ("report_deadline_miss", (0, 5)),
    ])
    def test_service_called_by_a_table_constructor_exits_3(self, tmp_path, capsys, service, args):
        """A table's constructor may call only now(): any other service ends
        the run before its boot record, so the trace is its header alone."""
        class CallsInConstructor(FixedPriorityScheduler):
            def __init__(self, services, priorities):
                super().__init__(services, priorities)
                getattr(services, service)(*args)

        register("calls_in_constructor", CallsInConstructor)
        try:
            m = fp_manifest([1], [[{"compute": MS}]], MS)
            m["scheduler"]["name"] = "calls_in_constructor"
            out = tmp_path / "out"
            assert main(["--config", write_manifest(tmp_path, m), "--horizon-ns", str(MS), "--out", str(out)]) == 3
        finally:
            del SCHEDULERS["calls_in_constructor"]
        assert capsys.readouterr().err == (f"contract violation: {service}() called with no framework attached: "
                                           "a scheduler table's constructor may call only now()\n")
        assert sorted(p.name for p in out.iterdir()) == ["trace.csv"]
        assert (out / "trace.csv").read_text() == CSV_HEADER + "\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_contract_violation_partial_trace_reads_back(self, tmp_path, fmt):
        m = fp_manifest(
            [1],
            [[{"compute": MS}, {"mmio": {"ipa": "0x90000000", "op": "read"}}]],
            5 * MS,
            faults={"stage2": "halt"},
        )
        cfg = write_manifest(tmp_path, m)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--horizon-ns", str(5 * MS), "--out", str(out),
                     "--format", fmt]) == 3
        assert sorted(p.name for p in out.iterdir()) == [f"trace.{fmt}"]
        with open(out / f"trace.{fmt}") as fh:
            if fmt == "csv":
                records = read_csv(fh)
            else:
                records = [
                    TraceRecord(d["time_ns"], d["actor"], d["kind"], d["cost_field"],
                                d["cost_ns"], d["detail"])
                    for d in map(json.loads, fh)
                ]
        assert [r.kind for r in records[-2:]] == ["stage2_fault", "contract_violation"]
        assert records[-1].time == MS

    def test_benchmark_layer_hooks_a_streamed_run_reaches(self, tmp_path, monkeypatch):
        """perfbench's layer hooks patch these module globals.  A streamed run
        reaches engine.run and load_manifest once and write_csv once per
        block of about 512 records, and neither post-run fold: metrics.json
        and timeline.dat come from the Fold the blocks were fed to."""
        calls = Counter()
        blocks = []

        def count(module, name):
            fn = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(hvsim.engine, "metrics_from_trace")
        count(hvsim.cli, "load_manifest")
        count(hvsim.cli, "run_intervals")
        plain_run, plain_write = hvsim.engine.run, hvsim.cli.write_csv

        def run(spec, horizon):  # perfbench's stand-in takes exactly these two
            calls["run"] += 1
            return plain_run(spec, horizon)

        def write_csv(records, fh, header=True):
            blocks.append(len(records))
            plain_write(records, fh, header)

        monkeypatch.setattr(hvsim.engine, "run", run)
        monkeypatch.setattr(hvsim.cli, "write_csv", write_csv)
        cfg = write_manifest(tmp_path, rr_manifest(2, quantum_ns=100_000, horizon=20 * MS))
        assert main(["--config", cfg, "--horizon-ns", str(20 * MS), "--out", str(tmp_path / "o")]) == 0
        assert calls == {"run": 1, "load_manifest": 1}
        with open(tmp_path / "o" / "trace.csv") as fh:
            assert sum(blocks) == len(read_csv(fh))
        assert len(blocks) > 2 and all(512 <= n < 520 for n in blocks[:-1]) and 0 < blocks[-1] < 520

    def test_metrics_recomputable_from_trace(self, tmp_path):
        cfg = write_manifest(tmp_path, small_edf_manifest())
        out = tmp_path / "out"
        assert cmd_run(cfg, 20 * MS, str(out)) == 0
        written = json.loads((out / "metrics.json").read_text())
        with open(out / "trace.csv") as fh:
            records = read_csv(fh)
        vm_ids = [int(v) for v in written["per_vm"]]
        recomputed = metrics_from_trace(records, written["horizon_ns"], vm_ids)
        assert recomputed.to_dict() == written

    def test_determinism_byte_identical(self, tmp_path):
        cfg = write_manifest(tmp_path, small_edf_manifest())
        cmd_run(cfg, 20 * MS, str(tmp_path / "a"))
        cmd_run(cfg, 20 * MS, str(tmp_path / "b"))
        for name in ("trace.csv", "metrics.json", "timeline.dat"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_generated_workload_needs_seed(self, tmp_path, capsys):
        m = fp_manifest([1], [None], 5 * MS)
        m["vms"][0]["workload"] = {"generate": {"kind": "busy"}}
        cfg = write_manifest(tmp_path, m)
        assert cmd_run(cfg, 5 * MS, str(tmp_path / "o1")) == 2
        assert "--seed" in capsys.readouterr().err
        assert cmd_run(cfg, 5 * MS, str(tmp_path / "o2"), seed=1) == 0

    @pytest.mark.parametrize("index, vm_id", [(0, None), (1, 5)], ids=["no-id", "mismatched-id"])
    def test_unseeded_generated_workload_named_by_index(self, tmp_path, capsys, index, vm_id):
        m = fp_manifest([1, 2], [None, None], 5 * MS)
        vm = m["vms"][index]
        vm.update(id=vm_id, workload={"generate": {"kind": "busy"}})
        if vm_id is None:
            del vm["id"]
        assert cmd_run(write_manifest(tmp_path, m), 5 * MS, str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == (
            f"configuration error: vms[{index}].workload: generated workload needs --seed\n"
        )

    @pytest.mark.parametrize("manifest", MALFORMED_EXPANSION.values(), ids=MALFORMED_EXPANSION)
    def test_malformed_vms_or_generator_exits_2(self, tmp_path, capsys, manifest):
        cfg = write_manifest(tmp_path, manifest)
        assert cmd_run(cfg, 5 * MS, str(tmp_path / "o"), seed=1) == 2
        assert capsys.readouterr().err.startswith("configuration error: ")

    @pytest.mark.parametrize("prob", [0, 1, 0.5])
    def test_mixed_generator_takes_its_three_keys(self, tmp_path, prob):
        gen = {"kind": "mixed", "segments": 3, "mean_compute_ns": 1000, "hyp_call_prob": prob}
        cfg = write_manifest(tmp_path, generated_manifest(gen))
        assert cmd_run(cfg, 5 * MS, str(tmp_path / "o"), seed=1) == 0

    def test_timeline_dat_format(self, tmp_path):
        cfg = write_manifest(tmp_path, small_edf_manifest())
        out = tmp_path / "out"
        cmd_run(cfg, 20 * MS, str(out))
        lines = (out / "timeline.dat").read_text().splitlines()
        assert lines[0] == "# time_ns vm_id state"
        assert lines[1].split() == ["0", "0", "1"]
        assert lines[2].split() == ["3000000", "0", "0"]


def library_outputs(records, metrics, horizon, fmt):
    """The CLI's files as the library writes them from an in-memory run."""
    trace = io.StringIO()
    (write_json if fmt == "json" else write_csv)(records, trace)
    files = {f"trace.{fmt}": trace.getvalue()}
    if metrics is not None:
        files["metrics.json"] = json.dumps(metrics.to_dict(), indent=2, sort_keys=True) + "\n"
        files["timeline.dat"] = "# time_ns vm_id state\n" + "".join(
            f"{s} {vm} 1\n{e} {vm} 0\n" for s, e, vm in run_intervals(records, horizon)
        )
    return files


def cli_outputs(out):
    return {p.name: p.read_text() for p in sorted(out.iterdir())}


class TestStreamedOutput:
    """The CLI streams its trace and folds it block by block; every file it
    writes equals what the library writes from the retained trace."""

    @pytest.mark.parametrize("name", sorted(TRACE_RUNS))
    def test_streamed_files_equal_library_files(self, tmp_path, name):
        make, horizon = TRACE_RUNS[name]
        manifest = make()
        res = run_manifest(manifest, horizon)
        cfg = write_manifest(tmp_path, manifest)
        for fmt in ("csv", "json"):
            out = tmp_path / fmt
            assert cmd_run(cfg, horizon, str(out), fmt) == 0
            assert cli_outputs(out) == library_outputs(res.records, res.metrics, horizon, fmt)

    @pytest.mark.parametrize("case", sorted(BAD_SERVICE_CALLS))
    def test_aborted_streamed_trace_equals_aborted_records(self, tmp_path, case):
        register("bad_call", bad_service_call_table(case))
        try:
            with pytest.raises(hvsim.engine.SimulationAborted) as aborted:
                run_manifest(bad_service_call_manifest(), 5 * MS)
            cfg = write_manifest(tmp_path, bad_service_call_manifest())
            for fmt in ("csv", "json"):
                out = tmp_path / fmt
                assert cmd_run(cfg, 5 * MS, str(out), fmt) == 3
                assert cli_outputs(out) == library_outputs(aborted.value.records, None, 5 * MS, fmt)
        finally:
            del SCHEDULERS["bad_call"]

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
    def test_peak_memory_does_not_grow_with_the_horizon(self, tmp_path):
        """Six generated mixed VMs under RR, as the benchmark's cli_rr: the
        8 s run may peak at most 1 MiB above the 2 s run, as the CLI writes
        each block's run spans to timeline.dat and drops them."""
        gen = {"kind": "mixed", "segments": 64, "mean_compute_ns": 300_000, "hyp_call_prob": 0.2}
        vms = [make_vm(i, {"generate": dict(gen)}) for i in range(6)]
        cfg = write_manifest(tmp_path, make_manifest(vms, {"name": "rr", "quantum_ns": 250_000}))
        peak_kib = {}
        for seconds in (2, 8):
            proc = run_python_process("-c", PEAK_RSS_CLI, "--config", cfg, "--horizon-ns", seconds * 10**9,
                                      "--seed", 7919, "--out", tmp_path / str(seconds))
            assert proc.returncode == 0, proc.stderr
            peak_kib[seconds] = int(proc.stdout)
        assert peak_kib[8] - peak_kib[2] <= 1024, peak_kib


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
class TestWriteFailure:
    """A write that fails while the run streams its trace ends the CLI with
    exit 4 and one io error line."""

    def manifest(self, tmp_path):
        return write_manifest(tmp_path, rr_manifest(2, quantum_ns=100_000, horizon=20 * MS))

    def test_run_exits_4(self, tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        (out / "trace.csv").symlink_to("/dev/full")
        proc = run_hvsim_process("--config", self.manifest(tmp_path), "--horizon-ns", 20 * MS, "--out", out)
        assert proc.returncode == 4
        assert proc.stderr.startswith("io error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert sorted(p.name for p in out.iterdir()) == ["trace.csv"]

    def test_timeline_write_exits_4_leaving_only_the_trace(self, tmp_path):
        """timeline.dat is written under a temporary name while the trace
        streams; a failed write there removes it, and no timeline.dat is left."""
        out = tmp_path / "o"
        out.mkdir()
        (out / "timeline.dat.tmp").symlink_to("/dev/full")
        proc = run_hvsim_process("--config", self.manifest(tmp_path), "--horizon-ns", 20 * MS, "--out", out)
        assert proc.returncode == 4
        assert proc.stderr.startswith("io error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert sorted(p.name for p in out.iterdir()) == ["trace.csv"]

    def test_sweep_exits_4(self, tmp_path):
        out = tmp_path / "o"
        (out / "run_001").mkdir(parents=True)
        (out / "run_001" / "trace.csv").symlink_to("/dev/full")
        proc = run_hvsim_process("--config", self.manifest(tmp_path), "--horizon-ns", 20 * MS, "--out", out,
                                 "--sweep", "cost_model.world_switch", "--values", "0,1000")
        assert proc.returncode == 4
        assert proc.stderr.startswith("io error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert (out / "run_000" / "metrics.json").exists() and not (out / "summary.csv").exists()

    @pytest.mark.parametrize("sweep", [False, True])
    def test_unwritable_out_exits_4_before_any_run(self, tmp_path, capsys, monkeypatch, sweep):
        runs = []
        monkeypatch.setattr(hvsim.engine, "run", lambda spec, horizon: runs.append(spec))
        (tmp_path / "file").write_text("")
        argv = ["--config", self.manifest(tmp_path), "--horizon-ns", str(20 * MS),
                "--out", str(tmp_path / "file" / "o")]
        if sweep:
            argv += ["--sweep", "cost_model.world_switch", "--values", "0,1000"]
        assert main(argv) == 4
        assert capsys.readouterr().err.startswith("io error: ") and runs == []


class TestOptimizedInterpreter:
    """Contracts checked by raise, not assert, hold under python -O."""

    def _run_O(self, cfg, out, horizon):
        return run_hvsim_process("--config", cfg, "--horizon-ns", horizon, "--out", out,
                                 interpreter_flags=["-O"])

    def test_trace_bytes_equal_in_process_run(self, tmp_path):
        cfg = write_manifest(tmp_path, small_edf_manifest())
        assert main(["--config", cfg, "--horizon-ns", str(20 * MS), "--out", str(tmp_path / "a")]) == 0
        proc = self._run_O(cfg, tmp_path / "b", 20 * MS)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "b" / "trace.csv").read_bytes() == (tmp_path / "a" / "trace.csv").read_bytes()

    def test_contract_violation_exits_3(self, tmp_path):
        m = fp_manifest([1], [[{"compute": MS}, {"mmio": {"ipa": "0x90000000", "op": "read"}}]], 5 * MS,
                        faults={"stage2": "halt"})
        proc = self._run_O(write_manifest(tmp_path, m), tmp_path / "o", 5 * MS)
        assert proc.returncode == 3, proc.stderr
        assert "contract_violation" in (tmp_path / "o" / "trace.csv").read_text()

    @pytest.mark.parametrize("case", BAD_SERVICE_CALLS)
    def test_bad_service_call_exits_3_with_trace(self, tmp_path, case):
        out = tmp_path / "o"
        proc = run_python_process("-c", BAD_SERVICE_CALL_CLI, case, "--config",
                                  write_manifest(tmp_path, bad_service_call_manifest()),
                                  "--horizon-ns", 5 * MS, "--out", out, interpreter_flags=["-O"])
        assert proc.returncode == 3, proc.stderr
        with open(out / "trace.csv") as fh:
            last = read_csv(fh)[-1]
        assert last.kind == "contract_violation" and BAD_SERVICE_CALLS[case][1] in last.detail

    def test_multi_line_violation_keeps_one_record_per_line(self, tmp_path):
        out = tmp_path / "o"
        proc = run_python_process("-c", MULTI_LINE_VIOLATION_CLI, "--config",
                                  write_manifest(tmp_path, bad_service_call_manifest()),
                                  "--horizon-ns", 5 * MS, "--out", out, interpreter_flags=["-O"])
        assert proc.returncode == 3, proc.stderr
        with open(out / "trace.csv") as fh:
            records = read_csv(fh)
        assert len(records) == (out / "trace.csv").read_bytes().count(b"\n") - 1
        assert (records[-1].time, records[-1].kind) == (MS, "contract_violation")
        assert records[-1].detail == r"line one\nline two;\r"

    def test_run_state_write_in_block_exits_3(self, tmp_path):
        m = rr_manifest(2, quantum_ns=MS, horizon=5 * MS)
        m["scheduler"]["name"] = "block_writer"
        out = tmp_path / "o"
        proc = run_python_process("-c", BLOCK_WRITER_CLI, "--config", write_manifest(tmp_path, m),
                                  "--horizon-ns", 5 * MS, "--out", out, interpreter_flags=["-O"])
        assert proc.returncode == 3, proc.stderr
        with open(out / "trace.csv") as fh:
            last = read_csv(fh)[-1]
        assert (last.kind, last.detail) == ("contract_violation", "block() changed vCPU run states (vm 0)")


class TestGoldenTrace:
    def test_csv_schema_is_frozen(self, tmp_path):
        cfg = write_manifest(tmp_path, small_edf_manifest())
        out = tmp_path / "out"
        assert cmd_run(cfg, 20 * MS, str(out)) == 0
        assert (out / "trace.csv").read_text() == GOLDEN.read_text()


class TestCmdSweep:
    def tight_manifest(self):
        return edf_manifest(
            [(10 * MS, 4 * MS), (20 * MS, 8 * MS), (40 * MS, 6 * MS)],
            40 * MS,
            cost_model=ZERO_COST,
        )

    def test_world_switch_sweep_misses_non_decreasing(self, tmp_path):
        cfg = write_manifest(tmp_path, self.tight_manifest())
        out = tmp_path / "sweep"
        rc = cmd_sweep(
            cfg, 40 * MS, str(out), "cost_model.world_switch",
            [0, 25_840, 100_000, 1_000_000, 3_000_000],
        )
        assert rc == 0
        rows = (out / "summary.csv").read_text().splitlines()
        assert rows[0] == "value,deadline_misses,hypervisor_overhead_time_ns,utilization,error"
        misses = [int(r.split(",")[1]) for r in rows[1:]]
        assert misses == sorted(misses)
        assert misses[-1] > 0  # a big enough switch cost must hurt

    def test_empty_values_empty_summary(self, tmp_path):
        cfg = write_manifest(tmp_path, self.tight_manifest())
        out = tmp_path / "sweep"
        assert cmd_sweep(cfg, 40 * MS, str(out), "cost_model.world_switch", []) == 0
        rows = (out / "summary.csv").read_text().splitlines()
        assert len(rows) == 1

    def test_invalid_per_run_config_recorded_as_error_row(self, tmp_path):
        cfg = write_manifest(tmp_path, self.tight_manifest())
        out = tmp_path / "sweep"
        key = "scheduler.sched_param.0.budget_ns"
        rc = cmd_sweep(cfg, 40 * MS, str(out), key, [4 * MS, 11 * MS])
        assert rc == 0
        rows = (out / "summary.csv").read_text().splitlines()
        assert rows[1].split(",")[4] == ""  # 4 ms budget runs fine
        assert "budget" in rows[2].split(",")[4]  # 11 ms > 10 ms period

    def test_deeply_nested_unknown_key_is_an_error_row(self, tmp_path):
        """Each variant is decoded anew, so a 950-level unknown value never
        meets a recursive copy; its rows read as for a shallow unknown key."""
        shallow = dict(self.tight_manifest(), lr_count=4, junk=1)
        cfg = write_manifest(tmp_path, shallow, "shallow.json")
        assert cmd_sweep(cfg, 40 * MS, str(tmp_path / "shallow"), "lr_count", [1, 2]) == 0
        deep = tmp_path / "deep.json"
        deep.write_text(json.dumps(shallow).replace('"junk": 1', '"junk": ' + "[" * 950 + "]" * 950))
        proc = run_hvsim_process("--config", deep, "--horizon-ns", 40 * MS, "--out", tmp_path / "deep",
                                 "--sweep", "lr_count", "--values", "1,2")
        assert proc.returncode == 0, proc.stderr
        summary = (tmp_path / "deep" / "summary.csv").read_text()
        assert summary == (tmp_path / "shallow" / "summary.csv").read_text()
        assert summary.count("manifest: unknown keys ['junk']") == 2

    def test_unresolvable_key_exits_2(self, tmp_path, capsys):
        cfg = write_manifest(tmp_path, self.tight_manifest())
        assert cmd_sweep(cfg, MS, str(tmp_path / "s"), "cost_model.nope", [1]) == 2
        assert "sweep key" in capsys.readouterr().err


    def test_aborted_run_is_an_error_row_with_its_partial_trace(self, tmp_path, same_instant_timer):
        """Under a zero cost the same-instant timer livelocks and the run
        aborts; with a 7.48 us interrupt cost time advances and it completes."""
        m = fp_manifest([1], [[{"compute": MS}]], MS)
        m["scheduler"]["name"] = same_instant_timer
        cfg = write_manifest(tmp_path, m)
        out = tmp_path / "sweep"
        assert cmd_sweep(cfg, MS, str(out), "cost_model.interrupt_entry_exit", [0, 7_480]) == 0
        rows = (out / "summary.csv").read_text().splitlines()
        assert rows[1] == f"0,,,,contract violation: {LIVELOCK_MESSAGE}"
        assert rows[2].split(",")[4] == ""
        assert sorted(p.name for p in (out / "run_000").iterdir()) == ["trace.csv"]
        with open(out / "run_000" / "trace.csv") as fh:
            assert read_csv(fh)[-1].kind == "contract_violation"
        assert (out / "run_001" / "metrics.json").exists()

    def test_list_index_key_sweeps(self, tmp_path):
        cfg = write_manifest(tmp_path, fp_manifest([1], [[{"compute": MS}]], 4 * MS))
        out = tmp_path / "sweep"
        assert cmd_sweep(cfg, 4 * MS, str(out), "vms.0.workload.0.compute", [MS, 3 * MS]) == 0
        for i, busy in enumerate([MS, 3 * MS]):
            metrics = json.loads((out / f"run_{i:03d}" / "metrics.json").read_text())
            assert metrics["per_vm"]["0"]["cpu_time_ns"] == busy

    @pytest.mark.parametrize("key, message", [
        ("vms.1.workload.0.compute", "sweep key 'vms.1.workload.0.compute': bad index '1'"),
        ("vms.x.id", "sweep key 'vms.x.id': bad index 'x'"),
        ("vms.0.workload", "sweep key 'vms.0.workload': not a numeric field"),
        ("gic_boot_init", "sweep key 'gic_boot_init': not a numeric field"),
        ("nope.x", "sweep key 'nope.x': no component 'nope'"),
    ])
    def test_bad_index_or_non_numeric_leaf_exits_2(self, tmp_path, capsys, key, message):
        cfg = write_manifest(tmp_path, fp_manifest([1], [[{"compute": MS}]], MS, gic_boot_init=True))
        assert cmd_sweep(cfg, MS, str(tmp_path / "s"), key, [1]) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"


class TestMain:
    def test_run_invocation(self, tmp_path):
        cfg = write_manifest(tmp_path, small_edf_manifest())
        rc = main(
            ["--config", cfg, "--horizon-ns", str(20 * MS), "--out", str(tmp_path / "o")]
        )
        assert rc == 0

    def test_sweep_invocation(self, tmp_path):
        cfg = write_manifest(tmp_path, small_edf_manifest())
        rc = main(
            [
                "--config", cfg, "--horizon-ns", str(20 * MS), "--out", str(tmp_path / "o"),
                "--sweep", "cost_model.world_switch", "--values", "0,1000",
            ]
        )
        assert rc == 0
        assert (tmp_path / "o" / "summary.csv").exists()

    def test_values_without_sweep_rejected(self, tmp_path, capsys):
        cfg = write_manifest(tmp_path, small_edf_manifest())
        rc = main(
            ["--config", cfg, "--horizon-ns", "1000", "--out", str(tmp_path / "o"),
             "--values", "1,2"]
        )
        assert rc == 2
        assert capsys.readouterr().err == "--values requires --sweep\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("values, message", [
        ([], "--sweep requires --values\n"),
        (["--values", "1,x"], "--values must be comma-separated integers\n"),
    ])
    def test_sweep_without_integer_values_exits_2(self, tmp_path, capsys, values, message):
        cfg = write_manifest(tmp_path, small_edf_manifest())
        argv = ["--config", cfg, "--horizon-ns", "1000", "--out", str(tmp_path / "o"), "--sweep", "lr_count"]
        assert main(argv + values) == 2
        assert capsys.readouterr().err == message
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("sweep", [[], ["--sweep", "lr_count", "--values", "2"]], ids=["run", "sweep"])
    def test_non_utf8_config_exits_2(self, tmp_path, capsys, sweep):
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(b"\xff\xfe{")
        argv = ["--config", str(cfg), "--horizon-ns", "1000", "--out", str(tmp_path / "o")]
        assert main(argv + sweep) == 2
        assert capsys.readouterr().err == "configuration error: manifest is not valid UTF-8: byte 0: invalid start byte\n"

    def test_sweep_of_missing_config_exits_4(self, tmp_path, capsys):
        argv = ["--config", str(tmp_path / "nope.json"), "--horizon-ns", "1000", "--out", str(tmp_path / "o"),
                "--sweep", "lr_count", "--values", "1"]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("io error: ") and "nope.json" in err and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("sweep", [[], ["--sweep", "lr_count", "--values", "1"]], ids=["run", "sweep"])
    def test_too_deeply_nested_config_exits_2(self, tmp_path, capsys, sweep):
        cfg = tmp_path / "deep.json"
        cfg.write_text("[" * 200_000)
        argv = ["--config", str(cfg), "--horizon-ns", "1000", "--out", str(tmp_path / "o")]
        assert main(argv + sweep) == 2
        assert capsys.readouterr().err == "configuration error: manifest is nested too deeply to decode\n"

    @pytest.mark.parametrize("sweep", [[], ["--sweep", "lr_count", "--values", "1"]], ids=["run", "sweep"])
    def test_integer_too_long_to_decode_exits_2(self, tmp_path, capsys, sweep):
        """json.loads raises a plain ValueError for an integer of more digits
        than the interpreter converts (4300 by default)."""
        cfg = tmp_path / "long.json"
        cfg.write_text('{"scheduler": {"name": "rr"}, "vms": ' + "9" * 5000 + "}")
        argv = ["--config", str(cfg), "--horizon-ns", "1000", "--out", str(tmp_path / "o")]
        assert main(argv + sweep) == 2
        assert capsys.readouterr().err == "configuration error: manifest holds an integer too long to decode\n"
        assert not (tmp_path / "o").exists()

    def test_bad_horizon_rejected(self, tmp_path, capsys):
        cfg = write_manifest(tmp_path, small_edf_manifest())
        rc = main(["--config", cfg, "--horizon-ns", "0", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == "--horizon-ns must be positive\n"
        assert not (tmp_path / "o").exists()

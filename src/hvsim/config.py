"""Configuration manifests: load, validate, and serialize system specs.

The manifest is a strict JSON document; unknown keys anywhere are an error.
Top level:

    cost_model     optional, six nanosecond integers (defaults used if absent)
    scheduler      {"name": ..., "sched_param": {"<vm>": {...}}, ...options}
    vms            [{id, regions, irqs, virqs, shared_pages, workload}]
    shared_pages   [{id, pa}]                      shareable 4 KB frames
    channels       [{id, endpoints, pages, virqs, variant}]
    phys_irqs      [{at_ns, irq}]                  scripted interrupt arrivals
    faults         {"stage2": inject|halt, "dist_unmodeled": fault|ignore}
    lr_count       list-register slots per VM (default 4)
    gic_boot_init  pre-enable each VM's virtual distributor (default true)

Addresses and lengths are JSON integers or strings spelled [0-9]+ or
0[xX][0-9a-fA-F]+ (ASCII only).  All time quantities are integer nanoseconds.
"""

from __future__ import annotations

import json
import re
from functools import partial
from operator import itemgetter

from .model import (
    DEFAULT_LR_COUNT,
    MAX_TIME,
    PAGE_SIZE,
    VARIANT_FREE,
    VARIANT_GATED,
    ChannelSpec,
    ConfigError,
    CostModel,
    FaultPolicy,
    IrqEvents,
    MemRegion,
    Segment,
    SharedPage,
    SharedPageRef,
    SystemSpec,
    VmSpec,
    Workload,
)
from .schedulers import get_plugin
from .vgic import DIST_MMIO_BASE, DIST_MMIO_SIZE, N_INTERRUPTS, SGI_COUNT

_TOP_KEYS = {
    "cost_model",
    "scheduler",
    "vms",
    "shared_pages",
    "channels",
    "phys_irqs",
    "faults",
    "lr_count",
    "gic_boot_init",
}
_VM_KEYS = {"id", "regions", "irqs", "virqs", "shared_pages", "workload"}
_REGION_KEYS = {"ipa", "pa", "len", "perms"}
_IRQ_KEYS = {"at_ns", "irq"}
_GIC_IDS = 1024  # a scripted arrival may name any of the 1024 GIC interrupt ids
_ADDR = re.compile(r"[0-9]+|0[xX][0-9a-fA-F]+")  # the only spellings of an address string


def _check_keys(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object, got {type(obj).__name__}")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected a list, got {type(value).__name__}")
    return value


def parse_addr(value, where: str) -> int:
    if isinstance(value, bool):
        raise ConfigError(f"{where}: expected integer, got {value!r}")
    if isinstance(value, int):
        out = value
    elif isinstance(value, str):
        try:  # int() alone would also take signs, blanks, underscores and non-ASCII digits
            if not _ADDR.fullmatch(value):
                raise ValueError
            out = int(value, 16 if value[1:2] in ("x", "X") else 10)
        except ValueError:  # also a decimal string longer than int() converts
            raise ConfigError(f"{where}: cannot parse {value!r} as an address") from None
    else:
        raise ConfigError(f"{where}: expected integer or string, got {value!r}")
    if not 0 <= out < MAX_TIME:
        raise ConfigError(f"{where}: value {out} out of range")
    return out


def _parse_int(value, where: str, lo=0, hi=MAX_TIME) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected integer, got {value!r}")
    if not lo <= value < hi:
        raise ConfigError(f"{where}: value {value} out of range [{lo}, {hi})")
    return value


def _parse_bool(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where}: expected true or false, got {value!r}")
    return value


def _parse_perms(value, where: str) -> frozenset[str]:
    if not isinstance(value, str) or not value or set(value) - {"r", "w"}:
        raise ConfigError(f"{where}: perms must be a combination of 'r' and 'w', got {value!r}")
    return frozenset(value)


# -- workload ---------------------------------------------------------------


_segment = partial(tuple.__new__, Segment)  # a Segment from its 7 fields, in C
_WFI = Segment("wfi")
_BARE_HYP_CALL = Segment("hyp_call")


def _parse_segment(seg, workload: str, i: int, ivc: list) -> Segment:
    """Segment i of the script at path `workload`; the segment's own path is
    formatted only where a message or a path-taking parser needs it.  An
    `ivc_*` segment also appends (i, channel) to ivc, for the channel check."""
    if not isinstance(seg, dict) or len(seg) != 1:
        raise ConfigError(f"{workload}[{i}]: each segment is an object with exactly one key, got {seg!r}")
    (key, value), = seg.items()
    if key == "compute":
        if type(value) is not int or not 0 <= value < MAX_TIME:
            value = _parse_int(value, f"{workload}[{i}].compute")  # subclass, or raises
        return _segment(("compute", value, 0, "read", 0, 0, ""))
    if key == "hyp_call":
        if value is not None and not isinstance(value, str):
            raise ConfigError(f"{workload}[{i}].hyp_call: expected a string or null, got {value!r}")
        if not value:
            return _BARE_HYP_CALL
        if "\n" in value or "\r" in value:  # a trace record is one line
            raise ConfigError(f"{workload}[{i}].hyp_call: payload may not contain a line break")
        return Segment("hyp_call", payload=value)
    if key == "wfi":
        if value is not True:
            raise ConfigError(f"{workload}[{i}].wfi: must be true")
        return _WFI
    where = f"{workload}[{i}]"
    if key == "mmio":
        _check_keys(value, {"ipa", "op", "value"}, {"ipa", "op"}, f"{where}.mmio")
        op = value["op"]
        if op not in ("read", "write"):
            raise ConfigError(f"{where}.mmio.op: must be read or write, got {op!r}")
        if op == "read" and "value" in value:
            raise ConfigError(f"{where}.mmio.value: a read carries no value")
        return Segment(
            "mmio",
            ipa=parse_addr(value["ipa"], f"{where}.mmio.ipa"),
            op=op,
            value=parse_addr(value.get("value", 0), f"{where}.mmio.value"),
        )
    if key in ("ivc_notify", "ivc_acquire", "ivc_release"):
        channel = _parse_int(value, f"{where}.{key}")
        ivc.append((i, channel))
        return Segment(key, channel=channel)
    if key == "generate":
        raise ConfigError(
            f"{where}: generated workload not expanded; run through the CLI with --seed"
        )
    raise ConfigError(f"{where}: unknown segment kind {key!r}")


def _parse_workload(raw, where: str, ivc: list) -> Workload:
    loop = False
    if isinstance(raw, dict):
        _check_keys(raw, {"loop", "segments"}, {"segments"}, where)
        loop = _parse_bool(raw.get("loop", False), f"{where}.loop")
        raw = raw["segments"]
    if not isinstance(raw, list):
        raise ConfigError(f"{where}: expected a segment list")
    segments = tuple([_parse_segment(s, where, i, ivc) for i, s in enumerate(raw)])
    if loop and not any(s.kind == "compute" and s.duration_ns > 0 for s in segments):
        raise ConfigError(f"{where}: a looping script needs a compute segment with time > 0")
    return Workload(segments=segments, loop=loop)


# -- sections -----------------------------------------------------------------


def _parse_cost_model(raw) -> CostModel:
    if raw is None:
        return CostModel()
    _check_keys(raw, set(CostModel.FIELDS), set(), "cost_model")
    return CostModel(**{name: _parse_int(raw[name], f"cost_model.{name}")
                        for name in CostModel.FIELDS if name in raw})


def _interrupt_ids(raw, where: str) -> frozenset[int]:
    """A list of distinct interrupt ids as a set."""
    raw = _list(raw, where)
    ids = frozenset(_parse_int(i, where, lo=SGI_COUNT, hi=N_INTERRUPTS) for i in raw)
    if len(ids) != len(raw):
        raise ConfigError(f"{where}: duplicate interrupt ids")
    return ids


def _irq_events(raw: list) -> IrqEvents | None:
    """phys_irqs as IrqEvents over the columns, if column passes settle them
    (exact dicts of exactly at_ns and irq, exact ints in range); else None."""
    if not (set(map(type, raw)) <= {dict} and set(map(len, raw)) <= {2}):
        return None
    try:
        ats, ids = tuple(map(itemgetter("at_ns"), raw)), tuple(map(itemgetter("irq"), raw))
    except KeyError:  # two keys, but not these two
        return None
    if (set(map(type, ats)) <= {int} and 0 <= min(ats, default=0) and max(ats, default=0) < MAX_TIME
            and set(map(type, ids)) <= {int} and 0 <= min(ids, default=0) and max(ids, default=0) < _GIC_IDS):
        return IrqEvents(ats, ids)
    return None


def _parse_vm(raw, index: int, sched_params: dict, page_pa: dict, ivc: list) -> VmSpec:
    where = f"vms[{index}]"
    _check_keys(raw, _VM_KEYS, {"id", "regions", "irqs", "workload"}, where)
    vm_id = _parse_int(raw["id"], f"{where}.id")
    if vm_id != index:
        raise ConfigError(f"{where}.id: ids must be dense from 0 in order, got {vm_id}")

    regions = []
    for j, reg in enumerate(_list(raw["regions"], f"{where}.regions")):
        rw = f"{where}.regions[{j}]"
        _check_keys(reg, _REGION_KEYS, _REGION_KEYS, rw)
        ipa, pa, length = (parse_addr(reg[k], f"{rw}.{k}") for k in ("ipa", "pa", "len"))
        perms = _parse_perms(reg["perms"], f"{rw}.perms")
        try:  # MemRegion's own checks do not know the region's path
            regions.append(MemRegion(ipa_base=ipa, pa_base=pa, length=length, perms=perms))
        except ConfigError as exc:
            raise ConfigError(f"{rw}: {exc}") from None

    irqs = _interrupt_ids(raw["irqs"], f"{where}.irqs")
    virqs = _interrupt_ids(raw.get("virqs", []), f"{where}.virqs")
    if virqs & irqs:
        raise ConfigError(f"{where}: virqs {sorted(virqs & irqs)} collide with assigned irqs")

    shared = []
    seen_pages = set()
    for j, ref in enumerate(_list(raw.get("shared_pages", []), f"{where}.shared_pages")):
        rw = f"{where}.shared_pages[{j}]"
        _check_keys(ref, {"page", "ipa", "perms"}, {"page", "ipa", "perms"}, rw)
        page_id = _parse_int(ref["page"], f"{rw}.page")
        if page_id not in page_pa:
            raise ConfigError(f"{rw}.page: shared page {page_id} not declared in shared_pages")
        if page_id in seen_pages:
            raise ConfigError(f"{rw}: page {page_id} referenced twice")
        seen_pages.add(page_id)
        ipa = parse_addr(ref["ipa"], f"{rw}.ipa")
        if ipa % PAGE_SIZE:
            raise ConfigError(f"{rw}.ipa: {ipa:#x} not 4KB aligned")
        shared.append(SharedPageRef(page_id, ipa, _parse_perms(ref["perms"], f"{rw}.perms")))

    return VmSpec(
        id=vm_id,
        regions=tuple(regions),
        assigned_irqs=irqs,
        sched_param=sched_params.get(vm_id),
        workload=_parse_workload(raw["workload"], f"{where}.workload", ivc),
        shared_pages=tuple(shared),
        virqs=virqs,
    )


def _disjoint(spans, clash) -> None:
    """Raise ConfigError(clash(a, b)) for two overlapping (lo, hi, owner) spans.

    Sorted by lo, any overlap in the set shows as an overlapping pair of
    neighbours, so one pass over the neighbours decides the whole set.
    """
    spans = sorted(spans, key=lambda span: span[0])
    for a, b in zip(spans, spans[1:]):
        if b[0] < a[1]:
            raise ConfigError(clash(a, b))


def _validate_layout(spec: SystemSpec) -> None:
    # Each VM's IPA space is disjoint and leaves the trapped distributor window unmapped.
    for vm in spec.vms:
        _disjoint(
            [(r.ipa_base, r.ipa_end, "region") for r in vm.regions]
            + [(ref.ipa, ref.ipa + PAGE_SIZE, "shared page") for ref in vm.shared_pages]
            + [(DIST_MMIO_BASE, DIST_MMIO_BASE + DIST_MMIO_SIZE, "distributor window")],
            lambda a, b: f"vm {vm.id}: {a[2]} at {a[0]:#x} overlaps {b[2]} at {b[0]:#x} in IPA space",
        )

    # Physical memory: every region and every shared frame has one owner.
    _disjoint(
        [(r.pa_base, r.pa_end, f"vm {vm.id}") for vm in spec.vms for r in vm.regions]
        + [(p.pa, p.pa + PAGE_SIZE, f"shared page {p.page_id}") for p in spec.shared_pages],
        lambda a, b: f"PA overlap between {a[2]} and {b[2]} at {b[0]:#x}",
    )

    # Interrupt ids: each belongs to at most one VM, as an irq or as a virq.
    _disjoint(
        [(i, i + 1, vm.id) for vm in spec.vms for i in vm.assigned_irqs | vm.virqs],
        lambda a, b: f"IRQ {a[0]} assigned to both vm {a[2]} and vm {b[2]}",
    )


def load_manifest(data: dict) -> SystemSpec:
    _check_keys(data, _TOP_KEYS, {"scheduler", "vms"}, "manifest")

    sched_raw = data["scheduler"]
    if not isinstance(sched_raw, dict) or "name" not in sched_raw:
        raise ConfigError("scheduler: expected an object with a 'name'")
    sched = dict(sched_raw)
    name = sched.pop("name")
    if not isinstance(name, str):
        raise ConfigError(f"scheduler.name: expected a string, got {name!r}")
    params_raw = sched.pop("sched_param", {})
    if not isinstance(params_raw, dict):
        raise ConfigError("scheduler.sched_param: expected an object keyed by VM id")
    sched_params = {}
    for key, value in params_raw.items():
        try:
            if str(int(key)) != key:  # only the canonical spelling names a VM
                raise ValueError
        except (TypeError, ValueError):
            raise ConfigError(f"scheduler.sched_param: bad VM id key {key!r}") from None
        sched_params[int(key)] = value

    page_pa = {}
    for j, raw in enumerate(_list(data.get("shared_pages", []), "shared_pages")):
        where = f"shared_pages[{j}]"
        _check_keys(raw, {"id", "pa"}, {"id", "pa"}, where)
        page_id = _parse_int(raw["id"], f"{where}.id")
        if page_id in page_pa:
            raise ConfigError(f"{where}.id: duplicate id {page_id}")
        pa = parse_addr(raw["pa"], f"{where}.pa")
        if pa % PAGE_SIZE:
            raise ConfigError(f"{where}.pa: not 4KB aligned")
        page_pa[page_id] = pa

    raw_vms = _list(data["vms"], "vms")
    ivc_refs = [[] for _ in raw_vms]  # per VM, (index, channel) of each ivc_* segment
    vms = tuple(_parse_vm(raw, i, sched_params, page_pa, ivc_refs[i]) for i, raw in enumerate(raw_vms))
    for vm_id in sched_params:
        if not 0 <= vm_id < len(vms):
            raise ConfigError(f"scheduler.sched_param: no such VM {vm_id}")

    channels = []
    channel_ends = {}  # channel id -> endpoints
    page_owner = {}  # page id -> index of the channel using it
    for j, raw in enumerate(_list(data.get("channels", []), "channels")):
        where = f"channels[{j}]"
        _check_keys(raw, {"id", "endpoints", "pages", "virqs", "variant"},
                    {"id", "endpoints", "pages", "virqs"}, where)
        endpoints = raw["endpoints"]
        virqs = raw["virqs"]
        pages = _list(raw["pages"], f"{where}.pages")
        if not (isinstance(endpoints, list) and len(endpoints) == 2):
            raise ConfigError(f"{where}.endpoints: expected [vm, vm]")
        if not (isinstance(virqs, list) and len(virqs) == 2):
            raise ConfigError(f"{where}.virqs: expected [virq_for_ep0, virq_for_ep1]")
        ch = ChannelSpec(
            id=_parse_int(raw["id"], f"{where}.id"),
            endpoints=(
                _parse_int(endpoints[0], f"{where}.endpoints[0]"),
                _parse_int(endpoints[1], f"{where}.endpoints[1]"),
            ),
            pages=tuple(_parse_int(p, f"{where}.pages") for p in pages),
            virqs=(
                _parse_int(virqs[0], f"{where}.virqs[0]"),
                _parse_int(virqs[1], f"{where}.virqs[1]"),
            ),
            variant=raw.get("variant", VARIANT_FREE),
        )
        if ch.id in channel_ends:
            raise ConfigError(f"{where}.id: duplicate channel id {ch.id}")
        a, b = ch.endpoints
        if a == b or not (a < len(vms) and b < len(vms)):
            raise ConfigError(f"{where}.endpoints: must be two distinct VM ids, got {a},{b}")
        if ch.variant not in (VARIANT_FREE, VARIANT_GATED):
            raise ConfigError(f"{where}.variant: unknown variant {ch.variant!r}")
        if not ch.pages:
            raise ConfigError(f"{where}.pages: a channel needs at least one page")
        for pid in ch.pages:
            if pid not in page_pa:
                raise ConfigError(f"{where}.pages: page {pid} not in shared_pages")
            if pid in page_owner:
                raise ConfigError(f"{where}.pages: page {pid} already used by channels[{page_owner[pid]}]")
            page_owner[pid] = j
            for ep in (a, b):
                if all(ref.page_id != pid for ref in vms[ep].shared_pages):
                    raise ConfigError(f"{where}.pages: endpoint vm {ep} does not declare page {pid}")
        for ep, virq in zip((a, b), ch.virqs):
            if virq not in vms[ep].virqs:
                raise ConfigError(f"{where}.virqs: virq {virq} not declared by endpoint vm {ep}")
        channels.append(ch)
        channel_ends[ch.id] = ch.endpoints

    # Channel-referenced ivc segments must come from an endpoint VM.
    for vm_id, refs in enumerate(ivc_refs):
        for i, channel in refs:
            where = f"vms[{vm_id}].workload[{i}]"
            if channel not in channel_ends:
                raise ConfigError(f"{where}: unknown channel {channel}")
            if vm_id not in channel_ends[channel]:
                raise ConfigError(f"{where}: vm {vm_id} is not an endpoint of channel {channel}")

    raw_irqs = _list(data.get("phys_irqs", []), "phys_irqs")
    phys_irqs = _irq_events(raw_irqs)
    if phys_irqs is None:  # the per-entry checks accept the list or name its first bad entry
        ats, ids = [], []
        for j, raw in enumerate(raw_irqs):
            where = f"phys_irqs[{j}]"
            _check_keys(raw, _IRQ_KEYS, _IRQ_KEYS, where)
            ats.append(_parse_int(raw["at_ns"], f"{where}.at_ns"))
            ids.append(_parse_int(raw["irq"], f"{where}.irq", hi=_GIC_IDS))
        phys_irqs = IrqEvents(tuple(ats), tuple(ids))

    faults_raw = data.get("faults", {})
    _check_keys(faults_raw, {"stage2", "dist_unmodeled"}, set(), "faults")
    faults = FaultPolicy(
        stage2=faults_raw.get("stage2", "inject"),
        dist_unmodeled=faults_raw.get("dist_unmodeled", "fault"),
    )
    if faults.stage2 not in ("inject", "halt"):
        raise ConfigError(f"faults.stage2: must be inject or halt, got {faults.stage2!r}")
    if faults.dist_unmodeled not in ("fault", "ignore"):
        raise ConfigError(
            f"faults.dist_unmodeled: must be fault or ignore, got {faults.dist_unmodeled!r}"
        )

    spec = SystemSpec(
        vms=vms,
        cost_model=_parse_cost_model(data.get("cost_model")),
        scheduler_name=name,
        scheduler_options=sched,
        shared_pages=tuple(SharedPage(pid, pa) for pid, pa in page_pa.items()),
        channels=tuple(channels),
        phys_irqs=phys_irqs,
        faults=faults,
        lr_count=_parse_int(data.get("lr_count", DEFAULT_LR_COUNT), "lr_count", lo=1, hi=64),
        gic_boot_init=_parse_bool(data.get("gic_boot_init", True), "gic_boot_init"),
    )
    _validate_layout(spec)
    get_plugin(spec.scheduler_name).parse(spec)
    return spec


def parse_json(text: str) -> dict:
    """Decode a manifest's JSON text; the top level must be an object."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"manifest is not valid JSON: line {exc.lineno} col {exc.colno}: {exc.msg}") from None
    except ValueError:  # an integer past the interpreter's digit limit (after JSONDecodeError, a subclass)
        raise ConfigError("manifest holds an integer too long to decode") from None
    except RecursionError:
        raise ConfigError("manifest is nested too deeply to decode") from None
    if not isinstance(data, dict):
        raise ConfigError("manifest top level must be an object")
    return data


def load_config(text: str) -> SystemSpec:
    """Parse and fully validate a JSON manifest."""
    return load_manifest(parse_json(text))


# -- serialization -------------------------------------------------------------


def _dump_segment(seg: Segment):
    if seg.kind == "compute":
        return {"compute": seg.duration_ns}
    if seg.kind == "hyp_call":
        return {"hyp_call": seg.payload or None}
    if seg.kind == "wfi":
        return {"wfi": True}
    if seg.kind == "mmio":
        out = {"ipa": hex(seg.ipa), "op": seg.op}
        if seg.op == "write":
            out["value"] = seg.value
        return {"mmio": out}
    return {seg.kind: seg.channel}


def dump_config(spec: SystemSpec) -> dict:
    """Manifest dict; load_manifest(dump_config(s)) reproduces s exactly."""
    scheduler = {"name": spec.scheduler_name}
    scheduler.update(spec.scheduler_options)
    params = {str(vm.id): vm.sched_param for vm in spec.vms if vm.sched_param is not None}
    if params:
        scheduler["sched_param"] = params
    out = {
        "cost_model": spec.cost_model.as_dict(),
        "scheduler": scheduler,
        "vms": [
            {
                "id": vm.id,
                "regions": [
                    {
                        "ipa": hex(r.ipa_base),
                        "pa": hex(r.pa_base),
                        "len": hex(r.length),
                        "perms": "".join(p for p in "rw" if p in r.perms),
                    }
                    for r in vm.regions
                ],
                "irqs": sorted(vm.assigned_irqs),
                "virqs": sorted(vm.virqs),
                "shared_pages": [
                    {
                        "page": ref.page_id,
                        "ipa": hex(ref.ipa),
                        "perms": "".join(p for p in "rw" if p in ref.perms),
                    }
                    for ref in vm.shared_pages
                ],
                "workload": {
                    "loop": vm.workload.loop,
                    "segments": [_dump_segment(s) for s in vm.workload.segments],
                },
            }
            for vm in spec.vms
        ],
        "shared_pages": [{"id": p.page_id, "pa": hex(p.pa)} for p in spec.shared_pages],
        "channels": [
            {
                "id": ch.id,
                "endpoints": list(ch.endpoints),
                "pages": list(ch.pages),
                "virqs": list(ch.virqs),
                "variant": ch.variant,
            }
            for ch in spec.channels
        ],
        "phys_irqs": [{"at_ns": at, "irq": irq} for at, irq in zip(spec.phys_irqs.at, spec.phys_irqs.irq)],
        "faults": {"stage2": spec.faults.stage2, "dist_unmodeled": spec.faults.dist_unmodeled},
        "lr_count": spec.lr_count,
        "gic_boot_init": spec.gic_boot_init,
    }
    return out


def dumps_config(spec: SystemSpec) -> str:
    return json.dumps(dump_config(spec), indent=2, sort_keys=True) + "\n"

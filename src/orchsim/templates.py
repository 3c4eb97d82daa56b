"""Deployment template parsing, validation and topology queries.

Templates describe a typed node topology (five node kinds) plus named
outputs.  Parsing is strict: unknown kinds, unknown properties and malformed
structure are rejected with the offending line, never defaulted away.  The
semantic rules, mandatory properties included, live in validate() alone;
parse_template raises from its report.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from . import stext
from .errors import DomainError
from .resources import ResourceVector

VERSION_TAG = "indigo_subset_1"

KIND_COMPUTE = "Compute"
KIND_CONTAINER = "Container"
KIND_SERVICE = "Service"
KIND_JOB = "Job"
KIND_ELASTIC_CLUSTER = "ElasticCluster"
KINDS = (KIND_COMPUTE, KIND_CONTAINER, KIND_SERVICE, KIND_JOB, KIND_ELASTIC_CLUSTER)

# Properties accepted per kind; anything else is rejected.
_COMMON_PROPS = ("kind", "depends_on", "preemptible", "bid")
_PROPS_BY_KIND = {
    KIND_COMPUTE: _COMMON_PROPS + ("resources",),
    KIND_CONTAINER: _COMMON_PROPS + ("image", "resources"),
    KIND_SERVICE: _COMMON_PROPS + ("image", "resources"),
    KIND_JOB: _COMMON_PROPS + ("image", "resources", "input_datasets"),
    KIND_ELASTIC_CLUSTER: _COMMON_PROPS + ("resources", "min_workers", "max_workers"),
}


class TemplateError(DomainError):
    """Base class for template rejection; carries the full report when known."""

    def __init__(self, message: str, report: "ValidationReport | None" = None):
        super().__init__(message)
        self.report = report


class TemplateSyntaxError(TemplateError):
    def __init__(self, line: int, message: str):
        super().__init__("line %d: %s" % (line, message))
        self.line = line


class UnknownKindError(TemplateError):
    def __init__(self, node: str, kind: str):
        super().__init__("node %r has unknown kind %r" % (node, kind))
        self.node = node
        self.kind = kind


class MissingPropertyError(TemplateError):
    def __init__(self, node: str, prop: str):
        super().__init__("node %r is missing mandatory property %r" % (node, prop))
        self.node = node
        self.prop = prop


class DuplicateNodeError(TemplateError):
    def __init__(self, name: str):
        super().__init__("duplicate node %r" % name)
        self.name = name


class CycleError(TemplateError):
    pass


class DanglingReferenceError(TemplateError):
    pass


@dataclass(frozen=True)
class NodeSpec:
    name: str
    kind: str
    resources: ResourceVector | None = None
    image: str | None = None
    preemptible: bool = False
    bid: float | None = None
    depends_on: tuple[str, ...] = ()
    min_workers: int | None = None
    max_workers: int | None = None
    input_datasets: tuple[str, ...] = ()


@dataclass(frozen=True)
class DeploymentTemplate:
    version_tag: str
    nodes: dict[str, NodeSpec] = field(default_factory=dict)
    outputs: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Violation:
    code: str
    subject: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def codes(self) -> tuple[str, ...]:
        return tuple(v.code for v in self.violations)


VIOLATION_CYCLE = "cycle"
VIOLATION_DANGLING_DEPENDENCY = "dangling_dependency"
VIOLATION_DANGLING_OUTPUT = "dangling_output"
VIOLATION_BID_WITHOUT_PREEMPTIBLE = "bid_without_preemptible"
VIOLATION_WORKER_BOUNDS = "worker_bounds"
VIOLATION_MISSING_IMAGE = "missing_image"
VIOLATION_MISSING_RESOURCES = "missing_resources"
VIOLATION_MISSING_MIN_WORKERS = "missing_min_workers"
VIOLATION_MISSING_MAX_WORKERS = "missing_max_workers"
VIOLATION_NAME_MISMATCH = "name_mismatch"
VIOLATION_BAD_BID = "bad_bid"

# Mandatory properties per kind, in checking order, with the violation each
# absence raises; parse_template turns these into MissingPropertyError.
_MISSING_CODE = {
    "image": VIOLATION_MISSING_IMAGE,
    "resources": VIOLATION_MISSING_RESOURCES,
    "min_workers": VIOLATION_MISSING_MIN_WORKERS,
    "max_workers": VIOLATION_MISSING_MAX_WORKERS,
}
_MANDATORY_BY_KIND = {
    KIND_COMPUTE: ("resources",),
    KIND_CONTAINER: ("image",),
    KIND_SERVICE: ("image",),
    KIND_JOB: ("image",),
    KIND_ELASTIC_CLUSTER: ("resources", "min_workers", "max_workers"),
}


def validate(template: DeploymentTemplate) -> ValidationReport:
    """Check semantic invariants; violations are data, not exceptions.

    This is the only table of template rules: parse_template raises from the
    report, so a parsed template and a built one are held to the same rules.
    """
    found: list[Violation] = []
    names = set(template.nodes)

    for name in sorted(template.nodes):
        node = template.nodes[name]
        if node.name != name:
            found.append(Violation(VIOLATION_NAME_MISMATCH, name,
                                   "node keyed %r declares name %r" % (name, node.name)))
        for dep in node.depends_on:
            if dep not in names:
                found.append(Violation(VIOLATION_DANGLING_DEPENDENCY, name,
                                       "depends_on references missing node %r" % dep))
        if node.bid is not None and not node.preemptible:
            found.append(Violation(VIOLATION_BID_WITHOUT_PREEMPTIBLE, name,
                                   "bid given but preemptible is false"))
        if node.bid is not None and node.bid < 0:
            found.append(Violation(VIOLATION_BAD_BID, name, "bid must be >= 0"))
        for prop in _MANDATORY_BY_KIND.get(node.kind, ()):
            if getattr(node, prop) in (None, ""):
                found.append(Violation(_MISSING_CODE[prop], name,
                                       "%s node needs %s" % (node.kind, prop)))
        lo, hi = node.min_workers, node.max_workers
        if node.kind == KIND_ELASTIC_CLUSTER and lo is not None and hi is not None \
                and not 0 <= lo <= hi:
            found.append(Violation(VIOLATION_WORKER_BOUNDS, name,
                                   "requires 0 <= min_workers <= max_workers"))

    for out_name in sorted(template.outputs):
        target = template.outputs[out_name]
        if target not in names:
            found.append(Violation(VIOLATION_DANGLING_OUTPUT, out_name,
                                   "output references missing node %r" % target))

    if not any(v.code == VIOLATION_DANGLING_DEPENDENCY for v in found):
        _, in_cycle = _peel(template)
        if in_cycle:
            found.append(Violation(VIOLATION_CYCLE, ",".join(in_cycle),
                                   "depends_on relation contains a cycle"))

    return ValidationReport(tuple(found))


_EXCEPTION_FOR_CODE = {
    VIOLATION_CYCLE: CycleError,
    VIOLATION_DANGLING_DEPENDENCY: DanglingReferenceError,
    VIOLATION_DANGLING_OUTPUT: DanglingReferenceError,
}
_PROP_FOR_MISSING_CODE = {code: prop for prop, code in _MISSING_CODE.items()}


def raise_for_report(report: ValidationReport):
    """Raise the exception for the report's first violation, report attached."""
    if report.ok:
        return
    first = report.violations[0]
    if first.code in _PROP_FOR_MISSING_CODE:
        exc = MissingPropertyError(first.subject, _PROP_FOR_MISSING_CODE[first.code])
    else:
        exc_cls = _EXCEPTION_FOR_CODE.get(first.code, TemplateError)
        exc = exc_cls("%s: %s" % (first.subject, first.message))
    exc.report = report
    raise exc


def _peel(template: DeploymentTemplate) -> tuple[list[str], list[str]]:
    """Kahn's algorithm over depends_on, lexicographic among the ready set.

    Returns the peeled order and the sorted names left over: the nodes on a
    cycle or depending on one (or on a missing node).  Empty means acyclic.
    """
    pending = {name: set(spec.depends_on) for name, spec in template.nodes.items()}
    dependants: dict[str, list[str]] = {}
    for name, deps in pending.items():
        for dep in deps:
            dependants.setdefault(dep, []).append(name)

    ready = [name for name, deps in pending.items() if not deps]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        name = heapq.heappop(ready)
        order.append(name)
        for follower in dependants.get(name, ()):
            pending[follower].discard(name)
            if not pending[follower]:
                heapq.heappush(ready, follower)
    return order, sorted(set(pending) - set(order))


def _coerce_resources(value, line) -> ResourceVector:
    if not isinstance(value, stext.Block):
        raise TemplateSyntaxError(line, "resources must be an inline map")
    fields = {}
    for key, entry in value.items():
        if key not in ("cpus", "mem_mb", "disk_gb"):
            raise TemplateSyntaxError(entry.line, "unknown resource component %r" % key)
        if isinstance(entry.value, bool) or not isinstance(entry.value, int) or entry.value < 0:
            raise TemplateSyntaxError(entry.line, "%s must be a non-negative integer" % key)
        fields[key] = entry.value
    for key in ("cpus", "mem_mb", "disk_gb"):
        if key not in fields:
            raise TemplateSyntaxError(line, "resources is missing %r" % key)
    return ResourceVector(**fields)


def _coerce_str_list(value, line, what) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise TemplateSyntaxError(line, "%s must be a list of names" % what)
    return tuple(value)


def _parse_node(name: str, block, line: int) -> NodeSpec:
    if not isinstance(block, stext.Block):
        raise TemplateSyntaxError(line, "node %r must be a block of properties" % name)
    kind_entry = block.entry("kind")
    if kind_entry is None:
        raise MissingPropertyError(name, "kind")
    kind = kind_entry.value
    if kind not in KINDS:
        raise UnknownKindError(name, str(kind))

    allowed = _PROPS_BY_KIND[kind]
    for prop, entry in block.items():
        if prop not in allowed:
            raise TemplateSyntaxError(entry.line, "unknown property %r for kind %s" % (prop, kind))

    fields: dict = {"name": name, "kind": kind}
    for prop, entry in block.items():
        value = entry.value
        if prop == "kind":
            continue
        if prop == "resources":
            fields["resources"] = _coerce_resources(value, entry.line)
        elif prop == "image":
            if not isinstance(value, str) or not value:
                raise TemplateSyntaxError(entry.line, "image must be a non-empty string")
            fields["image"] = value
        elif prop == "preemptible":
            if not isinstance(value, bool):
                raise TemplateSyntaxError(entry.line, "preemptible must be true or false")
            fields["preemptible"] = value
        elif prop == "bid":
            if isinstance(value, bool) or not isinstance(value, (int, float)) or value < 0:
                raise TemplateSyntaxError(entry.line, "bid must be a non-negative decimal")
            fields["bid"] = float(value)
        elif prop == "depends_on":
            fields["depends_on"] = _coerce_str_list(value, entry.line, "depends_on")
        elif prop == "input_datasets":
            fields["input_datasets"] = _coerce_str_list(value, entry.line, "input_datasets")
        elif prop in ("min_workers", "max_workers"):
            if isinstance(value, bool) or not isinstance(value, int):
                raise TemplateSyntaxError(entry.line, "%s must be an integer" % prop)
            fields[prop] = value
    return NodeSpec(**fields)


def parse_template(text: str) -> DeploymentTemplate:
    """Parse and fully validate template text; any defect raises a TemplateError."""
    try:
        root = stext.parse_stext(text)
    except stext.DuplicateKeyError as exc:
        if exc.parent == "nodes":
            raise DuplicateNodeError(exc.key) from exc
        raise TemplateSyntaxError(exc.line, exc.message) from exc
    except stext.StextError as exc:
        raise TemplateSyntaxError(exc.line, exc.message) from exc

    for key, entry in root.items():
        if key not in ("tosca_version", "nodes", "outputs"):
            raise TemplateSyntaxError(entry.line, "unknown top-level key %r" % key)

    version_entry = root.entry("tosca_version")
    if version_entry is None:
        raise MissingPropertyError("template", "tosca_version")
    if version_entry.value != VERSION_TAG:
        raise TemplateSyntaxError(version_entry.line,
                                  "unsupported tosca_version %r (expected %s)"
                                  % (version_entry.value, VERSION_TAG))

    nodes: dict[str, NodeSpec] = {}
    nodes_block = root.get("nodes", stext.Block())
    if not isinstance(nodes_block, stext.Block):
        raise TemplateSyntaxError(root.line_of("nodes", 0), "nodes must be a block")
    for name, entry in nodes_block.items():
        nodes[name] = _parse_node(name, entry.value, entry.line)

    outputs: dict[str, str] = {}
    outputs_block = root.get("outputs", stext.Block())
    if not isinstance(outputs_block, stext.Block):
        raise TemplateSyntaxError(root.line_of("outputs", 0), "outputs must be a block")
    for out_name, entry in outputs_block.items():
        if not isinstance(entry.value, str):
            raise TemplateSyntaxError(entry.line, "output %r must name a node" % out_name)
        outputs[out_name] = entry.value

    template = DeploymentTemplate(version_tag=version_entry.value, nodes=nodes, outputs=outputs)
    raise_for_report(validate(template))
    return template


def aggregate_demand(template: DeploymentTemplate) -> ResourceVector:
    """Total placement demand: Compute nodes plus max_workers x worker size per cluster."""
    total = ResourceVector.zero()
    for node in template.nodes.values():
        if node.kind == KIND_COMPUTE:
            total = total + node.resources
        elif node.kind == KIND_ELASTIC_CLUSTER:
            total = total + node.resources.scale(node.max_workers)
    return total


def topological_order(template: DeploymentTemplate) -> list[str]:
    """Dependency-respecting node order, lexicographic among the ready set."""
    for name, spec in template.nodes.items():
        missing = set(spec.depends_on) - set(template.nodes)
        if missing:
            raise DanglingReferenceError(
                "node %r depends on missing %s" % (name, ", ".join(sorted(missing))))
    order, stuck = _peel(template)
    if stuck:
        raise CycleError("cycle among nodes: %s" % ", ".join(stuck))
    return order


def serialize_template(template: DeploymentTemplate) -> str:
    """Render a template back to text; parse(serialize(parse(x))) == parse(x)."""
    data: dict = {"tosca_version": template.version_tag}
    nodes: dict = {}
    for name, node in template.nodes.items():
        props: dict = {"kind": node.kind}
        if node.image is not None:
            props["image"] = node.image
        if node.resources is not None:
            props["resources"] = {
                "cpus": node.resources.cpus,
                "mem_mb": node.resources.mem_mb,
                "disk_gb": node.resources.disk_gb,
            }
        if node.preemptible:
            props["preemptible"] = True
        if node.bid is not None:
            props["bid"] = node.bid
        if node.min_workers is not None:
            props["min_workers"] = node.min_workers
        if node.max_workers is not None:
            props["max_workers"] = node.max_workers
        if node.input_datasets:
            props["input_datasets"] = list(node.input_datasets)
        if node.depends_on:
            props["depends_on"] = list(node.depends_on)
        nodes[name] = props
    if nodes:
        data["nodes"] = nodes
    if template.outputs:
        data["outputs"] = dict(template.outputs)
    return stext.dump_stext(data) + "\n"

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
from .resources import RESOURCE_KEYS, ResourceVector, read_resources

VERSION_TAG = "indigo_subset_1"

KIND_COMPUTE = "Compute"
KIND_CONTAINER = "Container"
KIND_SERVICE = "Service"
KIND_JOB = "Job"
KIND_ELASTIC_CLUSTER = "ElasticCluster"
KINDS = (KIND_COMPUTE, KIND_CONTAINER, KIND_SERVICE, KIND_JOB, KIND_ELASTIC_CLUSTER)

# Properties accepted per kind, with the value kind of each; anything else is
# rejected.
_COMMON_PROPS = {"kind": stext.NAME, "depends_on": stext.NAMES, "preemptible": stext.BOOL,
                 "bid": stext.NON_NEGATIVE, "resources": stext.BLOCK}
_PROPS_BY_KIND = {
    KIND_COMPUTE: _COMMON_PROPS,
    KIND_CONTAINER: dict(_COMMON_PROPS, image=stext.NAME),
    KIND_SERVICE: dict(_COMMON_PROPS, image=stext.NAME),
    KIND_JOB: dict(_COMMON_PROPS, image=stext.NAME, input_datasets=stext.NAMES),
    KIND_ELASTIC_CLUSTER: dict(_COMMON_PROPS, min_workers=stext.INT, max_workers=stext.INT),
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
VIOLATION_NO_NODES = "no_nodes"

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
    if not names:
        found.append(Violation(VIOLATION_NO_NODES, "template", "declares no nodes"))

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


def _parse_node(nodes: stext.Block, name: str) -> NodeSpec:
    context = "node %s" % name
    block = nodes.block(name, None, context)
    kind = block.get("kind")
    if kind is None:
        raise MissingPropertyError(name, "kind")
    if kind not in KINDS:
        raise UnknownKindError(name, str(kind))
    props = _PROPS_BY_KIND[kind]
    block.reject_unknown(props, context)
    fields = {prop: block.field(prop, context, props[prop]) for prop in block.values}
    resources = fields.get("resources")
    if resources is not None:
        where = context + " resources"
        resources.reject_unknown(RESOURCE_KEYS, where)
        fields["resources"] = read_resources(resources, where)
    if "bid" in fields:
        fields["bid"] = float(fields["bid"])
    for prop in ("depends_on", "input_datasets"):
        if prop in fields:
            fields[prop] = tuple(fields[prop])
    return NodeSpec(name=name, **fields)


def parse_template(text: str) -> DeploymentTemplate:
    """Parse and fully validate template text; any defect raises a TemplateError."""
    try:
        template = _read_template(stext.parse_stext(text))
    except stext.DuplicateKeyError as exc:
        if exc.parent == "nodes":
            raise DuplicateNodeError(exc.key) from exc
        raise TemplateSyntaxError(exc.line, exc.message) from exc
    except stext.StextError as exc:
        raise TemplateSyntaxError(exc.line, exc.message) from exc
    raise_for_report(validate(template))
    return template


def _read_template(root: stext.Block) -> DeploymentTemplate:
    root.reject_unknown(("tosca_version", "nodes", "outputs"), "template")
    version = root.get("tosca_version")
    if version is None:
        raise MissingPropertyError("template", "tosca_version")
    if version != VERSION_TAG:
        raise TemplateSyntaxError(root.line_of("tosca_version"),
                                  "unsupported tosca_version %r (expected %s)"
                                  % (version, VERSION_TAG))
    nodes = root.block("nodes", None, "nodes")
    outputs = root.block("outputs", None, "outputs")
    return DeploymentTemplate(
        version_tag=version,
        nodes={name: _parse_node(nodes, name) for name in nodes.values},
        outputs={name: outputs.field(name, "output", stext.NAME) for name in outputs.values})


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
    """Dependency-respecting node order, lexicographic among the ready set.

    Nodes left over sit on a cycle or depend on a missing node; validate()
    names which, and its first such violation is raised.
    """
    order, stuck = _peel(template)
    if stuck:
        violations = validate(template).violations
        raise_for_report(ValidationReport(tuple(
            v for v in violations if v.code in (VIOLATION_CYCLE, VIOLATION_DANGLING_DEPENDENCY))))
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

import dataclasses
import itertools
import random

import pytest

from orchsim.resources import ResourceVector
from orchsim.templates import (CycleError, DanglingReferenceError, DeploymentTemplate,
                               DuplicateNodeError, MissingPropertyError, NodeSpec, TemplateError,
                               TemplateSyntaxError, UnknownKindError,
                               aggregate_demand, parse_template,
                               serialize_template, topological_order, validate)

MINIMAL = """\
tosca_version: indigo_subset_1
nodes:
  server:
    kind: Compute
    resources: { cpus: 2, mem_mb: 4096, disk_gb: 100 }
"""


def test_parse_minimal_compute():
    template = parse_template(MINIMAL)
    assert len(template.nodes) == 1
    assert template.outputs == {}
    node = template.nodes["server"]
    assert node.kind == "Compute"
    assert node.resources == ResourceVector(2, 4096, 100)
    assert not node.preemptible


def test_parse_cycle_rejected():
    text = """\
tosca_version: indigo_subset_1
nodes:
  a:
    kind: Service
    image: x:1
    depends_on: [b]
  b:
    kind: Service
    image: x:1
    depends_on: [a]
"""
    with pytest.raises(CycleError):
        parse_template(text)


def test_parse_shipped_elastic_cluster_template():
    with open("templates/elastic-cluster.tpl", encoding="utf-8") as handle:
        template = parse_template(handle.read())
    assert set(template.nodes) == {"frontend", "cluster"}
    cluster = template.nodes["cluster"]
    assert cluster.kind == "ElasticCluster"
    assert cluster.min_workers == 1
    assert cluster.max_workers == 4
    assert cluster.resources == ResourceVector(1, 1024, 10)
    assert cluster.depends_on == ("frontend",)
    assert template.nodes["frontend"].resources == ResourceVector(2, 4096, 100)
    assert template.outputs == {"frontend_endpoint": "frontend"}


def test_unknown_kind_rejected():
    text = MINIMAL.replace("Compute", "Mainframe")
    with pytest.raises(UnknownKindError):
        parse_template(text)


MISSING_PROPERTY_CASES = [
    ("Service", [], "image"),
    ("Compute", [], "resources"),
    ("ElasticCluster", ["resources: { cpus: 1, mem_mb: 1, disk_gb: 1 }", "max_workers: 2"],
     "min_workers"),
    ("ElasticCluster", ["resources: { cpus: 1, mem_mb: 1, disk_gb: 1 }", "min_workers: 0"],
     "max_workers"),
]


def test_missing_mandatory_property_rejected():
    for kind, lines, prop in MISSING_PROPERTY_CASES:
        text = "tosca_version: indigo_subset_1\nnodes:\n  web:\n    kind: %s\n" % kind
        text += "".join("    %s\n" % line for line in lines)
        with pytest.raises(MissingPropertyError) as err:
            parse_template(text)
        assert (err.value.node, err.value.prop) == ("web", prop)


def test_empty_image_is_a_missing_image():
    with pytest.raises(MissingPropertyError) as err:
        parse_template(_node("Container", 'image: ""'))
    assert (err.value.node, err.value.prop) == ("server", "image")


def test_duplicate_node_rejected():
    text = MINIMAL + "  server:\n    kind: Compute\n    resources: { cpus: 1, mem_mb: 1, disk_gb: 1 }\n"
    with pytest.raises(DuplicateNodeError):
        parse_template(text)


def test_unknown_top_level_key_rejected():
    with pytest.raises(TemplateSyntaxError):
        parse_template(MINIMAL + "extras:\n  x: 1\n")


def test_unknown_property_rejected():
    text = """\
tosca_version: indigo_subset_1
nodes:
  server:
    kind: Compute
    resources: { cpus: 1, mem_mb: 1, disk_gb: 1 }
    flavor: m1.large
"""
    with pytest.raises(TemplateSyntaxError):
        parse_template(text)


def _node(kind, *props):
    return ("tosca_version: indigo_subset_1\nnodes:\n  server:\n    kind: %s\n" % kind
            + "".join("    %s\n" % prop for prop in props))


_RESOURCES = "resources: { cpus: 2, mem_mb: 4096, disk_gb: 100 }"


@pytest.mark.parametrize("text, line, message", [
    (_node("Compute", "resources: 4"), 5,
     "node server resources must be a block"),
    (_node("Compute", "resources: { cpus: 2, mem_mb: 4096 }"), 5,
     "node server resources is missing 'disk_gb'"),
    (_node("Compute", "resources: { cpus: 2, mem_mb: 1, disk_gb: 1, gpu: 1 }"), 5,
     "node server resources has unknown key 'gpu'"),
    (_node("Compute", "resources: { cpus: -1, mem_mb: 1, disk_gb: 1 }"), 5,
     "node server resources cpus must be a non-negative integer"),
    (_node("Compute", "resources: { cpus: 1.5, mem_mb: 1, disk_gb: 1 }"), 5,
     "node server resources cpus must be a non-negative integer"),
    (_node("Container", "image: [a, b]"), 5,
     "node server image must be a name"),
    (_node("Compute", _RESOURCES, "preemptible: yes"), 6,
     "node server preemptible must be true or false"),
    (_node("Compute", _RESOURCES, "preemptible: true", "bid: -1"), 7,
     "node server bid must be a non-negative number"),
    (_node("Compute", _RESOURCES, "depends_on: other"), 6,
     "node server depends_on must be a list of names"),
    (_node("Job", "image: crunch:2", "input_datasets: d1"), 6,
     "node server input_datasets must be a list of names"),
    (_node("ElasticCluster", _RESOURCES, "min_workers: 1.5", "max_workers: 2"), 6,
     "node server min_workers must be an integer"),
    (_node("ElasticCluster", _RESOURCES, "min_workers: 1", "max_workers: many"), 7,
     "node server max_workers must be an integer"),
    (_node("Compute", _RESOURCES, "flavor: m1.large"), 6,
     "node server has unknown key 'flavor'"),
    (MINIMAL + "extras: 1\n", 6, "template has unknown key 'extras'"),
    (MINIMAL + "outputs:\n  endpoint: 3\n", 7, "output endpoint must be a name"),
    ("tosca_version: indigo_subset_1\nnodes:\n  server: 3\n", 3, "node server must be a block"),
])
def test_template_syntax_errors_name_their_line(text, line, message):
    with pytest.raises(TemplateSyntaxError) as err:
        parse_template(text)
    assert err.value.line == line
    assert str(err.value) == "line %d: %s" % (line, message)


def test_syntax_error_carries_line():
    with pytest.raises(TemplateSyntaxError) as err:
        parse_template("tosca_version: indigo_subset_1\nnodes:\n   bad_indent: {}\n")
    assert err.value.line == 3


# -- validate ------------------------------------------------------------


def test_validate_clean_template_is_empty():
    report = validate(parse_template(MINIMAL))
    assert report.ok
    assert report.violations == ()


def test_validate_dangling_output():
    template = DeploymentTemplate(
        version_tag="indigo_subset_1",
        nodes={"a": NodeSpec(name="a", kind="Compute",
                             resources=ResourceVector(1, 1, 1))},
        outputs={"ep": "missing"})
    report = validate(template)
    assert report.codes() == ("dangling_output",)


def test_validate_bid_without_preemptible():
    template = DeploymentTemplate(
        version_tag="indigo_subset_1",
        nodes={"a": NodeSpec(name="a", kind="Compute",
                             resources=ResourceVector(1, 1, 1),
                             preemptible=False, bid=0.5)})
    report = validate(template)
    assert report.codes() == ("bid_without_preemptible",)


@pytest.mark.parametrize("text", [
    "tosca_version: indigo_subset_1\nnodes: {}\n",
    "tosca_version: indigo_subset_1\n",
])
def test_a_template_without_nodes_is_rejected(text):
    assert validate(DeploymentTemplate(version_tag="indigo_subset_1")).codes() == ("no_nodes",)
    with pytest.raises(TemplateError) as caught:
        parse_template(text)
    assert str(caught.value) == "template: declares no nodes"
    assert caught.value.report.codes() == ("no_nodes",)


def test_validate_worker_bounds():
    template = DeploymentTemplate(
        version_tag="indigo_subset_1",
        nodes={"c": NodeSpec(name="c", kind="ElasticCluster",
                             resources=ResourceVector(1, 1, 1),
                             min_workers=5, max_workers=2)})
    assert "worker_bounds" in validate(template).codes()


# -- aggregate_demand ------------------------------------------------------


def test_aggregate_demand_empty():
    template = DeploymentTemplate(version_tag="indigo_subset_1")
    assert aggregate_demand(template) == ResourceVector.zero()


def test_aggregate_demand_sums_compute_nodes():
    template = DeploymentTemplate(
        version_tag="indigo_subset_1",
        nodes={
            "a": NodeSpec(name="a", kind="Compute", resources=ResourceVector(1, 1024, 10)),
            "b": NodeSpec(name="b", kind="Compute", resources=ResourceVector(2, 2048, 20)),
        })
    # independent loop oracle
    expected = ResourceVector.zero()
    for node in template.nodes.values():
        expected = expected + node.resources
    assert expected == ResourceVector(3, 3072, 30)
    assert aggregate_demand(template) == expected


def test_aggregate_demand_scales_cluster_by_max_workers():
    template = DeploymentTemplate(
        version_tag="indigo_subset_1",
        nodes={"c": NodeSpec(name="c", kind="ElasticCluster",
                             resources=ResourceVector(1, 512, 5),
                             min_workers=1, max_workers=4)})
    # multiply-and-sum oracle
    expected = ResourceVector.zero()
    for _ in range(4):
        expected = expected + ResourceVector(1, 512, 5)
    assert expected == ResourceVector(4, 2048, 20)
    assert aggregate_demand(template) == expected


def test_aggregate_demand_is_monotone_under_node_addition():
    rng = random.Random(11)
    for _ in range(200):
        nodes = {}
        for i in range(rng.randrange(1, 6)):
            nodes["n%d" % i] = NodeSpec(
                name="n%d" % i, kind="Compute",
                resources=ResourceVector(rng.randrange(1, 8), rng.randrange(1, 4096),
                                         rng.randrange(1, 100)))
        template = DeploymentTemplate(version_tag="indigo_subset_1", nodes=dict(nodes))
        before = aggregate_demand(template)
        nodes["extra"] = NodeSpec(name="extra", kind="Compute",
                                  resources=ResourceVector(1, 1, 1))
        after = aggregate_demand(
            DeploymentTemplate(version_tag="indigo_subset_1", nodes=nodes))
        assert before.fits(after)


# -- topological order -------------------------------------------------------


def _template_with_edges(names, edges):
    nodes = {}
    deps = {name: [] for name in names}
    for dep, follower in edges:
        deps[follower].append(dep)
    for name in names:
        nodes[name] = NodeSpec(name=name, kind="Compute",
                               resources=ResourceVector(1, 1, 1),
                               depends_on=tuple(deps[name]))
    return DeploymentTemplate(version_tag="indigo_subset_1", nodes=nodes)


def _is_valid_order(order, names, edges):
    if sorted(order) != sorted(names):
        return False
    position = {name: i for i, name in enumerate(order)}
    return all(position[dep] < position[follower] for dep, follower in edges)


def test_toposort_single_node():
    template = _template_with_edges(["only"], [])
    assert topological_order(template) == ["only"]


def test_toposort_pair():
    template = _template_with_edges(["a", "b"], [("b", "a")])  # a depends on b
    assert topological_order(template) == ["b", "a"]


def test_toposort_diamond_lexicographic():
    # a depends on b and c; b and c depend on d
    names = ["a", "b", "c", "d"]
    edges = [("b", "a"), ("c", "a"), ("d", "b"), ("d", "c")]
    template = _template_with_edges(names, edges)
    order = topological_order(template)
    assert order == ["d", "b", "c", "a"]
    # brute-force: the chosen order is valid, and among all valid orders it is
    # the lexicographically smallest step by step
    valid = [list(p) for p in itertools.permutations(names)
             if _is_valid_order(list(p), names, edges)]
    assert order in valid
    assert order == min(valid)


def test_toposort_cycle_raises():
    template = _template_with_edges(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(CycleError):
        topological_order(template)


def test_toposort_raises_the_violation_validate_reports():
    template = _template_with_edges(["a", "b", "c"], [("a", "b"), ("b", "a")])
    with pytest.raises(CycleError) as err:
        topological_order(template)
    assert str(err.value) == "a,b: depends_on relation contains a cycle"
    assert err.value.report.codes() == ("cycle",)
    dangling = DeploymentTemplate(version_tag="indigo_subset_1", nodes={
        "a": NodeSpec(name="a", kind="Compute", resources=ResourceVector(1, 1, 1),
                      depends_on=("ghost",))})
    with pytest.raises(DanglingReferenceError) as err:
        topological_order(dangling)
    assert str(err.value) == "a: depends_on references missing node 'ghost'"


def test_toposort_random_dags_are_valid_linear_extensions():
    rng = random.Random(23)
    for _ in range(300):
        n = rng.randrange(1, 10)
        names = ["n%02d" % i for i in range(n)]
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.3:
                    edges.append((names[i], names[j]))  # earlier -> later: acyclic
        template = _template_with_edges(names, edges)
        order = topological_order(template)
        assert _is_valid_order(order, names, edges)


# -- round trip ---------------------------------------------------------------


def _random_template(rng):
    kinds = ["Compute", "Container", "Service", "Job", "ElasticCluster"]
    names = ["node%02d" % i for i in range(rng.randrange(1, 7))]
    nodes = {}
    for i, name in enumerate(names):
        kind = rng.choice(kinds)
        fields = {"name": name, "kind": kind}
        if kind in ("Compute", "ElasticCluster") or rng.random() < 0.5:
            fields["resources"] = ResourceVector(
                rng.randrange(1, 16), rng.randrange(1, 8192), rng.randrange(1, 500))
        if kind in ("Container", "Service", "Job"):
            fields["image"] = rng.choice(["repo/app:1.0", "crunch:2", "db:13-alpine"])
        if kind == "ElasticCluster":
            lo = rng.randrange(0, 3)
            fields["min_workers"] = lo
            fields["max_workers"] = lo + rng.randrange(0, 5)
        if rng.random() < 0.4:
            fields["preemptible"] = True
            if rng.random() < 0.7:
                fields["bid"] = round(rng.uniform(0, 2), 3)
        if kind == "Job" and rng.random() < 0.5:
            fields["input_datasets"] = tuple(
                "ds-%d" % k for k in range(rng.randrange(1, 3)))
        if i > 0 and rng.random() < 0.6:
            fields["depends_on"] = tuple(sorted(rng.sample(names[:i],
                                                           rng.randrange(1, i + 1))))
        nodes[name] = NodeSpec(**fields)
    outputs = {}
    if rng.random() < 0.6:
        outputs["endpoint"] = rng.choice(names)
    return DeploymentTemplate(version_tag="indigo_subset_1", nodes=nodes,
                              outputs=outputs)


def _with_defect(template, rng):
    """The template with one defect of a kind that serialization keeps."""
    name = rng.choice(sorted(template.nodes))
    node = template.nodes[name]
    mandatory = {"Compute": ("resources",),
                 "ElasticCluster": ("resources", "min_workers", "max_workers")}
    changes = [
        {rng.choice(mandatory.get(node.kind, ("image",))): None},
        {"depends_on": node.depends_on + (name,)},  # a self-loop is a cycle
        {"depends_on": node.depends_on + ("ghost",)},
        {"preemptible": False, "bid": 0.5},
    ]
    if node.kind == "ElasticCluster":
        changes.append({"min_workers": 3, "max_workers": 1})
    nodes, outputs = dict(template.nodes), dict(template.outputs)
    if rng.random() < 0.2:
        outputs["broken"] = "ghost"
    else:
        nodes[name] = dataclasses.replace(node, **rng.choice(changes))
    return DeploymentTemplate(version_tag=template.version_tag, nodes=nodes, outputs=outputs)


def test_serialize_parse_round_trip_on_random_templates():
    rng = random.Random(42)
    defects = random.Random(43)
    checked = rejected = 0
    for _ in range(300):
        template = _random_template(rng)
        if defects.random() < 0.2:
            template = _with_defect(template, defects)
        if not validate(template).ok:
            # the parser holds text to the same rules as validate()
            with pytest.raises(TemplateError):
                parse_template(serialize_template(template))
            rejected += 1
            continue
        once = parse_template(serialize_template(template))
        assert once == template
        twice = parse_template(serialize_template(once))
        assert twice == once
        checked += 1
    assert checked > 200
    assert rejected > 0


def test_round_trip_shipped_templates():
    for name in ("single-compute", "elastic-cluster", "repository", "batch-job",
                 "spot-worker"):
        with open("templates/%s.tpl" % name, encoding="utf-8") as handle:
            template = parse_template(handle.read())
        assert parse_template(serialize_template(template)) == template

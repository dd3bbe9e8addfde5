"""The document contract: validation passes exactly when the load does.

``validate_system_dict`` and ``system_from_dict`` read one document in
one walk, and the rules they apply are the model's: Table 1's attribute
domains, the (EST, TCD, CT) window, R1 (a parent sits exactly one level
up) and R2 (one parent per FCM).  So a document validates to ``[]``
exactly when it loads, and every rule the model rejects is reported as a
:class:`ValidationFailure` issue at a JSON path, never raised bare.

The documents are the paper's example, the avionics system and a
generated three-level system, each mutated in one of four ways: a
non-finite value in an attribute or timing field, a link between
levels that are not adjacent, a self-link or a second parent, and a
3-cycle of links.
"""

from __future__ import annotations

import copy
import json

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.io import ValidationFailure, system_from_dict, validate_system_dict
from repro.io.serialization import system_to_dict
from repro.model import Level, SoftwareSystem
from repro.workloads import avionics_system, paper_system, random_system

BASES = {
    "paper": system_to_dict(paper_system()),
    "avionics": system_to_dict(avionics_system()),
    "random": system_to_dict(random_system(4, 2, 2, seed=5)),
}
FIELDS = (
    "criticality", "fault_tolerance", "throughput", "communication_rate",
    "timing.earliest_start", "timing.deadline", "timing.computation_time",
)
NON_FINITE = (float("nan"), float("inf"), float("-inf"))

documents = st.sampled_from(sorted(BASES)).map(lambda name: copy.deepcopy(BASES[name]))


def _names(doc: dict, level: str | None = None) -> list[str]:
    return [f["name"] for f in doc["fcms"] if level is None or f["level"] == level]


def _assert_contract(doc: dict) -> None:
    text = json.dumps(doc, indent=2)
    data = json.loads(text)
    issues = validate_system_dict(data, text)
    try:
        system = system_from_dict(data, text=text)
    except ValidationFailure as failure:
        assert issues, "validation passed but the load failed"
        assert list(failure.issues) == issues
        assert all(issue.path and issue.message for issue in issues)
        return
    assert issues == [], "validation failed but the load succeeded"
    assert isinstance(system, SoftwareSystem)


@st.composite
def non_finite_field(draw):
    doc = draw(documents)
    entry = draw(st.sampled_from(doc["fcms"]))
    field = draw(st.sampled_from(FIELDS))
    value = draw(st.sampled_from(NON_FINITE))
    attributes = entry.setdefault("attributes", {})
    if field.startswith("timing."):
        timing = attributes.get("timing") or {
            "earliest_start": 0.0, "deadline": 10.0, "computation_time": 1.0,
        }
        attributes["timing"] = timing
        timing[field.split(".", 1)[1]] = value
    else:
        attributes[field] = value
    return doc


@st.composite
def non_adjacent_link(draw):
    doc = draw(documents)
    levels = {f["name"]: Level[f["level"]] for f in doc["fcms"]}
    names = sorted(levels)
    child = draw(st.sampled_from(names))
    parents = [
        name for name in names
        if name != child and levels[child].parent_level is not levels[name]
    ]
    parent = draw(st.sampled_from(parents))
    doc["links"].insert(draw(st.integers(0, len(doc["links"]))), {"child": child, "parent": parent})
    return doc


@st.composite
def self_link_or_second_parent(draw):
    doc = draw(documents)
    if not doc["links"] or draw(st.booleans()):
        name = draw(st.sampled_from(_names(doc)))
        doc["links"].append({"child": name, "parent": name})
        return doc
    link = draw(st.sampled_from(doc["links"]))
    level = next(f["level"] for f in doc["fcms"] if f["name"] == link["parent"])
    parent = draw(st.sampled_from(_names(doc, level)))
    doc["links"].append({"child": link["child"], "parent": parent})
    return doc


@st.composite
def three_cycle(draw):
    doc = draw(documents)
    a, b, c = draw(st.permutations(_names(doc)))[:3]
    doc["links"] += [
        {"child": a, "parent": b},
        {"child": b, "parent": c},
        {"child": c, "parent": a},
    ]
    return doc


class TestValidationPassesExactlyWhenTheLoadDoes:
    def test_unmutated_documents_load(self):
        for doc in BASES.values():
            _assert_contract(copy.deepcopy(doc))

    @given(non_finite_field())
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_non_finite_attribute_and_timing_values(self, doc):
        _assert_contract(doc)

    @given(non_adjacent_link())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_links_across_non_adjacent_levels(self, doc):
        _assert_contract(doc)

    @given(self_link_or_second_parent())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_self_links_and_second_parents(self, doc):
        _assert_contract(doc)

    @given(three_cycle())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_three_cycles(self, doc):
        _assert_contract(doc)

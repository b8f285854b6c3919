"""Fuzzing the input parsers: malformed text or JSON raises GraphInputError only.

The CLI maps GraphInputError to exit 2 and one ``input error:`` line; any
other exception would escape as a traceback.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from poscol.errors import GraphInputError
from poscol.families import generate, parse_family
from poscol.graph6 import graph6_decode, graph_from_json
from poscol.reduction import parse_cnf
from poscol.solver import colouring_from_dict

FUZZ = settings(max_examples=200, derandomize=True, database=None, deadline=None)

FAMILY_NAMES = [
    "path", "cycle", "complete", "multipartite", "kneser2", "line_complete", "petersen",
    "turan", "tree_leaves", "t", "h", "j", "g_star", "g", "s", "q", "k_gadget",
    "complete_minus_cliques", "cycle_join_clique", "split_random", "block_random",
    "random", "complementary_prism", "cartesian", "strong", "nope",
]

small_numbers = st.one_of(
    st.integers(-2, 7), st.floats(-2.0, 7.0, allow_nan=False).map(lambda x: round(x, 2))
)
numeric_text = st.one_of(
    small_numbers.map(str), st.sampled_from(["", "x", "1e300", "inf", "nan", "-", "3.", "(", ")"])
)
leaf_spec = st.builds(
    lambda name, args: f"{name}:{','.join(args)}" if args else name,
    st.sampled_from(FAMILY_NAMES),
    st.lists(numeric_text, max_size=4),
)
family_text = st.one_of(
    leaf_spec,
    st.builds(
        lambda name, parts: f"{name}({','.join(parts)})",
        st.sampled_from(["cartesian", "strong", "complementary_prism", "path"]),
        st.lists(leaf_spec, max_size=3),
    ),
    st.text(max_size=20),
)

cnf_token = st.one_of(
    st.integers(-5, 5).map(str), st.sampled_from(["p", "nae3", "c", "x", "1.5", "", "0"])
)
cnf_text = st.one_of(
    st.lists(st.lists(cnf_token, max_size=5).map(" ".join), max_size=6).map("\n".join),
    st.text(max_size=40),
)

json_values = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-3, 12), st.text(max_size=3),
        st.floats(allow_nan=True, allow_infinity=True), st.just(1e300),
    ),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)
sizes = st.one_of(
    st.integers(-2, 12), st.sampled_from([2.5, 1e300, float("inf"), "3"]), json_values
)
small_int_lists = st.lists(st.lists(st.integers(-2, 12), max_size=4), max_size=5)
graph_json = st.fixed_dictionaries(
    {"n": sizes, "edges": st.one_of(small_int_lists, json_values)}
)
colouring_json = st.fixed_dictionaries(
    {"n": sizes, "classes": st.one_of(small_int_lists, json_values)},
    optional={"kind": st.one_of(st.sampled_from(["gp", "mui", "x"]), json_values)},
)


def rejects_cleanly(parse, text):
    try:
        parse(text)
    except GraphInputError:
        pass


@FUZZ
@given(family_text)
def test_family_specs(text):
    rejects_cleanly(lambda t: generate(parse_family(t)), text)


@FUZZ
@given(cnf_text)
def test_cnf(text):
    rejects_cleanly(parse_cnf, text)


@FUZZ
@given(st.one_of(st.text(max_size=12), st.text(st.characters(min_codepoint=63, max_codepoint=126), max_size=12)))
def test_graph6(text):
    rejects_cleanly(graph6_decode, text)


@FUZZ
@given(st.one_of(graph_json.map(json.dumps), json_values.map(json.dumps), st.text(max_size=20)))
def test_graph_json(text):
    rejects_cleanly(graph_from_json, text)


@FUZZ
@given(st.one_of(colouring_json, json_values))
def test_colouring_json(obj):
    # the CLI decodes the file with json.loads first; round-trip to match it
    rejects_cleanly(colouring_from_dict, json.loads(json.dumps(obj)))

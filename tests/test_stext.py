import os
import random

import pytest

from orchsim import stext
from orchsim.stext import (Block, DuplicateKeyError, StextError, dump_stext,
                           parse_stext)


def test_nested_blocks_and_scalars():
    root = parse_stext("""\
# a comment
top: 3
block:
  child: hello
  flag: true
  ratio: 0.5
  deeper:
    leaf: -2
""")
    assert root.get("top") == 3
    block = root.get("block")
    assert block.get("child") == "hello"
    assert block.get("flag") is True
    assert block.get("ratio") == 0.5
    assert block.get("deeper").get("leaf") == -2


def test_inline_map_and_list():
    root = parse_stext("res: { cpus: 2, mem_mb: 4096 }\nnames: [a, b, c]\nempty: []\n")
    assert root.get("res").get("cpus") == 2
    assert root.get("names") == ["a", "b", "c"]
    assert root.get("empty") == []


def test_values_keep_colons_and_comments_are_stripped():
    root = parse_stext('image: repo/web:2.1  # trailing comment\n')
    assert root.get("image") == "repo/web:2.1"


def test_quoted_strings_protect_specials():
    root = parse_stext('name: "has # hash"\nlist: ["a, b", plain]\n')
    assert root.get("name") == "has # hash"
    assert root.get("list") == ["a, b", "plain"]


def test_duplicate_keys_rejected_with_parent():
    with pytest.raises(DuplicateKeyError) as err:
        parse_stext("nodes:\n  a: 1\n  a: 2\n")
    assert err.value.key == "a"
    assert err.value.parent == "nodes"


def test_tabs_and_odd_indentation_rejected():
    with pytest.raises(StextError):
        parse_stext("a:\n\tb: 1\n")
    with pytest.raises(StextError):
        parse_stext("a:\n   b: 1\n")
    with pytest.raises(StextError):
        parse_stext("a:\n    b: 1\n")  # jumps two levels


def test_key_with_no_body_is_empty_block():
    root = parse_stext("outputs:\nother: 1\n")
    assert isinstance(root.get("outputs"), Block)
    assert len(root.get("outputs")) == 0


def test_line_numbers_tracked():
    root = parse_stext("a: 1\nb:\n  c: 2\n")
    assert root.line_of("a") == 1
    assert root.get("b").line_of("c") == 3


def test_an_inline_maps_keys_are_on_its_line():
    root = parse_stext("a: 1\nb: { c: 2, d: 3 }\n")
    assert root.get("b").line_of("d") == 2
    assert root.get("b").line_of("x") is None and root.line_of("x", 0) == 0


@pytest.mark.parametrize("text, message", [
    ("j: { a: 1 }\nk: { a: 1, a: 1 }\n", "line 2: duplicate key 'a'"),
    ("j: { a : 1 }\nk: { b: 2, a : 3, a: 4 }\n", "line 2: duplicate key 'a'"),
    ("j: { a: 1 }\nk: { a: 1, b }\n", "line 2: expected key: value in inline map, got 'b'"),
    ("j: { a: 1 }\nk: { a: 1, a: }\n", "line 2: duplicate key 'a'"),
    ("j: { a: 1 }\nk: { b: }\n", "line 2: missing value"),
])
def test_an_item_read_before_is_checked_again_in_its_map(text, message):
    """A later map that repeats an item or a key is checked as the first was."""
    with pytest.raises(StextError) as err:
        parse_stext(text)
    assert str(err.value) == message
    same = parse_stext("j: { a: 1, b: x }\nk: { b: x, a: 1 }\n")
    assert list(same.get("k").values.items()) == [("b", "x"), ("a", 1)]


def test_dump_round_trip_including_quoting():
    data = {
        "title": "needs, quoting",
        "count": 7,
        "ratio": 0.25,
        "flag": False,
        "inline": {"cpus": 2, "label": "web:1"},
        "block": {"list": ["x", "y, z"], "nested": {"leaf": 1}},
    }
    text = dump_stext(data) + "\n"
    root = parse_stext(text)
    assert root.get("title") == "needs, quoting"
    assert root.get("count") == 7
    assert root.get("flag") is False
    assert root.get("inline").get("label") == "web:1"
    assert root.get("block").get("list") == ["x", "y, z"]
    assert root.get("block").get("nested").get("leaf") == 1


def test_a_repeated_key_or_bare_word_is_one_object():
    root = parse_stext("""\
e1: { action: submit, user: ada, prefs: [site-a] }
e2: { action: submit, user: ada, prefs: [site-a] }
nodes:
  web:
    kind: Compute
  db:
    kind: Compute
quoted: { user: "ada", cpus: "2" }
""")
    e1, e2, nodes = root.get("e1"), root.get("e2"), root.get("nodes")
    key1, key2 = list(e1.values)[1], list(e2.values)[1]
    assert key1 == "user" and key1 is key2
    assert e1.get("user") is e2.get("user")
    assert e1.get("prefs")[0] is e2.get("prefs")[0]
    web_key, db_key = list(nodes.get("web").values), list(nodes.get("db").values)
    assert web_key == ["kind"] and web_key[0] is db_key[0]
    assert nodes.get("web").get("kind") is nodes.get("db").get("kind")
    quoted = root.get("quoted")
    assert (quoted.get("user"), quoted.get("cpus")) == ("ada", "2")


@pytest.mark.parametrize("text", ["k: { 1a: 2, }\n", "k: { a b, , c: 1 }\n",
                                  "k: { a: 1, a: 2, }\n"])
def test_an_empty_item_is_found_before_the_keys_are_read(text):
    """An inline map with an empty item is rejected for it, whatever its keys."""
    with pytest.raises(StextError) as err:
        parse_stext(text)
    assert str(err.value) == "line 1: empty item in inline container"


# The scalar rule, pinned for values a cheaper check could misread:
# str.isdigit() holds for "\u0663" and "\u00b2" (and int("\u0663") is 3), and
# int() takes "1_0" and "+1"; only ASCII digits with an optional sign are an
# integer here, and only a word that is not true or false is a name.
SCALARS = [
    ("\u0663", "\u0663"), ("\u00b2", "\u00b2"), ("1_0", "1_0"), ("1e3", "1e3"),
    ("+1", 1), ("-0", 0), (".5", 0.5), ("5.", 5.0), ("true", True), ("false", False),
    ('"12"', "12"), ('"true"', "true"), ("12", 12), ("007", 7), ("-12", -12),
    ("u07", "u07"), ("_x", "_x"), ("\u00e9t\u00e9", "\u00e9t\u00e9"), ("True", "True"),
    ("spot-0.1", "spot-0.1"), ("../t.tpl", "../t.tpl"), ("x#y", "x#y"),
]


@pytest.mark.parametrize("text, value", SCALARS, ids=[text for text, _ in SCALARS])
def test_the_scalar_rule(text, value):
    for parsed in (stext._parse_scalar(" %s " % text, 1),
                   parse_stext("k: %s\n" % text).get("k"),
                   parse_stext("k: { v: %s }\n" % text).get("k").get("v"),
                   parse_stext("k: [%s]\n" % text).get("k")[0]):
        assert parsed == value and type(parsed) is type(value)


def test_an_empty_scalar_is_an_error():
    with pytest.raises(StextError, match="line 3: missing value"):
        stext._parse_scalar("  ", 3)


# -- typed reader -----------------------------------------------------------

READER = """\
seed: 3
site:
  weight: -2
  res: { cpus: 2 }
"""


def test_field_returns_checked_value_or_default():
    root = parse_stext(READER)
    assert root.field("seed", "scenario", stext.INT) == 3
    assert root.field("absent", "scenario", stext.INT, 7) == 7


def test_missing_root_key_has_no_line_prefix():
    with pytest.raises(StextError) as err:
        parse_stext(READER).field("horizon_s", "scenario", stext.INT)
    assert str(err.value) == "scenario is missing 'horizon_s'"
    assert err.value.line == 0


def test_missing_nested_key_names_its_block_line():
    res = parse_stext(READER).block("site", None, "site").block("res", None, "site res")
    with pytest.raises(StextError) as err:
        res.field("mem_mb", "site res", stext.NON_NEGATIVE_INT)
    assert str(err.value) == "line 4: site res is missing 'mem_mb'"


def test_wrong_kind_names_the_entry_line():
    site = parse_stext(READER).block("site", None, "site")
    with pytest.raises(StextError) as err:
        site.field("weight", "site", stext.POSITIVE)
    assert str(err.value) == "line 3: site weight must be a positive number"
    with pytest.raises(StextError) as err:
        parse_stext("a: x\n").field("a", kind=stext.INT)
    assert str(err.value) == "line 1: a must be an integer"


def test_block_on_a_scalar_and_unknown_keys():
    root = parse_stext(READER)
    with pytest.raises(StextError) as err:
        root.block("seed", None, "seed")
    assert str(err.value) == "line 1: seed must be a block"
    with pytest.raises(StextError) as err:
        root.block("site", ("weight",), "site")
    assert str(err.value) == "line 4: site has unknown key 'res'"
    with pytest.raises(StextError) as err:
        root.reject_unknown(("seed",), "scenario")
    assert str(err.value) == "line 2: scenario has unknown key 'site'"
    assert len(root.block("absent", (), "absent")) == 0


def test_every_kind_phrase_is_documented():
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(here, "docs", "formats.md"), encoding="utf-8") as handle:
        docs = handle.read()
    section = " ".join(docs.split("## Value kinds", 1)[1].split("\n## ", 1)[0].split())
    for phrase, _ in stext.KINDS:
        assert "`%s`" % phrase in section


def _strip_comment_by_chars(raw):
    """_strip_comment's character loop, taken by every line with a '#'."""
    out = []
    in_quote = False
    for i, ch in enumerate(raw):
        if ch == '"':
            in_quote = not in_quote
        if ch == "#" and not in_quote and (i == 0 or raw[i - 1] in " \t"):
            break
        out.append(ch)
    return "".join(out).rstrip()


def _split_inline_by_chars(body, line):
    """_split_inline's character loop, taken by every body with a '"'."""
    parts, current, in_quote = [], [], False
    for ch in body:
        if ch == '"':
            in_quote = not in_quote
        if ch == "," and not in_quote:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    parts.append("".join(current).strip())
    if parts == [""]:
        return []
    if any(p == "" for p in parts):
        raise StextError(line, "empty item in inline container")
    return parts


def _outcome(fn, *args):
    try:
        return fn(*args)
    except StextError as exc:
        return ("error", exc.line, exc.message)


def test_fast_paths_agree_with_the_character_loops():
    """Lines without '#' and bodies without '"' take a fast path; generated
    lines mixing quoted and bare '#' and ',', '#' glued to a word and empty
    items give the same result or the same error either way."""
    rng = random.Random(16)
    pieces = ["a", "bc", " ", "  ", "\t", "#", "# c", "x#y", ",", ", ", '"', '"q, #r"',
              ":", "1", "-2.5"]
    fast = slow = 0
    for case in range(3000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randrange(0, 8)))
        assert stext._strip_comment(text) == _strip_comment_by_chars(text), repr(text)
        assert _outcome(stext._split_inline, text, case) == _outcome(
            _split_inline_by_chars, text, case), repr(text)
        fast += '"' not in text and "#" not in text
        slow += '"' in text and "#" in text
    assert fast > 300 and slow > 300

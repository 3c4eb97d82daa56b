"""Structured-text parser shared by template, scenario, snapshot and config files.

The format is a deliberately small indented key/value language:

    top_key: scalar          # comment
    block_key:
      child: 7
      inline_map: { cpus: 2, mem_mb: 4096 }
      inline_list: [a, b, c]

Rules: two-space indentation per level, ``#`` starts a comment, keys are
identifiers, duplicate keys at the same level are rejected, scalars are
ints, decimals, true/false or strings (quote with ``"..."`` to force a
string).  There are no block sequences; lists and maps are inline only.

A text reads into a tree of Blocks, one per block and per inline map, each
holding its values and their lines in two dicts.  Readers take values
through ``Block.field``, ``Block.block`` and ``Block.reject_unknown``,
which check each value against a kind from the table below and name the
offending line in every error; a reader may also take a value straight from
``Block.values`` and call them only when it is missing or of another kind.

Keys and bare-word scalars are interned, so a name or key that repeats
across a file is held once.  An inline-map item that repeats in a file
(``action: submit``) is read once, and its value shared.
"""

from __future__ import annotations

import re
import sys

from .errors import DomainError

_KEY_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.~/-]*$")
_INT_RE = re.compile(r"^[+-]?[0-9]+$")
_FLOAT_RE = re.compile(r"^[+-]?([0-9]+\.[0-9]*|\.[0-9]+)$")


class StextError(DomainError):
    """A defect at a line; line 0 is the root block, which has no line to name."""

    def __init__(self, line: int, message: str):
        super().__init__("line %d: %s" % (line, message) if line else message)
        self.line = line
        self.message = message


class DuplicateKeyError(StextError):
    def __init__(self, line: int, key: str, parent: str):
        super().__init__(line, "duplicate key %r" % key)
        self.key = key
        self.parent = parent


def located(line: int, context: str, make, *args, **kwargs):
    """make(*args, **kwargs); its DomainError becomes a StextError at line, after context."""
    try:
        return make(*args, **kwargs)
    except DomainError as exc:
        raise StextError(line, "%s: %s" % (context, exc) if context else str(exc)) from exc


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


# Value kinds: (what an error says a value must be, test).
INT = ("an integer", _is_int)
NON_NEGATIVE_INT = ("a non-negative integer", lambda v: _is_int(v) and v >= 0)
NUMBER = ("a number", _is_number)
NON_NEGATIVE = ("a non-negative number", lambda v: _is_number(v) and v >= 0)
POSITIVE = ("a positive number", lambda v: _is_number(v) and v > 0)
FRACTION = ("a number in [0, 1]", lambda v: _is_number(v) and 0 <= v <= 1)
BOOL = ("true or false", lambda v: isinstance(v, bool))
NAME = ("a name", lambda v: isinstance(v, str))
TEXT = ("text", lambda v: isinstance(v, str))
NAMES = ("a list of names", lambda v: isinstance(v, list)
         and all(isinstance(item, str) for item in v))
BLOCK = ("a block", lambda v: isinstance(v, Block))
KINDS = (INT, NON_NEGATIVE_INT, NUMBER, NON_NEGATIVE, POSITIVE, FRACTION, BOOL, NAME, TEXT,
         NAMES, BLOCK)

REQUIRED = object()


class Block:
    """An ordered mapping of key -> value (a scalar, a list of scalars or a
    Block) in values, with the source line of each key.

    lines maps a key to its line unless the key is on the block's own line,
    as every key of an inline map is: an inline map's lines stay empty.
    """

    __slots__ = ("line", "values", "lines")

    def __init__(self, line: int = 0, values: dict | None = None):
        self.line = line
        self.values: dict[str, object] = {} if values is None else values
        self.lines: dict[str, int] = {}

    def __contains__(self, key):
        return key in self.values

    def __len__(self):
        return len(self.values)

    def get(self, key, default=None):
        return self.values.get(key, default)

    def line_of(self, key, default=None):
        return self.lines.get(key, self.line) if key in self.values else default

    def field(self, key, context="", kind=None, default=REQUIRED):
        """The value under key, checked against kind.

        A missing key is an error at this block's line unless a default is
        given; a value of another kind is an error at its own line.  context
        names this block in the message.
        """
        value = self.values.get(key, REQUIRED)
        if value is REQUIRED:
            if default is REQUIRED:
                raise StextError(self.line, ("%s is missing %r" % (context, key)).lstrip())
            return default
        if kind is not None and not kind[1](value):
            raise StextError(self.line_of(key), ("%s %s must be %s" % (context, key, kind[0]))
                             .lstrip())
        return value

    def reject_unknown(self, allowed, context: str):
        for key in self.values:
            if key not in allowed:
                raise StextError(self.line_of(key), "%s has unknown key %r" % (context, key))

    def block(self, key, allowed, context: str) -> "Block":
        """The block under key, empty when absent.

        A scalar there, or a key in it outside allowed (None allows any), is
        an error at its line; context names that block.
        """
        value = self.values.get(key)
        if value is None:
            return Block()
        if not BLOCK[1](value):
            raise StextError(self.line_of(key), "%s must be %s" % (context, BLOCK[0]))
        if allowed is not None:
            value.reject_unknown(allowed, context)
        return value


def _strip_comment(raw: str) -> str:
    if "#" not in raw:
        return raw.rstrip()
    out = []
    in_quote = False
    for i, ch in enumerate(raw):
        if ch == '"':
            in_quote = not in_quote
        if ch == "#" and not in_quote and (i == 0 or raw[i - 1] in " \t"):
            break
        out.append(ch)
    return "".join(out).rstrip()


def _parse_scalar(text: str, line: int):
    text = text.strip()
    # Two shortcuts for the common cases, each giving what the rules below
    # give: ASCII digits are an integer (int() also takes other digits), and
    # a word that starts with a letter is a name unless it is true or false.
    if text.isdigit() and text.isascii():
        return int(text)
    if text[:1].isalpha() and text != "true" and text != "false":
        return sys.intern(text)
    if text.startswith('"'):
        if len(text) < 2 or not text.endswith('"') or '"' in text[1:-1]:
            raise StextError(line, "malformed quoted string %s" % text)
        return text[1:-1]
    if _INT_RE.match(text):
        return int(text)
    if _FLOAT_RE.match(text):
        return float(text)
    if text == "true":
        return True
    if text == "false":
        return False
    if not text:
        raise StextError(line, "missing value")
    return sys.intern(text)


def _split_inline(body: str, line: int) -> list[str]:
    # Inline containers do not nest; split on commas outside quotes.
    if '"' not in body:
        parts = list(map(str.strip, body.split(",")))
    else:
        parts = []
        current: list[str] = []
        in_quote = False
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
    if "" in parts:
        raise StextError(line, "empty item in inline container")
    return parts


def _parse_value(text: str, line: int, items: dict, keys: dict):
    """The value written as text, stripped, at line.

    items maps each inline-map item already read in this file to its (key,
    value), and keys each key as written to the key it reads as, so an item
    that repeats is read once and a key is checked once.
    """
    head = text[:1]
    if head == "[":
        if not text.endswith("]"):
            raise StextError(line, "unterminated list")
        return [_parse_scalar(p, line) for p in _split_inline(text[1:-1], line)]
    if head == "{":
        if not text.endswith("}"):
            raise StextError(line, "unterminated inline map")
        values = {}
        for part in _split_inline(text[1:-1], line):
            item = items.get(part)
            if item is None:
                written, colon, rest = part.partition(":")
                if not colon:
                    raise StextError(line, "expected key: value in inline map, got %r" % part)
                key = keys.get(written)
                if key is None:
                    key = sys.intern(written.strip())
                    if not _KEY_RE.match(key):
                        raise StextError(line, "bad key %r" % key)
                    keys[written] = key
                if key in values:  # before its value is read
                    raise DuplicateKeyError(line, key, "{inline}")
                item = items[part] = (key, _parse_scalar(rest, line))
            elif item[0] in values:
                raise DuplicateKeyError(line, item[0], "{inline}")
            values[item[0]] = item[1]
        return Block(line, values)
    return _parse_scalar(text, line)


def parse_stext(text: str) -> Block:
    root = Block(0)
    # stack of (indent_level, block, key_of_block)
    stack: list[tuple[int, Block, str]] = [(0, root, "<root>")]
    pending: tuple[int, Block, str] | None = None  # key awaiting an indented block
    items: dict = {}
    keys: dict = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        if "\t" in raw:
            raise StextError(lineno, "tabs are not allowed; indent with two spaces")
        if "#" in raw:
            raw = _strip_comment(raw)
        content = raw.strip()
        if not content:
            continue
        indent = len(raw) - len(raw.lstrip(" "))
        if indent % 2 != 0:
            raise StextError(lineno, "indentation must be a multiple of two spaces")
        level = indent // 2

        if pending is not None:
            if level == pending[0] + 1:
                stack.append((level, pending[1], pending[2]))
            elif level > pending[0]:
                raise StextError(lineno, "indentation jumped more than one level")
            pending = None  # at or above its level, the key stays an empty block

        while level < stack[-1][0]:
            stack.pop()
        top, block, parent = stack[-1]
        if level != top:
            raise StextError(lineno, "bad indentation")

        key, colon, rest = content.partition(":")
        if not colon:
            raise StextError(lineno, "expected key: value, got %r" % content)
        key = sys.intern(key.strip())
        if not _KEY_RE.match(key):
            raise StextError(lineno, "bad key %r" % key)
        values = block.values
        if key in values:
            raise DuplicateKeyError(lineno, key, parent)
        block.lines[key] = lineno
        rest = rest.strip()
        if rest:
            values[key] = _parse_value(rest, lineno, items, keys)
        else:
            values[key] = child = Block(lineno)
            pending = (level, child, key)

    return root


def parse_flat(text: str) -> Block:
    """Read flat ``key = value`` lines into one block by the comment, value and
    duplicate-key rules above; a key is taken as written, up to the first ``=``."""
    root = Block(0)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        content = _strip_comment(raw).strip()
        if not content:
            continue
        key, equals, rest = content.partition("=")
        if not equals:
            raise StextError(lineno, "expected key = value")
        key = sys.intern(key.strip())
        if key in root:
            raise DuplicateKeyError(lineno, key, "<root>")
        root.lines[key] = lineno
        root.values[key] = _parse_value(rest.strip(), lineno, {}, {})
    return root


def _needs_quotes(text: str) -> bool:
    if text == "" or text in ("true", "false"):
        return True
    if _INT_RE.match(text) or _FLOAT_RE.match(text):
        return True
    return any(ch in text for ch in "#{}[],\"") or text != text.strip()


def _dump_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    text = str(value)
    return '"%s"' % text if _needs_quotes(text) else text


def dump_stext(data: dict, indent: int = 0) -> str:
    """Render nested dicts/lists/scalars in the format parse_stext accepts.

    A non-empty dict whose values are all scalars is written inline as
    ``key: { k: v, ... }``; any other dict becomes an indented block, a list
    or tuple an inline list and everything else a scalar.
    """
    lines = []
    pad = "  " * indent
    for key, value in data.items():
        if isinstance(value, dict):
            if value and all(not isinstance(v, (dict, list)) for v in value.values()):
                body = ", ".join("%s: %s" % (k, _dump_scalar(v)) for k, v in value.items())
                lines.append("%s%s: { %s }" % (pad, key, body))
            else:
                lines.append("%s%s:" % (pad, key))
                lines.append(dump_stext(value, indent + 1))
        elif isinstance(value, (list, tuple)):
            body = ", ".join(_dump_scalar(v) for v in value)
            lines.append("%s%s: [%s]" % (pad, key, body))
        else:
            lines.append("%s%s: %s" % (pad, key, _dump_scalar(value)))
    return "\n".join(line for line in lines if line != "")

"""The results-file format: the record schema `RECORD_FIELDS`, its validation,
the CSV codec and the JSON writer, all in UTF-8 whatever the locale."""

from __future__ import annotations

import csv
import json
import re
import sys
from collections import namedtuple
from datetime import datetime
from functools import partial
from json.encoder import c_make_encoder, encode_basestring_ascii
from operator import countOf

OUTCOMES = {"UNKNOWN", "NO_CONNECTION", "NO_STREAM", "CONNECTION_REVERSED",
            "CANCELLED", "FAILED", "SUCCESS"}

RTT_CLASSES = {"to_relay": "rtt_to_relay", "via_relay": "rtt_relayed",
               "direct_after": "rtt_direct_after"}
RTT_FIELDS = tuple(f"{prefix}_{stat}" for prefix in RTT_CLASSES.values()
                   for stat in ("mean", "stddev"))

# The results-file record schema, in CSV column order: per field, its
# presence rule and its type rule in `RULES`. A required field is in every
# record; an optional or a nullable one may be left out, and its empty CSV
# cell reads as absent, or as null for a nullable one. No other key is allowed.
REQUIRED, OPTIONAL, NULLABLE = "required", "optional", "nullable"
RECORD_FIELDS = {
    "trial": (OPTIONAL, "integer"),
    "timestamp": (REQUIRED, "string"),
    "client": (REQUIRED, "string"),
    "remote": (OPTIONAL, "string"),
    "as_id": (REQUIRED, "id"),
    "private_addrs": (REQUIRED, "strings"),
    "public_endpoints": (REQUIRED, "endpoints"),
    "port_mapping_active": (REQUIRED, "boolean"),
    "protocol_filter": (NULLABLE, "transport"),
    "outcome": (REQUIRED, "string"),
    "attempts": (REQUIRED, "list"),
    **dict.fromkeys(RTT_FIELDS, (NULLABLE, "number")),
    "relay_addrs": (OPTIONAL, "list"),
}
_REQUIRED = tuple(k for k, (presence, _) in RECORD_FIELDS.items() if presence == REQUIRED)
_FLOAT_MAX = sys.float_info.max  # a larger int RTT overflows a division
# A timestamp as `date.isoformat()` or `datetime.isoformat()` writes it, with
# any separator: what Python 3.10's `datetime.fromisoformat` reads. Later
# versions read more (`Z`, basic and week dates), valid on them alone.
_TIMESTAMP = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}"
                        r"(.([01][0-9]|2[0-3])(:[0-9]{2}(:[0-9]{2}(\.[0-9]{3}([0-9]{3})?)?)?)?"
                        r"([+-][0-9]{2}:[0-9]{2}(:[0-9]{2}(\.[0-9]{6})?)?)?)?", re.DOTALL)


class MalformedRecord(ValueError):
    """An input record failed validation; carries its position."""

    def __init__(self, index: int, reason: str):
        super().__init__(f"record {index}: {reason}")
        self.index = index


def _outside_schema(rec: dict) -> str:
    """Why a record with keys outside `RECORD_FIELDS` is refused. Keys are
    named by repr, not sorted: a long CSV row files its extra cells under None."""
    unknown = ", ".join(repr(key) for key in rec if key not in RECORD_FIELDS)
    return f"fields outside the record schema: {unknown}"


_scan_once = json.JSONDecoder().scan_once


def _json_cell(cell: str):
    """json.loads(cell). The C scanner reads a cell that holds one JSON
    value and nothing else; json.loads decides any other cell: surrounding
    whitespace, trailing data or an error."""
    try:
        value, end = _scan_once(cell, 0)
        if end == len(cell):
            return value
    except (StopIteration, ValueError, RecursionError):
        pass
    return json.loads(cell)


def _number_cell(kinds: tuple, cell: str):
    """The one JSON number that fills `cell`, read by the C scanner, if
    its type is one of `kinds`; else ValueError."""
    try:
        value, end = _scan_once(cell, 0)
    except (StopIteration, RecursionError):
        raise ValueError(cell) from None
    if end != len(cell) or type(value) not in kinds:
        raise ValueError(cell)
    return value


def _strings(value):
    if not isinstance(value, list):
        return "must be a list"
    for entry in value:
        if not isinstance(entry, str):
            return "entries must be strings"
    return None


def _endpoints(value):
    if not isinstance(value, list):
        return "must be a list"
    for entry in value:
        if not (isinstance(entry, str) or isinstance(entry, (list, tuple)) and len(entry) == 2
                and isinstance(entry[0], str) and isinstance(entry[1], str)):
            return "entries must be strings or [str, str] pairs"
    return None


# Each type rule's `check(value)`, which returns why a present value breaks
# the rule, after the field's name, or None, and its CSV codec: `decode(cell)`
# reads a non-empty cell back, None for a text cell. A JSON cell (`_json_cell`)
# is written as compact JSON, any other with str(); null is an empty cell.
Rule = namedtuple("Rule", "check decode")
RULES = {
    "integer": Rule(lambda v: None if type(v) is int else "must be an integer",
                    partial(_number_cell, (int,))),  # a bool is not a trial index
    # An empty text cell reads back as absent.
    "string": Rule(lambda v: ("must be a string" if not isinstance(v, str)
                              else None if v else "must not be empty"), None),
    "transport": Rule(lambda v: None if v in (None, "TCP", "QUIC")
                      else "must be TCP, QUIC or null", None),
    "boolean": Rule(lambda v: None if isinstance(v, bool) else "must be a boolean",
                    {"True": True, "False": False}.__getitem__),
    "id": Rule(lambda v: None if isinstance(v, (int, str)) and not isinstance(v, bool)
               else "must be an integer or a string", _json_cell),
    "strings": Rule(_strings, _json_cell),
    "endpoints": Rule(_endpoints, _json_cell),
    "list": Rule(lambda v: None if isinstance(v, list) else "must be a list", _json_cell),
    # A finite int or float; a number cell holding an int reads back as one.
    "number": Rule(lambda v: None if v is None or (type(v) in (int, float)
                                                   and -_FLOAT_MAX <= v <= _FLOAT_MAX)
                   else "must be a number (finite) or null", partial(_number_cell, (int, float))),
}


def validate_records(records: list[dict]) -> None:
    """Check each record against `RECORD_FIELDS`: required fields present,
    no other key, each field's type rule kept, a known outcome and a
    `_TIMESTAMP` that names a real instant. Raises `MalformedRecord` at the first record that fails,
    naming the first of its own fields, in its order, that breaks its rule."""
    if not isinstance(records, list):
        raise MalformedRecord(0, "records must be a list")
    checks = {key: RULES[rule].check for key, (_, rule) in RECORD_FIELDS.items()}
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise MalformedRecord(i, "not an object")
        for key in _REQUIRED:
            if key not in rec:
                raise MalformedRecord(i, f"missing field {key!r}")
        if not RECORD_FIELDS.keys() >= rec.keys():
            raise MalformedRecord(i, _outside_schema(rec))
        for key, value in rec.items():
            reason = checks[key](value)
            if reason is not None:
                raise MalformedRecord(i, f"{key} {reason}")
        if rec["outcome"] not in OUTCOMES:
            raise MalformedRecord(i, f"unknown outcome {rec['outcome']!r}")
        try:  # no match: None[0] raises TypeError
            datetime.fromisoformat(_TIMESTAMP.fullmatch(rec["timestamp"])[0])
        except (TypeError, ValueError):
            raise MalformedRecord(i, "timestamp not parseable") from None


CSV_COLUMNS = [*RECORD_FIELDS, "seed", "config_hash"]


def write_csv(records: list[dict], path: str, seed: int, config_hash: str) -> None:
    """One row per record in `CSV_COLUMNS` order, each ending in the file's
    `seed` and `config_hash`. A JSON cell is json.dumps(cell, sort_keys=True,
    separators=(",", ":")), through the C encoder that call builds, built once
    per file: its markers dict, which detects circular references, ends with it."""
    encoder = c_make_encoder({}, json.JSONEncoder().default, encode_basestring_ascii,
                             None, ":", ",", True, False, True)
    cells = [(k, RULES[rule].decode is _json_cell) for k, (_, rule) in RECORD_FIELDS.items()]
    rows = [CSV_COLUMNS]
    for rec in records:
        # `seed` and `config_hash` name columns too: the file's
        # metadata must not overwrite a record's own.
        if not RECORD_FIELDS.keys() >= rec.keys():
            raise ValueError(f"record has {_outside_schema(rec)}")
        rows.append([("".join(encoder(rec[k], 0)) if is_json else rec[k])
                     if k in rec else "" for k, is_json in cells]
                    + [seed, config_hash])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def read_csv(path: str) -> tuple[list[dict], dict]:
    """The records, `seed` and `config_hash` of a CSV file, read by header
    name, blank lines skipped. A cell decodes by its field's rule; a column
    outside the schema reads as nullable text, for validation to reject, and
    cells past the header's go under the key None. A short row, a malformed
    cell or a row of another seed or config hash raises ValueError."""
    records = []
    first = seed = None
    # utf-8-sig: a spreadsheet may re-save the file with a byte-order mark.
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError("the CSV file has no header line")
        width = len(header)
        columns = {name: at for at, name in enumerate(header)}  # a repeated name: its last cell
        plan = []  # per column: key, position, decoder, and whether an empty cell is null
        for key, at in columns.items():
            if key not in ("seed", "config_hash"):
                presence, rule = RECORD_FIELDS.get(key, (NULLABLE, "string"))
                plan.append((key, at, RULES[rule].decode, presence == NULLABLE))
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) < width:
                raise ValueError(f"line {line} has fewer cells than the header")
            meta = row[columns["seed"]], row[columns["config_hash"]]
            first = first or meta
            if meta != first:
                raise ValueError(f"line {line}: seed and config_hash {' '.join(meta)} "
                                 f"differ from the first row's {' '.join(first)}")
            rec = {}
            try:
                if seed is None:  # every row's seed cell is the first row's
                    key, cell = "seed", meta[0]
                    seed = RULES["integer"].decode(cell)
                for key, at, decode, keeps_empty in plan:
                    cell = row[at]
                    if cell:
                        rec[key] = cell if decode is None else decode(cell)
                    elif keeps_empty:
                        rec[key] = None
            except (KeyError, ValueError):
                raise ValueError(f"line {line}: {key} cell {cell!r} "
                                 "is malformed") from None
            if len(row) > width:
                rec[None] = row[width:]
            records.append(rec)
    return records, {"seed": 0 if seed is None else seed,
                     "config_hash": first[1] if first else ""}


def write_json(value, path: str) -> None:
    """Write `value` to `path` byte for byte as `json.dumps` with
    `sort_keys=True` and an indent of 1 writes it, plus a newline: the
    layout of every JSON file punchsim writes. That indent turns json's C
    encoder off; `_write_json` writes the lists, the exact-`str`-key dicts
    and the exact-type leaves of punchsim's files in about half the time of
    json's pure-Python encoder, and hands any other value to json.dumps."""
    out: list[str] = []
    _write_json(value, "\n", out, {})
    out.append("\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(out))


# json's names for the floats that float.__repr__ writes as nan, inf and -inf.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(value: float) -> str:
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


# json's encoding of each scalar type.
_JSON_LEAVES = {str: encode_basestring_ascii, int: int.__repr__,
                float: _json_float, type(None): {None: "null"}.__getitem__,
                bool: {True: "true", False: "false"}.__getitem__}


def _heads(keys: list, indent: str) -> list:
    """What precedes each value of a dict at `indent` whose sorted keys
    are `keys`: "{" or ",", the line break and indent, the encoded key
    and ": "."""
    sep = "," + indent + " "
    heads = [sep + encode_basestring_ascii(key) + ": " for key in keys]
    heads[0] = "{" + heads[0][1:]
    return heads


def _write_json(value, indent: str, out: list, memo: dict) -> None:
    """Append `value` laid out at the depth whose line break and indent
    is `indent`. Written here: lists and tuples, dicts whose keys are all
    exact `str` (they sort the same way in every dict), and leaves of an
    exact type in `_JSON_LEAVES`. json's C encoder, with this depth's item
    separator, writes a list of more than 8 exact leaves; for fewer, the
    call costs more than the loop. `memo` maps each key set, in insertion
    order, with its indent, to its sorted keys and their `_heads`.
    Anything else (a dict with an int, float, bool, None or `str`-subclass
    key, a subclass of str, int or float such as an `IntEnum`, a value
    json refuses) is json.dumps's, re-indented to this depth: its text
    holds no raw line break but those of its layout."""
    if isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + " "
        if len(value) > 8 and all(map(_JSON_LEAVES.__contains__, map(type, value))):
            # Leaves only: no cycle to catch, nothing for a default.
            encoder = c_make_encoder(None, None, encode_basestring_ascii, None, ": ",
                                     "," + inner, True, False, True)
            out.append("[" + inner + "".join(encoder(value, 0))[1:-1] + indent + "]")
            return
        sep = "[" + inner
        for item in value:
            leaf = _JSON_LEAVES.get(item.__class__)
            if leaf is None:
                out.append(sep)
                _write_json(item, inner, out, memo)
            else:
                out.append(sep + leaf(item))
            sep = "," + inner
        out.append(indent + "]")
    elif isinstance(value, dict) and countOf(map(type, value), str) == len(value):
        if not value:
            out.append("{}")
            return
        keys = tuple(value)
        entry = memo.get((keys, indent))
        if entry is None:
            order = sorted(keys)
            entry = memo[keys, indent] = order, _heads(order, indent)
        order, heads = entry
        inner = indent + " "
        for head, item in zip(heads, map(value.__getitem__, order)):
            leaf = _JSON_LEAVES.get(item.__class__)
            if leaf is None:
                out.append(head)
                _write_json(item, inner, out, memo)
            else:
                out.append(head + leaf(item))
        out.append(indent + "}")
    else:
        out.append(json.dumps(value, sort_keys=True, indent=1).replace("\n", indent))

"""The results-file format: the record schema `RECORD_FIELDS`, its validation,
the CSV codec and the JSON writer, all in UTF-8 whatever the locale."""

from __future__ import annotations

import csv
import json
import sys
from datetime import datetime
from functools import partial
from json.encoder import c_make_encoder, encode_basestring_ascii
from operator import countOf
from typing import Optional

OUTCOMES = {"UNKNOWN", "NO_CONNECTION", "NO_STREAM", "CONNECTION_REVERSED",
            "CANCELLED", "FAILED", "SUCCESS"}

RTT_CLASSES = {"to_relay": "rtt_to_relay", "via_relay": "rtt_relayed",
               "direct_after": "rtt_direct_after"}
RTT_FIELDS = tuple(f"{prefix}_{stat}" for prefix in RTT_CLASSES.values()
                   for stat in ("mean", "stddev"))

# The results-file record schema, in CSV column order: per field, its
# presence rule, its CSV cell kind (text, json, int, bool or number) and
# its type rule, which `_type_error` checks. A required field is in every
# record; an optional or a nullable one may be left out, and its empty CSV
# cell reads as absent, or as null for a nullable one. No other key is
# allowed.
REQUIRED, OPTIONAL, NULLABLE = "required", "optional", "nullable"
RECORD_FIELDS = {
    "trial": (OPTIONAL, "int", "integer"),
    "timestamp": (REQUIRED, "text", "string"),
    "client": (REQUIRED, "text", "string"),
    "remote": (OPTIONAL, "text", "string"),
    "as_id": (REQUIRED, "json", "id"),
    "private_addrs": (REQUIRED, "json", "strings"),
    "public_endpoints": (REQUIRED, "json", "endpoints"),
    "port_mapping_active": (REQUIRED, "bool", "boolean"),
    "protocol_filter": (NULLABLE, "text", "transport"),
    "outcome": (REQUIRED, "text", "string"),
    "attempts": (REQUIRED, "json", "list"),
    **dict.fromkeys(RTT_FIELDS, (NULLABLE, "number", "number")),
    "relay_addrs": (OPTIONAL, "json", "list"),
}
_REQUIRED = tuple(k for k, (presence, _, _) in RECORD_FIELDS.items() if presence == REQUIRED)
# The fields under each type rule, in column order.
_RULES = {rule: tuple(k for k, (_, _, r) in RECORD_FIELDS.items() if r == rule)
          for _, _, rule in RECORD_FIELDS.values()}
_LISTS = _RULES["list"] + _RULES["strings"] + _RULES["endpoints"]
_FLOAT_MAX = sys.float_info.max  # a larger int RTT overflows a division


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


def _type_error(rec: dict) -> Optional[str]:
    """Why a record's fields break their type rules in `RECORD_FIELDS`,
    or None. Absent optional fields pass; only the transport and number
    rules take null."""
    for key in _RULES["string"]:
        value = rec.get(key, "absent")
        if not isinstance(value, str):
            return f"{key} must be a string"
        if not value:  # its empty CSV cell would read back as absent
            return f"{key} must not be empty"
    for key in _RULES["integer"]:
        if type(rec.get(key, 0)) is not int:  # a bool is not a trial index
            return f"{key} must be an integer"
    for key in _RULES["transport"]:
        if rec.get(key) not in (None, "TCP", "QUIC"):
            return f"{key} must be TCP, QUIC or null"
    for key in _RULES["boolean"]:
        if not isinstance(rec.get(key, False), bool):
            return f"{key} must be a boolean"
    for key in _RULES["id"]:
        value = rec.get(key, 0)  # a bool is not an id, as for "integer"
        if isinstance(value, bool) or not isinstance(value, (int, str)):
            return f"{key} must be an integer or a string"
    for key in _LISTS:
        if not isinstance(rec.get(key, []), list):
            return f"{key} must be a list"
    for key in _RULES["strings"]:
        for entry in rec.get(key, ()):
            if not isinstance(entry, str):
                return f"{key} entries must be strings"
    for key in _RULES["endpoints"]:
        for entry in rec.get(key, ()):
            if not (isinstance(entry, str)
                    or (isinstance(entry, (list, tuple)) and len(entry) == 2
                        and isinstance(entry[0], str) and isinstance(entry[1], str))):
                return f"{key} entries must be strings or [str, str] pairs"
    for key in _RULES["number"]:
        value = rec.get(key)
        if value is not None and not (type(value) in (int, float)
                                      and -_FLOAT_MAX <= value <= _FLOAT_MAX):
            return f"{key} must be a number (finite) or null"
    return None


def validate_records(records: list[dict]) -> None:
    """Check each record against `RECORD_FIELDS`: required fields present,
    no other key, every type rule kept, a known outcome and an ISO 8601
    timestamp. Raises `MalformedRecord` at the first record that fails."""
    if not isinstance(records, list):
        raise MalformedRecord(0, "records must be a list")
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise MalformedRecord(i, "not an object")
        for key in _REQUIRED:
            if key not in rec:
                raise MalformedRecord(i, f"missing field {key!r}")
        if not RECORD_FIELDS.keys() >= rec.keys():
            raise MalformedRecord(i, _outside_schema(rec))
        reason = _type_error(rec)
        if reason is not None:
            raise MalformedRecord(i, reason)
        if rec["outcome"] not in OUTCOMES:
            raise MalformedRecord(i, f"unknown outcome {rec['outcome']!r}")
        try:
            datetime.fromisoformat(rec["timestamp"])
        except (TypeError, ValueError):
            raise MalformedRecord(i, "timestamp not parseable") from None


CSV_COLUMNS = [*RECORD_FIELDS, "seed", "config_hash"]
# Per record field in column order, whether its CSV cell holds JSON; `csv`
# writes the others with str(), null as an empty cell.
_CSV_CELLS = tuple((k, cell == "json") for k, (_, cell, _) in RECORD_FIELDS.items())


def write_csv(records: list[dict], path: str, seed: int, config_hash: str) -> None:
    """One row per record in `CSV_COLUMNS` order, each ending in the file's
    `seed` and `config_hash`. A JSON cell is json.dumps(cell, sort_keys=True,
    separators=(",", ":")), through the C encoder that call builds, built once
    per file: its markers dict, which detects circular references, ends with it."""
    encoder = c_make_encoder({}, json.JSONEncoder().default, encode_basestring_ascii,
                             None, ":", ",", True, False, True)
    rows = [CSV_COLUMNS]
    for rec in records:
        # `seed` and `config_hash` name columns too: the file's
        # metadata must not overwrite a record's own.
        if not RECORD_FIELDS.keys() >= rec.keys():
            raise ValueError(f"record has {_outside_schema(rec)}")
        rows.append([("".join(encoder(rec[k], 0)) if is_json else rec[k])
                     if k in rec else "" for k, is_json in _CSV_CELLS]
                    + [seed, config_hash])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


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


# How a non-empty CSV cell of each kind but text reads back; an integer
# RTT stays an int.
_CELL_DECODERS = {"json": _json_cell, "int": partial(_number_cell, (int,)),
                  "bool": {"True": True, "False": False}.__getitem__,
                  "number": partial(_number_cell, (int, float))}
_DECODED = tuple((k, _CELL_DECODERS[cell]) for k, (_, cell, _) in RECORD_FIELDS.items()
                 if cell != "text")
# The fields whose empty cell reads as absent; a nullable field's reads as null.
_ABSENT_IF_EMPTY = frozenset(k for k, (presence, _, _) in RECORD_FIELDS.items()
                             if presence != NULLABLE)


def read_csv(path: str) -> tuple[list[dict], dict]:
    """The records, `seed` and `config_hash` of a CSV file. A cell decodes as
    its field's kind; a malformed or missing cell, or a row whose seed and
    config hash are not the first row's, raises ValueError."""
    records = []
    first = None
    seed = 0
    # utf-8-sig: a spreadsheet may re-save the file with a byte-order mark.
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError("the CSV file has no header line")
        for row in reader:
            if None in row.values():
                raise ValueError(f"line {reader.line_num} has fewer cells "
                                 "than the header")
            meta = (row.pop("seed"), row.pop("config_hash"))
            first = first or meta
            if meta != first:
                raise ValueError(f"line {reader.line_num}: seed and config_hash "
                                 f"{' '.join(meta)} differ from the first "
                                 f"row's {' '.join(first)}")
            # A column outside the schema stays for validation to reject.
            rec = {key: cell or None for key, cell in row.items()
                   if cell or key not in _ABSENT_IF_EMPTY}
            try:
                key, cell = "seed", meta[0]
                seed = _CELL_DECODERS["int"](cell)
                for key, decode in _DECODED:
                    cell = rec.get(key)
                    if cell is not None:
                        rec[key] = decode(cell)
            except (KeyError, ValueError):
                raise ValueError(f"line {reader.line_num}: {key} cell "
                                 f"{cell!r} is malformed") from None
            records.append(rec)
    return records, {"seed": seed, "config_hash": first[1] if first else ""}


def write_json(value, path: str) -> None:
    """Write `value` to `path` byte for byte as `json.dumps` with
    `sort_keys=True` and an indent of 1 writes it, plus a newline: the
    layout of every JSON file punchsim writes. That indent turns json's C
    encoder off; this writer costs about half its pure-Python one."""
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


def _json_leaf(value) -> str:
    """json's encoding of a scalar. A subclass of str, int or float (an
    `IntEnum`, say) is written as its base type, as json writes it."""
    for kind in (value.__class__, str, int, float):
        if kind in _JSON_LEAVES and isinstance(value, kind):
            return _JSON_LEAVES[kind](value)
    raise TypeError(f"Object of type {value.__class__.__name__} "
                    "is not JSON serializable")


def _json_key(key) -> str:
    """A dict key as json writes it: a str as it is, an int, float, bool or
    None as its JSON text."""
    if isinstance(key, str):
        return key
    if key is not None and not isinstance(key, (int, float)):
        raise TypeError("keys must be str, int, float, bool or None, "
                        f"not {key.__class__.__name__}")
    return _json_leaf(key)


def _heads(keys: list, indent: str) -> list:
    """What precedes each value of a dict at `indent` whose sorted keys,
    as strings, are `keys`: "{" or ",", the line break and indent, the
    encoded key and ": "."""
    sep = "," + indent + " "
    heads = [sep + encode_basestring_ascii(key) + ": " for key in keys]
    heads[0] = "{" + heads[0][1:]
    return heads


def _write_json(value, indent: str, out: list, memo: dict) -> None:
    """Append `value` laid out at the depth whose line break and indent
    is `indent`. Dict keys are sorted as they are, then written as
    strings, as json does: int keys sort as ints. json's C encoder, with
    this depth's item separator, writes a list of more than 8 items of
    exact leaf types; for fewer, the call costs more than the loop. `memo`
    maps each set of exact `str` keys in insertion order, with its indent,
    to its sorted keys and their heads."""
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
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        keys = tuple(value)
        # Exact str keys sort the same way in every dict; a str subclass
        # may compare otherwise, and other keys sort by their own types.
        if countOf(map(type, keys), str) == len(keys):
            entry = memo.get((keys, indent))
            if entry is None:
                order = sorted(keys)
                entry = memo[keys, indent] = order, _heads(order, indent)
            order, heads = entry
            items = map(value.__getitem__, order)
        else:
            pairs = sorted(value.items())  # as json sorts
            heads = _heads([_json_key(key) for key, _ in pairs], indent)
            items = [item for _, item in pairs]
        inner = indent + " "
        for head, item in zip(heads, items):
            leaf = _JSON_LEAVES.get(item.__class__)
            if leaf is None:
                out.append(head)
                _write_json(item, inner, out, memo)
            else:
                out.append(head + leaf(item))
        out.append(indent + "}")
    else:
        out.append(_json_leaf(value))

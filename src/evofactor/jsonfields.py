"""The one field checker for the JSON documents evofactor reads. A reader
states its fields as a table from key to Kind; a failure reads "<key>
<value> must be <kind>", the value abbreviated by reprlib, and the reader
puts the file and the entry in front. JSON true/false is no number here."""

from __future__ import annotations

import reprlib
from itertools import chain
from typing import Callable, Mapping

Kind = tuple[str, Callable[[object], bool]]  # (its name in messages, its test)

STRING: Kind = ("a string", lambda v: type(v) is str)
INTEGER: Kind = ("an integer", lambda v: type(v) is int)
NUMBER: Kind = ("a number", lambda v: type(v) in (float, int))
STRINGS: Kind = ("a list of strings", lambda v: type(v) is list and {*map(type, v)} <= {str})
OBJECT: Kind = ("a JSON object", lambda v: type(v) is dict)
OBJECTS: Kind = ("a list of JSON objects", lambda v: type(v) is list and {*map(type, v)} <= {dict})
WEIGHTS: Kind = ("null or a list of [asset index, weight] pairs", lambda v: v is None or type(v) is list and all(
    type(p) is list and len(p) == 2 and type(p[0]) is int and type(p[1]) in (float, int) for p in v))
# Row types, row lengths, then every cell's type in one pass.
ROWS: Kind = ("a list of equal-length lists of numbers", lambda v: type(v) is list and {*map(type, v)} <= {list}
              and len({*map(len, v)}) <= 1 and {*map(type, chain.from_iterable(v))} <= {float, int})


def field_error(key: str, value: object, kind: str) -> ValueError:
    return ValueError(f"{key} {reprlib.repr(value)} must be {kind}")


def check(doc: object, fields: Mapping[str, Kind]) -> dict:
    """doc, once it is a JSON object whose every key in fields holds a value
    of its kind; else a ValueError naming the first key that does not."""
    if type(doc) is not dict:
        raise ValueError(f"{reprlib.repr(doc)} must be {OBJECT[0]}")
    for key, (kind, test) in fields.items():
        if key not in doc:
            raise ValueError(f"missing key {key!r}")
        if not test(doc[key]):
            raise field_error(key, doc[key], kind)
    return doc

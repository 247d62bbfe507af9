"""The report renderer writes the bytes of json.dumps with sorted keys."""

import enum
import glob
import json
import os

import pytest

from fsing.report import to_json

PINNED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned")


class Flag(enum.IntEnum):
    OFF = 0
    ON = 1


class Text(str):
    pass


def reference(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "path", sorted(glob.glob(os.path.join(PINNED, "*.json"))), ids=os.path.basename
)
def test_pinned_reports_render_as_json_dumps(path):
    with open(path) as fh:
        text = fh.read()
    assert to_json(json.loads(text)) == reference(json.loads(text)) == text


CRAFTED = [
    "",
    "quote \" backslash \\ slash / tab \t newline \n nul \x00 bell \x07 del \x7f",
    "xé∂ \U0001d53d \ud800 lone surrogate",
    0, -1, 2**80, -(2**80), True, False, None,
    [], {}, [[]], {"": {}}, [[], {}, [{}]],
    {"b": 1, "a": [True, 1, False, 0, None], "B": {"z": [], "y": {"x": [-3, "t"]}}},
    {"é": 1, "e": 2, "\n": [1, [2, [3, {"k": "v"}]]]},
    [1, True, 1, False, 0],
    [Flag.ON, Text("sub"), {Text("k"): Flag.OFF}],
]


@pytest.mark.parametrize("value", CRAFTED, ids=range(len(CRAFTED)))
def test_crafted_values_render_as_json_dumps(value):
    assert to_json(value) == reference(value)


@pytest.mark.parametrize(
    "value", [1.5, {1: 2}, {"a": {None: 1}}, [object()], {1, 2}, b"x", (1, "a")],
    ids=["float", "int-key", "nested-none-key", "object", "set", "bytes", "tuple"],
)
def test_values_outside_reports_raise_type_error(value):
    with pytest.raises(TypeError):
        to_json(value)

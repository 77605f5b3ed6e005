"""Hypothesis helpers that damage a file format: edit the fields of a JSON
document, cut or grow its bytes. Shared by the loaders' property tests."""

import json

from hypothesis import strategies as st


def same_json(a, b) -> bool:
    """Equal as JSON text, so 1, 1.0 and true differ."""
    return json.dumps(a) == json.dumps(b)


def json_objects(value):
    """Every JSON object in ``value``, outermost first."""
    if isinstance(value, dict):
        yield value
        children = value.values()
    elif isinstance(value, list):
        children = value
    else:
        return
    for child in children:
        yield from json_objects(child)


# Edge values drawn as often as arbitrary JSON, which rarely hits them.
JSON_VALUES = st.sampled_from(
    [None, True, -1, 0, 2**63, 1.5, float("inf"), float("nan"), "", "c1", [1], {}]
) | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)


def edit_fields(data, document, optional_keys=frozenset()):
    """Delete or overwrite one or two fields of the objects in ``document``,
    in place; ``optional_keys`` are keys an object may lack. An empty
    object gains a key."""
    for _ in range(data.draw(st.integers(1, 2), label="edits")):
        target = data.draw(st.sampled_from(list(json_objects(document))), label="object")
        keys = sorted(set(target) | optional_keys) or ["added"]
        key = data.draw(st.sampled_from(keys), label="key")
        if data.draw(st.booleans(), label="delete"):
            target.pop(key, None)
        else:
            target[key] = data.draw(_near(target.get(key)) | JSON_VALUES, label="value")


def _near(value):
    """Numbers a loader that truncates would read as the integer ``value``."""
    if type(value) is not int:
        return st.nothing()
    return st.sampled_from([float(value), value + 0.5])


def cut_or_grow(data, raw: bytes, label: str) -> bytes:
    """``raw`` kept whole or cut short, then maybe followed by a few bytes."""
    cut = data.draw(st.just(len(raw)) | st.integers(0, len(raw)), label=f"{label} length")
    tail = data.draw(st.just(b"") | st.binary(max_size=8), label=f"{label} tail")
    return raw[:cut] + tail

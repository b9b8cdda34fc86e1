"""Hypothesis strategies over corrupt JSON manifests, for fuzzing the loaders."""

import json

from hypothesis import strategies as st

NOT_OBJECTS = ("", " ", "[]", "[1, 2]", "3", "-0.5", '"manifest"', "null", "true")


def corrupt_manifests(text: str, keys: list[tuple[str | None, str]]):
    """`text` cut at any offset, replaced by JSON that is not an object, or
    missing one of `keys`. A key is (None, name) at the top level, or
    (list_name, name) in the first item of that top-level list."""

    def without(where_key):
        where, key = where_key
        doc = json.loads(text)
        del (doc if where is None else doc[where][0])[key]
        return json.dumps(doc, sort_keys=True, indent=1)

    return st.one_of(
        st.integers(0, len(text) - 1).map(lambda cut: text[:cut]),
        st.sampled_from(NOT_OBJECTS),
        st.sampled_from(keys).map(without),
    )

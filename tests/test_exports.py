"""The public namespace: every exported name exists, once, in order."""

import homsim as hs


def test_all_names_resolve_unique_and_sorted():
    names = hs.__all__
    missing = [n for n in names if not hasattr(hs, n)]
    assert missing == []
    assert len(names) == len(set(names))
    assert names == sorted(names)

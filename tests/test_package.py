"""Tests for the package namespace."""

import attrarith


def test_every_export_resolves():
    # the lazy exports resolve only on first access, so a stale entry in
    # attrarith._LAZY shows only here
    for name in attrarith.__all__:
        assert getattr(attrarith, name) is not None, name

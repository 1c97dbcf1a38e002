"""One process-wide store of the immutable objects every check is built from.

The exchange tensors of :mod:`hdeform.rmatrix`, the special coefficients
of :mod:`hdeform.coeffs`, the Weyl exchange rules of each algebra
signature and the extracted reduction-algebra rules are each built once
per process and shared by every caller.  Stored values are shared, so
they must not be mutated: copy a tensor's entries or a rule dict before
changing it.

Everything lives in the one dict ``_STORE``.  A test that perturbs a
builder swaps the whole store first (``monkeypatch.setattr(store,
"_STORE", {})``), so nothing built under the perturbation outlives it.
"""

from __future__ import annotations

import functools

_STORE = {}


def lookup(key, build, *args):
    """The value stored under key; build(*args) makes it on first use."""
    value = _STORE.get(key)
    if value is None:
        value = _STORE[key] = build(*args)
    return value


def stored(builder):
    """Decorate a builder of positional arguments: each distinct call is
    built once per process, under the key (module.name, args)."""
    name = f"{builder.__module__.rpartition('.')[2]}.{builder.__name__}"

    @functools.wraps(builder)
    def get(*args):
        return lookup((name, args), builder, *args)

    return get

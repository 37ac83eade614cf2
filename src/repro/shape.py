"""One shape check for every document the program reads from outside.

A config document, a sweep spec and a checkpoint record are checked
against a table ``{key: type hint}`` before anything is built from them.
A hint is ``int``, ``float`` (finite), ``str``, ``bool``, ``dict``,
``list``, a ``Union``/``Optional`` of hints, ``List[X]``,
``Dict[str, X]``, ``Tuple[X, ...]`` or ``Tuple[X, Y, Z]`` (a JSON list
that long); a bool is never a number.  A refusal is the reader's own
error class, naming the full key path of the offending element::

    servers.core: unknown key; known: cores, count, discipline, model, speed
    metrics[0].quantiles.0.95: expected a number, got 'x'
    ck.jsonl:4: slave record.chunks[1]: expected an integer, got 1.5

This module imports nothing from ``repro``.
"""

from __future__ import annotations

import sys
from typing import Union, get_args, get_origin

#: How a hint's outermost type reads in a refusal.
_NAMES = {
    int: "an integer", float: "a number", str: "a string",
    bool: "true or false", dict: "an object", list: "a list",
    tuple: "a list", type(None): "null",
}


def checked(document, shape: dict, where: str, error: type, required=()) -> dict:
    """``document`` in ``shape``'s key order, once it is an object holding
    only keys of ``shape``, every ``required`` one among them, each value
    fitting its hint; else ``error`` naming the key path.  ``where`` is
    the path to ``document`` itself ("" for a root)."""
    if not isinstance(document, dict):
        raise error(
            f"{where or 'document'}: expected an object, got {document!r}"
        )
    for key in document:
        if key not in shape:
            raise error(
                f"{_join(where, key)}: unknown key; "
                f"known: {', '.join(sorted(shape))}"
            )
    for key, hint in shape.items():
        if key in document:
            misfit = _misfit(_join(where, key), document[key], hint)
            if misfit is not None:
                path, value, expected = misfit
                raise error(f"{path}: expected {_name(expected)}, got {value!r}")
        elif key in required:
            raise error(f"{_join(where, key)}: required key missing")
    return {key: document[key] for key in shape if key in document}


def _join(where: str, key) -> str:
    return f"{where}.{key}" if where else str(key)


def _misfit(path: str, value, hint):
    """``(path, value, hint)`` of the first element of ``value`` that does
    not fit ``hint``, or None when all of it fits."""
    origin, args = get_origin(hint) or hint, get_args(hint)
    if origin is Union:
        fits = any(_misfit(path, value, arg) is None for arg in args)
        return None if fits else (path, value, hint)
    fixed = origin is tuple and args and args[-1] is not Ellipsis
    if not _fits(value, origin) or (fixed and len(value) != len(args)):
        return path, value, hint
    if not args:  # a scalar, or a container whose elements go unchecked
        return None
    if origin is dict:
        children = [(f"{path}.{key}", item, args[1])
                    for key, item in value.items()]
    else:
        hints = args if fixed else args[:1] * len(value)
        children = [(f"{path}[{index}]", *pair)
                    for index, pair in enumerate(zip(value, hints))]
    misfits = (_misfit(*child) for child in children)
    return next((misfit for misfit in misfits if misfit), None)


def _fits(value, kind: type) -> bool:
    """isinstance, except that a bool is no number, a float is finite
    (JSON also admits NaN, Infinity and 1e999) and a tuple is a list."""
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return (
            isinstance(value, (int, float))
            and abs(value) <= sys.float_info.max
        )
    return isinstance(value, list if kind is tuple else kind)


def _name(hint) -> str:
    origin, args = get_origin(hint) or hint, get_args(hint)
    if origin is Union:
        return " or ".join(map(_name, args))
    if origin is tuple and args and args[-1] is not Ellipsis:
        return f"a list of {len(args)}"
    return _NAMES[origin]

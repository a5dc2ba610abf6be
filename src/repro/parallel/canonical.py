"""Canonical content fingerprints of verification-engine inputs.

The certificate cache (:mod:`repro.parallel.cache`) is content-addressed:
a rule application is keyed by *what was verified*, not by object
identity.  This module reduces an arbitrary engine input graph — layer
interfaces, modules, simulation relations, bounds, scenarios, even the
Python functions implementing specs and invariants — to a stable SHA-256
digest of a canonical token stream (each token followed by a NUL byte):

* Functions fingerprint by their compiled code: bytecode, constants
  (recursively, including nested code objects), names, argument
  defaults, and the *contents* of closure cells.  Editing a spec or an
  invariant therefore changes the fingerprint; renaming a local does
  too (bytecode-level identity is deliberately conservative).
* Objects fingerprint by type qualname plus their ``__dict__`` (sorted),
  excluding per-instance caches (``_memo``, ``_hash``, ...) and
  certificate ``provenance`` — run-dependent state never reaches the key.
* Containers fingerprint structurally; sets and dict items are ordered
  by element digest (dict entries whose keys digest equally by the
  value's digest), so iteration order is irrelevant.
* Cycles are cut with ``ref:<n>`` back-references to the visitation
  index of an *ancestor on the current path*, so recursive structures
  (interfaces referring to each other) terminate deterministically.
  Acyclic sharing is re-expanded *in the bytes*: whether two equal
  subobjects are one aliased object or two copies (event interning
  makes this run-dependent) must not change the fingerprint.

The walk itself expands a shared subtree once per call.  One writer
appends every token to one ``bytearray`` and remembers, per object, the
byte range its expansion wrote; a later visit copies that range and
advances the visitation counter by the nodes it covered.  This is sound
only for expansions that emitted no ``ref:`` token (sub-digests
included): such a subtree reaches no cycle, so its bytes depend neither
on the path nor on the counter.  The memo lives for one top-level call
(objects mutate between calls) and holds each object, so an ``id`` is
never reused while its entry exists.

**What the fingerprint does not cover:** module-level globals referenced
by name from inside a function body (the walk follows closures and
constants, not ``__globals__`` — that graph reaches the whole program).
Engine-behaviour changes are instead invalidated wholesale by
``ENGINE_VERSION`` in :mod:`repro.parallel.cache`.

Determinism notes: SHA-256 over explicit byte tokens — no ``hash()``
(per-process salted), no ``repr`` of bare objects (contains addresses).
"""

from __future__ import annotations

import hashlib
import types
from typing import Any, Dict

from ..obs.metrics import inc

#: Per-instance caches and run-dependent attributes that must never
#: influence a content address.
_EXCLUDED_ATTRS = {
    "_memo",       # LogInvariant memo tables, LogBuffer replay memo
    "_hash",       # cached Event/Log hashes (per-process salted)
    "_snapshot",   # LogBuffer snapshot cache
    "_stats",      # ReplayFn hit/miss/events-stepped counters
    "_compiled",   # compiled mini-C bodies of a clight Interp
    "_lint_memo",  # per-interface lint scratch cache (repro.analysis)
    "provenance",  # Certificate provenance: wall times, metrics, workers
}

#: Per-process work tallies of every call (see :func:`fingerprint_info`).
_INFO = dict.fromkeys(("calls", "nodes_expanded", "memo_reused", "bytes_hashed"), 0)


def canonical_fingerprint(obj: Any) -> str:
    """The SHA-256 hex digest of ``obj``'s canonical token stream."""
    writer = _Writer()
    out = bytearray()
    writer.write(obj, out, {}, 0)
    digest = writer.sha256(out).hexdigest()
    _INFO["calls"] += 1
    for name, count in (("nodes_expanded", writer.expanded),
                        ("memo_reused", writer.reused), ("bytes_hashed", writer.hashed)):
        _INFO[name] += count
        inc("canonical." + name, count)
    return digest


def fingerprint_info() -> Dict[str, int]:
    """Per-process calls, nodes expanded, memo reuses and bytes hashed."""
    return dict(_INFO)


class _Writer:
    """The token writer of one top-level call, with its subtree memo."""

    def __init__(self) -> None:
        self.memo: Dict[int, tuple] = {}  # id -> (obj, buffer, start, end, nodes)
        self.refs = self.expanded = self.reused = self.hashed = 0

    def sha256(self, buffer: bytearray):
        self.hashed += len(buffer)
        return hashlib.sha256(buffer)

    def digest(self, obj: Any, seen: Dict[int, int], n: int) -> bytes:
        """Digest of one element, used to order sets and dict items."""
        sub = bytearray()
        self.write(obj, sub, seen, n)
        return self.sha256(sub).digest()

    def write(self, obj: Any, out: bytearray, seen: Dict[int, int], n: int) -> int:
        """Append ``obj``'s tokens to ``out``; returns the next visitation index."""
        if obj is None or obj is True or obj is False:
            out += f"atom:{obj!r}\x00".encode()
            return n
        kind = type(obj)
        if kind is int:
            out += f"int:{obj}\x00".encode()
        elif kind is float:
            out += f"float:{obj!r}\x00".encode()
        elif kind is str:
            out += b"str:" + obj.encode("utf-8", "surrogatepass") + b"\x00"
        elif kind is bytes:
            out += b"bytes:" + obj + b"\x00"
        else:
            # ``seen`` holds only the ancestors of the current path, so
            # ``ref`` fires for true cycles and shared acyclic objects
            # re-expand (or replay their memoised bytes).
            oid = id(obj)
            if oid in seen:
                self.refs += 1
                out += f"ref:{seen[oid]}\x00".encode()
                return n
            hit = self.memo.get(oid)
            if hit is not None:
                _obj, buffer, start, end, nodes = hit
                out += buffer[start:end]
                self.reused += 1
                return n + nodes
            seen[oid] = n
            start, refs = len(out), self.refs
            self.expanded += 1
            end = self._structure(obj, kind, out, seen, n + 1)
            del seen[oid]
            if self.refs == refs:
                self.memo[oid] = (obj, out, start, len(out), end - n)
            return end
        return n

    def _structure(self, obj: Any, kind: type, out: bytearray, seen, n: int) -> int:
        write = self.write
        if kind is tuple or kind is list:
            out += f"seq:{len(obj)}\x00".encode()
            for item in obj:
                n = write(item, out, seen, n)
            return n
        if kind is set or kind is frozenset:
            # Elements digest from the same path and counter base, so
            # iteration order cannot leak into back-reference indices.
            out += f"set:{len(obj)}\x00".encode()
            for digest in sorted(self.digest(item, seen, n) for item in obj):
                out += digest + b"\x00"
            return n
        if kind is dict:
            out += f"dict:{len(obj)}\x00".encode()
            entries = sorted(
                ((self.digest(key, seen, n), value) for key, value in obj.items()),
                key=lambda entry: entry[0],
            )
            if len({key_digest for key_digest, _ in entries}) < len(entries):
                # Distinct keys with equal state: order ties by value.
                entries.sort(key=lambda entry: (entry[0], self.digest(entry[1], seen, n)))
            for key_digest, value in entries:
                out += key_digest + b"\x00"
                n = write(value, out, seen, n)
            return n

        if isinstance(obj, types.FunctionType):
            out += f"fn:{obj.__qualname__}\x00".encode()
            n = write(obj.__defaults__, out, seen, n)
            if obj.__closure__:
                out += f"closure:{len(obj.__closure__)}\x00".encode()
                for cell in obj.__closure__:
                    try:
                        contents = cell.cell_contents
                    except ValueError:  # empty cell (recursive def)
                        contents = "<empty-cell>"
                    n = write(contents, out, seen, n)
            return self._code(obj.__code__, out, seen, n)
        if isinstance(obj, types.CodeType):
            return self._code(obj, out, seen, n)
        if isinstance(obj, types.MethodType):
            out += f"method:{obj.__func__.__qualname__}\x00".encode()
            return write(obj.__self__, out, seen, n)
        if isinstance(obj, type):
            out += f"type:{obj.__module__}.{obj.__qualname__}\x00".encode()
            return n

        type_tag = f"{kind.__module__}.{kind.__qualname__}"

        # Log is a __slots__ class; its content is exactly its event tuple.
        if type_tag == "repro.core.log.Log":
            out += b"Log\x00"
            return write(obj.events, out, seen, n)

        state = getattr(obj, "__dict__", None)
        if state is not None:
            items = sorted(
                (name, value)
                for name, value in state.items()
                if name not in _EXCLUDED_ATTRS
            )
            out += f"obj:{type_tag}:{len(items)}\x00".encode()
            for name, value in items:
                out += b"attr:" + name.encode() + b"\x00"
                n = write(value, out, seen, n)
            return n

        slots = getattr(kind, "__slots__", None)
        if slots is not None:
            names = sorted(name for name in slots if name not in _EXCLUDED_ATTRS)
            out += f"slots:{type_tag}:{len(names)}\x00".encode()
            for name in names:
                out += b"attr:" + name.encode() + b"\x00"
                n = write(getattr(obj, name, None), out, seen, n)
            return n

        # Last resort: the type alone.  Never repr() — it embeds addresses.
        out += f"opaque:{type_tag}\x00".encode()
        return n

    def _code(self, code: types.CodeType, out: bytearray, seen, n: int) -> int:
        write = self.write
        out += f"code:{code.co_name}:{code.co_argcount}:{code.co_kwonlyargcount}\x00".encode()
        out += b"bytecode:" + code.co_code + b"\x00"
        n = write(code.co_names, out, seen, n)
        n = write(code.co_varnames, out, seen, n)
        n = write(code.co_freevars, out, seen, n)
        out += f"consts:{len(code.co_consts)}\x00".encode()
        for const in code.co_consts:
            n = write(const, out, seen, n)
        return n

"""Canonical fingerprints: byte identity with the reference walker.

The fingerprint writer expands each shared, cycle-free subtree once per
call and copies its bytes on later visits.  These tests hold it to the
plain generator walker below (the reference oracle, which re-expands
everything) on generated object graphs and on the real cache keys of
the incremental unit, pin digests of fixed inputs, and pin the work the
memo saves.
"""

from __future__ import annotations

import hashlib
import sys
import types
from typing import Any, Dict

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import repro.parallel.cache as cache
from repro.core.events import Event
from repro.core.log import Log
from repro.parallel.canonical import _EXCLUDED_ATTRS, canonical_fingerprint, fingerprint_info
from repro.parallel.cache import incremental_collector


# -- the reference oracle ----------------------------------------------------
#
# The generator walker every digest was defined by, unchanged except for
# two tallies: nodes expanded, and dict entries whose keys digest equally
# (whose order it leaves to comparing the key objects).

ORACLE_STATS = {"nodes": 0, "dict_ties": 0}


def oracle_fingerprint(obj: Any) -> str:
    hasher = hashlib.sha256()
    for token in _tokens(obj, {}, [0]):
        hasher.update(token)
        hasher.update(b"\x00")
    return hasher.hexdigest()


def _sub_digest(obj: Any, seen: Dict[int, int], counter) -> bytes:
    hasher = hashlib.sha256()
    for token in _tokens(obj, seen, counter):
        hasher.update(token)
        hasher.update(b"\x00")
    return hasher.digest()


def _tokens(obj: Any, seen: Dict[int, int], counter):
    if obj is None or obj is True or obj is False:
        yield f"atom:{obj!r}".encode()
        return
    kind = type(obj)
    if kind is int:
        yield f"int:{obj}".encode()
        return
    if kind is float:
        yield f"float:{obj!r}".encode()
        return
    if kind is str:
        yield b"str:" + obj.encode("utf-8", "surrogatepass")
        return
    if kind is bytes:
        yield b"bytes:" + obj
        return
    oid = id(obj)
    if oid in seen:
        yield f"ref:{seen[oid]}".encode()
        return
    seen[oid] = counter[0]
    counter[0] += 1
    ORACLE_STATS["nodes"] += 1
    try:
        yield from _structure_tokens(obj, kind, seen, counter)
    finally:
        del seen[oid]


def _structure_tokens(obj: Any, kind: type, seen: Dict[int, int], counter):
    if kind in (tuple, list):
        yield f"seq:{len(obj)}".encode()
        for item in obj:
            yield from _tokens(item, seen, counter)
        return
    if kind in (set, frozenset):
        yield f"set:{len(obj)}".encode()
        base = counter[0]
        for digest in sorted(
            _sub_digest(item, dict(seen), [base]) for item in obj
        ):
            yield digest
        return
    if kind is dict:
        yield f"dict:{len(obj)}".encode()
        base = counter[0]
        digested = [
            (_sub_digest(key, dict(seen), [base]), key, value)
            for key, value in obj.items()
        ]
        ORACLE_STATS["dict_ties"] += len(digested) - len({d for d, _, _ in digested})
        entries = sorted(digested)
        for key_digest, _key, value in entries:
            yield key_digest
            yield from _tokens(value, seen, counter)
        return

    if isinstance(obj, types.FunctionType):
        yield f"fn:{obj.__qualname__}".encode()
        yield from _tokens(obj.__defaults__, seen, counter)
        if obj.__closure__:
            yield f"closure:{len(obj.__closure__)}".encode()
            for cell in obj.__closure__:
                try:
                    contents = cell.cell_contents
                except ValueError:
                    contents = "<empty-cell>"
                yield from _tokens(contents, seen, counter)
        yield from _code_tokens(obj.__code__, seen, counter)
        return
    if isinstance(obj, types.CodeType):
        yield from _code_tokens(obj, seen, counter)
        return
    if isinstance(obj, types.MethodType):
        yield f"method:{obj.__func__.__qualname__}".encode()
        yield from _tokens(obj.__self__, seen, counter)
        return
    if isinstance(obj, type):
        yield f"type:{obj.__module__}.{obj.__qualname__}".encode()
        return

    type_tag = f"{kind.__module__}.{kind.__qualname__}"

    if type_tag == "repro.core.log.Log":
        yield b"Log"
        yield from _tokens(obj.events, seen, counter)
        return

    state = getattr(obj, "__dict__", None)
    if state is not None:
        items = sorted(
            (name, value)
            for name, value in state.items()
            if name not in _EXCLUDED_ATTRS
        )
        yield f"obj:{type_tag}:{len(items)}".encode()
        for name, value in items:
            yield b"attr:" + name.encode()
            yield from _tokens(value, seen, counter)
        return

    slots = getattr(kind, "__slots__", None)
    if slots is not None:
        names = sorted(n for n in slots if n not in _EXCLUDED_ATTRS)
        yield f"slots:{type_tag}:{len(names)}".encode()
        for name in names:
            yield b"attr:" + name.encode()
            yield from _tokens(getattr(obj, name, None), seen, counter)
        return

    yield f"opaque:{type_tag}".encode()


def _code_tokens(code: types.CodeType, seen: Dict[int, int], counter):
    yield f"code:{code.co_name}:{code.co_argcount}:{code.co_kwonlyargcount}".encode()
    yield b"bytecode:" + code.co_code
    yield from _tokens(code.co_names, seen, counter)
    yield from _tokens(code.co_varnames, seen, counter)
    yield from _tokens(code.co_freevars, seen, counter)
    yield f"consts:{len(code.co_consts)}".encode()
    for const in code.co_consts:
        yield from _tokens(const, seen, counter)


def oracle_or_tie(obj: Any):
    """The oracle digest, or ``None`` if ``obj`` has a dict-key digest tie."""
    ties = ORACLE_STATS["dict_ties"]
    try:
        digest = oracle_fingerprint(obj)
    except TypeError:  # the oracle compared two tying key objects
        digest = None
    if ORACLE_STATS["dict_ties"] > ties:
        return None
    assert digest is not None
    return digest


# -- generated object graphs -------------------------------------------------


class Box:
    """An object fingerprinted through its ``__dict__``."""


class Pair:
    """An object fingerprinted through its ``__slots__``."""

    __slots__ = ("left", "right")


def _closure_pair(tag, value):
    def pair(x=None):
        y = (x, tag)
        return y, value
    return pair


def _closure_triple(tag, value):
    def triple(a, b=0):
        c = a + b
        return c, tag, value
    return triple


#: Kinds whose node exists before its children are known (cycles close
#: through these) and kinds built from already-existing children.
MUTABLE = ("list", "dict", "box", "pair", "closure_pair", "closure_triple")
IMMUTABLE = ("tuple", "set", "frozenset", "log")

atoms = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.floats(allow_nan=False, width=16), st.text(max_size=2), st.binary(max_size=2),
)


def _hashable(value: Any) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def build_graph(specs, root, back_edges=()):
    """Materialise ``specs`` (kind, children) into one object graph.

    A child is ``("atom", value)`` or ``("node", index)``.  Every node
    carries its index as a tag, so distinct nodes have distinct state.
    Each of ``back_edges`` names a node that also gets the root as a child.
    """
    nodes: Dict[int, Any] = {}
    for index, (kind, _children) in enumerate(specs):
        if kind == "list":
            nodes[index] = [index]
        elif kind == "dict":
            nodes[index] = {"tag": index}
        elif kind == "box":
            nodes[index] = Box()
            nodes[index].tag = index
        elif kind == "pair":
            nodes[index] = Pair()
            nodes[index].left = index
        elif kind == "closure_pair":
            nodes[index] = _closure_pair(index, None)
        elif kind == "closure_triple":
            nodes[index] = _closure_triple(index, None)

    def resolve(child, fallback, hashable=False):
        tag, value = child
        if tag == "node":
            value = nodes.get(value, fallback)
        if hashable and not _hashable(value):
            return fallback
        return value

    for index, (kind, children) in enumerate(specs):
        if kind in MUTABLE:
            continue
        # A child that does not exist yet resolves to the tag: cycles
        # close through the mutable kinds.
        if kind == "tuple":
            nodes[index] = (index,) + tuple(resolve(c, index) for c in children)
        elif kind == "set":
            nodes[index] = {index} | {resolve(c, index, hashable=True) for c in children}
        elif kind == "frozenset":
            nodes[index] = frozenset(
                {index} | {resolve(c, index, hashable=True) for c in children}
            )
        else:
            nodes[index] = Log(
                Event(position, "ev", (resolve(c, index),))
                for position, c in enumerate(children)
            )

    for index, (kind, children) in enumerate(specs):
        values = [resolve(c, index) for c in children]
        if kind == "list":
            nodes[index].extend(values)
        elif kind == "dict":
            for position, child in enumerate(children):
                key = resolve(child, index, hashable=True)
                nodes[index][(position, key)] = values[position]
                nodes[index][key] = values[-1 - position]
        elif kind == "box":
            for position, value in enumerate(values):
                setattr(nodes[index], f"a{position}", value)
        elif kind == "pair":
            nodes[index].right = values
        elif kind.startswith("closure") and values:
            # Rebind the ``value`` cell: closures over shared objects,
            # and cycles through a function's own closure.
            cells = dict(zip(nodes[index].__code__.co_freevars, nodes[index].__closure__))
            cells["value"].cell_contents = values[0] if len(values) == 1 else values
    for index in back_edges:
        # Point a mutable node back at the root: a cycle whenever the
        # root reaches it.
        target = nodes[index]
        if isinstance(target, list):
            target.append(nodes[root])
        elif isinstance(target, dict):
            target["back"] = nodes[root]
        elif isinstance(target, Box):
            target.back = nodes[root]
        elif isinstance(target, Pair):
            target.right = [target.right, nodes[root]]
    return nodes[root]


@st.composite
def object_graphs(draw):
    size = draw(st.integers(1, 8))
    node = st.integers(0, size - 1).map(lambda index: ("node", index))
    child = st.one_of(atoms.map(lambda value: ("atom", value)), node, node)
    specs = [
        (draw(st.sampled_from(MUTABLE + IMMUTABLE)), draw(st.lists(child, max_size=4)))
        for _ in range(size)
    ]
    root = build_graph(
        specs, draw(st.integers(0, size - 1)),
        draw(st.lists(st.integers(0, size - 1), max_size=2)),
    )
    # Wrap the root so shared nodes also appear under different paths.
    return draw(st.sampled_from([root, (root, root), [root, {root: 0} if _hashable(root) else root]]))


class TestDifferential:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(object_graphs())
    def test_writer_matches_oracle(self, graph):
        expected = oracle_or_tie(graph)
        assume(expected is not None)
        assert canonical_fingerprint(graph) == expected

    def test_shared_cycle(self):
        a = [1]
        x = [a]
        a.extend([x, x])
        for graph in (a, x, (x, a, x), {"k": (a, x)}, {frozenset({1}): [x, a]}):
            assert canonical_fingerprint(graph) == oracle_fingerprint(graph)

    def test_transient_tuples_never_alias(self):
        # ``co_varnames`` is a fresh tuple on every access: the memo must
        # hold each one, or a later tuple at the same address would copy
        # another function's bytes.
        graph = [_closure_pair(1, 2), _closure_triple(3, 4), _closure_pair(5, 6)] * 3
        assert canonical_fingerprint(graph) == oracle_fingerprint(graph)


# -- golden digests ----------------------------------------------------------


def _shared_cycle():
    a = [1.5, b"x", None]
    x = [a]
    a.append(x)
    return (x, x, a)


def _self_list():
    cycle = [1]
    cycle.append(cycle)
    return cycle


class TestGoldenKeys:
    """Digests recorded with the reference walker; they must never move."""

    @pytest.mark.parametrize("build, digest", [
        (lambda: (1, "a", {1, 2}, {"k": [1, 2]}),
         "96fe6b0d5389739a31ec87ace4d9dc56b3bfce333b7aab626e72913c45d6ee7e"),
        (_self_list, "401a619aa1dd5dba5d77b83a1254ede6c5730a26307f940f655e2104eca6addd"),
        (_shared_cycle, "8fe4ac5e6b3140bc000c4f984ac9a5ce9f8125ef727ba9828cf6a5bf459f6b27"),
        (lambda: {(1, "k"): frozenset({(2, 3), (4,)}), "s": {"t": {None, True}}},
         "8a8ba43b012fe6d8e3a75371aea05ec619bf921d6f54587eef0219ede6808ef2"),
        (lambda: Log([Event(1, "acq", ("q0",)), Event(2, "rel", ("q0",), 7)]),
         "96468eafe8aa9349de6d99a772e88e83423c5b4a20ffe4e8df6c4f3fd128f5b0"),
    ], ids=["basic", "self-cycle", "shared-cycle", "nested", "log"])
    def test_fixed_inputs(self, build, digest):
        assert canonical_fingerprint(build()) == digest

    @pytest.mark.skipif(
        sys.version_info[:2] != (3, 11),
        reason="function keys include bytecode, recorded under CPython 3.11",
    )
    def test_ticket_lock_cache_keys(self, tmp_path, monkeypatch):
        import repro.objects.ticket_lock as tl

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        # Recorded with the default reduction axes, which the keys include.
        for var in ("REPRO_JOBS", "REPRO_REDUCE"):
            monkeypatch.delenv(var, raising=False)
        keys = []
        real = cache.cache_key

        def recording(kind, parts):
            keys.append((kind, real(kind, parts)))
            return keys[-1][1]

        monkeypatch.setattr(cache, "cache_key", recording)
        tl.certify_ticket_lock([0, 1], use_c_source=False)
        # A rule-level key (the first Fun* application) and all 18 keys.
        assert keys[0] == (
            "Fun*", "f6743133cd655f4bb760287af3981383193125166c345c240d92451da4e3b2c2"
        )
        joined = "\n".join(sorted(key for _, key in keys)).encode()
        assert len(keys) == 18
        assert hashlib.sha256(joined).hexdigest() == (
            "1c4ecd5f00c85c76e82f2c1a68ca951ee1ed52a868585b187b3c36bdc4e760d2"
        )


# -- dict entries whose keys digest equally ----------------------------------


class Tag:
    def __init__(self, value):
        self.value = value


class TestDictKeyTies:
    def test_equal_state_keys_do_not_crash(self):
        assert len(canonical_fingerprint({Box(): 1, Box(): 2})) == 64

    def test_tie_order_is_by_value_not_insertion(self):
        first, second = Tag(1), Tag(1)
        assert canonical_fingerprint({first: "a", second: "b"}) == canonical_fingerprint(
            {second: "a", first: "b"}
        )
        assert canonical_fingerprint({first: "a", second: "b"}) == canonical_fingerprint(
            {first: "b", second: "a"}
        )
        assert canonical_fingerprint({first: "a", second: "b"}) != canonical_fingerprint(
            {first: "a", second: "a"}
        )

    def test_non_tying_dicts_keep_their_bytes(self):
        graph = {Tag(1): "a", Tag(2): "b", "k": [Tag(1)], (1, 2): {3}}
        assert canonical_fingerprint(graph) == oracle_fingerprint(graph)


# -- work counters -----------------------------------------------------------


def _incremental_unit():
    """Ticket + MCS + queue + Thm 2.2 over MCS: the incremental bench unit."""
    import repro.objects.ticket_lock as tl
    from repro.core import check_soundness
    from repro.objects.mcs_lock import certify_mcs_lock
    from repro.objects.shared_queue import certify_shared_queue

    tl.certify_ticket_lock([1, 2], lock="q0", use_c_source=False)
    mcs = certify_mcs_lock([1, 2, 3], lock="q0")
    certify_shared_queue([1, 2, 3], queue="rdq")
    check_soundness(
        mcs.composed,
        clients=[{t: [("acq", ("q0",)), ("rel", ("q0",))] for t in (1, 2)}],
        max_rounds=14,
        require_progress=False,
    )


class TestFingerprintWork:
    def test_warm_rerun_expands_a_fifth_of_the_oracle_nodes(self, tmp_path, monkeypatch):
        """Deterministic fingerprint work of a warm, unedited re-run.

        Every key of the re-run is also digested by the oracle, which must
        agree; the writer expands at most a fifth of the nodes the oracle
        does on the same keys.
        """
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        for var in ("REPRO_JOBS", "REPRO_CACHE"):
            monkeypatch.delenv(var, raising=False)
        _incremental_unit()

        real = cache.canonical_fingerprint
        work = {"calls": 0, "expanded": 0, "oracle": 0}

        def checked(obj):
            before = fingerprint_info()["nodes_expanded"]
            digest = real(obj)
            work["expanded"] += fingerprint_info()["nodes_expanded"] - before
            before = ORACLE_STATS["nodes"]
            assert oracle_fingerprint(obj) == digest
            work["oracle"] += ORACLE_STATS["nodes"] - before
            work["calls"] += 1
            return digest

        monkeypatch.setattr(cache, "canonical_fingerprint", checked)
        with incremental_collector() as warm:
            _incremental_unit()
        assert warm == {"reused": 0, "rechecked": 0, "slice_misses": 0}
        assert work["calls"] > 0
        assert work["oracle"] > 50_000
        assert 0 < work["expanded"] <= min(work["oracle"] // 5, 20_000)

    def test_obs_counters_follow_fingerprint_info(self, monkeypatch):
        from repro import obs
        from repro.obs.metrics import REGISTRY

        graph = [(1, 2)] * 3
        with obs.observing():
            before = fingerprint_info()
            canonical_fingerprint(graph)
            after = fingerprint_info()
            counters = REGISTRY.counter_values()
        # seq:3, then (1, 2) expanded once and reused twice.
        assert after["calls"] == before["calls"] + 1
        assert counters["canonical.nodes_expanded"] == 2
        assert counters["canonical.memo_reused"] == 2
        assert counters["canonical.bytes_hashed"] == (
            after["bytes_hashed"] - before["bytes_hashed"]
        )

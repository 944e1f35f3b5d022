"""`cli.corpus_items` checks a whole corpus together; `corpus_items_loop`
checks it one molecule at a time. Drawn corpora, some with defects put
into random molecules, must give both the same graphs and memberships to
the bit, or the same first ConfigError."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tiergae import graphs
from tiergae.cli import array_to_json, corpus_items
from tiergae.errors import ConfigError

from oracles import assert_same_bits, corpus_items_loop


def molecule_entry(rng, index: int) -> dict:
    """A valid corpus entry of 1-8 atoms: random features, undirected edges
    (self-loops among them) in shuffled order, and groups in shuffled
    order; some entries have no id."""
    n = int(rng.integers(1, 9))
    s = int(rng.choice([1, 4]))
    cols, attrs = [], []
    for i in range(n):
        for j in range(i, n):
            if rng.random() < 0.4:
                feat = rng.standard_normal(s) * (rng.random(s) < 0.8)
                cols += [(i, j)] if i == j else [(i, j), (j, i)]
                attrs += [feat] if i == j else [feat, feat.copy()]
    order = rng.permutation(len(cols))
    edge_index = np.array([cols[k] for k in order], dtype=np.int64).reshape(-1, 2).T
    edge_attr = np.array([attrs[k] for k in order]).reshape(-1, s)
    label = rng.integers(0, int(rng.integers(1, n + 1)), size=n)
    groups = [np.flatnonzero(label == g).tolist() for g in np.unique(label)]
    return {
        "id": None if rng.random() < 0.2 else f"mol-{index}",
        "x": array_to_json(rng.standard_normal((n, 3))),
        "edge_index": array_to_json(edge_index),
        "edge_attr": array_to_json(edge_attr),
        "groups": [groups[k] for k in rng.permutation(len(groups))],
    }


def _edge_count(entry) -> int:
    return entry["edge_index"]["shape"][1]


def _set_value(rng, entry, key: str, value) -> None:
    data = entry[key]["data"]
    if data:
        data[int(rng.integers(len(data)))] = value


def _drop_edge(entry, e: int) -> None:
    u, s = _edge_count(entry), entry["edge_attr"]["shape"][1]
    index, attr = entry["edge_index"]["data"], entry["edge_attr"]["data"]
    del index[u + e], index[e], attr[e * s:(e + 1) * s]
    entry["edge_index"]["shape"][1] -= 1
    entry["edge_attr"]["shape"][0] -= 1


def one_way(rng, entry) -> None:
    index, u = entry["edge_index"]["data"], _edge_count(entry)
    between = [e for e in range(u) if index[e] != index[u + e]]
    if between:
        _drop_edge(entry, between[int(rng.integers(len(between)))])


def duplicate(rng, entry) -> None:
    u, s = _edge_count(entry), entry["edge_attr"]["shape"][1]
    if not u:
        return
    e = int(rng.integers(u))
    index = entry["edge_index"]["data"]
    i, j = index[e], index[u + e]
    entry["edge_index"]["data"] = index[:u] + [i] + index[u:] + [j]
    entry["edge_attr"]["data"] += [float(v) for v in rng.standard_normal(s)]
    entry["edge_index"]["shape"][1] += 1
    entry["edge_attr"]["shape"][0] += 1


def reverse_features(rng, entry) -> None:
    if _edge_count(entry):
        s = entry["edge_attr"]["shape"][1]
        e = int(rng.integers(_edge_count(entry)))
        entry["edge_attr"]["data"][e * s] += 1.0


def out_of_range(rng, entry) -> None:
    n = entry["x"]["shape"][0]
    _set_value(rng, entry, "edge_index", int(rng.choice([-1, n, n + 3])))


def no_atoms(rng, entry) -> None:
    s = entry["edge_attr"]["shape"][1]
    entry.update(x={"shape": [0, 3], "data": []}, edge_index={"shape": [2, 0], "data": []},
                 edge_attr={"shape": [0, s], "data": []}, groups=[])


def group_edit(edit):
    def apply(rng, entry) -> None:
        groups = entry["groups"]
        edit(groups, int(rng.integers(len(groups))), rng)
    return apply


def _missing(groups, g, _rng) -> None:
    if len(groups[g]) > 1:
        groups[g].pop()
    else:
        del groups[g]


# one function per defect kind, each applied to one molecule's entry
DEFECTS = {
    "string value": lambda rng, e: _set_value(rng, e, "x", "1.5"),
    "list value": lambda rng, e: _set_value(rng, e, "edge_attr", [1.0]),
    "bool value": lambda rng, e: _set_value(rng, e, "x", True),
    "nan": lambda rng, e: _set_value(rng, e, "edge_attr", math.nan),
    "inf": lambda rng, e: _set_value(rng, e, "x", -math.inf),
    "int past float": lambda rng, e: _set_value(rng, e, "x", 10 ** 400),
    "int past int64": lambda rng, e: _set_value(rng, e, "edge_index", 2 ** 63),
    "float index": lambda rng, e: _set_value(rng, e, "edge_index", 1.0),
    "bool index": lambda rng, e: _set_value(rng, e, "edge_index", False),
    "shape product": lambda rng, e: e["x"]["shape"].__setitem__(1, 4),
    "1-D x": lambda rng, e: e["x"].update(shape=[len(e["x"]["data"])]),
    "0-d x": lambda rng, e: e["x"].update(shape=[], data=e["x"]["data"][:1]),
    "3-D edge_attr": lambda rng, e: e["edge_attr"]["shape"].append(1),
    "edge_index rows": lambda rng, e: e["edge_index"].update(
        shape=[1, len(e["edge_index"]["data"])]),
    "negative shape": lambda rng, e: e["x"]["shape"].__setitem__(0, -1),
    "no shape": lambda rng, e: e["edge_attr"].pop("shape"),
    "data not a list": lambda rng, e: e["x"].update(data=5),
    "array not an object": lambda rng, e: e.update(edge_index=[[0, 1], [1, 0]]),
    "out of range": out_of_range,
    "duplicate edge": duplicate,
    "one-way edge": one_way,
    "reverse features": reverse_features,
    "bool group entry": group_edit(lambda groups, g, _: groups[g].__setitem__(0, True)),
    "float group entry": group_edit(
        lambda groups, g, _: groups[g].__setitem__(0, float(groups[g][0]))),
    "repeated group entry": group_edit(lambda groups, g, _: groups[g].append(groups[0][0])),
    "group entry past int64": group_edit(lambda groups, g, _: groups[g].__setitem__(0, 2**70)),
    "missing group entry": group_edit(_missing),
    "empty group": group_edit(lambda groups, g, _: groups.insert(g, [])),
    "groups not a list": lambda rng, e: e.update(groups=3),
    "no atoms": no_atoms,
    "no features": lambda rng, e: e["x"].update(shape=[e["x"]["shape"][0], 0], data=[]),
    # no features, so the data fits any row count; no groups can cover it
    "huge row count": lambda rng, e: e["x"].update(shape=[10 ** 10, 0], data=[]),
    "past the pool bound": lambda rng, e: e["edge_attr"].update(
        data=[1e308] * len(e["edge_attr"]["data"])),
    "not an object": None,
    "missing key": lambda rng, e: e.pop("groups"),
}


def outcome(fn, entries):
    try:
        return fn(entries)
    except ConfigError as exc:
        return str(exc)


@settings(deadline=None, max_examples=400)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 12),
       # at most one defect a molecule, in at most two molecules
       defects=st.lists(st.tuples(st.integers(0, 11), st.sampled_from(sorted(DEFECTS))),
                        max_size=2),
       max_atoms=st.sampled_from([graphs.MAX_ATOMS, 6]))
def test_corpus_items_matches_the_per_molecule_loop(seed, count, defects, max_atoms):
    rng = np.random.default_rng(seed)
    entries = [molecule_entry(rng, i) for i in range(count)]
    for index, kind in dict((index % count, kind) for index, kind in defects).items():
        if DEFECTS[kind] is None:
            entries[index] = [entries[index]]
        else:
            DEFECTS[kind](rng, entries[index])
    bound, graphs.MAX_ATOMS = graphs.MAX_ATOMS, max_atoms
    try:
        want = outcome(corpus_items_loop, entries)
        got = outcome(corpus_items, entries)
    finally:
        graphs.MAX_ATOMS = bound
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    assert len(got) == len(want)
    for (graph, m1), (ref, ref_m1) in zip(got, want):
        assert graph.id == ref.id
        assert_same_bits(graph.x, ref.x)
        assert_same_bits(graph.edge_attr, ref.edge_attr)
        assert graph.edge_index.dtype == ref.edge_index.dtype == np.int64
        assert np.array_equal(graph.edge_index, ref.edge_index)
        assert graph.edge_index.shape == ref.edge_index.shape
        assert m1.group.dtype == ref_m1.group.dtype == np.int64
        assert np.array_equal(m1.group, ref_m1.group) and m1.num_groups == ref_m1.num_groups

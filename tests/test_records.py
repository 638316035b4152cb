"""The record types are immutable values: equal and hashed by their fields,
printed as Name(field=value, ...), and closed to assignment."""

import pickle

import pytest

from mismax import (
    CanonicalForm,
    ExtremalReport,
    Graph,
    SizeProfile,
    canonical_form,
    from_edges,
    mis_size_profile,
    verify_bound_exhaustive,
)


def path3():
    return from_edges(3, [(0, 1), (1, 2)])


# (builder, a different value of the same type, repr of the built value)
RECORDS = {
    "Graph": (path3, Graph(3, (0, 0, 0)), "Graph(n=3, adj=(2, 5, 2))"),
    "SizeProfile": (
        lambda: mis_size_profile(path3()),
        SizeProfile(3, (0, 1, 0, 0)),
        "SizeProfile(n=3, counts=(0, 1, 1, 0))",
    ),
    "CanonicalForm": (
        lambda: canonical_form(path3()),
        CanonicalForm(3, 1),
        "CanonicalForm(n=3, key=3)",
    ),
    "ExtremalReport": (
        lambda: verify_bound_exhaustive(4, ts=[2])[0],
        verify_bound_exhaustive(4, ts=[1])[0],
        "ExtremalReport(n=4, t=2, f=4, max_observed=4, "
        "attainers=(CanonicalForm(n=4, key=12),), bound_holds=True, "
        "unique_attainer=True, graphs_examined=64, coverage='exhaustive-labeled(4)')",
    ),
}


FIELDS = {
    "Graph": ("n", "adj"),
    "SizeProfile": ("n", "counts"),
    "CanonicalForm": ("n", "key"),
    "ExtremalReport": (
        "n", "t", "f", "max_observed", "attainers", "bound_holds", "unique_attainer",
        "graphs_examined", "coverage",
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_compare_and_hash_by_value(name):
    build, other, text = RECORDS[name]
    a, b = build(), build()
    assert type(a).__name__ == name
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != other
    assert len({a, b, other}) == 2
    assert repr(a) == text
    copy = pickle.loads(pickle.dumps(a))
    assert type(copy) is type(a) and copy == a


@pytest.mark.parametrize("name", RECORDS)
def test_records_refuse_assignment(name):
    record = RECORDS[name][0]()
    for field in FIELDS[name]:
        assert hasattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
    with pytest.raises(AttributeError):
        record.extra = 0
    assert record == RECORDS[name][0]()


def test_records_are_tuples_of_their_fields():
    # the one difference from a class with attributes, documented in README
    g = path3()
    assert g == (3, (2, 5, 2))
    n, adj = g
    assert (n, adj) == (g.n, g.adj)
    report = RECORDS["ExtremalReport"][0]()
    assert tuple(report)[:4] == (report.n, report.t, report.f, report.max_observed)


@pytest.mark.parametrize(
    "n, adj, message",
    [
        (65, (0,) * 65, "vertex count 65 outside 0..64"),
        (-1, (), "vertex count -1 outside 0..64"),
        (2, (0,), "adjacency row count does not match n"),
        (2, (0b10, 0b00), "asymmetric adjacency between 1 and 0"),
        (2, (0b01, 0b00), "loop at vertex 0"),
        (2, (0b110, 0b001), "adjacency row 0 has bits >= n"),
    ],
)
def test_graph_construction_errors_keep_their_messages(n, adj, message):
    with pytest.raises(ValueError) as exc:
        Graph(n, adj)
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        Graph(n=n, adj=adj)
    assert str(exc.value) == message

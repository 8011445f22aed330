"""The bitset OSTR engine and search must match the reference path exactly.

``search_ostr`` defaults to the bitset-native engine (sparse mask-tuple
partitions, incremental ``m`` along DFS edges behind a Lemma-1 pre-test,
``M`` only on symmetric nodes, replayed subtrees); the paper-accounting
contract is that solutions *and* every search statistic -- the
``node_limit`` cut included -- stay identical to the label-tuple
reference traversal (``reference=True``).
"""

import dataclasses

from hypothesis import given
from hypothesis import strategies as st

from repro.fsm import random_mealy
from repro.ostr.search import search_ostr
from repro.partitions import kernel


@st.composite
def succ_tables(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    n_inputs = draw(st.integers(min_value=1, max_value=3))
    return [
        [draw(st.integers(0, n - 1)) for _ in range(n_inputs)] for _ in range(n)
    ]


@st.composite
def partitions_of(draw, n):
    raw = [draw(st.integers(0, n - 1)) for _ in range(n)]
    return kernel.canonical(raw)


@given(succ_tables(), st.data())
def test_bitset_kernel_matches_reference_operators(succ, data):
    n = len(succ)
    kern = kernel.BitsetKernel(succ)
    labels = data.draw(partitions_of(n))
    assert kern.m_labels(labels) == kernel.m_operator(succ, labels)
    assert kern.big_m_labels(labels) == kernel.big_m_operator(succ, labels)


@given(st.integers(min_value=1, max_value=8), st.data())
def test_bitset_lattice_ops_match(n, data):
    a = data.draw(partitions_of(n))
    b = data.draw(partitions_of(n))
    bound = data.draw(partitions_of(n))
    ops = kernel.bitset_lattice(n)
    assert ops.join_labels(a, b) == kernel.join(a, b)
    assert ops.meet_labels(a, b) == kernel.meet(a, b)
    assert ops.refines_labels(a, b) == kernel.refines(a, b)
    am, bm, boundm = map(ops.from_labels, (a, b, bound))
    assert ops.meet_refines(am, bm, boundm) == kernel.meet_refines(a, b, bound)


def _assert_same_search(machine, **kwargs):
    fast = search_ostr(machine, **kwargs)
    reference = search_ostr(machine, reference=True, **kwargs)
    fast_stats = dataclasses.asdict(fast.stats)
    reference_stats = dataclasses.asdict(reference.stats)
    fast_stats.pop("elapsed_seconds")
    reference_stats.pop("elapsed_seconds")
    assert fast_stats == reference_stats
    assert repr(fast.solution.pi) == repr(reference.solution.pi)
    assert repr(fast.solution.theta) == repr(reference.solution.theta)
    assert fast.solution.flipflops == reference.solution.flipflops


def test_fast_search_identical_on_suite_machines():
    from repro import suite

    for name in ("shiftreg", "mc", "bbtas", "dk27", "tav"):
        _assert_same_search(suite.load(name))


def test_fast_search_identical_under_node_limit():
    from repro import suite

    _assert_same_search(suite.load("dk15"), node_limit=500)


def test_fast_search_identical_without_pruning_or_skips():
    from repro import suite

    _assert_same_search(suite.load("dk27"), prune=False)
    _assert_same_search(suite.load("dk27"), skip_redundant=False)
    _assert_same_search(suite.load("tav"), prune=False, skip_redundant=False)


def test_fast_search_identical_across_basis_orders():
    from repro import suite

    for order in ("sorted", "coarse_first", "fine_first"):
        _assert_same_search(suite.load("dk27"), basis_order=order)


def test_fast_search_identical_on_random_machines():
    for seed in range(6):
        machine = random_mealy(
            n_states=5 + (seed % 3), n_inputs=2, n_outputs=2, seed=seed
        )
        _assert_same_search(machine)


def test_fast_search_identical_extended_policy():
    from repro import suite

    _assert_same_search(suite.load("mc"), policy="extended")


# -- cut points and the subtree memo ----------------------------------------
#
# The bitset engine replays a repeated subtree (same join, same next basis
# index) from a memo when it fits the remaining node budget and walks it
# otherwise, so a ``node_limit`` cut must land on exactly the node where the
# reference stops.  The limits below were picked by probing where replays
# happen (sorted basis order): on ``pop-medium/pm0017`` the first replayed
# subtree starts after node 799 and has 55 nodes (829 and 853 cut inside
# it, 854 fits it exactly) and a 494-node one starts after node 15955
# (16200 cuts inside it); on ``sequential/shiftreg4`` the first replayed
# subtree holding candidates starts after node 64 and has 13 nodes and 3
# candidates, and the largest one starts after node 9009 and has 468 nodes
# (3400 and 9200 cut inside replayed subtrees; without skips, 17000 cuts
# inside a 1038-node one).


def _member(member_id):
    from repro.suite import corpus

    family = member_id.split("/", 1)[0]
    (member,) = [
        m for m in corpus.members(family_filter=[family]) if m.member_id == member_id
    ]
    return member.build()


def test_node_limit_cuts_inside_memoized_subtrees():
    machine = _member("pop-medium/pm0017")
    for limit in (1, 50, 777, 799, 829, 853, 854, 855, 900, 5000, 16200):
        _assert_same_search(machine, node_limit=limit)


def test_node_limit_cuts_across_replayed_candidates():
    machine = _member("sequential/shiftreg4")
    for limit in list(range(60, 100)) + [3400, 9200, None]:
        _assert_same_search(machine, node_limit=limit)
    for limit in (40, 50, 17000, None):
        _assert_same_search(machine, node_limit=limit, skip_redundant=False)


def test_node_limit_cuts_across_basis_orders():
    machine = _member("pop-medium/pm0017")
    for order in ("sorted", "coarse_first", "fine_first"):
        for limit in (850, 4000):
            _assert_same_search(machine, node_limit=limit, basis_order=order)


def test_deep_paths_on_tbk():
    """No skips or no pruning: long redundant chains on a 496-element basis."""
    from repro import suite

    machine = suite.load("tbk")
    _assert_same_search(machine, node_limit=600, skip_redundant=False)
    _assert_same_search(machine, node_limit=2000, skip_redundant=False)
    _assert_same_search(machine, node_limit=120, prune=False)


def test_subtree_memo_replays_without_joins_or_scoring(monkeypatch):
    """A replayed subtree is counted whole: no joins, no candidate scoring."""
    from repro.ostr import search

    joins = []
    scored = []
    join, consider = search.sparse_join, search._consider

    def spy_join(base, constraints):
        joins.append(1)
        return join(base, constraints)

    def spy_consider(candidates, best, states):
        scored.append(len(candidates))
        return consider(candidates, best, states)

    machine = _member("sequential/shiftreg4")
    monkeypatch.setattr(search, "sparse_join", spy_join)
    monkeypatch.setattr(search, "_consider", spy_consider)
    result = search_ostr(machine)
    monkeypatch.undo()

    assert len(joins) < result.stats.investigated
    assert sum(scored) < result.stats.candidates_evaluated
    _assert_same_search(machine)

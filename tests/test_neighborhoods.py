import dataclasses
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from netcon import (
    FAMILIES,
    L_ETPC,
    NET,
    SCH,
    USRT,
    VARIANTS,
    EdgeSchedule,
    GeneratorSpec,
    Network,
    ProblemInstance,
    SpanningTree,
    a_et,
    a_it,
    evaluate,
    generate,
    minimum_spanning_tree,
    mst_heuristic,
    neighbors,
    pairs_connection_sequence,
    solve_tree,
    vertex_recovery_sequence,
)
import netcon.local_search
import netcon.solution
from netcon import Budget, L, Solution, graph, loc, neighborhoods, tree_solvers
from netcon.neighborhoods import apply_shift, enumerate_shifts, sequence

from helpers import (
    attach,
    attach_data,
    group_of,
    random_feasible_order,
    random_instance,
    random_network,
    random_spanning_tree,
    reference_moves,
    reference_net_neighbors,
    reference_rebuild,
    reference_sch_neighbors,
    reference_shifts,
    tri,
)


class TestEdgeExchange:
    def test_tri(self):
        tree = SpanningTree.from_edges(tri(), [0, 1])
        assert [move[:2] for move in tree.moves()] == [(2, 0), (2, 1)]

    def test_tree_shaped_empty(self):
        net = Network(3, ((0, 1, 1), (1, 2, 1)))
        tree = SpanningTree.from_edges(net, [0, 1])
        assert list(tree.moves()) == []

    def test_k4_count(self):
        rng = random.Random(41)
        net = random_network(rng, 4, complete=True)
        tree = random_spanning_tree(rng, net)
        moves = [move[:2] for move in tree.moves()]
        assert moves == reference_moves(tree) and 3 <= len(moves) <= 9
        inst = attach_data(rng, net, USRT)
        stream = list(neighbors(inst, solve_tree(inst, tree), NET, Budget(600.0)))
        assert [attrs for attrs, _ in stream] == moves
        for (add, remove), sol in stream:
            assert add in sol.tree.edge_ids and remove not in sol.tree.edge_ids
            assert set(sol.tree.edge_ids) == set(tree.edge_ids) - {remove} | {add}


class TestVertexShift:
    """A vertex recovery sequence is a shift sequence with one vertex per group."""

    def test_length_two(self):
        assert list(enumerate_shifts(range(2), 2)) == [(1, 0)]
        assert apply_shift((4, 7), 1, 0) == (7, 4)

    def test_apply(self):
        assert apply_shift((1, 2, 3), 2, 0) == (3, 1, 2)
        assert apply_shift((1, 2, 3), 2, 1) == (1, 3, 2)

    def test_count(self):
        assert len(list(enumerate_shifts(range(4), 4))) == 6  # 1+2+3

    @given(st.integers(0, 12))
    def test_every_earlier_position(self, length):
        every = [(j, i) for j in range(length) for i in range(j)]
        assert list(enumerate_shifts(range(length), length)) == every


class TestPairShift:
    def test_q1_empty(self):
        assert list(enumerate_shifts((0, 0), 1)) == []

    def test_two_groups(self):
        order = ((0, 1), (1, 2))
        moves = list(enumerate_shifts((0, 1), len(order)))
        assert moves == [(1, 0)]
        assert apply_shift(order, *moves[0]) == ((1, 2), (0, 1))

    def test_duplicate_start_groups_deduped(self):
        # groups 0 and 1 are both empty at start 0; only one target offered
        starts = (0, 0, 1)
        assert group_of(starts, 0) == 1  # last group whose start covers position 0
        assert list(enumerate_shifts(starts, 1)) == []

    def test_empty_group_sharing_own_start(self):
        # group 1 is empty and starts where group 2 does, so position 2 may
        # move to the start of its own group through it
        starts = (0, 1, 1)
        assert list(enumerate_shifts(starts, 3)) == [(1, 0), (2, 0), (2, 1)]
        assert list(reference_shifts(starts, 3)) == [(1, 0), (2, 0), (2, 1)]

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=10))
    @settings(max_examples=300)
    def test_matches_group_reference(self, sizes):
        # group sizes of 0 make empty groups, at the start, middle or end
        starts = tuple(itertools.accumulate([0] + sizes[:-1]))
        length = sum(sizes)
        assert list(enumerate_shifts(starts, length)) == list(reference_shifts(starts, length))


class TestAIt:
    def test_tri_example(self):
        net = tri()
        tree = a_it(net, (2, 1))
        assert set(tree.edge_ids) == {0, 2}

    def test_tree_shaped_identity(self):
        net = Network(4, ((0, 1, 2), (1, 2, 1), (1, 3, 4)))
        inst = ProblemInstance(net, USRT)
        sol = solve_tree(inst, SpanningTree.from_edges(net, [0, 1, 2]))
        seq = vertex_recovery_sequence(inst, sol.schedule)
        tree = a_it(net, seq)
        assert set(tree.edge_ids) == {0, 1, 2}

    def test_star_unique(self):
        net = Network(4, ((0, 1, 1), (0, 2, 1), (0, 3, 1)))
        for order in ((1, 2, 3), (3, 1, 2), (2, 3, 1)):
            tree = a_it(net, order)
            assert set(tree.edge_ids) == {0, 1, 2}

    def test_result_spans(self):
        rng = random.Random(42)
        for _ in range(50):
            net = random_network(rng, rng.randint(2, 10))
            order = [v for v in range(net.n) if v != net.depot]
            rng.shuffle(order)
            tree = a_it(net, order)
            assert len(tree.edge_ids) == net.n - 1


class TestAEt:
    def test_tri_step_through(self):
        net = tri()
        tree = a_et(net, (((1, 2)), ((0, 1))))
        assert set(tree.edge_ids) == {2, 0}

    def test_two_vertices(self):
        net = Network(2, ((0, 1, 5),))
        tree = a_et(net, ((0, 1),))
        assert tree.edge_ids == (0,)

    def test_rebuild_agreement_tri(self):
        net = tri()
        inst = ProblemInstance(net, USRT)
        sol = solve_tree(inst, SpanningTree.from_edges(net, [0, 2]))
        vseq = vertex_recovery_sequence(inst, sol.schedule)
        pseq = pairs_connection_sequence(inst, sol.schedule, reduced=False)
        t_it = a_it(net, vseq)
        t_et = a_et(net, pseq.order)
        assert set(t_it.edge_ids) == set(t_et.edge_ids)

    def test_rebuild_agreement_random(self):
        rng = random.Random(43)
        for _ in range(60):
            inst = random_instance(rng, USRT, rng.randint(2, 9))
            net = inst.net
            tree = random_spanning_tree(rng, net)
            sched = random_feasible_order(rng, tree)
            vseq = vertex_recovery_sequence(inst, sched)
            pseq = pairs_connection_sequence(inst, sched, reduced=False)
            t_it = a_it(net, vseq)
            t_et = a_et(net, pseq.order)
            assert set(t_it.edge_ids) == set(t_et.edge_ids)

    def test_rebuilds_match_reference_walk(self):
        # ties are frequent with unit-to-three lengths on complete graphs
        rng = random.Random(47)
        for i in range(300):
            net = random_network(
                rng, rng.randint(2, 9), max_len=rng.choice((1, 2, 3)), complete=i % 2 == 0
            )
            order = [v for v in range(net.n) if v != net.depot]
            rng.shuffle(order)
            expected = reference_rebuild(net, [(net.depot, v) for v in order])
            assert a_it(net, order) == expected
            pairs = list(itertools.combinations(range(net.n), 2))
            rng.shuffle(pairs)
            assert a_et(net, pairs) == reference_rebuild(net, pairs)

    @given(st.randoms(use_true_random=False), st.integers(2, 8), st.booleans())
    @settings(max_examples=150)
    def test_forest_completion_equals_reference(self, rng, n, complete):
        # a random subset of the pairs, in random order, mostly leaves a
        # forest for Kruskal to finish; lengths 1-3 make ties frequent
        net = random_network(rng, n, max_len=3, complete=complete)
        pairs = list(itertools.combinations(range(n), 2))
        pairs = rng.sample(pairs, rng.randint(0, len(pairs)))
        assert a_et(net, pairs) == reference_rebuild(net, pairs)

    def test_reduced_sequence_completes(self):
        rng = random.Random(44)
        for _ in range(30):
            inst = random_instance(rng, L_ETPC, rng.randint(3, 9))
            tree = random_spanning_tree(rng, inst.net)
            order = list(tree.edge_ids)
            rng.shuffle(order)
            pseq = pairs_connection_sequence(
                inst, EdgeSchedule(tree, tuple(order)), reduced=True
            )
            rebuilt = a_et(inst.net, pseq.order)
            assert len(rebuilt.edge_ids) == inst.net.n - 1


class TestNeighborStream:
    def test_tri_net_neighbors(self):
        inst = ProblemInstance(tri(), USRT)
        current = solve_tree(inst, SpanningTree.from_edges(tri(), [0, 1]))
        assert current.objective == 5
        objs = sorted(sol.objective for _, sol in neighbors(inst, current, NET, Budget(600.0)))
        assert objs == [3, 7]

    def test_sch_neighbors_are_valid(self):
        rng = random.Random(45)
        for variant in (USRT, L_ETPC):
            inst = random_instance(rng, variant, 6)
            current = solve_tree(inst, random_spanning_tree(rng, inst.net))
            for _, sol in neighbors(inst, current, SCH, Budget(600.0)):
                assert evaluate(inst, sol.schedule)[0] == sol.objective

    def test_tabu_attribute_stream(self):
        # NET gives (add, remove), IT SCH the shifted vertex, ET SCH the shifted pair
        net = Network(4, ((0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 2), (0, 2, 2)))
        tree = SpanningTree.from_edges(net, [0, 1, 2])
        usrt = ProblemInstance(net, USRT)
        etpc = ProblemInstance(net, L_ETPC, pair_due_dates={(1, 3): 2, (0, 2): 1, (2, 3): 4})
        exchanges = [(3, 0), (3, 1), (3, 2), (4, 0), (4, 1)]
        for inst, shifts in ((usrt, [(2,), (3,), (3,)]), (etpc, [(1, 3), (2, 3)])):
            current = solve_tree(inst, tree)
            assert [a for a, _ in neighbors(inst, current, NET, Budget(600.0))] == exchanges
            assert [a for a, _ in neighbors(inst, current, SCH, Budget(600.0))] == shifts

    def test_unknown_kind(self):
        inst = ProblemInstance(tri(), USRT)
        current = solve_tree(inst, SpanningTree.from_edges(tri(), [0, 1]))
        with pytest.raises(ValueError):
            list(neighbors(inst, current, "BOGUS", Budget(600.0)))

    def test_deterministic_order(self):
        rng = random.Random(46)
        inst = random_instance(rng, USRT, 6)
        current = solve_tree(inst, random_spanning_tree(rng, inst.net))
        first = [(m, s.objective) for m, s in neighbors(inst, current, NET, Budget(600.0))]
        second = [(m, s.objective) for m, s in neighbors(inst, current, NET, Budget(600.0))]
        assert first == second


def count_kernel_calls(monkeypatch) -> list:
    """Record the parent map of every ES(T) call a later ``neighbors`` makes."""
    calls, real = [], neighborhoods.kernel

    def counting_kernel(inst):
        es = real(inst)

        def counting(inst, parent, cutoff=math.inf, tables=None, moved=()):
            calls.append(tuple(parent))
            return es(inst, parent, cutoff, tables, moved)

        return counting

    monkeypatch.setattr(neighborhoods, "kernel", counting_kernel)
    return calls


class TestTablesPerScan:
    """A NET scan builds ``kernel_tables`` once, for the current tree, and its
    ES(T) calls patch them; each ES(T) call of an SCH scan builds its own."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_net_once_sch_per_tree(self, monkeypatch, variant):
        inst = generate(GeneratorSpec("euclidean_complete", 7, 3, variant))
        current = mst_heuristic(inst)
        built, real = [], tree_solvers.kernel_tables

        def counting_tables(inst, parent):
            built.append(tuple(parent))
            return real(inst, parent)

        monkeypatch.setattr(tree_solvers, "kernel_tables", counting_tables)
        monkeypatch.setattr(neighborhoods, "kernel_tables", counting_tables)
        calls = count_kernel_calls(monkeypatch)
        assert len(list(neighbors(inst, current, NET, Budget(600.0)))) > 2
        assert built == [current.tree.parent] and len(calls) > 2
        built.clear()
        calls.clear()
        assert len(list(neighbors(inst, current, SCH, Budget(600.0)))) > 2
        # es_letpc reads no tables
        assert built == ([] if variant == L_ETPC else calls) and len(calls) > 1


class TestDeadline:
    """``neighbors`` checks the budget's deadline before each move's ES(T)
    call and ends the stream once it has passed."""

    @pytest.mark.parametrize("kind", (NET, SCH))
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_stops_before_next_es_call(self, monkeypatch, variant, kind):
        inst = generate(GeneratorSpec("euclidean_complete", 7, 3, variant))
        current = mst_heuristic(inst)
        full = [(a, sol.objective) for a, sol in neighbors(inst, current, kind, Budget(600.0))]
        assert len(full) > 2
        calls = count_kernel_calls(monkeypatch)
        for k in sorted({1, 2, len(full) // 2, len(full) - 1, len(full)}):
            seen, budget = [], Budget(600.0)
            budget.expired = lambda: len(seen) >= k
            calls.clear()
            for attrs, sol in neighbors(inst, current, kind, budget):
                seen.append((attrs, sol.objective))
            assert seen == full[:k]
            # NET runs ES(T) once per move; SCH once per distinct tree
            assert len(calls) == k if kind == NET else 1 <= len(calls) <= k
        calls.clear()
        assert list(neighbors(inst, current, kind, Budget(0.0))) == []
        assert calls == []


@st.composite
def small_instances(draw, sizes=range(2, 8), ties=(None, 1, 2, 3)):
    """A generated instance of any family and variant, n drawn from
    ``sizes``, with a random depot; lengths folded into 1..k when a k is
    drawn from ``ties`` (None keeps them), and for L_ETPC a drawn share of
    the relevant pairs, so that reduced sequences leave forests."""
    family = draw(st.sampled_from(FAMILIES))
    variant = draw(st.sampled_from(VARIANTS))
    n = draw(st.sampled_from(sizes))
    rng = random.Random(draw(st.integers(0, 2**16)))
    inst = generate(GeneratorSpec(family, n, rng.randrange(2**16), variant))
    edges = inst.net.edges
    k = draw(st.sampled_from(ties))
    if k is not None:
        edges = tuple((a, b, 1 + w % k) for a, b, w in edges)
    net = Network(n, edges, depot=draw(st.integers(0, n - 1)))
    if variant != L_ETPC:
        return dataclasses.replace(inst, net=net)
    pairs = rng.sample(sorted(inst.pair_due_dates), rng.randint(1, inst.q))
    return dataclasses.replace(
        inst, net=net, pair_due_dates={p: inst.pair_due_dates[p] for p in pairs}
    )


def spy_on(monkeypatch, name: str, module=neighborhoods) -> list:
    """Record the return value of every call of ``module.<name>``."""
    seen = []
    real = getattr(module, name)

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(module, name, spy)
    return seen


class _Lookups(dict):
    """A futures memo that remembers the last key its ``get`` found."""

    hit = None

    def get(self, key, default=None):
        found = super().get(key, default)
        if found is not None:
            self.hit = key
        return found


def spy_on_futures(monkeypatch) -> list:
    """Per ``_replay`` call of one SCH scan: (returned edges, the future of
    the ``futures`` entry that ended the replay, that entry's writer), where
    the writer is "base" for the base run or the index of the replay that
    wrote it; future and writer are None if the replay ran to its end."""
    seen, writers, scan = [], {}, []
    real = neighborhoods._replay

    def spy(snap, order, futures, j, i):
        # a scan's first replay: every entry so far is the base run's
        if not scan or scan[0] is not futures:
            scan[:] = [futures]
            seen.clear()
            writers.clear()
            writers.update(dict.fromkeys(futures, "base"))
        lookups = _Lookups(futures)
        edges = real(snap, order, lookups, j, i)
        for key in lookups.keys() - futures.keys():
            writers[key] = len(seen)
        futures.update(lookups)
        hit = lookups.hit
        seen.append((edges, futures.get(hit), writers.get(hit)))
        return edges

    monkeypatch.setattr(neighborhoods, "_replay", spy)
    return seen


class TestNetExchange:
    """Each NET neighbour's tree is derived from the current tree; the
    stream must equal the one that rebuilds every tree from scratch."""

    @given(small_instances(), st.lists(st.integers(0, 10**6), max_size=3))
    @settings(max_examples=150)
    def test_stream_equals_reference(self, inst, picks):
        # several steps from the MST solution, each to a drawn neighbour
        current = mst_heuristic(inst)
        for pick in [*picks, None]:
            stream = list(neighbors(inst, current, NET, Budget(600.0)))
            assert stream == reference_net_neighbors(inst, current)
            if pick is None or not stream:
                break
            current = stream[pick % len(stream)][1]

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_generated_stream(self, family, variant):
        inst = generate(GeneratorSpec(family, 9, 5, variant))
        current = mst_heuristic(inst)
        stream = list(neighbors(inst, current, NET, Budget(600.0)))
        assert stream and stream == reference_net_neighbors(inst, current)


def count_builds(monkeypatch) -> dict:
    """Count every ``SpanningTree`` and ``EdgeSchedule`` constructed."""
    built = {SpanningTree: 0, EdgeSchedule: 0}
    for cls in built:
        real = cls.__init__

        def counting(self, *args, _cls=cls, _real=real):
            built[_cls] += 1
            _real(self, *args)

        monkeypatch.setattr(cls, "__init__", counting)
    return built


class TestDeferredNetNeighbours:
    """A NET neighbour holds ES(T)'s objective from the scan and builds its
    tree and schedule on first read, after the scan has moved on."""

    @given(small_instances(), st.lists(st.integers(0, 10**6), max_size=3))
    @settings(max_examples=100)
    def test_read_after_exhausting(self, inst, picks):
        # every objective is read during the scan and every tree and
        # schedule only once the generator is exhausted, last neighbour
        # first: the scan's one parent list leaves nothing behind
        current = mst_heuristic(inst)
        for pick in [*picks, None]:
            stream, objectives = [], []
            for attrs, sol in neighbors(inst, current, NET, Budget(600.0)):
                objectives.append(sol.objective)
                stream.append((attrs, sol))
            built = [(attrs, sol.tree, sol.schedule) for attrs, sol in reversed(stream)][::-1]
            reference = reference_net_neighbors(inst, current)
            assert objectives == [sol.objective for _, sol in reference]
            assert built == [(attrs, sol.tree, sol.schedule) for attrs, sol in reference]
            if pick is None or not stream:
                break
            current = stream[pick % len(stream)][1]

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_unread_neighbours_build_nothing(self, monkeypatch, variant):
        inst = generate(GeneratorSpec("euclidean_complete", 8, 1, variant))
        current = mst_heuristic(inst)
        built = count_builds(monkeypatch)
        stream = list(neighbors(inst, current, NET, Budget(600.0)))
        assert len(stream) > 2 and built == {SpanningTree: 0, EdgeSchedule: 0}
        sol = stream[1][1]
        assert sol.schedule.tree is sol.tree
        assert built == {SpanningTree: 1, EdgeSchedule: 1}

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_loc_builds_only_what_it_reads(self, monkeypatch, variant):
        # the accepted neighbours, which impr reads, and the scan's first
        # minimum once read; the other neighbours of every scan stay unbuilt
        inst = generate(GeneratorSpec("euclidean_complete", 9, 4, variant))
        built = spy_on(monkeypatch, "exchanged", SpanningTree)
        accepted = []
        real_impr = netcon.local_search.impr

        def spy_impr(inst, s):
            accepted.append(s)
            return real_impr(inst, s)

        monkeypatch.setattr(netcon.local_search, "impr", spy_impr)
        budget = Budget(60.0)
        start = solve_tree(inst, random_spanning_tree(random.Random(5), inst.net))
        loc(inst, start, NET, budget)
        assert accepted and built == [s.tree for s in accepted]
        first_min = budget.optimum_neighbour[1]
        assert built == [s.tree for s in accepted] + [first_min.tree]

    def test_corrupted_objective_raises(self, monkeypatch):
        inst = generate(GeneratorSpec("euclidean_complete", 7, 2, L))
        current = mst_heuristic(inst)
        real = neighborhoods.kernel(inst)

        def off_by_one(inst, parent, cutoff=math.inf, tables=None, moved=()):
            order, obj = real(inst, parent, cutoff, tables, moved)
            return order, obj + 1

        monkeypatch.setattr(neighborhoods, "kernel", lambda inst: off_by_one)
        (_, sol), *_ = neighbors(inst, current, NET, Budget(600.0))
        for read in ("tree", "schedule"):
            with pytest.raises(RuntimeError, match="differs"):
                getattr(sol, read)
        made = Solution.deferred(inst, current.objective - 1, lambda: current.tree)
        with pytest.raises(RuntimeError, match="differs"):
            made == current

    def test_solution_read_only_and_compared_on_all_fields(self):
        inst = generate(GeneratorSpec("euclidean_complete", 6, 3, USRT))
        sol = mst_heuristic(inst)
        with pytest.raises(AttributeError):
            sol.objective = 0
        with pytest.raises(AttributeError):
            sol.tree = None
        assert sol == Solution(sol.tree, sol.schedule, sol.objective)
        assert sol != Solution(sol.tree, sol.schedule, sol.objective + 1)
        other = next(neighbors(inst, sol, NET, Budget(600.0)))[1]
        assert other != sol and other == solve_tree(inst, other.tree)


class TestSchReplay:
    """The SCH scan replays each shift from a prefix snapshot, stops at the
    first partition whose future the scan has stored, and solves each
    distinct tree once; its stream must equal the one that rebuilds every
    shift from scratch."""

    @given(small_instances(), st.lists(st.integers(0, 10**6), max_size=3))
    @settings(max_examples=150)
    def test_stream_equals_reference(self, inst, picks):
        # several steps from the MST solution, each to a drawn neighbour
        current = mst_heuristic(inst)
        for pick in [*picks, None]:
            stream = list(neighbors(inst, current, SCH, Budget(600.0)))
            assert stream == reference_sch_neighbors(inst, current)
            if pick is None or not stream:
                break
            current = stream[pick % len(stream)][1]

    @pytest.mark.parametrize("ids, met, trees", [
        ((0, 1, 2), [False, False, False], [(0, 2, 4), (0, 1, 3), (0, 1, 3)]),
        ((1, 2, 4), [False, False, True], [(0, 1, 2), (0, 2, 3), (0, 2, 4)]),
        ((0, 2, 3), [True, False, False], [(0, 1, 3), (0, 2, 4), (0, 1, 2)]),
    ])
    def test_vertex_shortcut_pinned(self, monkeypatch, ids, met, trees):
        # met: a futures entry ended the replay in the base run's final tree
        net = Network(4, ((0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 2), (0, 2, 2)))
        inst = ProblemInstance(net, USRT)
        current = solve_tree(inst, SpanningTree.from_edges(net, ids))
        base = frozenset(a_it(net, sequence(inst, current.schedule, True)[0]).edge_ids)
        seen = spy_on_futures(monkeypatch)
        stream = list(neighbors(inst, current, SCH, Budget(600.0)))
        assert [edges == base and future is not None for edges, future, _ in seen] == met
        assert [sol.tree.edge_ids for _, sol in stream] == trees
        assert stream == reference_sch_neighbors(inst, current)

    def test_pair_shortcut_with_kruskal_base(self, monkeypatch):
        # the reduced sequence leaves a forest, so Kruskal finishes the base
        # run; the one shift meets it and shares its tree
        net = Network(5, ((0, 2, 2), (0, 3, 3), (0, 4, 1), (1, 2, 2), (1, 4, 1), (2, 4, 3)))
        inst = ProblemInstance(net, L_ETPC, pair_due_dates={(3, 4): 0, (0, 4): 1})
        current = mst_heuristic(inst)
        base = frozenset(a_et(net, sequence(inst, current.schedule, True)[0]).edge_ids)
        seen = spy_on_futures(monkeypatch)
        joins = spy_on(monkeypatch, "kruskal", graph)
        stream = list(neighbors(inst, current, SCH, Budget(600.0)))
        [(edges, future, writer)] = seen
        assert edges == base and future is not None and writer == "base" and any(joins)
        assert stream == reference_sch_neighbors(inst, current)

    def test_pair_replay_needs_kruskal(self, monkeypatch):
        net = Network(5, (
            (0, 1, 1), (0, 3, 1), (0, 4, 3), (1, 2, 1), (1, 4, 2), (2, 3, 2), (2, 4, 1), (3, 4, 2),
        ))
        inst = ProblemInstance(net, L_ETPC, pair_due_dates={(0, 2): 3, (0, 3): 1})
        current = mst_heuristic(inst)
        seen = spy_on(monkeypatch, "_replay")
        joins = spy_on(monkeypatch, "kruskal", graph)
        stream = list(neighbors(inst, current, SCH, Budget(600.0)))
        assert seen == [frozenset({0, 1, 3, 6})] and any(joins)
        assert stream == reference_sch_neighbors(inst, current)

    @pytest.mark.parametrize("inst, edges, future, other", [
        (
            ProblemInstance(Network(5, (
                (0, 1, 2), (0, 2, 3), (0, 4, 2), (1, 3, 1), (1, 4, 1), (3, 4, 1),
            )), USRT),
            [0, 1, 3, 4], [1, 3], [1, 2, 3, 4],
        ),
        (
            ProblemInstance(Network(5, (
                (0, 1, 1), (0, 2, 2), (0, 3, 2), (0, 4, 3), (1, 2, 2),
                (1, 3, 2), (1, 4, 3), (2, 3, 2), (2, 4, 1), (3, 4, 1),
            )), L_ETPC, pair_due_dates={(3, 4): 3, (0, 4): 5, (0, 2): 2}),
            [0, 1, 8, 9], [0, 9], [0, 3, 8, 9],
        ),
    ], ids=["vertex", "pair"])
    def test_replay_ends_on_earlier_replay_entry(self, monkeypatch, inst, edges, future, other):
        # replay 2 reaches a partition that replay 1 stored, by other edges
        # than replay 1 had there, and ends with replay 1's future from it
        current = mst_heuristic(inst)
        seen = spy_on_futures(monkeypatch)
        stream = list(neighbors(inst, current, SCH, Budget(600.0)))
        assert sorted(seen[2][0]) == edges and sorted(seen[1][0]) == other
        assert sorted(seen[2][1]) == future and seen[2][2] == 1
        assert seen[2][0] - set(future) != seen[1][0] - set(future)
        assert stream == reference_sch_neighbors(inst, current)

    @given(small_instances(range(2, 9), (1, 2, 3)), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_equal_partitions_add_equal_futures(self, inst, rnd):
        # the lemma behind the futures memo: states with one partition add
        # the same edges from there on, however they were reached
        net = inst.net
        for make, items in (
            (neighborhoods._ITState, list(range(net.n))),
            (graph.ContractedGraph, list(itertools.combinations(range(net.n), 2))),
        ):
            reached = {}  # partition -> states with it, by their chosen edges
            for _ in range(4):
                state = make(net)
                for item in rnd.sample(items, len(items)):
                    same = reached.setdefault(state.partition(), {})
                    same[frozenset(state.chosen)] = state.copy()
                    attach(state, item)
            suffix = rnd.sample(items, rnd.randint(0, len(items)))
            for states in reached.values():
                added = set()
                for before, state in states.items():
                    for item in suffix:
                        attach(state, item)
                    state.finish()
                    added.add(frozenset(state.chosen - before))
                assert len(added) == 1

    @given(small_instances(range(8, 13), (1, 2, 3)), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_stream_equals_reference_tie_heavy(self, inst, pick):
        # n up to 12 with lengths in 1..3: many partitions meet by other edges
        current = mst_heuristic(inst)
        for _ in range(2):
            stream = list(neighbors(inst, current, SCH, Budget(600.0)))
            assert stream == reference_sch_neighbors(inst, current)
            if not stream:
                break
            current = stream[pick % len(stream)][1]

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_one_solve_per_distinct_tree(self, monkeypatch, variant):
        # the scan runs the ES(T) kernel once per distinct tree, on its
        # parent map; a read neighbour solves again through netcon.solution
        inst = generate(GeneratorSpec("euclidean_complete", 7, 3, variant))
        current = solve_tree(inst, minimum_spanning_tree(inst.net))
        calls = count_kernel_calls(monkeypatch)
        stream = list(neighbors(inst, current, SCH, Budget(600.0)))
        distinct = {sol.tree.edge_ids for _, sol in stream}
        assert len(calls) == len(distinct) < len(stream)
        assert set(calls) == {sol.tree.parent for _, sol in stream}
        assert stream == reference_sch_neighbors(inst, current)


def lowering_scan(inst, current, kind, budget, deltas) -> list:
    """The stream a consumer reads that, after its k-th neighbour, lowers
    ``budget.cutoff`` to that neighbour's objective + ``deltas[k]`` (cyclic)
    unless the cutoff is lower already."""
    seen = []
    for nb in neighbors(inst, current, kind, budget):
        budget.cutoff = min(budget.cutoff, nb[1].objective + deltas[len(seen) % len(deltas)])
        seen.append(nb)
    return seen


def filtered_reference(inst, current, kind, deltas) -> list:
    """The from-scratch stream filtered by the running cutoff that
    ``lowering_scan`` sets: the neighbours below it."""
    reference = (reference_net_neighbors if kind == NET else reference_sch_neighbors)(inst, current)
    kept, cutoff = [], math.inf
    for nb in reference:
        if nb[1].objective < cutoff:
            cutoff = min(cutoff, nb[1].objective + deltas[len(kept) % len(deltas)])
            kept.append(nb)
    return kept


class TestCutoffStream:
    """A consumer that lowers ``budget.cutoff`` during a scan sees the
    reference stream filtered by the running cutoff; the next scan starts
    from no cutoff."""

    @given(
        small_instances(),
        st.sampled_from((NET, SCH)),
        st.lists(st.sampled_from((-1, 0, 1, 3, math.inf)), min_size=1, max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_filtered_reference(self, inst, kind, deltas):
        current = mst_heuristic(inst)
        budget = Budget(600.0)
        stream = lowering_scan(inst, current, kind, budget, deltas)
        assert stream == filtered_reference(inst, current, kind, deltas)
        full = list(neighbors(inst, current, kind, budget))
        assert budget.cutoff == math.inf
        assert full == filtered_reference(inst, current, kind, (math.inf,))

    @pytest.mark.parametrize("variant", (L, L_ETPC))
    def test_cut_tree_recurs_unsolved(self, monkeypatch, variant):
        # a loc-like consumer: the cutoff is the running minimum; trees
        # that recur after their first shift was cut are not solved again
        inst = generate(GeneratorSpec("euclidean_complete", 6, 1, variant))
        current = mst_heuristic(inst)
        reference = reference_sch_neighbors(inst, current)
        calls = count_kernel_calls(monkeypatch)
        stream = lowering_scan(inst, current, SCH, Budget(600.0), (0,))
        assert stream == filtered_reference(inst, current, SCH, (0,))
        trees = [sol.tree.edge_ids for _, sol in reference]
        cut = set(trees) - {sol.tree.edge_ids for _, sol in stream}
        assert any(trees.count(t) > 1 for t in cut)
        assert len(calls) == len(set(calls)) == len(set(trees))


class TestDeferredSchNeighbours:
    """An SCH neighbour holds the objective ES(T) took on the parent map of
    its replayed edges and builds its tree and schedule on first read."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_unread_neighbours_build_nothing(self, monkeypatch, variant):
        inst = generate(GeneratorSpec("euclidean_complete", 8, 1, variant))
        current = mst_heuristic(inst)
        built = count_builds(monkeypatch)
        stream = list(neighbors(inst, current, SCH, Budget(600.0)))
        assert len(stream) > 2 and built == {SpanningTree: 0, EdgeSchedule: 0}
        sol = stream[1][1]
        assert sol.schedule.tree is sol.tree
        assert built == {SpanningTree: 1, EdgeSchedule: 1}

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_loc_builds_only_what_it_reads(self, monkeypatch, variant):
        # the accepted neighbours, which impr reads, and the scan's first
        # minimum once read: deferred neighbours build through
        # netcon.solution.solve_tree, which impr's own rebuilds do not call
        inst = generate(GeneratorSpec("euclidean_complete", 9, 4, variant))
        built = spy_on(monkeypatch, "solve_tree", netcon.solution)
        accepted = []
        real_impr = netcon.local_search.impr

        def spy_impr(inst, s):
            accepted.append(s)
            return real_impr(inst, s)

        monkeypatch.setattr(netcon.local_search, "impr", spy_impr)
        budget = Budget(60.0)
        start = solve_tree(inst, random_spanning_tree(random.Random(5), inst.net))
        loc(inst, start, SCH, budget)
        assert accepted and [s.tree for s in built] == [s.tree for s in accepted]
        first_min = budget.optimum_neighbour[1].tree
        assert [s.tree for s in built] == [s.tree for s in accepted] + [first_min]

    def test_corrupted_objective_raises(self, monkeypatch):
        inst = generate(GeneratorSpec("euclidean_complete", 7, 2, L))
        current = mst_heuristic(inst)
        real = neighborhoods.kernel(inst)

        def off_by_one(inst, parent, cutoff=math.inf, tables=None, moved=()):
            order, obj = real(inst, parent, cutoff, tables, moved)
            return order, obj + 1

        monkeypatch.setattr(neighborhoods, "kernel", lambda inst: off_by_one)
        (_, sol), *_ = neighbors(inst, current, SCH, Budget(600.0))
        for read in ("tree", "schedule"):
            with pytest.raises(RuntimeError, match="differs"):
                getattr(sol, read)


def _joined_it(state, v) -> bool:
    return state.in_tree[v]


def _joined_et(state, pair) -> bool:
    return state.label[pair[0]] == state.label[pair[1]]


class TestProbe:
    """``probe(item)`` reads ``path(item)`` and the partition that joining it
    leads to off a state it leaves as it is; the oracle is ``attach`` on a
    copy."""

    @given(small_instances(range(2, 10)), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_probe_equals_attach_on_a_copy(self, inst, rnd):
        # most drawn instances fold lengths into 1..3, so ties are many
        net = inst.net
        for make, items, joined in (
            (neighborhoods._ITState, list(range(net.n)), _joined_it),
            (graph.ContractedGraph, list(itertools.combinations(range(net.n), 2)), _joined_et),
        ):
            state = make(net)
            for item in rnd.sample(items, rnd.randint(0, len(items))):
                attach(state, item)
            for item in rnd.sample(items, min(len(items), 12)):
                chosen, key, dist = state.chosen.copy(), state.partition(), state.dist
                probed = state.probe(item)
                assert state.chosen == chosen and state.partition() == key
                assert state.dist is dist
                oracle = state.copy()
                attach(oracle, item)
                added = oracle.chosen - chosen
                assert (probed is None) == joined(state, item) == (not added)
                if probed is None:
                    continue
                path, after = probed
                assert len(path) == len(added) and set(path) == added
                assert after == oracle.partition()
                split = state.copy()
                split.join(path)
                assert split.chosen == oracle.chosen and split.partition() == after

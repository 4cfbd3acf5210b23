import random
import re
from collections import defaultdict
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st
from scipy import stats

from obge.attack import round_classes
from obge.audit import (
    QueryTruth,
    audit_trace,
    first_fault,
    load_query_log,
    save_query_log,
    simulate,
    two_sample_pvalue,
    uniformity_bins,
    uniformity_pvalue,
)
from obge.blocks import TreeParams
from obge.cli import main
from obge.exceptions import ProtocolError
from obge.graph import Graph, PathOracle
from obge.crypto import CT_OVERHEAD
from obge.protocol import rounds, setup
from obge.recursive import write_entry
from obge.server import deploy_inprocess
from obge.storage import AccessTrace
from conftest import random_graph

# a query's shape fault names the query, then the record
FAULT = re.compile(r"query \d+ \(\d+,\d+\), record \d+: ")


def run_workload(g, queries, mode="trivial", seed=2, **scheme):
    rng = random.Random(seed)
    result = setup(g, mode=mode, rng=rng, **scheme)
    host, _, client = deploy_inprocess(result, rng=rng)
    truths = []
    for u, v in queries:
        path = client.query_path(u, v)
        truths.append(QueryTruth(u, v, len(path) - 1 if path else 0))
    return host, truths


def geometry(host):
    return {t: tree.params for t, tree in host.trees.items()}


def masked(records):
    """Records as the model fixes them: leaves and timestamps dropped."""
    return [(r.msg_type, r.tree_id, r.byte_count) for r in records]


def cli_audit(tmp_path, host, truths, records=None):
    """Write the trace (or records in its place), the query log and the tree
    files, then run ``obge audit`` over them; returns its exit code."""
    trace = AccessTrace()
    trace.records = host.trace.records if records is None else records
    trace.save(tmp_path / "trace.csv")
    save_query_log(tmp_path / "queries.csv", truths)
    for t, tree in host.trees.items():
        tree.save(tmp_path / f"tree_{t:03d}.bin")
    return main(["audit", "--trace", str(tmp_path / "trace.csv"), "--queries", str(tmp_path / "queries.csv"),
                 "--trees", str(tmp_path)])


@pytest.fixture
def two_branch_graph():
    """Two disjoint chains: (0,2) and (3,5) are distinct length-2 queries."""
    g = Graph(6, directed=True)
    for u, v in [(0, 1), (1, 2), (3, 4), (4, 5)]:
        g.add_edge(u, v)
    return g


@pytest.fixture(scope="module")
def recursive_trace():
    """An honest enhanced trace over a recursive map of chain depth 3:
    |V|=36, a 16-byte budget, which forces 16-byte level payloads, 400
    random queries.  The map's level trees have 64, 4 and 1 leaves, so
    zeroed leaves show in either of the first two."""
    rng = random.Random(11)
    g = random_graph(rng, 36, 0.12)
    queries = [(rng.randrange(36), rng.randrange(36)) for _ in range(400)]
    host, truths = run_workload(g, queries, mode="enhanced", budget=16)
    assert sorted(host.trees) == [0, 1, 2, 3]
    assert [host.trees[t].params.leaves for t in (1, 2, 3)] == [64, 4, 1]
    assert max(t.path_len for t in truths) >= 2
    return host, truths


class TestSlicing:
    def test_round_partition(self, two_branch_graph):
        host, truths = run_workload(two_branch_graph, [(0, 2), (3, 5), (0, 0), (5, 3)])
        records, at, sizes = host.trace.records, 0, []
        for t in truths:
            model = simulate(geometry(host), False, t.path_len)
            assert masked(records[at : at + len(model)]) == masked(model)
            sizes.append(len(model))
            at += len(model)
        assert sizes == [2 * rounds(t.path_len) for t in truths] == [6, 6, 2, 2] and at == len(records)
        assert audit_trace(host.trace, truths, geometry(host)).shape_ok
        # a record past the model's last is named too
        width = geometry(host)[0].path_width
        assert first_fault(records[:7], simulate(geometry(host), False, 2), geometry(host)) == (
            f"record 6: ReadPath on tree 0 of {width} bytes, expected end of query"
        )

    def test_mismatched_ground_truth_rejected(self, two_branch_graph):
        host, truths = run_workload(two_branch_graph, [(0, 2)])
        truths[0] = QueryTruth(0, 2, 5)
        report = audit_trace(host.trace, truths, geometry(host))
        assert not report.ok
        width = geometry(host)[0].path_width
        assert report.shape_fault == f"query 0 (0,2), record 6: end of trace, expected ReadPath on tree 0 of {width} bytes"


class TestStatistics:
    def test_uniformity_accepts_uniform(self, rng):
        leaves = [rng.randrange(64) for _ in range(8000)]
        assert uniformity_pvalue(leaves, 64) >= 0.01

    def test_uniformity_rejects_skew(self, rng):
        leaves = [rng.randrange(8) for _ in range(8000)]  # stuck in low leaves
        assert uniformity_pvalue(leaves, 64) < 0.01

    def test_sparse_leaves_get_fewer_bins(self, rng):
        # 100 leaves over 512: 64 bins would expect 1.6 leaves each, and
        # halving until each expects 5 leaves gives 16; 4 leaves get one
        # bin, which tells nothing
        assert uniformity_bins(100, 512) == 16
        assert uniformity_bins(8000, 64) == 64
        assert uniformity_bins(4, 512) == 1 and uniformity_pvalue([0, 0, 0, 0], 512) == 1.0
        assert uniformity_pvalue([rng.randrange(32) for _ in range(100)], 512) < 1e-6

    def test_two_sample_accepts_same_distribution(self, rng):
        a = [rng.randrange(32) for _ in range(3000)]
        b = [rng.randrange(32) for _ in range(3000)]
        assert two_sample_pvalue(a, b, 32) >= 0.01

    def test_two_sample_rejects_different(self, rng):
        a = [rng.randrange(32) for _ in range(3000)]
        b = [rng.randrange(16) for _ in range(3000)]
        assert two_sample_pvalue(a, b, 32) < 0.01


class TestAuditReport:
    def test_healthy_trace_passes(self, two_branch_graph, tmp_path):
        # trivial, in process
        queries = [(0, 2), (3, 5)] * 150 + [(0, 0)] * 20
        host, truths = run_workload(two_branch_graph, queries)
        report = audit_trace(host.trace, truths, geometry(host))
        assert report.shape_ok and report.uniformity_ok and report.indistinguishable
        assert report.pairwise_p  # the two length-2 queries were compared
        summary = report.summary()
        assert "PASS" in summary and "FAIL" not in summary
        assert cli_audit(tmp_path, host, truths) == 0

    def test_csv_emission(self, two_branch_graph, tmp_path):
        host, truths = run_workload(two_branch_graph, [(0, 2), (3, 5)])
        report = audit_trace(host.trace, truths, geometry(host))
        csv = report.to_csv()
        assert csv.startswith("metric,value")
        assert "shape_ok,1" in csv and "uniformity_p_tree_0," in csv


class TestPersistedArtifacts:
    def test_trace_round_trip(self, two_branch_graph, tmp_path):
        host, truths = run_workload(two_branch_graph, [(0, 2), (0, 0)])
        path = tmp_path / "trace.csv"
        host.trace.save(path)
        loaded = AccessTrace.load(path)
        assert len(loaded) == len(host.trace)
        assert [r.msg_type for r in loaded.records] == [r.msg_type for r in host.trace.records]
        assert [r.leaf for r in loaded.records] == [r.leaf for r in host.trace.records]

    def test_query_log_round_trip(self, tmp_path):
        rows = [QueryTruth(0, 2, 2), QueryTruth(5, 3, 0)]
        save_query_log(tmp_path / "q.csv", rows)
        assert load_query_log(tmp_path / "q.csv") == rows

    def test_enhanced_trace_audits_cleanly(self, two_branch_graph, tmp_path):
        # flat map: the data tree is the only tree
        host, truths = run_workload(two_branch_graph, [(0, 2), (3, 5)] * 30, mode="enhanced")
        assert sorted(host.trees) == [0]
        report = audit_trace(host.trace, truths, geometry(host))
        assert report.ok, report.summary()
        assert cli_audit(tmp_path, host, truths) == 0

    def test_recursive_trace_audits_cleanly(self, recursive_trace, tmp_path):
        host, truths = recursive_trace
        report = audit_trace(host.trace, truths, geometry(host))
        assert report.ok, report.summary()
        assert sorted(report.uniformity_p) == [0, 1, 2, 3]
        assert cli_audit(tmp_path, host, truths) == 0


    @pytest.mark.parametrize(
        "mode, scheme, trees",
        [("trivial", {}, [0]), ("enhanced", {"bucket_size": 2, "budget": 32}, [0, 1, 2])],
        ids=["trivial", "enhanced-chain-2"],
    )
    def test_no_hop_trace_is_uniform_per_tree(self, mode, scheme, trees):
        # a query of u = v or of an unreachable pair is one round, on the
        # pair's own block, whose hop is its source; the round reads the
        # leaf that block was remapped to when it was last read, or placed
        # at by setup.  At Z=2 a 32-byte budget gives a chain of depth 2
        rng = random.Random(13)
        g = random_graph(rng, 36, 0.04)
        oracle = PathOracle(g)
        no_hop = [(u, v) for u in range(36) for v in range(36) if u == v or oracle.path(u, v) is None]
        host, truths = run_workload(g, [rng.choice(no_hop) for _ in range(600)], mode=mode, **scheme)
        assert sorted(host.trees) == trees
        assert {t.path_len for t in truths} == {0}
        report = audit_trace(host.trace, truths, geometry(host))
        assert report.ok, report.summary()
        assert sorted(report.uniformity_p) == trees


class TestMalformedLines:
    TRACE_LINES = {
        "short": "1.0,ReadPath,0",
        "extra": "1.0,ReadPath,0,3,1492,9",
        "non-integer": "1.0,ReadPath,0,x,1492",
    }
    QUERY_LINES = {
        "short": "0,2",
        "extra": "0,2,2,7",
        "non-integer": "0,two,2",
        "negative-u": "-1,2,2",
        "negative-v": "0,-2,2",
        "negative-path_len": "0,3,-1",
    }

    @pytest.mark.parametrize("kind", sorted(TRACE_LINES))
    def test_trace_line_is_named(self, tmp_path, kind):
        path = tmp_path / "trace.csv"
        path.write_text(f"{AccessTrace.CSV_HEADER}\n1.0,ReadPath,0,3,1492\n{self.TRACE_LINES[kind]}\n")
        with pytest.raises(ProtocolError, match=rf"{re.escape(str(path))}, line 3: "):
            AccessTrace.load(path)

    @pytest.mark.parametrize("kind", sorted(QUERY_LINES))
    def test_query_log_line_is_named(self, tmp_path, kind):
        path = tmp_path / "queries.csv"
        path.write_text(f"u,v,path_len\n0,2,2\n\n{self.QUERY_LINES[kind]}\n")
        with pytest.raises(ProtocolError, match=rf"{re.escape(str(path))}, line 4: "):
            load_query_log(path)

    def test_negative_path_lengths_do_not_pass_an_empty_trace(self, two_branch_graph, tmp_path, capsys):
        # a query of path length -1 once had 0 records, so such a log
        # matched an empty trace and passed every check
        host, _ = run_workload(two_branch_graph, [])
        assert cli_audit(tmp_path, host, []) == 0
        (tmp_path / "queries.csv").write_text("u,v,path_len\n0,3,-1\n1,2,-1\n")
        capsys.readouterr()
        rc = main(["audit", "--trace", str(tmp_path / "trace.csv"), "--queries", str(tmp_path / "queries.csv"),
                   "--trees", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.strip() == (
            f"error: {tmp_path / 'queries.csv'}, line 2: expected non-negative u,v,path_len, got '0,3,-1'"
        )

    def test_audit_command_exits_2_on_a_short_trace_line(self, two_branch_graph, tmp_path, capsys):
        host, truths = run_workload(two_branch_graph, [(0, 2)])
        cli_audit(tmp_path, host, truths)
        with open(tmp_path / "trace.csv", "a") as f:
            f.write("1.0,ReadPath,0\n")
        capsys.readouterr()
        rc = main(["audit", "--trace", str(tmp_path / "trace.csv"), "--queries", str(tmp_path / "queries.csv"),
                   "--trees", str(tmp_path)])
        assert rc == 2
        assert "trace.csv, line 8: " in capsys.readouterr().err


def _zero_writes(records, trees):
    return [replace(r, leaf=0) if r.msg_type == "WritePath" else r for r in records]


def _reverse(records, trees):
    return records[::-1]


def _widen_one(records, trees):
    i = len(records) // 2
    while records[i].tree_id is None:
        i += 1
    out = list(records)
    out[i] = replace(out[i], byte_count=out[i].byte_count + trees[out[i].tree_id].bucket_width)
    return out


def _pair_past_last_leaf(records, trees):
    i = len(records) // 2
    while records[i].msg_type != "ReadPath":
        i += 1
    out = list(records)
    leaves = trees[out[i].tree_id].leaves
    out[i], out[i + 1] = replace(out[i], leaf=leaves), replace(out[i + 1], leaf=leaves)
    return out


def _widen_response(records, trees):
    i = len(records) // 2
    while records[i].msg_type != "EnclaveResponse":
        i += 1
    out = list(records)
    out[i] = replace(out[i], byte_count=out[i].byte_count + 1)
    return out


def _drop_one(records, trees):
    return records[: len(records) // 2] + records[len(records) // 2 + 1 :]


def _append_one(records, trees):
    return records + [records[1]]


class TestMutations:
    """Each edit of an honest recursive-map trace fails the audit, and the
    shape faults name the query and the record."""

    @pytest.mark.parametrize(
        "mutate",
        [_zero_writes, _reverse, _widen_one, _pair_past_last_leaf, _widen_response, _drop_one],
        ids=lambda f: f.__name__.strip("_"),
    )
    def test_shape_fault_names_query_and_record(self, recursive_trace, mutate):
        host, truths = recursive_trace
        trace = AccessTrace()
        trace.records = mutate(host.trace.records, geometry(host))
        report = audit_trace(trace, truths, geometry(host))
        assert not report.ok
        assert FAULT.match(report.shape_fault), report.shape_fault

    def test_response_one_byte_wider_is_named(self, recursive_trace):
        # a response is the session overhead, a 2-byte hop count and 2
        # bytes a hop, exactly; the first query's, one byte wider, is the
        # fault the audit names
        host, truths = recursive_trace
        records = list(host.trace.records)
        end = next(i for i, r in enumerate(records) if r.msg_type == "EnclaveResponse")
        hops = truths[0].path_len
        assert records[end].byte_count == CT_OVERHEAD + 2 + 2 * hops
        records[end] = replace(records[end], byte_count=records[end].byte_count + 1)
        trace = AccessTrace()
        trace.records = records
        report = audit_trace(trace, truths, geometry(host))
        assert report.shape_fault == (
            f"query 0 ({truths[0].u},{truths[0].v}), record {end}: EnclaveResponse of {CT_OVERHEAD + 3 + 2 * hops} "
            f"bytes, expected EnclaveResponse of {CT_OVERHEAD + 2 + 2 * hops} bytes"
        )

    def test_requests_all_one_byte_wider_are_named(self, recursive_trace):
        # a request is the session encryption of the 8-byte pair, exactly:
        # widening every request alike keeps them constant, and still fails
        host, truths = recursive_trace
        records = [
            replace(r, byte_count=r.byte_count + 1) if r.msg_type == "EnclaveRequest" else r
            for r in host.trace.records
        ]
        assert {r.byte_count for r in records if r.msg_type == "EnclaveRequest"} == {CT_OVERHEAD + 9}
        trace = AccessTrace()
        trace.records = records
        report = audit_trace(trace, truths, geometry(host))
        assert not report.shape_ok
        assert report.shape_fault == (
            f"query 0 ({truths[0].u},{truths[0].v}), record 0: EnclaveRequest of {CT_OVERHEAD + 9} bytes, "
            f"expected EnclaveRequest of {CT_OVERHEAD + 8} bytes"
        )

    def test_record_after_the_last_query(self, recursive_trace, tmp_path):
        host, truths = recursive_trace
        records = _append_one(host.trace.records, geometry(host))
        trace = AccessTrace()
        trace.records = records
        report = audit_trace(trace, truths, geometry(host))
        assert report.shape_fault == (
            f"record {len(records) - 1}: 1 record(s) after the last query, query {len(truths) - 1}"
        )
        assert cli_audit(tmp_path, host, truths, records) == 2

    def test_records_and_no_query_are_named(self, two_branch_graph, tmp_path, capsys):
        # a header-only query log against a trace with records: no query
        # can hold them, and the audit names the first
        host, _ = run_workload(two_branch_graph, [(0, 2)])
        assert len(host.trace) == 6
        assert cli_audit(tmp_path, host, []) == 2
        assert (
            "query shape against the tree headers: FAIL (record 0: 6 record(s), and the query log holds no query)"
            in capsys.readouterr().out.splitlines()
        )

    def test_zeroed_map_leaves_fail_uniformity_per_tree(self, recursive_trace):
        host, truths = recursive_trace
        trace = AccessTrace()
        trace.records = [replace(r, leaf=0) if r.tree_id not in (None, 0) else r for r in host.trace.records]
        report = audit_trace(trace, truths, geometry(host))
        assert report.shape_ok and not report.ok
        failing = [t for t, p in report.uniformity_p.items() if p < report.uniformity_level]
        assert failing == [1, 2]
        assert "leaf uniformity, tree 1 (" in report.summary()
        assert "FAIL" in report.summary().splitlines()[3]



class TestLinkage:
    """Path ORAM reads a block at a leaf independent of every earlier read
    of it, which uniform marginals do not show.  Two runs of one query read
    the same blocks in the same order, so each round gives a pair: its leaf
    at one run and at the next, the block's old leaf and the fresh one its
    remap drew."""

    @pytest.mark.parametrize("remap", ["fresh", "predictable"])
    @pytest.mark.parametrize("mode", ["trivial", "enhanced"])
    def test_remap_is_unlinkable(self, mode, remap):
        # 20 pairs of a 60-vertex graph, each queried 40 times over a flat
        # map; a chi-square independence test over 8 x 8 bins of the leaf
        # pairs.  A remap to x -> 5x + 1 mod 2^L in place of a fresh leaf
        # is a permutation, so every marginal stays uniform, but each leaf
        # names the next one: the test must see that
        rng = random.Random(16)
        g = random_graph(rng, 60, 0.05)
        result = setup(g, mode=mode, rng=rng)
        host, server, client = deploy_inprocess(result, rng=rng)
        positions = (client if mode == "trivial" else server.controller).engine.positions
        assert positions.chain_depth == 0
        leaves, w = result.trees[0].params.leaves, positions.shape.top_entry_width
        if remap == "predictable":
            draw = positions.get_and_remap

            def get_and_remap(addr):
                old, _ = draw(addr)
                new = (5 * old + 1) % leaves
                write_entry(positions.top, addr * w, w, new)
                return old, new

            positions.get_and_remap = get_and_remap
        table = [[0] * 8 for _ in range(8)]
        for u, v in [(rng.randrange(60), rng.randrange(60)) for _ in range(20)]:
            last = None
            for _ in range(40):
                start = len(host.trace.records)
                client.query_path(u, v)
                reads = [r.leaf for r in host.trace.records[start:] if r.msg_type == "ReadPath" and r.tree_id == 0]
                for before, after in zip(last or [], reads):
                    table[before * 8 // leaves][after * 8 // leaves] += 1
                last = reads
        assert sum(map(sum, table)) >= 20 * 39
        p = stats.chi2_contingency(table).pvalue
        if remap == "fresh":
            assert p >= 0.001, f"leaves of consecutive runs are linked: p={p:.3g}"
        else:
            assert p < 1e-20, f"a predictable remap went unseen: p={p:.3g}"


TYPES = ("EnclaveRequest", "ReadPath", "WritePath", "EnclaveResponse")


@st.composite
def geometries(draw):
    """A geometry a deployment can have, at any Z and payload width, and
    whether its queries are framed: a trivial data tree of depth 0 to 6
    that caches all but its leaves (k = L), unframed, or an enhanced one
    that caches none (k = 0), with up to 3 map trees that cache none,
    framed.  A lone depth-0 tree fits both, and its framing is the trace's
    first record's, so a framed trace there that lost that record reads as
    unframed; it is drawn unframed, and framed in its own test."""
    enhanced = draw(st.booleans())
    count = draw(st.integers(1, 4)) if enhanced else 1
    trees = {}
    for t in range(count):
        depth = draw(st.integers(1 if enhanced and count == 1 else 0, 6))
        trees[t] = TreeParams(depth, draw(st.integers(1, 8)), draw(st.integers(0, 40)), 0 if enhanced else depth)
    return trees, enhanced


def simulated_trace(trees, framed, path_lens, seed):
    """A trace of one query per path length, each simulated with uniform
    leaves, and its query log."""
    rng = random.Random(seed)
    trace = AccessTrace()
    trace.records = [r for plen in path_lens for r in simulate(trees, framed, plen, rng)]
    return trace, [QueryTruth(i, i, plen) for i, plen in enumerate(path_lens)]


class TestSimulate:
    """The audit compares a trace with the concatenation of its queries'
    simulations: a simulated trace passes, and one edit of one record is
    named at the first record that differs from the model."""

    @given(geometries(), st.lists(st.integers(0, 5), min_size=1, max_size=4), st.integers(0, 2**32))
    def test_simulated_trace_has_no_fault(self, geometry_, path_lens, seed):
        trees, framed = geometry_
        trace, truths = simulated_trace(trees, framed, path_lens, seed)
        assert len(trace) == sum(2 * rounds(p) * len(trees) + 2 * framed for p in path_lens)
        assert audit_trace(trace, truths, trees).shape_fault is None

    @given(
        geometries(),
        st.lists(st.integers(0, 5), min_size=1, max_size=4),
        st.integers(0, 2**32),
        st.sampled_from(["type", "tree", "wider", "narrower", "leaf count", "write leaf", "drop", "duplicate"]),
        st.data(),
    )
    def test_one_edit_is_named_at_its_record(self, geometry_, path_lens, seed, kind, data):
        trees, framed = geometry_
        trace, truths = simulated_trace(trees, framed, path_lens, seed)
        records = trace.records
        wanted = {"leaf count": ("ReadPath", "WritePath"), "write leaf": ("WritePath",)}.get(kind, TYPES)
        e = data.draw(st.sampled_from([i for i, r in enumerate(records) if r.msg_type in wanted]))
        rec, expected = records[e], e
        if kind == "type":
            edited = [replace(rec, msg_type=data.draw(st.sampled_from([t for t in TYPES if t != rec.msg_type])))]
        elif kind == "tree":
            edited = [replace(rec, tree_id=data.draw(st.sampled_from([t for t in (None, *trees) if t != rec.tree_id])))]
        elif kind in ("wider", "narrower"):
            edited = [replace(rec, byte_count=rec.byte_count + (1 if kind == "wider" else -1))]
        elif kind == "leaf count":
            edited = [replace(rec, leaf=trees[rec.tree_id].leaves)]
        elif kind == "write leaf":
            # at depth 0 the one other leaf is the leaf count itself
            edited = [replace(rec, leaf=rec.leaf ^ 1)]
        elif kind == "drop":
            edited = []
        else:
            edited, expected = [rec, rec], e + 1
        trace.records = records[:e] + edited + records[e + 1 :]
        fault = audit_trace(trace, truths, trees).shape_fault
        assert fault is not None
        assert FAULT.match(fault) or fault.startswith("record "), fault
        assert int(re.search(r"record (\d+): ", fault).group(1)) == expected, fault

    def test_a_lone_depth_zero_tree_takes_framing_from_the_first_record(self):
        # its header fits both deployments: a framed trace passes, and one
        # that lost its first request reads as unframed, so its first query
        # matches its rounds and the fault is named at its first response
        trees = {0: TreeParams(0, 5, 2, 0)}
        trace, truths = simulated_trace(trees, True, [2, 0], 1)
        assert audit_trace(trace, truths, trees).shape_fault is None
        trace.records = trace.records[1:]
        fault = audit_trace(trace, truths, trees).shape_fault
        assert fault.startswith("query 1 (1,1), record 6: EnclaveResponse of "), fault

    @pytest.mark.parametrize(
        "mode, budget, chain_depth",
        [("trivial", None, 0), ("enhanced", None, 0), ("enhanced", 64, 1)],
        ids=["trivial", "enhanced-flat", "enhanced-chain"],
    )
    def test_round_classes_follow_from_the_simulator(self, mode, budget, chain_depth):
        # every ordered pair of a 12-vertex graph with disconnected pairs,
        # grouped by the host's view of its query with leaves masked, which
        # is its simulated view: the groups are the attack lab's classes.
        # An enhanced response tells |p| as the round count does
        rng = random.Random(21)
        g = random_graph(rng, 12, 0.12)
        oracle = PathOracle(g)
        assert any(u != v and oracle.path(u, v) is None for u in range(12) for v in range(12))
        host, _, client = deploy_inprocess(setup(g, mode=mode, rng=rng, budget=budget), rng=rng)
        trees = geometry(host)
        assert len(trees) == 1 + chain_depth
        groups = defaultdict(set)
        for u in range(12):
            for v in range(12):
                before = len(host.trace)
                path = client.query_path(u, v)
                view = masked(host.trace.records[before:])
                assert view == masked(simulate(trees, mode == "enhanced", len(path) - 1 if path else 0)), (u, v)
                groups[tuple(view)].add((u, v))
        assert sorted(map(sorted, groups.values())) == sorted(map(sorted, round_classes(g).values()))

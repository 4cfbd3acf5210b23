"""Acceptance suite: one test per acceptance criterion, each printing a
PASS line with its measured figures (failures raise with details).

Desk-scale note: the full suite runs on graphs of at most 200 vertices
plus one 5,000-vertex sparse smoke instance.  The 102,037-vertex
city-scale deployment is out of reach on a desk machine (its all-pairs
next-hop table holds ~10^10 entries) and is intentionally not attempted;
see README.
"""

import gc
import random
import statistics
import time
from collections import Counter
from dataclasses import replace

import pytest

from obge.attack import QueryRecovery, ahu_label, path_length_classes, round_classes
from obge.audit import (
    QueryShape,
    QueryTruth,
    audit_trace,
    repeat_rate_zscore,
    two_sample_pvalue,
    uniformity_pvalue,
)
from obge.crypto import keygen
from obge.gkt import GktScheme
from obge.graph import Graph, PathOracle, compute_spdx
from obge.protocol import rounds, setup
from obge.server import deploy_inprocess
from obge.storage import AccessTrace
from conftest import chain_engine, chain_graph, random_graph

SIG = 0.01


def _report(name: str, detail: str) -> None:
    print(f"\nACCEPTANCE {name}: PASS ({detail})")


def _component_graph(rng, n_vertices, comp_lo=3, comp_hi=7, weighted=True) -> Graph:
    """Sparse graph made of many small weakly-connected components."""
    g = Graph(n_vertices, directed=True)
    start = 0
    while start < n_vertices:
        size = min(rng.randint(comp_lo, comp_hi), n_vertices - start)
        members = list(range(start, start + size))
        for i in range(1, size):  # spanning chain keeps the component connected
            w = rng.randint(1, 9) if weighted else 1
            g.add_edge(members[i - 1], members[i], w)
        for _ in range(size):
            u, v = rng.sample(members, 2)
            w = rng.randint(1, 9) if weighted else 1
            g.add_edge(u, v, w)
        start += size
    return g


def _all_pairs_match(g: Graph, client, oracle: PathOracle) -> int:
    n = g.vertex_count
    checked = 0
    for u in range(n):
        for v in range(n):
            got = client.query_path(u, v)
            want = oracle.path(u, v)
            assert got == want, f"pair ({u},{v}): scheme {got} oracle {want}"
            checked += 1
    return checked


# ---------------------------------------------------------------------------
# Criterion 1: oracle equivalence, 100 random graphs, all pairs, both modes

def test_oracle_equivalence_100_graphs():
    """Exact reveal(query) == oracle over every ordered pair, trivial and
    enhanced modes.  Graph sizes span 5..200; the distribution is skewed
    small so the all-pairs sweep fits the stated runtime budget."""
    rng = random.Random(0xACCE91)
    sizes = (
        [rng.randint(5, 25) for _ in range(95)]
        + [rng.randint(35, 45), rng.randint(35, 45), rng.randint(60, 70), rng.randint(95, 110)]
        + [200]
    )
    t0 = time.time()
    total_pairs = 0
    for i, n in enumerate(sizes):
        weighted = i % 2 == 0
        p = rng.uniform(0.1, 0.4) if n <= 45 else (2.2 / n if n <= 110 else 1.2 / n)
        g = random_graph(rng, n, p, weighted=weighted, directed=True)
        oracle = PathOracle(g)
        for mode in ("trivial", "enhanced"):
            run_rng = random.Random(i * 1000 + (mode == "enhanced"))
            result = setup(g, mode=mode, rng=run_rng)
            _, _, client = deploy_inprocess(result, rng=run_rng)
            total_pairs += _all_pairs_match(g, client, oracle)
    elapsed = time.time() - t0
    assert elapsed < 300, f"exceeded the 5-minute budget: {elapsed:.0f}s"
    _report(
        "oracle-equivalence",
        f"100 graphs, {total_pairs} queries across both modes, exact match, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 2: leakage is exactly path length (round counts and widths)

@pytest.mark.parametrize("mode", ["trivial", "enhanced"])
def test_leakage_round_counts(mode):
    rng = random.Random(0x1EAC)
    checked = 0
    for trial in range(4):
        g = random_graph(rng, rng.randint(8, 28), 0.2, weighted=trial % 2 == 0)
        run_rng = random.Random(trial)
        result = setup(g, mode=mode, rng=run_rng)
        host, _, client = deploy_inprocess(result, rng=run_rng)
        # the audit's one shape rule, with the geometry the host stores:
        # rounds(|p|) rounds per tree in order, each of its tree's constant
        # width; the attack lab's round classes hold each pair at the count
        # of data-tree rounds it left
        shape = QueryShape({t: tree.params for t, tree in host.trees.items()}, framed=mode == "enhanced")
        classes = round_classes(g)
        for u in range(g.vertex_count):
            for v in range(g.vertex_count):
                before = len(host.trace)
                path = client.query_path(u, v)
                plen = len(path) - 1 if path else 0
                records = host.trace.records[before:]
                fault = shape.check(records, plen, before)
                assert fault is None, f"({u},{v}), |p|={plen}: {fault}"
                data_rounds = sum(r.msg_type == "ReadPath" and r.tree_id == 0 for r in records)
                assert (u, v) in classes[data_rounds], f"({u},{v}) left {data_rounds} data-tree rounds"
                checked += rounds(plen)
    _report(f"leakage-rounds[{mode}]", f"{checked} rounds, all of the audited shape")


# ---------------------------------------------------------------------------
# Criterion 3: access-pattern indistinguishability

def test_access_pattern_indistinguishability():
    """Two distinct equal-length queries, 1000 executions each: two-sample
    chi-square cannot separate their leaf samples; repeated executions of a
    single query give uniform, serially uncorrelated leaves."""
    g = Graph(8, directed=True)
    for u, v in [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]:
        g.add_edge(u, v)
    rng = random.Random(0x1213)
    result = setup(g, mode="trivial", rng=rng)
    host, _, client = deploy_inprocess(result, rng=rng)
    params = host.trees[0].params
    assert params.depth <= 12

    reps = 1000
    samples = {q: [] for q in [(0, 3), (4, 7)]}
    order = [(0, 3), (4, 7)] * reps
    rng.shuffle(order)
    for q in order:
        before = len(host.trace)
        client.query(*q)
        samples[q].extend(
            r.leaf for r in host.trace.records[before:] if r.msg_type == "ReadPath"
        )
    p_two = two_sample_pvalue(samples[(0, 3)], samples[(4, 7)], params.leaves)
    assert p_two >= SIG, f"equal-length queries distinguishable: p={p_two:.4f}"

    before = len(host.trace)
    for _ in range(reps):
        client.query(0, 3)
    repeat_leaves = [
        r.leaf for r in host.trace.records[before:] if r.msg_type == "ReadPath"
    ]
    p_uni = uniformity_pvalue(repeat_leaves, params.leaves)
    z = repeat_rate_zscore(repeat_leaves, params.leaves)
    assert p_uni >= SIG, f"repeated-query leaves not uniform: p={p_uni:.4f}"
    assert abs(z) < 2.576, f"serial leaf correlation beyond chance: z={z:.2f}"
    _report(
        "access-indistinguishability",
        f"two-sample p={p_two:.3f}, uniformity p={p_uni:.3f}, lag-1 z={z:+.2f}, "
        f"{reps} executions per query at depth {params.depth}",
    )


# ---------------------------------------------------------------------------
# Criterion 4: empirical stash bound at Z=5, depth 12

def _stash_bound_z5_depth12(cached: int) -> None:
    """10^5 accesses on an almost full depth-12 tree, made by the query
    engine over a flat position map, with the top `cached` levels in the
    engine: the blocks it holds peak at most at 64 plus the Z(2^k - 1)
    slots of the top buckets, at k=0 a stash of at most 64, and never trip
    the limit of STASH_MAX = 128 plus those slots.  The tree holds a block
    for each pair of 143 vertices; 15 chains of 128 hops run through them,
    and each query walks one whole chain and ends on the block (d, d), so
    every access remaps a real block."""
    rng = random.Random(0x57A5)
    keys = keygen()
    chains, length = 15, 128  # 143^2 = 20,449 blocks fill all but 31 of the 5 * 4096 slots of depth 12
    engine, _, tree, _ = chain_engine(keys, chains, length, rng, cached=cached)
    assert tree.params.depth == 12 and tree.params.cached == cached
    oram = engine.oram
    top_slots = 5 * ((1 << cached) - 1)
    assert oram.held_max == 128 + top_slots
    while oram.access_count < 100_000:
        engine.query(0, length + rng.randrange(chains))
    bound = 64 + top_slots
    assert oram.max_stash_seen <= bound, f"held blocks peaked at {oram.max_stash_seen}"
    _report(
        "stash-bound",
        f"Z=5, depth 12, {cached} cached levels, {(chains + length) ** 2} blocks, "
        f"{oram.access_count} accesses, peak held {oram.max_stash_seen} <= {bound}",
    )


def test_stash_bound_z5_depth12():
    _stash_bound_z5_depth12(cached=0)


def test_stash_bound_z5_depth12_cached_top():
    # the top 63 buckets' 315 slots are held blocks too: the bound counts
    # them at the memory they took as buckets
    _stash_bound_z5_depth12(cached=6)


def test_stash_bound_z5_depth12_trivial_k():
    # the k the trivial client keeps of a depth-12 tree: 4,095 top buckets'
    # 20,475 slots are held blocks, and the host stores the leaf level
    # alone, whose 20,480 slots the 20,449 blocks all but fill
    _stash_bound_z5_depth12(cached=12)


# ---------------------------------------------------------------------------
# Criterion 5: bandwidth accounting vs the 2|p|Z·log N reference

def test_bandwidth_accounting():
    # the host moves its 1 level of each path, 2(|p|+1)Z(L+1-k) blocks a
    # query; the reference models the whole path, which the host and the
    # client's cached top move together: 2(|p|+1)Z(L+1) lies within 2x of it
    g = Graph(15, directed=True)
    for i in range(14):
        g.add_edge(i, i + 1)
    rng = random.Random(0xBA4D)
    result = setup(g, mode="trivial", rng=rng)
    host, _, client = deploy_inprocess(result, rng=rng)
    params = host.trees[0].params
    # 15 vertices: a depth-6 tree for the 210 ordered pairs; the client
    # keeps 6 levels, the host 1
    assert (params.depth, params.cached) == (6, 6)
    log_n = (params.node_count).bit_length()  # ceil(log2 nodes) for 2^k - 1 nodes
    z = params.bucket_size
    lines = []
    for plen in range(1, 8):
        before = len(host.trace)
        path = client.query_path(0, plen)
        assert path is not None and len(path) - 1 == plen
        moved = sum(
            r.byte_count // params.bucket_width * z
            for r in host.trace.records[before:]
            if r.msg_type in ("ReadPath", "WritePath")
        )
        expected = 2 * rounds(plen) * z * (params.depth + 1 - params.cached)
        whole = 2 * rounds(plen) * z * (params.depth + 1)
        formula = 2 * plen * z * log_n
        assert moved == expected, f"|p|={plen}: host moved {moved}, expected {expected}"
        assert formula / 2 <= whole <= 2 * formula, (
            f"|p|={plen}: whole paths of {whole} blocks outside factor 2 of reference {formula}"
        )
        lines.append(f"|p|={plen}: host {moved}, whole paths {whole}, reference {formula}")
    print("\n" + "\n".join(lines))
    _report(
        "bandwidth",
        "7 path lengths, host = 2(|p|+1)Z(L+1-k), whole paths 2(|p|+1)Z(L+1) within 2x of 2|p|Z·logN",
    )


# ---------------------------------------------------------------------------
# Criterion 6: recursive position map under a 1/16 budget

def test_recursive_pm_budget():
    rng = random.Random(0xB06E7)
    total_pairs = 0
    for n in (100, 128):
        g = random_graph(rng, n, 2.5 / n, weighted=True, directed=True)
        flat_bytes = n * n * 8
        budget = flat_bytes // 16
        run_rng = random.Random(n)
        result = setup(g, mode="enhanced", budget=budget, rng=run_rng)
        host, server, client = deploy_inprocess(result, rng=run_rng)
        controller = server.controller
        assert controller.state.positions.chain_depth >= 1
        block_widths = [controller.engine.oram.params.block_width] + [
            lvl.params.block_width for lvl in controller.state.positions.levels
        ]
        slack = max(block_widths)
        oracle = PathOracle(g)
        worst = 0
        for u in range(n):
            for v in range(n):
                got = client.query_path(u, v)
                assert got == oracle.path(u, v)
                resident = controller.resident_bytes()
                worst = max(worst, resident)
                assert resident <= budget + slack, (
                    f"resident {resident} exceeds budget {budget} + block {slack}"
                )
        total_pairs += n * n
        print(
            f"\n|V|={n}: budget {budget}B (flat/16), chain depth "
            f"{controller.state.positions.chain_depth}, peak resident {worst}B"
        )
    _report("recursive-pm-budget", f"{total_pairs} queries exact under flat/16 budgets")


# ---------------------------------------------------------------------------
# Criterion 7: latency grows with path length

def latency_samples(lengths, reps, seed):
    """Per length, `reps` CPU times in microseconds of query (0, length) on
    a chain graph, trivial mode, Z=5, deployed in process.  A sample is the
    querying thread's CPU time: in process the whole query runs in that
    thread, so it is the query's latency less any time the thread spends
    descheduled, which a stall on a shared machine would add.  Reps run
    round-robin over the lengths so that drift cannot bias one length, with
    the collector off so that its pauses stay out of the samples."""
    rng = random.Random(seed)
    _, _, client = deploy_inprocess(setup(chain_graph(max(lengths) + 1), rng=rng), rng=rng)
    for plen in lengths:  # warmup: every length once, untimed
        client.query(0, plen)
    samples = {plen: [] for plen in lengths}
    gc.collect()
    gc.disable()
    try:
        for _ in range(reps):
            for plen in lengths:
                t0 = time.thread_time()
                client.query(0, plen)
                samples[plen].append((time.thread_time() - t0) * 1e6)
    finally:
        gc.enable()
    return samples


def test_latency_shape():
    # 150 reps a length: at 50, drift in machine speed swapped two adjacent
    # medians (about 60 us apart) in about one run of 50 to 100
    samples = latency_samples(range(1, 11), reps=150, seed=0xBE)
    medians = [statistics.median(vals) for vals in samples.values()]
    assert all(b > a for a, b in zip(medians, medians[1:])), f"medians not strictly increasing: {medians}"
    # no significance test on the slope: were the samples exchangeable (no
    # effect of length), the 10 medians would rise strictly with
    # probability at most 1/10! = 2.8e-7, far below SIG, so the check above
    # is at least as strong as a one-sided t test at SIG
    slope, _ = statistics.linear_regression(
        [plen for plen, vals in samples.items() for _ in vals],
        [us for vals in samples.values() for us in vals],
    )
    assert slope > 0
    _report("latency-shape", f"lengths 1..10 x150, slope {slope:.0f}us/hop, medians strictly increasing")


# ---------------------------------------------------------------------------
# Criterion 8: attack separation between the baseline and the oblivious scheme

def family_ok(reports) -> bool:
    """One statistical verdict over a family of audit reports: every
    uniformity and two-sample p-value they hold, Bonferroni at SIG.  Under
    an unbiased scheme it fails with probability at most SIG, however many
    trials the family has."""
    ps = [p for r in reports for p in (*r.uniformity_p.values(), *r.pairwise_p.values())]
    return min(ps) >= SIG / len(ps)


def _resample_tree(records, tree, draw):
    """The records with each read/write pair on ``tree`` moved to a leaf
    from ``draw()``: the shape holds, the leaves follow the sampler."""
    out = list(records)
    for i, r in enumerate(out):
        if r.tree_id == tree and r.msg_type == "ReadPath":
            leaf = draw()
            out[i], out[i + 1] = replace(r, leaf=leaf), replace(out[i + 1], leaf=leaf)
    return out


def _geometry(host):
    return {t: tree.params for t, tree in host.trees.items()}


@pytest.fixture(scope="module")
def separation_trials():
    """The attack-separation experiment's 20 seeded trials: per trial with
    a reachable pair, its graph, its pairs, and the oblivious run's host,
    query truths and audit report.  Each workload is at most 40 queries of
    length >= 1."""
    rng = random.Random(0xA77)
    trials = []
    for trial in range(20):
        n = rng.randint(10, 50)
        g = random_graph(rng, n, rng.uniform(1.2, 2.5) / n, directed=True)
        pairs = sorted(compute_spdx(g))
        if not pairs:
            continue
        run_rng = random.Random(trial)
        result = setup(g, mode="trivial", rng=run_rng)
        host, _, client = deploy_inprocess(result, rng=run_rng)
        lengths = path_length_classes(g)
        workload = [p for p in pairs if lengths[p] >= 1]
        rng.shuffle(workload)
        truths = []
        for u, v in workload[:40]:
            client.query(u, v)
            truths.append(QueryTruth(u, v, lengths[(u, v)]))
        trials.append((g, pairs, host, truths, audit_trace(host.trace, truths, _geometry(host))))
    return trials


def test_attack_separation(separation_trials):
    unique_total = unique_hit = 0
    audited = 0
    for g, pairs, host, truths, report in separation_trials:
        # baseline: full workload observed, closed-world matching
        scheme = GktScheme(g)
        seqs = [scheme.query(u, v)[1] for u, v in pairs]
        qr = QueryRecovery(g)
        cands = qr.candidates(seqs, assume_complete=True)
        trees = {t.root: t for t in qr.trees}
        sig_count = Counter()
        sigs = {}
        for u, v in pairs:
            t = trees[v]
            sig = (t.depth(u), ahu_label(t.children, v))
            sigs[(u, v)] = sig
            sig_count[sig] += 1
        for truth, cs in zip(pairs, cands):
            assert truth in cs  # soundness
            if sig_count[sigs[truth]] == 1:
                unique_total += 1
                unique_hit += cs == {truth}

        # oblivious scheme: the trace has the audited shape, so it admits
        # only round classes, and each query hides in all of its class
        assert report.shape_ok, report.summary()
        classes = round_classes(g)
        class_sizes = Counter(path_length_classes(g).values())
        for t in truths:
            assert (t.u, t.v) in classes[rounds(t.path_len)]
            assert len(classes[rounds(t.path_len)]) == class_sizes[t.path_len]
        audited += len(truths)
    # one leaf-statistics verdict over all trials, at SIG family-wise
    assert family_ok([r for *_, r in separation_trials]), "\n\n".join(r.summary() for *_, r in separation_trials)

    accuracy = unique_hit / unique_total if unique_total else 1.0
    assert accuracy >= 0.9, f"unique-signature recovery only {accuracy:.2f}"
    _report(
        "attack-separation",
        f"baseline recovery {unique_hit}/{unique_total} on unique signatures; "
        f"{audited} oblivious queries pass the audit, each among its whole round class",
    )


def test_family_verdict_fails_one_skewed_trial(separation_trials):
    # the first trial's data-tree leaves stuck in the 8 lowest leaves, the
    # skewed sampler of the audit's unit tests; the other trials honest
    rng = random.Random(0x5CE)
    reports = [r for *_, r in separation_trials]
    _, _, host, truths, _ = separation_trials[0]
    trace = AccessTrace()
    trace.records = _resample_tree(host.trace.records, 0, lambda: rng.randrange(8))
    skewed = audit_trace(trace, truths, _geometry(host))
    assert skewed.shape_ok
    assert not family_ok([skewed, *reports[1:]])


def test_family_verdict_fails_one_biased_tree(separation_trials):
    # an enhanced run over a recursive map of chain depth 3 joins the
    # family: honest it passes, and with one map tree's leaves in the lower
    # half of its 64, the rest honest, the family fails
    rng = random.Random(11)
    g = random_graph(rng, 36, 0.12)
    run_rng = random.Random(2)
    host, _, client = deploy_inprocess(setup(g, mode="enhanced", budget=16, rng=run_rng), rng=run_rng)
    truths = []
    for _ in range(120):
        u, v = rng.randrange(36), rng.randrange(36)
        path = client.query_path(u, v)
        truths.append(QueryTruth(u, v, len(path) - 1 if path else 0))
    assert sorted(host.trees) == [0, 1, 2, 3] and host.trees[1].params.leaves == 64
    reports = [r for *_, r in separation_trials]
    assert family_ok([*reports, audit_trace(host.trace, truths, _geometry(host))])
    trace = AccessTrace()
    trace.records = _resample_tree(host.trace.records, 1, lambda: rng.randrange(32))
    biased = audit_trace(trace, truths, _geometry(host))
    assert biased.shape_ok
    assert not family_ok([*reports, biased])


# ---------------------------------------------------------------------------
# Desk-scale substitute for the city-size deployment: 5,000-vertex smoke

def test_five_thousand_vertex_smoke():
    rng = random.Random(0x5000)
    g = _component_graph(rng, 5000)
    oracle = PathOracle(g)
    run_rng = random.Random(50)
    result = setup(g, mode="trivial", rng=run_rng)
    host, _, client = deploy_inprocess(result, rng=run_rng)
    checked = 0
    for _ in range(40):
        u, v = rng.randrange(5000), rng.randrange(5000)
        assert client.query_path(u, v) == oracle.path(u, v)
        checked += 1
    for _ in range(10):  # same-component pairs so real chains are exercised
        base = rng.randrange(0, 4990)
        u, v = base, base + rng.randint(1, 4)
        assert client.query_path(u, v) == oracle.path(u, v)
        checked += 1
    _report(
        "5000-vertex-smoke",
        f"{result.spdx_size} entries, depth {result.params.data_depth}, {checked} queries exact",
    )

#!/usr/bin/env python3
"""Side-by-side leakage demo: baseline encrypted dictionary vs the
oblivious scheme.

Runs the full query workload on a random graph through both, then shows
what each trace lets an attacker conclude: candidate-set sizes from token
sequences (baseline) against the round classes that round counts alone
admit (oblivious scheme).  Exits 1 if a baseline candidate set misses its
own query or is coarser than that query's round class: the attack lab
would then be unsound.

    PYTHONPATH=src python scripts/run_attack_demo.py [--vertices N] [--seed S]
"""

import argparse
import random
import sys
from collections import Counter

from obge.attack import QueryRecovery, path_length_classes, round_classes
from obge.gkt import GktScheme
from obge.graph import Graph, compute_spdx
from obge.protocol import rounds


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    g = Graph(n, directed=True)
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                g.add_edge(u, v)
    return g


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--vertices", type=int, default=30)
    ap.add_argument("--edge-prob", type=float, default=0.08)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    g = random_graph(rng, args.vertices, args.edge_prob)
    pairs = [pair for pair, _ in compute_spdx(g).items()]
    print(f"graph: {args.vertices} vertices, {len(g.edges)} edges, {len(pairs)} connected pairs")

    scheme = GktScheme(g)
    sequences = [scheme.query(u, v)[1] for u, v in pairs]
    recovery = QueryRecovery(g)
    candidates = recovery.candidates(sequences, assume_complete=True)

    lengths = path_length_classes(g)
    classes = round_classes(g)
    round_class = {p: classes[rounds(lengths[p])] for p in pairs}
    unsound = [
        f"({u},{v}): {'misses its query' if (u, v) not in c else 'is coarser than its round class'}"
        for (u, v), c in zip(pairs, candidates)
        if (u, v) not in c or not c <= round_class[(u, v)]
    ]

    gkt_sizes = Counter(len(c) for c in candidates)
    exact = sum(1 for truth, c in zip(pairs, candidates) if c == {truth})
    print("\nbaseline (token-sequence leakage, full workload observed):")
    print(f"  exactly recovered queries: {exact}/{len(pairs)}")
    print(f"  candidate-set size histogram: {dict(sorted(gkt_sizes.items()))}")

    obge_sizes = Counter(len(round_class[p]) for p in pairs)
    print("\noblivious scheme (round-count leakage only):")
    print(f"  round-class size histogram: {dict(sorted(obge_sizes.items()))}")

    mean_gkt = sum(len(c) for c in candidates) / len(pairs)
    mean_obge = sum(len(round_class[p]) for p in pairs) / len(pairs)
    print(f"\nmean candidates per query: baseline {mean_gkt:.1f} vs round count only {mean_obge:.1f}")
    if unsound:
        print(f"\nunsound: {len(unsound)} baseline candidate set(s); the first: {unsound[0]}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

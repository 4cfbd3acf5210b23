#!/usr/bin/env python3
"""Side-by-side leakage demo: baseline encrypted dictionary vs the
oblivious scheme.

Runs the full query workload on a random graph through both, then shows
what each trace lets an attacker conclude: candidate-set sizes from token
sequences (baseline) against candidate sets from round counts alone
(oblivious scheme).
"""

import argparse
import random
from collections import Counter

from obge.attack import QueryRecovery, length_classes, path_length_classes
from obge.gkt import GktScheme
from obge.graph import Graph, compute_spdx


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    g = Graph(n, directed=True)
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                g.add_edge(u, v)
    return g


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--vertices", type=int, default=30)
    ap.add_argument("--edge-prob", type=float, default=0.08)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    g = random_graph(rng, args.vertices, args.edge_prob)
    pairs = sorted(compute_spdx(g))
    print(f"graph: {args.vertices} vertices, {len(g.edges)} edges, {len(pairs)} connected pairs")

    scheme = GktScheme(g)
    sequences = [scheme.query(u, v)[1] for u, v in pairs]
    recovery = QueryRecovery(g)
    candidates = recovery.candidates(sequences, assume_complete=True)

    lengths = path_length_classes(g)
    gkt_sizes = Counter(len(c) for c in candidates)
    exact = sum(1 for truth, c in zip(pairs, candidates) if c == {truth})
    print("\nbaseline (token-sequence leakage, full workload observed):")
    print(f"  exactly recovered queries: {exact}/{len(pairs)}")
    print(f"  candidate-set size histogram: {dict(sorted(gkt_sizes.items()))}")

    class_size = {d: len(pairs) for d, pairs in length_classes(g).items()}
    obge_sizes = Counter(class_size[lengths[p]] for p in pairs)
    print("\noblivious scheme (round-count leakage only):")
    print(f"  candidate-set size histogram: {dict(sorted(obge_sizes.items()))}")

    mean_gkt = sum(len(c) for c in candidates) / len(pairs)
    mean_obge = sum(class_size[lengths[p]] for p in pairs) / len(pairs)
    print(f"\nmean candidates per query: baseline {mean_gkt:.1f} vs length-only {mean_obge:.1f}")


if __name__ == "__main__":
    main()

"""Query recovery against the baseline scheme's token-sequence leakage.

Offline, the attacker (who knows the plaintext graph) builds every
destination's next-hop tree and canonical labels.  Online, observed token
sequences are grouped by shared tokens -- sequences ending in the same
token share a destination -- and merged into a fragment of that
destination's tree.  Candidates for each observation are all plaintext
queries consistent with the fragment: with the closed-world assumption
(every distinct query to an observed destination was seen) consistency is
rooted-tree isomorphism on canonical labels; without it, any
root-preserving embedding of the fragment counts.

The oblivious scheme leaks a query's round count alone: its records are
``audit.simulate``'s for that count.  So the most that its trace admits
for a query is the query's round class (``round_classes``): every pair
with as many rounds, ``protocol.rounds(|p|)``.

``obge attack GRAPH`` sets the two side by side: it queries every
connected pair once through the baseline, in ``path_length_classes``
order, so the closed world holds, and checks each candidate set against
the query's round class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import Graph, compute_spdx
from .protocol import rounds


@dataclass
class SPTree:
    """Next-hop tree toward one destination: parent(w) is the vertex after
    w on the canonical shortest path to the root."""

    root: int
    parent: dict[int, int]
    children: dict[int, list[int]] = field(default_factory=dict)

    def __post_init__(self):
        if not self.children:
            self.children = {self.root: []}
            for w, p in self.parent.items():
                self.children.setdefault(w, [])
                self.children.setdefault(p, []).append(w)

    @property
    def vertices(self) -> set[int]:
        return set(self.children)

    def depth(self, w: int) -> int:
        d = 0
        while w != self.root:
            w = self.parent[w]
            d += 1
        return d


def build_sp_trees(g: Graph) -> list[SPTree]:
    """One tree per destination; vertices that cannot reach it are omitted."""
    matrix = compute_spdx(g)
    parents: list[dict[int, int]] = [{} for _ in range(g.vertex_count)]
    for (u, v), w in matrix.items():
        parents[v][u] = w
    return [SPTree(root=v, parent=parents[v]) for v in range(g.vertex_count)]


def ahu_label(children: dict, root, mark=None) -> str:
    """Canonical label of a rooted tree: leaves are "()", internal nodes
    wrap their children's sorted labels.  With mark set, that node's label
    carries a "*" so marked trees compare up to mark-preserving
    isomorphism.  Iterative post-order, safe for deep chains."""
    labels: dict = {}
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            inner = "".join(sorted(labels[c] for c in children.get(node, [])))
            star = "*" if node == mark else ""
            labels[node] = f"({star}{inner})"
        else:
            stack.append((node, True))
            for c in children.get(node, []):
                stack.append((c, False))
    return labels[root]


def _kuhn_match(left: list, right: list, ok) -> bool:
    """True when every left node can be matched to a distinct right node
    under the ok(l, r) relation."""
    if len(left) > len(right):
        return False
    match: dict = {}

    def try_assign(l, seen: set) -> bool:
        for r in right:
            if r in seen or not ok(l, r):
                continue
            seen.add(r)
            if r not in match or try_assign(match[r], seen):
                match[r] = l
                return True
        return False

    for l in left:
        if not try_assign(l, set()):
            return False
    return True


@dataclass
class Fragment:
    """Merged token chains sharing one final token: a parent-closed piece
    of some destination tree, identities still opaque."""

    root: bytes
    parent: dict[bytes, bytes]
    children: dict[bytes, list[bytes]]
    starts: list[tuple[int, bytes]]  # (observation index, first token)

    def root_path(self, node: bytes) -> list[bytes]:
        path = [node]
        while path[-1] != self.root:
            path.append(self.parent[path[-1]])
        path.reverse()
        return path


def _group_observations(observed: list[list[bytes]]) -> list[Fragment]:
    groups: dict[bytes, Fragment] = {}
    for idx, seq in enumerate(observed):
        if not seq:
            continue
        root = seq[-1]
        frag = groups.get(root)
        if frag is None:
            frag = Fragment(root=root, parent={}, children={root: []}, starts=[])
            groups[root] = frag
        for child, par in zip(seq, seq[1:]):
            if child in frag.parent:
                continue
            frag.parent[child] = par
            frag.children.setdefault(child, [])
            frag.children.setdefault(par, []).append(child)
        frag.starts.append((idx, seq[0]))
    return list(groups.values())


class QueryRecovery:
    """Precomputed per-graph attack state."""

    def __init__(self, g: Graph):
        self.graph = g
        self.trees = build_sp_trees(g)
        # marked-label index: (tree label with query source marked) -> queries
        self.marked_index: dict[str, list[tuple[int, int]]] = {}
        for tree in self.trees:
            v = tree.root
            for u in tree.vertices:
                if u == v:
                    continue
                lab = ahu_label(tree.children, v, mark=u)
                self.marked_index.setdefault(lab, []).append((u, v))

    def candidates(
        self, observed: list[list[bytes]], assume_complete: bool = False
    ) -> list[set[tuple[int, int]]]:
        """Candidate plaintext queries per observation, in input order.

        The true query is always contained in its candidate set; with
        assume_complete the adversary additionally treats each observed
        destination's fragment as that destination's whole tree.
        """
        out: list[set[tuple[int, int]]] = [set() for _ in observed]
        for frag in _group_observations(observed):
            if assume_complete:
                found = self._match_complete(frag)
            else:
                found = self._match_embedding(frag)
            for idx, cands in found:
                out[idx] = cands
        return out

    def _match_complete(self, frag: Fragment) -> list[tuple[int, set[tuple[int, int]]]]:
        results = []
        for idx, start in frag.starts:
            lab = ahu_label(frag.children, frag.root, mark=start)
            results.append((idx, set(self.marked_index.get(lab, []))))
        return results

    def _match_embedding(self, frag: Fragment) -> list[tuple[int, set[tuple[int, int]]]]:
        results: list[tuple[int, set[tuple[int, int]]]] = [(idx, set()) for idx, _ in frag.starts]
        frag_depth = {n: len(frag.root_path(n)) - 1 for n in frag.children}
        for tree in self.trees:
            memo: dict[tuple[bytes, int], bool] = {}

            def can_embed(f: bytes, t: int) -> bool:
                key = (f, t)
                hit = memo.get(key)
                if hit is not None:
                    return hit
                memo[key] = False  # cycles impossible; placeholder for re-entry
                fc = frag.children.get(f, [])
                tc = tree.children.get(t, [])
                memo[key] = _kuhn_match(fc, tc, can_embed)
                return memo[key]

            if not can_embed(frag.root, tree.root):
                continue
            for pos, (idx, start) in enumerate(frag.starts):
                d = frag_depth[start]
                fpath = frag.root_path(start)
                for u in tree.vertices:
                    if u == tree.root or tree.depth(u) != d:
                        continue
                    if self._pinned_embeds(frag, fpath, tree, u, can_embed):
                        results[pos][1].add((u, tree.root))
        return results

    @staticmethod
    def _pinned_embeds(frag: Fragment, fpath: list[bytes], tree: SPTree, u: int, can_embed) -> bool:
        """Root-preserving embedding with the chain fpath forced onto the
        tree's root path to u; off-path children must still match."""
        tpath = [u]
        while tpath[-1] != tree.root:
            tpath.append(tree.parent[tpath[-1]])
        tpath.reverse()
        if len(tpath) != len(fpath):
            return False
        for i, (f, t) in enumerate(zip(fpath, tpath)):
            fc = list(frag.children.get(f, []))
            tc = list(tree.children.get(t, []))
            if i + 1 < len(fpath):
                fc.remove(fpath[i + 1])
                tc.remove(tpath[i + 1])
            if not _kuhn_match(fc, tc, can_embed):
                return False
        return True


def path_length_classes(g: Graph) -> dict[tuple[int, int], int]:
    """Edge count of the canonical shortest path for every connected pair."""
    matrix = compute_spdx(g)
    out: dict[tuple[int, int], int] = {}
    for (u, v), _ in matrix.items():
        d = 0
        cur = u
        while cur != v:
            cur = matrix.next_hop(cur, v)
            d += 1
        out[(u, v)] = d
    return out


def round_classes(g: Graph) -> dict[int, set[tuple[int, int]]]:
    """What round-count leakage alone admits: ``protocol.rounds(d)`` ->
    every pair whose path has d edges, from one next-hop matrix.  Class
    rounds(0) holds the diagonal and the disconnected pairs."""
    lengths = path_length_classes(g)
    n = g.vertex_count
    classes = {rounds(0): {(u, v) for u in range(n) for v in range(n) if (u, v) not in lengths}}
    for pair, d in lengths.items():
        classes.setdefault(rounds(d), set()).add(pair)
    return classes

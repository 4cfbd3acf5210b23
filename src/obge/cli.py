"""Command-line front end.

Subcommands: setup, serve, query, audit, attack.  Exit codes:
0 success, 1 usage, 2 protocol or integrity failure, 3 capacity.

``obge attack GRAPH`` runs the query-recovery attack on the plain
baseline over every connected pair, and exits 2 when a candidate set
misses its own query or is coarser than the query's round class: the
attack lab is then unsound.
"""

from __future__ import annotations

import argparse
import logging
import signal
import sys
from pathlib import Path

from .exceptions import (
    CapacityError,
    ConfigError,
    GraphFormatError,
    IntegrityError,
    ProtocolError,
)
from .graph import load_graph

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PROTOCOL = 2
EXIT_CAPACITY = 3


def cmd_setup(args) -> int:
    from .protocol import MODE_ENHANCED, MODE_TRIVIAL, save_state, setup
    from .storage import tree_file, tree_files

    with open(args.graph) as f:
        g = load_graph(f, directed=not args.undirected)
    # leaves come from the OS: a seeded generator would make them public
    result = setup(g, mode=args.mode, bucket_size=args.Z, budget=args.budget)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    written = [tree_file(out, tree.tree_id) for tree in result.trees]
    for tree, path in zip(result.trees, written):
        tree.save(path)
    # a deployment set up here before leaves no file the daemon would load
    # beside this one's: its extra trees, and a trivial setup's controller
    for stale in set(tree_files(out)) - set(written):
        stale.unlink()
    save_state(out / "keys.bin", result.client)
    if result.controller is not None:
        save_state(out / "controller.bin", result.controller)
    else:
        (out / "controller.bin").unlink(missing_ok=True)
    # older releases wrote a server config here, which nothing reads now;
    # and a served deployment's trace was recorded on trees that are gone
    (out / "server.cfg").unlink(missing_ok=True)
    (out / "trace.csv").unlink(missing_ok=True)
    tp = result.trees[0].params
    holder = "client" if args.mode == MODE_TRIVIAL else "controller"
    print(
        f"encrypted {g.vertex_count} vertices / {result.spdx_size} next-hop entries "
        f"into {len(result.trees)} tree(s), data depth {tp.depth}; top {tp.cached} level(s) cached "
        f"by the {holder}, host path {tp.host_levels} bucket{'s' * (tp.host_levels != 1)} ({tp.path_width:,} bytes); "
        f"wrote {out}/"
    )
    if args.mode == MODE_ENHANCED:
        positions = result.controller.positions
        shape = positions.shape
        print(f"position map: chain depth {positions.chain_depth}")
        print(
            f"position map: {shape.payload}-byte level payloads, "
            f"{shape.host_buckets} host bucket{'s' * (shape.host_buckets != 1)} "
            f"and {shape.host_bytes} host bytes per round"
        )
    return EXIT_OK


def cmd_serve(args) -> int:
    from .server import Daemon, ServerConfig, build_server, parse_address

    logging.basicConfig(
        level=logging.INFO, stream=sys.stderr, format="%(asctime)s %(name)s %(levelname)s %(message)s"
    )
    parse_address(args.listen)  # before any tree is loaded
    if not Path(args.dir).is_dir():
        raise ConfigError(f"{args.dir!r} is not a directory")
    cfg = ServerConfig(tree_path=args.dir, listen_addr=args.listen, trace_path=str(Path(args.dir) / "trace.csv"))
    server = build_server(cfg)
    daemon = Daemon(server, cfg)

    def _stop(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _stop)
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        daemon.shutdown()
    return EXIT_OK


def cmd_query(args) -> int:
    from .protocol import EnhancedClient, EnhancedState, TrivialClient, TrivialState, load_state, save_state
    from .server import RemoteStore, TcpConnection, enclave_transport, parse_address

    address = parse_address(args.addr)
    state = load_state(args.keys, TrivialState, EnhancedState)
    n = state.params.vertex_count
    if not (0 <= args.u < n and 0 <= args.v < n):
        print(f"vertex pair ({args.u},{args.v}) out of range for {n} vertices", file=sys.stderr)
        return EXIT_USAGE
    conn = TcpConnection(address)
    try:
        if isinstance(state, EnhancedState):
            path = EnhancedClient(state, enclave_transport(conn)).query_path(args.u, args.v)
        else:
            path = TrivialClient(state, RemoteStore(conn)).query_path(args.u, args.v)
    finally:
        conn.close()
        # accesses remap blocks: the engine state is saved after each query,
        # and after a failed one too, whose completed rounds moved blocks
        if isinstance(state, TrivialState):
            save_state(args.keys, state)
    if path is None:
        print(f"no path from {args.u} to {args.v}", file=sys.stderr)
    else:
        print(" ".join(str(x) for x in path))
    return EXIT_OK


def cmd_audit(args) -> int:
    from .audit import audit_trace, load_query_log
    from .storage import AccessTrace, tree_geometry

    report = audit_trace(AccessTrace.load(args.trace), load_query_log(args.queries), tree_geometry(args.trees))
    print(report.summary())
    if args.out:
        Path(args.out).write_text(report.to_csv() + "\n")
    return EXIT_OK if report.ok else EXIT_PROTOCOL


def cmd_attack(args) -> int:
    from collections import Counter

    from .attack import QueryRecovery, path_length_classes, round_classes
    from .gkt import GktScheme
    from .protocol import rounds

    with open(args.graph) as f:
        g = load_graph(f, directed=not args.undirected)
    # every connected pair is queried once, so each observed destination's
    # fragment is its whole tree: the closed world holds by construction
    lengths = path_length_classes(g)
    pairs = list(lengths)
    scheme = GktScheme(g)
    candidates = QueryRecovery(g).candidates([scheme.query(u, v)[1] for u, v in pairs], assume_complete=True)
    classes = round_classes(g)
    round_class = [classes[rounds(lengths[pair])] for pair in pairs]
    print(f"graph: {g.vertex_count} vertices, {len(g.edges)} edges, {len(pairs)} connected pairs")

    exact = sum(c == {pair} for pair, c in zip(pairs, candidates))
    print("\nbaseline (token-sequence leakage, full workload observed):")
    print(f"  exactly recovered queries: {exact}/{len(pairs)}")
    print(f"  candidate-set size histogram: {dict(sorted(Counter(map(len, candidates)).items()))}")
    print("\noblivious scheme (round-count leakage only):")
    print(f"  round-class size histogram: {dict(sorted(Counter(map(len, round_class)).items()))}")
    if pairs:
        mean_gkt = sum(map(len, candidates)) / len(pairs)
        mean_obge = sum(map(len, round_class)) / len(pairs)
        print(f"\nmean candidates per query: baseline {mean_gkt:.1f} vs round count only {mean_obge:.1f}")

    unsound = [
        f"({u},{v}): {'misses its query' if (u, v) not in c else 'is coarser than its round class'}"
        for (u, v), c, admitted in zip(pairs, candidates, round_class)
        if (u, v) not in c or not c <= admitted
    ]
    if unsound:
        print(f"error: unsound: {len(unsound)} baseline candidate set(s); the first: {unsound[0]}", file=sys.stderr)
        return EXIT_PROTOCOL
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="obge", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("setup", help="encrypt a graph and write server/client state")
    p.add_argument("graph", help="edge-list file (u<TAB>v[<TAB>weight])")
    p.add_argument("--mode", choices=["trivial", "enhanced"], default="trivial")
    p.add_argument("--Z", type=int, default=5, help="bucket size")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--budget", type=int, default=None, help="enhanced mode: controller memory budget in bytes")
    p.add_argument("--undirected", action="store_true")
    p.set_defaults(func=cmd_setup)

    p = sub.add_parser("serve", help="run the storage daemon")
    p.add_argument("dir", help="deployment directory: its files are served and flushed back into it")
    p.add_argument("--listen", default="127.0.0.1:7399", help="host:port to listen on")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("query", help="run one shortest-path query")
    p.add_argument("u", type=int)
    p.add_argument("v", type=int)
    p.add_argument("--keys", required=True)
    p.add_argument("--addr", default="127.0.0.1:7399")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("audit", help="run leakage checks on an access trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--queries", required=True, help="ground-truth query log CSV")
    p.add_argument("--trees", required=True, help="directory of the tree files the trace was recorded on")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("attack", help="query recovery on the baseline, over every connected pair")
    p.add_argument("graph", help="edge-list file (u<TAB>v[<TAB>weight])")
    p.add_argument("--undirected", action="store_true")
    p.set_defaults(func=cmd_attack)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (GraphFormatError, ConfigError, OSError, IndexError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ProtocolError, IntegrityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY


if __name__ == "__main__":
    sys.exit(main())

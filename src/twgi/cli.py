"""Command-line interface.

Results go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 data error (including NOT FOUND / validation failures), 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

from .errors import TwgiError
from .persist import (
    deserialize_index,
    load_index,
    parse_pattern,
    read_blocks_file,
    read_graph_file,
    save_index,
    section_bits,
    tunneled_graph_from_meta,
    tunneled_graph_meta,
    write_graph_file,
)
from .text_index import build_index
from .tunnel import tunnel_graph
from .wheeler import encode, validate_wheeler


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="twgi",
        description="Tunneled Wheeler graph self-index: build and query "
                    "compressed text indexes, validate and tunnel Wheeler graphs.")
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="index a text file")
    b.add_argument("text", help="input file (raw bytes)")
    b.add_argument("-o", "--output", required=True, help="index file to write")
    b.add_argument("--sample-rate", type=int, default=None,
                   help="locate sample stride (default: ceil(log2 n))")
    b.add_argument("--tunnel-rate", type=int, default=None,
                   help="tunnel-skip stride (default: ceil(log2 n_t))")
    b.add_argument("--min-width", type=int, default=2)
    b.add_argument("--min-length", type=int, default=2)
    b.add_argument("--no-tunnel", action="store_true",
                   help="build a plain FM-index without tunneling")

    c = sub.add_parser("count", help="count pattern occurrences")
    c.add_argument("index")
    c.add_argument("pattern")

    lo = sub.add_parser("locate", help="list pattern start positions")
    lo.add_argument("index")
    lo.add_argument("pattern")
    lo.add_argument("--limit", type=int, default=None)

    e = sub.add_parser("extract", help="print a text slice to stdout")
    e.add_argument("index")
    e.add_argument("start", type=int)
    e.add_argument("len", type=int)

    s = sub.add_parser("stats", help="index statistics")
    s.add_argument("index")

    g = sub.add_parser("graph", help="Wheeler graph operations")
    gsub = g.add_subparsers(dest="gcmd", required=True)
    gv = gsub.add_parser("validate", help="check the Wheeler graph axioms")
    gv.add_argument("graphfile")
    gt = gsub.add_parser("tunnel", help="tunnel a graph with given blocks")
    gt.add_argument("graphfile")
    gt.add_argument("--blocks", required=True)
    gt.add_argument("-o", "--output", required=True)
    gs = gsub.add_parser("search", help="path-existence search")
    gs.add_argument("graphfile")
    gs.add_argument("pattern")
    return p


def _cmd_build(args) -> int:
    with open(args.text, "rb") as fh:
        text = fh.read()
    ix = build_index(
        text,
        sample_rate_n=args.sample_rate,
        sample_rate_t=args.tunnel_rate,
        min_width=args.min_width,
        min_length=args.min_length,
        tunneling=not args.no_tunnel,
    )
    save_index(ix, args.output)
    st = ix.stats()
    print(f"n: {st['n']}")
    print(f"n_t: {st['n_t']}")
    print(f"m_t: {st['m_t']}")
    print(f"tunnels: {st['tunnels']}")
    print(f"merged_edges: {(st['n'] - 1) - st['m_t']}")
    return 0


def _cmd_count(args) -> int:
    ix = load_index(args.index)
    print(ix.count(parse_pattern(args.pattern)))
    return 0


def _cmd_locate(args) -> int:
    pat = parse_pattern(args.pattern)
    if not pat:
        print("locate: empty pattern is not meaningful", file=sys.stderr)
        return 2
    ix = load_index(args.index)
    for pos in ix.locate(pat, limit=args.limit):
        print(pos)
    return 0


def _cmd_extract(args) -> int:
    ix = load_index(args.index)
    data = ix.extract(args.start, args.len)
    sys.stdout.buffer.write(data)
    sys.stdout.buffer.flush()
    return 0


def _cmd_stats(args) -> int:
    with open(args.index, "rb") as fh:
        data = fh.read()
    ix = deserialize_index(data)
    st = ix.stats()
    bps = len(data) * 8 / max(1, st["n"] - 1)
    print(f"n: {st['n']}")
    print(f"n_t: {st['n_t']}")
    print(f"sigma: {st['sigma']}")
    print(f"tunnels: {st['tunnels']}")
    print(f"bits_per_symbol: {bps:.2f}")
    for name, bits in section_bits(data).items():
        print(f"bits.{name}: {bits}")
    return 0


def _cmd_graph(args) -> int:
    if args.gcmd == "validate":
        with open(args.graphfile) as fh:
            el, _, _ = read_graph_file(fh)
        res = validate_wheeler(el)
        if res:
            print("OK")
            return 0
        print(f"VIOLATION ({res.condition}): {res.detail}")
        return 1
    if args.gcmd == "tunnel":
        with open(args.graphfile) as fh:
            el, _, _ = read_graph_file(fh)
        with open(args.blocks) as fh:
            blocks = read_blocks_file(fh)
        g = encode(el)
        tg = tunnel_graph(g, blocks)
        with open(args.output, "w") as fh:
            write_graph_file(fh, tg.g.to_edge_list(), sigma=tg.g.sigma,
                             meta=tunneled_graph_meta(tg))
        print(f"n: {g.n} -> n_t: {tg.g.n}")
        print(f"m: {g.m} -> m_t: {tg.g.m}")
        return 0
    if args.gcmd == "search":
        with open(args.graphfile) as fh:
            el, _, meta = read_graph_file(fh)
        pat = parse_pattern(args.pattern)
        g = encode(el)
        tg = tunnel_graph(g, []) if meta is None else tunneled_graph_from_meta(g, meta)
        rng = tg.path_search(pat)
        if rng.is_empty:
            print("NOT FOUND")
            return 1
        print(f"FOUND [{rng.lo}, {rng.hi}]")
        return 0
    raise AssertionError(f"unhandled graph subcommand {args.gcmd}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    handlers = {
        "build": _cmd_build,
        "count": _cmd_count,
        "locate": _cmd_locate,
        "extract": _cmd_extract,
        "stats": _cmd_stats,
        "graph": _cmd_graph,
    }
    try:
        return handlers[args.cmd](args)
    except TwgiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Pinned outputs of the three cover-extension moves.

``extend_pin.txt`` holds, for each case of ``cases()``, what
``extend_cover_two_classes``, ``extend_cover_nine_sided`` and
``extend_cover_triples`` return on the case's cover, and what the three
return when chained in the pipeline's order.  The perfbench digests only
ever see the triples move commit, so the cases make each move commit, at
class sizes 1 and 2, with pulls that fail part way.  Some target one rule:
a block whose failing class the two-classes move skips, a triples scan cut
by its cap, and an Ext link graph whose other cells are just too sparse to
be link-graph edges.  The file was written by the code before the moves
were rebuilt on one pull and one swap step, so this test holds the rebuilt
moves to the same outputs.

Rewrite the file (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_extend_pin.py > tests/extend_pin.txt
"""

import random
import sys
from itertools import combinations
from pathlib import Path

from hypermatch.construct import random_dense_hypergraph, threshold
from hypermatch.core import Hypergraph
from hypermatch.pipeline import (
    Cover,
    PipelineConfig,
    build_initial_cover,
    extend_cover_nine_sided,
    extend_cover_triples,
    extend_cover_two_classes,
)

PIN = Path(__file__).parent / "extend_pin.txt"

HEADER = """\
# Pinned cover-extension outputs (tests/test_extend_pin.py:cases).
# Each line: case, move, gains, then the output cover's blocks in order.
# Moves: two_classes, nine_sided, triples on the case's cover, and chain
# (the three in the pipeline's order).  Gains: the move's gain, and for
# triples the Ext count after a slash; chain lists g1,g2,g3/ext.
# A block is roles:method:classes, classes split by '/' and their vertices
# by ','.
"""


def complete(n: int) -> Hypergraph:
    return Hypergraph(n, 4, combinations(range(n), 4))


def covered(n: int, extra: float, seed) -> Hypergraph:
    """Every 4-set meeting the first n/4 vertices, plus each other 4-set at
    rate ``extra``."""
    rng = random.Random(seed)
    return Hypergraph(
        n, 4, [e for e in combinations(range(n), 4) if e[0] < n // 4 or rng.random() < extra]
    )


def hext(n: int, light: bool = False) -> Hypergraph:
    """Three one-edge blocks on 0..11 whose link graph over the leftover
    12..n-1 is Hext: {a_i, b_j, c_k, z} is an edge for every z iff i, j or k
    is 0.  With ``light``, every other (i, j, k) has an edge with z = 12
    alone, a density of 1/(n - 12) below the link graph's 2*gamma."""
    edges = [(0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11)]
    for i in range(4):
        for j in range(4):
            for k in range(4):
                if 0 in (i, j, k):
                    edges += [(i, 4 + j, 8 + k, z) for z in range(12, n)]
                elif light:
                    edges.append((i, 4 + j, 8 + k, 12))
    return Hypergraph(n, 4, edges)


def skip() -> Hypergraph:
    """One block on 0..3 over the leftover 4..15: every class but the
    second has an edge with each 3-set of the leftover."""
    edges = [(c, *t) for c in (0, 2, 3) for t in combinations(range(4, 16), 3)]
    return Hypergraph(16, 4, [(0, 1, 2, 3)] + edges)


def capped() -> Hypergraph:
    """Six one-edge blocks on 0..23, then everything on 24..39: with nine
    blocks over 24..35, only the last block triple of the scan can gain,
    and the triples move's scan cap stops short of it."""
    edges = [tuple(range(i, i + 4)) for i in range(0, 24, 4)]
    return Hypergraph(40, 4, edges + list(combinations(range(24, 40), 4)))


def cases():
    """(name, graph, cover, config): the cover's blocks are pulled from
    prefixes of the vertices, and its universe is every vertex."""
    specs = [
        ("complete-20", complete(20), 1, (4,)),
        ("complete-24", complete(24), 1, (4, 8)),
        ("complete-28", complete(28), 1, (4, 8, 12)),
        ("complete-40-l2-a", complete(40), 2, (8,)),
        ("complete-40-l2-b", complete(40), 2, (16,)),
        ("complete-40-l2-c", complete(40), 2, (24,)),
        ("threshold-32-l2", random_dense_hypergraph(32, threshold(32), "l2"), 2, (16,)),
        ("hext-20", hext(20), 1, (12,)),
        ("hext-28-light", hext(28, light=True), 1, (12,)),
        ("skip-16", skip(), 1, (4,)),
        ("capped-40", capped(), 1, (36,)),
    ]
    for n in (24, 28, 32):
        h = random_dense_hypergraph(n, threshold(n), f"extend-pin/{n}")
        specs += [(f"threshold-{n}-{k}", h, 1, (k,)) for k in (8, 12, 16)]
    specs.append(("threshold-32-28", h, 1, (28,)))  # h: the n = 32 graph
    for n, extra in ((24, 0.05), (28, 0.2), (32, 0.5)):
        h = covered(n, extra, f"extend-pin/covered/{n}")
        specs += [(f"covered-{n}-{k}", h, 1, (k,)) for k in (12, 20)]
    for name, h, l, prefixes in specs:
        cfg = PipelineConfig(l=l)
        blocks, lo = (), 0
        for hi in prefixes:
            blocks += build_initial_cover(h, cfg, range(lo, hi)).blocks
            lo = hi
        yield name, h, Cover(tuple(range(h.n)), l, blocks), cfg


def _blocks(cover: Cover) -> str:
    return " ".join(
        f"{''.join(w.roles)}:{w.method}:" + "/".join(",".join(map(str, c)) for c in w.classes)
        for w in cover.blocks
    )


def pin_lines() -> list[str]:
    lines = []
    for name, h, cover, cfg in cases():
        out, g1 = extend_cover_two_classes(h, cover, cfg)
        lines.append(f"{name} two_classes {g1} {_blocks(out)}")
        out, g2 = extend_cover_nine_sided(h, cover, cfg)
        lines.append(f"{name} nine_sided {g2} {_blocks(out)}")
        out, g3, ext = extend_cover_triples(h, cover, cfg)
        lines.append(f"{name} triples {g3}/{ext} {_blocks(out)}")
        out, g1 = extend_cover_two_classes(h, cover, cfg)
        out, g2 = extend_cover_nine_sided(h, out, cfg)
        out, g3, ext = extend_cover_triples(h, out, cfg)
        lines.append(f"{name} chain {g1},{g2},{g3}/{ext} {_blocks(out)}")
    return lines


def test_extension_moves_pinned():
    lines = [
        line for line in PIN.read_text().splitlines() if line and not line.startswith("#")
    ]
    gains = {}
    for line in lines:
        _, move, gain = line.split()[:3]
        gains.setdefault(move, set()).add(gain.split("/")[0])
    # every move commits somewhere, and the triples move also meets Ext
    assert all(g - {"0"} for move, g in gains.items() if move != "chain")
    assert any(line.split()[2].endswith("/1") for line in lines)
    assert pin_lines() == lines


if __name__ == "__main__":
    sys.stdout.write(HEADER)
    sys.stdout.writelines(line + "\n" for line in pin_lines())

"""Pinned outputs of the link-graph classifier and of the mask sampler.

``link_golden.txt`` holds, for each mask of ``golden_masks()``, the
``classify`` verdict and witness and the ``detect_pattern`` result for each
of the three patterns.  ``sampler_pin.txt`` holds the masks that
``random_link_graph(m, f"pin/{i}")`` draws.  Both files were written by the
code before its pattern detector and sampler were rewritten for speed, so
these tests hold the rewrites to the same outputs.

Rewrite a file (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_link_golden.py classify > tests/link_golden.txt
    PYTHONPATH=src python tests/test_link_golden.py sampler > tests/sampler_pin.txt
"""

import random
import sys
from pathlib import Path

from hypermatch.construct import extremal_link_graph, pattern_witness, random_link_graph
from hypermatch.link import (
    COVER_MASKS,
    FULL_MASK,
    PairSystem,
    bit_index,
    Pattern,
    Verdict,
    classify,
    detect_pattern,
    format_mask,
    is_ext,
    parse_mask,
    tripartite_perfect_matching,
)

HERE = Path(__file__).parent
CLASSIFY_GOLDEN = HERE / "link_golden.txt"
SAMPLER_PIN = HERE / "sampler_pin.txt"

PIN_MIN_EDGES = (0, 10, 37, 60, 64)
PIN_COUNT = 200

CLASSIFY_HEADER = """\
# Pinned classifier outputs: mask, classify verdict, classify witness, then
# detect_pattern(mask, kind) for H432, H4221 and H3321 ('-' where there is
# none, or where classify does not apply: fewer than 37 edges).
# Witnesses: a pair system is side:pairs:degrees (01:03,12,20:432), a perfect
# matching its four triples (000,111,222,333), Ext its cover triple (000).
# Masks, in order, duplicates dropped (tests/test_link_golden.py:golden_masks):
# 0, the full mask and Hext; the first 1024 masks of the link-campaign
# adversarial pool at seed bench-0, then every Ext mask of the other 3072;
# pattern_witness(kind, f'golden/{s}', f) for s < 20, f in 0.0..0.6;
# the 64 covered 37-edge masks; maximal PM-free masks (pm_free_mask(s) for
# s < 150) with >= 37 edges, each with a copy thinned at random to >= 37;
# 8 random masks at every popcount 0..64.
"""

SAMPLER_HEADER = """\
# random_link_graph(m, f'pin/{i}') for m in 0, 10, 37, 60, 64 and i < 200:
# m, i and the mask, one draw a line.
"""


def adversarial_pool(seed) -> list[int]:
    """The link-campaign workload's adversarial masks: Hext and the three
    pattern witnesses, each mutated by up to five bit flips that keep at
    least 37 edges (perfbench/workloads.py, ``LinkCampaign.setup``)."""
    rng = random.Random(f"{seed}/adv")
    pool = []
    for chunk in range(8):
        bases = [extremal_link_graph()] + [
            pattern_witness(kind, f"{seed}/adv/{chunk}", 0.6) for kind in Pattern
        ]
        for i in range(512):
            mask = bases[i % len(bases)]
            for _ in range(rng.randrange(1, 6)):
                flipped = mask ^ (1 << rng.randrange(64))
                if flipped.bit_count() >= 37:
                    mask = flipped
            while mask.bit_count() < 37:
                mask |= 1 << rng.randrange(64)
            pool.append(mask)
    return pool


def pm_free_mask(seed) -> int:
    """A maximal PM-free mask: drop a random triple of the first perfect
    matching until there is none, then add back, in random order, every
    triple that keeps it so."""
    rng = random.Random(f"link-golden/pm-free/{seed}")
    mask = FULL_MASK
    while (pm := tripartite_perfect_matching(mask)) is not None:
        mask &= ~(1 << bit_index(*rng.choice(pm)))
    order = list(range(64))
    rng.shuffle(order)
    for b in order:
        if tripartite_perfect_matching(mask | 1 << b) is None:
            mask |= 1 << b
    return mask


def golden_masks() -> list[int]:
    pool = adversarial_pool("bench-0")
    masks = [0, FULL_MASK, extremal_link_graph()]
    masks += pool[:1024]
    # a covered 37-edge mask has no perfect matching and no pattern
    masks += [m for m in pool[1024:] if is_ext(m) is not None]
    masks += [
        pattern_witness(kind, f"golden/{s}", f / 10)
        for kind in Pattern
        for f in range(7)
        for s in range(20)
    ]
    masks += [cm for _, cm in COVER_MASKS]
    for s in range(150):
        mask = pm_free_mask(s)
        if mask.bit_count() >= 37:
            rng = random.Random(f"link-golden/thin/{s}")
            bits = [b for b in range(64) if mask >> b & 1]
            drop = rng.sample(bits, rng.randrange(len(bits) - 36))
            masks += [mask, mask & ~sum(1 << b for b in drop)]
    for p in range(65):
        for t in range(8):
            bits = random.Random(f"link-golden/{p}/{t}").sample(range(64), p)
            masks.append(sum(1 << b for b in bits))
    return list(dict.fromkeys(masks))


def _pair_system(ps) -> str:
    if ps is None:
        return "-"
    pairs = ",".join(f"{x}{y}" for x, y in ps.pairs)
    degrees = "".join(map(str, ps.degrees))
    return f"{ps.side[0]}{ps.side[1]}:{pairs}:{degrees}"


def classify_line(mask: int) -> str:
    if mask.bit_count() < 37:
        verdict, witness = "-", "-"
    else:
        result = classify(mask)
        verdict = result.verdict.value
        if isinstance(result.witness, PairSystem):
            witness = _pair_system(result.witness)
        elif result.verdict is Verdict.EXT:
            witness = "".join(map(str, result.witness))
        else:
            witness = ",".join("".join(map(str, t)) for t in result.witness)
    patterns = [_pair_system(detect_pattern(mask, kind)) for kind in Pattern]
    return " ".join([format_mask(mask), verdict, witness, *patterns])


def _data_lines(path: Path) -> list[str]:
    return [
        line for line in path.read_text().splitlines() if line and not line.startswith("#")
    ]


def sampler_lines() -> list[str]:
    return [
        f"{m} {i} {format_mask(random_link_graph(m, f'pin/{i}'))}"
        for m in PIN_MIN_EDGES
        for i in range(PIN_COUNT)
    ]


def test_classifier_golden():
    lines = _data_lines(CLASSIFY_GOLDEN)
    masks = [parse_mask(line.split()[0]) for line in lines]
    assert masks == golden_masks()
    # no mask here has an H4221 or H3321 verdict, but every pattern is
    # detected somewhere
    columns = list(zip(*(line.split() for line in lines)))
    assert set(columns[1]) == {"-", "PerfectMatching", "H432", "Ext"}
    assert all(set(col) - {"-"} for col in columns[3:])
    assert [classify_line(m) for m in masks] == lines


def test_sampler_pinned():
    lines = _data_lines(SAMPLER_PIN)
    assert len(lines) == len(PIN_MIN_EDGES) * PIN_COUNT
    assert sampler_lines() == lines


if __name__ == "__main__":
    if sys.argv[1:] == ["classify"]:
        sys.stdout.write(CLASSIFY_HEADER)
        sys.stdout.writelines(classify_line(m) + "\n" for m in golden_masks())
    elif sys.argv[1:] == ["sampler"]:
        sys.stdout.write(SAMPLER_HEADER)
        sys.stdout.writelines(line + "\n" for line in sampler_lines())
    else:
        sys.exit("usage: test_link_golden.py classify|sampler")

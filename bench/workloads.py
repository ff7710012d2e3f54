"""Seeded corpora for the three benchmark workloads.

Every workload is a list of `Item`s, each holding one configuration as the
JSON text a user would feed to `quadricheck decide`.  The seed given to the
benchmark is the only source of randomness, so a seed names one corpus; its
content hash is reported so that two commits can be shown to have run the
same inputs (the fixture generators call `decide` while they search).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations

from quadricheck import fixtures
from quadricheck.oracle import random_transform, sample_generic, segre_point

# Coordinate bounds of the generic workload, as bit lengths of the sampled
# numerators and denominators.  With on-quadric and random halves the
# oracle's median falls inside the overlap of the 2^16 random and 2^32
# on-quadric classes, not on a gap between classes.
GENERIC_BITS = (6, 16, 32, 64)
GENERIC_SIZE = 208  # 26 per (bound, half)
TRACED_SIZE = 100
TRACED_BITS = 6

# One block of the special mix.  Coplanar decisions cost ~300 ms against
# 3-200 ms for every other exit, so coplanar holds 4 of 20 places: the p90
# then sits in the middle of the coplanar band instead of on its edge.
SPECIAL_BLOCKS = 10
SPECIAL_COPLANAR_PER_BLOCK = 4
SPECIAL_MUTATIONS = (("duplicate", 2), ("collinear", 2), ("coplanar", 3))


@dataclass(frozen=True)
class Item:
    source: str  # generator that produced the configuration
    bits: int  # coordinate bound of the generator, log2
    text: str  # the configuration as a JSON payload


def build(workload: str, seed: int) -> list:
    if workload == "generic":
        return _generic(seed, GENERIC_SIZE, GENERIC_BITS, "generic")
    if workload == "traced":
        return _generic(seed, TRACED_SIZE, (TRACED_BITS,), "traced")
    if workload == "special":
        return _special(seed)
    raise ValueError(f"unknown workload {workload!r}")


def corpus_hash(items) -> str:
    digest = hashlib.sha256()
    for item in items:
        digest.update(item.text.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _item(source, bits, points) -> Item:
    payload = {"points": [p.to_strings() for p in points]}
    return Item(source, bits, json.dumps(payload, separators=(",", ":")))


def _fraction(rng, bound):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def _on_segre_quadric(tag, bits):
    """Ten distinct points [1 : s : t : st] with s, t bounded by 2^bits,
    pushed through a seeded projective transform."""
    rng = random.Random(f"bench-quadric:{tag}")
    bound = 2**bits
    points = []
    while len(points) < 10:
        p = segre_point(_fraction(rng, bound), _fraction(rng, bound))
        if p not in points:
            points.append(p)
    tr = random_transform(rng, bound=8)
    return [tr.apply(p) for p in points]


def _generic(seed, size, bit_cycle, name):
    items = []
    for i in range(size):
        bits = bit_cycle[(i // 2) % len(bit_cycle)]
        tag = f"{name}:{seed}:{i}"
        if i % 2 == 0:
            items.append(_item("on-quadric", bits, _on_segre_quadric(tag, bits)))
        else:
            points = sample_generic(f"bench-{tag}", 10, bound=2**bits)
            items.append(_item("random", bits, points))
    return items


def _sign(perm):
    return -1 if sum(x > y for x, y in combinations(perm, 2)) % 2 else 1


_SIGNED_PERMS = tuple((perm, _sign(perm)) for perm in permutations(range(4)))
_BASIS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def _det4(a, b, c, d):
    return sum(s * a[i] * b[j] * c[k] * d[l] for (i, j, k, l), s in _SIGNED_PERMS)


def _max_coplanar(points):
    """Largest number of the points on one plane (exact, over Z)."""
    coords = [p.coords for p in points]
    best = 3
    for a, b, c in combinations(coords, 3):
        if all(_det4(a, b, c, e) == 0 for e in _BASIS):
            continue  # collinear triple: spans no plane
        best = max(best, sum(_det4(a, b, c, x) == 0 for x in coords))
    return best


def _mutation(kind, tag):
    """First seeded fuzz mutation of the kind that is in special position
    by construction: a real duplicate, or eight or more coplanar points
    (seven coplanar points still admit a generic labeling)."""
    for attempt in range(100):
        sub = f"bench-{tag}:{attempt}"
        if kind == "duplicate":
            points = fixtures.mutate_duplicate(sub)
            if len(set(points)) < 10:
                return points
        elif kind == "collinear":
            return fixtures.mutate_collinear(sub)
        else:
            points = fixtures.mutate_coplanar(sub)
            if _max_coplanar(points) >= 8:
                return points
    raise RuntimeError(f"no special-position {kind} mutation for {tag}")


def _special(seed):
    kinds = [k for k in fixtures.GENERATED_KINDS if k != "generic"]
    items = []
    for block in range(SPECIAL_BLOCKS):
        tag = f"special:{seed}:{block}"
        for kind in kinds:
            base = fixtures.generate_branch(kind, tag)
            copies = SPECIAL_COPLANAR_PER_BLOCK if kind == "coplanar" else 1
            for c in range(copies):
                # branches are incidence properties, so a projective
                # transform gives another configuration of the same branch
                points = base
                if c:
                    tr = random_transform(random.Random(f"bench-{tag}:{kind}:{c}"), bound=4)
                    points = [tr.apply(p) for p in base]
                items.append(_item(f"fixture:{kind}", 6, points))
        for kind, count in SPECIAL_MUTATIONS:
            for j in range(count):
                points = _mutation(kind, f"{tag}:{kind}:{j}")
                items.append(_item(f"mutation:{kind}", 6, points))
    random.Random(f"bench-order:{seed}").shuffle(items)
    return items

"""Gauss words of random closed polygons, and their one-swap mutants.

A closed polygon in general position is a plane curve, so its Gauss word
is realizable by construction: that gives the benchmark a verdict to check
against that comes from neither of the program's deciders.  Swapping two
adjacent letters a, b of such a word toggles whether a and b cross.  Every
chord of a plane curve crosses an even number of chords, so in the mutant
chord a crosses an odd number, hence at least one: it is no kink, and the
mutant fails the even condition.  Mutants are never realizable.

Polygons whose word could be misread by floating-point error are rejected:
segments crossing at too shallow an angle, a vertex too close to another
segment, two crossings too close along a segment, and adjacent segments
that nearly fold back.  Polygons without the wanted number of crossings,
including those with none, are skipped.
"""

from __future__ import annotations

import random

# Minimum |sin| of the angle between two crossing segments, and minimum
# gap, as a fraction of a segment's length, between two crossings on it or
# between it and a vertex of another segment.  Rounding errors are about
# 1e-16, so words that pass are exact.
_MIN_SIN = 1e-4
_MIN_GAP = 1e-5
# Bounding boxes this far apart hold no crossing and no near touch
# (segments of the unit square are at most sqrt(2) long).
_MARGIN = 2 * _MIN_GAP


def _crossing(p, q, r, s):
    """Parameters (t, u) where segment pq meets rs, None if they miss.

    Raises ValueError when the pair is too close to degenerate to trust.
    """
    if (
        max(p[0], q[0]) + _MARGIN < min(r[0], s[0])
        or max(r[0], s[0]) + _MARGIN < min(p[0], q[0])
        or max(p[1], q[1]) + _MARGIN < min(r[1], s[1])
        or max(r[1], s[1]) + _MARGIN < min(p[1], q[1])
    ):
        return None  # far apart
    dx, dy = q[0] - p[0], q[1] - p[1]
    ex, ey = s[0] - r[0], s[1] - r[1]
    denom = dx * ey - dy * ex
    fx, fy = r[0] - p[0], r[1] - p[1]
    if _near(p, q, r) or _near(p, q, s) or _near(r, s, p) or _near(r, s, q):
        raise ValueError("a vertex nearly touches another segment")
    if denom == 0:
        return None  # parallel, and apart by the check above
    t = (fx * ey - fy * ex) / denom
    u = (fx * dy - fy * dx) / denom
    if not (0 < t < 1 and 0 < u < 1):
        return None
    if abs(denom) < _MIN_SIN * (dx * dx + dy * dy) ** 0.5 * (ex * ex + ey * ey) ** 0.5:
        raise ValueError("segments cross at too shallow an angle")
    return t, u


def _near(p, q, r) -> bool:
    """Is point r within the rejection margin of segment pq?"""
    dx, dy = q[0] - p[0], q[1] - p[1]
    length2 = dx * dx + dy * dy
    t = ((r[0] - p[0]) * dx + (r[1] - p[1]) * dy) / length2
    t = min(1.0, max(0.0, t))
    cx, cy = p[0] + t * dx - r[0], p[1] + t * dy - r[1]
    return cx * cx + cy * cy < _MIN_GAP * _MIN_GAP * length2


def polygon_word(points) -> list[str]:
    """Gauss word of the closed polygon through ``points``.

    Chords are labelled "1", "2", ... in order of first visit.  Raises
    ValueError for a near-degenerate polygon.
    """
    k = len(points)
    segs = [(points[i], points[(i + 1) % k]) for i in range(k)]
    events: list[list[tuple[float, int]]] = [[] for _ in range(k)]
    crossing = 0
    for i in range(k):
        for j in range(i + 1, k):
            if j == i + 1 or (i == 0 and j == k - 1):
                # Neighbours share a vertex; they must not fold back.
                a, b = (segs[i], segs[j]) if j == i + 1 else (segs[j], segs[i])
                if _near(a[0], a[1], b[1]) or _near(b[0], b[1], a[0]):
                    raise ValueError("adjacent segments fold back")
                continue
            hit = _crossing(*segs[i], *segs[j])
            if hit is not None:
                events[i].append((hit[0], crossing))
                events[j].append((hit[1], crossing))
                crossing += 1
    order: list[int] = []
    for seg in events:
        seg.sort()
        for (t0, _), (t1, _) in zip(seg, seg[1:]):
            if t1 - t0 < _MIN_GAP:
                raise ValueError("crossings too close along a segment")
        order.extend(c for _, c in seg)
    names: dict[int, str] = {}
    for c in order:
        names.setdefault(c, str(len(names) + 1))
    return [names[c] for c in order]


def polygon_words(rng: random.Random, chords, copies: int) -> dict[int, list]:
    """``copies`` polygon words with exactly n crossings, for each n in ``chords``.

    Draws polygons with vertices uniform in the unit square.  A polygon
    with a still-wanted crossing count is kept whatever count was aimed
    at; the vertex count is nudged towards the least wanted count after
    each draw.
    """
    wanted = {n: copies for n in chords}
    if min(wanted) < 1:
        raise ValueError("a polygon word needs at least one crossing")
    words: dict[int, list] = {n: [] for n in wanted}
    vertices = 4
    while wanted:
        target = min(wanted)
        points = [(rng.random(), rng.random()) for _ in range(vertices)]
        try:
            word = polygon_word(points)
        except ValueError:
            continue
        n = len(word) // 2
        if n in wanted:
            words[n].append(word)
            wanted[n] -= 1
            if not wanted[n]:
                del wanted[n]
        if n < target:
            vertices += 1
        elif n > target and vertices > 4:
            vertices -= 1
    return words


def mutate(rng: random.Random, word: list[str]) -> list[str]:
    """Swap one randomly chosen pair of adjacent, distinct letters."""
    spots = [i for i in range(len(word) - 1) if word[i] != word[i + 1]]
    i = rng.choice(spots)
    out = list(word)
    out[i], out[i + 1] = out[i + 1], out[i]
    return out

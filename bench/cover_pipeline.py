"""cover_pipeline: build_cover over an epsilon ladder, discretized_box and
verify_reduction on each cover, bell_box reconstruction on the small ones,
and one fine cover verified with few trials.

sphere and quantum do all the work and protocols does none.  The fine cover
uses the same layer in a memory-bound way: verify_reduction builds the whole
T x T x 2 x 2 table (T = 3481, about 1 GB at peak).
"""

from __future__ import annotations

import numpy as np

import checks
from boxlab import quantum, sphere

LADDER = (0.5, 0.4, 0.3, 0.25, 0.2)    # T = 35, 55, 97, 140, 218
BELL_LADDER = (0.5, 0.4, 0.3)           # T <= 97: each bell_box call stays under 1 s
FINE_EPS = 0.05                         # T = 3481
LADDER_TRIALS = 300
FINE_TRIALS = 20
PROBES = 100_000


def setup(seed: int, workdir: str) -> dict:
    rng = np.random.default_rng([seed, 2])
    # the seed moves the Haar draws, not the amount of work
    verify_seeds = [int(s) for s in rng.integers(0, 2 ** 31, len(LADDER) + 1)]
    return {"verify_seeds": verify_seeds, "seed": seed}


def _cover_record(cover):
    return cover.size, cover.covering_radius, cover.points.tobytes()


def ops(state: dict) -> list:
    covers: dict = {}
    out = []
    for i, eps in enumerate(LADDER):
        def build(eps=eps):
            covers[eps] = sphere.build_cover(eps)
            return covers[eps]

        out.append(("build_cover:%g" % eps, build, _cover_record))
        out.append(("discretized_box:%g" % eps,
                    lambda eps=eps: sphere.discretized_box(covers[eps]),
                    lambda box: box.table.tobytes()))
        if eps in BELL_LADDER:
            out.append(("bell_box:%g" % eps,
                        lambda eps=eps: quantum.bell_box(
                            sphere.cover_bell_spec(covers[eps]), quantum.SINGLET),
                        lambda box: box.table.tobytes()))
        out.append(("verify_reduction:%g" % eps,
                    lambda eps=eps, i=i: sphere.verify_reduction(
                        covers[eps], LADDER_TRIALS,
                        seed=state["verify_seeds"][i]),
                    tuple))

    def build_fine():
        covers[FINE_EPS] = sphere.build_cover(FINE_EPS)
        return covers[FINE_EPS]

    out.append(("build_cover:%g" % FINE_EPS, build_fine, _cover_record))
    out.append(("verify_reduction:%g" % FINE_EPS,
                lambda: sphere.verify_reduction(
                    covers.pop(FINE_EPS), FINE_TRIALS,
                    seed=state["verify_seeds"][-1]),
                tuple))
    return out


def check(state: dict, records: dict) -> list:
    rng = np.random.default_rng([state["seed"], 20])
    probes = checks.random_unit_vectors(rng, PROBES)
    fails = []
    for eps in LADDER + (FINE_EPS,):
        size, radius, raw = records["build_cover:%g" % eps]
        points = np.frombuffer(raw).reshape(size, 3)
        fails += checks.check_cover(eps, size, radius, points, probes)
        max_tv, mean_tv = records["verify_reduction:%g" % eps]
        fails += checks.check_reduction_tv(max_tv, mean_tv, radius)
        if eps == FINE_EPS:
            continue
        disc = np.frombuffer(records["discretized_box:%g" % eps])
        fails += checks.check_close("discretized_box %g" % eps, disc,
                                    checks.singlet_table(points, points).ravel(),
                                    1e-12)
        bell = records.get("bell_box:%g" % eps)
        if bell is not None:
            fails += checks.check_close("bell_box %g" % eps,
                                        np.frombuffer(bell), disc, 1e-10)
    return ["cover_pipeline: " + f for f in fails]

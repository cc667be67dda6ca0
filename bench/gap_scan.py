"""gap_scan: affine_family(k=1) -> find_hard_p -> certificate, over a ladder
of target boxes, plus affine_of and induced_box on sampled protocols.

Protocol enumeration and the analysis scan do nearly all the work; sphere
and quantum only build the inputs.  The |family| x resolution matrix inside
find_hard_p sets the peak memory.
"""

from __future__ import annotations

import numpy as np

import checks
from boxlab import analysis, boxes, protocols, quantum, sphere

N_BINARY = 8           # every third one has PR weight 0, so it is local
SINGLET_SIZES = (3, 4)
PROTOCOLS_PER_TARGET = 10


def _random_protocol(rng, target):
    x2, y2, a2, b2 = target.table.shape
    maps = {"alphabets": [2, 2, 2, 2, x2, y2, a2, b2], "k": 1,
            "q_maps": [rng.integers(0, x2, 2).tolist()],
            "r_maps": [rng.integers(0, y2, 2).tolist()],
            "s_map": rng.integers(0, 2, 2 * a2).tolist(),
            "t_map": rng.integers(0, 2, 2 * b2).tolist()}
    proto = protocols.DeterministicProtocol(
        protocols.Alphabets(*maps["alphabets"]), 1,
        tuple(map(tuple, maps["q_maps"])), tuple(map(tuple, maps["r_maps"])),
        tuple(maps["s_map"]), tuple(maps["t_map"]))
    return maps, proto


def setup(seed: int, workdir: str) -> dict:
    rng = np.random.default_rng([seed, 1])
    # (label, kind, box, independent table)
    targets = [("pr", "pr", boxes.pr_box(), checks.pr_table())]
    for i in range(N_BINARY):
        local = i % 3 == 2
        table = checks.random_ns_table(rng, local)
        targets.append(("ns%d" % i, "local" if local else "ns",
                        boxes.CorrelationBox(table), table))
    for i, n in enumerate(SINGLET_SIZES):
        a_dirs = checks.random_unit_vectors(rng, n)
        b_dirs = checks.random_unit_vectors(rng, n)
        spec = quantum.simple_bell_spec(
            [quantum.unitary_for_point(c) for c in a_dirs],
            [quantum.unitary_for_point(c) for c in b_dirs])
        box = quantum.bell_box(spec, quantum.SINGLET)
        targets.append(("singlet%d" % i, "quantum", box,
                        checks.singlet_table(a_dirs, b_dirs)))
    fib = sphere.build_cover(2.0)             # the T=4 Fibonacci cover
    targets.append(("fib4", "quantum", sphere.discretized_box(fib),
                    checks.singlet_table(fib.points, fib.points)))
    octa = checks.octahedron_points()
    targets.append(("octahedron", "octahedron",
                    sphere.discretized_box(sphere.octahedron_cover()),
                    checks.singlet_table(octa, octa)))
    samples = {label: [_random_protocol(rng, box)
                       for _ in range(PROTOCOLS_PER_TARGET)]
               for label, _, box, _ in targets}
    return {"targets": targets, "samples": samples}


def ops(state: dict) -> list:
    """One round: (name, run, record) triples; run() is timed."""
    fams: dict = {}
    out = []
    for label, _, box, _ in state["targets"]:
        def family(label=label, box=box):
            fams[label] = protocols.affine_family(box, 1)
            return fams[label]

        def hard_p(label=label):
            cert = analysis.find_hard_p(fams[label], k=1)
            return cert, cert.verify()

        out.append(("affine_family:" + label, family,
                    lambda fam: tuple((l.intercept, l.slope) for l in fam)))
        out.append(("find_hard_p:" + label, hard_p,
                    lambda r: (r[0].p_star, r[0].gap, r[1])))
        protos = [proto for _, proto in state["samples"][label]]
        out.append(("protocols:" + label,
                    lambda protos=protos, box=box:
                        [(protocols.affine_of(p, box), protocols.induced_box(p, box))
                         for p in protos],
                    lambda pairs: [((l.intercept, l.slope), b.table.tolist())
                                   for l, b in pairs]))
    return out


def check(state: dict, records: dict) -> list:
    fails = []
    classical = checks.classical_lines()
    for label, kind, box, table in state["targets"]:
        fails += checks.check_close("input box " + label, box.table, table, 1e-10)
        lines = records["affine_family:" + label]
        p_star, gap, verified = records["find_hard_p:" + label]
        fails += checks.check_contains(lines, classical, "k=0 classical lines")
        fails += checks.check_certificate(lines, p_star, gap)
        if not verified:
            fails.append("certificate of %s does not self-verify" % label)
        if kind in ("quantum", "octahedron"):
            fails += checks.check_below_omega(lines)
        if kind == "local":
            fails += checks.check_below_classical(lines)
        if kind == "octahedron":
            fails += checks.check_octahedron(p_star, gap)
        if kind == "pr":
            fails += checks.check_contains(lines, [(1.0, 0.0)], "constant line 1")
        for (maps, _), (line, induced) in zip(state["samples"][label],
                                              records["protocols:" + label]):
            own = checks.induced_table(maps, table)
            fails += checks.check_protocol_line(line, induced, own, lines)
            fails += checks.check_box_table(induced)
    return ["gap_scan: " + f for f in fails]

"""boxlab: simulation and verification toolkit for bipartite correlation boxes."""

__version__ = "0.1.0"

from .boxes import (CorrelationBox, box_from_json, box_to_json,
                    is_nonsignaling, local_box, mix, pr_box, sample,
                    tv_closeness)
from .quantum import (PHI_PLUS, SINGLET, BellBoxSpec, bell_box, bloch_of,
                      direct_sum_bell, random_unitary, simple_bell_spec,
                      singlet_invariance_defect, singlet_measure_box,
                      unitary_for_point)
from .games import (PlanarStrategy, achieved_win_prob, biased_bound, omega,
                    optimal_strategy, win_prob)
from .protocols import (AffineFunction, Alphabets, BINARY,
                        DeterministicProtocol, LineFamily, affine_family,
                        affine_of, check_reduction, count_protocols,
                        counting_bound, enumerate_protocols,
                        identity_protocol, induced_box)
from .analysis import (EpsilonSchedule, GapCertificate, best_affine_fit,
                       epsilon_schedule, find_hard_p, line_intersections,
                       measure_near, omega_second_derivative, tangent_line)
from .sphere import (SphereCover, audit_cover, build_cover, discretized_box,
                     fibonacci_points, octahedron_cover, reduce_measurement,
                     verify_reduction)

"""The action of a toral automorphism's power on the cohomology of the torus, degree by degree.

H^i(T^n) = Lambda^i(R^n), so A^k acts in degree i by its i-th exterior power.
No main path builds this graded map (a toral Lefschetz number comes from
``toral_lefschetz``), so the construction lives with the tests that compare
the two routes.
"""

from lefdist.lefschetz import GradedMap, ToralAutomorphism
from lefdist.linalg import exterior_power


def toral_graded_map(t: ToralAutomorphism, k: int) -> GradedMap:
    """Action of A^k on H^i(T^n) = Lambda^i(R^n), one exterior power per degree i = 0..n."""
    ak = t.power(k)
    return GradedMap(tuple(exterior_power(ak, i) for i in range(t.dim + 1)))

"""The closed wire format: every number a report prints reads back to the same string.

``linalg.num_to_str`` writes every output number, and the readers take it
back: ``to_number`` for the exact-or-inexact numbers, ``read_int`` for a
fixed-point count.  Atom locations are numbers on the groups Z and R; on the
abstract group the identity prints as ``e``.
"""

from lefdist.linalg import num_to_str, read_int, to_number

# keys whose string values, and the string entries of whose arrays, are numbers
NUMBER_KEYS = frozenset(
    {"coeff", "smooth_const", "lefschetz", "vol_centralizer", "vol_g", "chi_lambda", "window", "beta_lambda", "points"}
)


def printed_numbers(obj, key=None, group=None):
    """(key, string) for every number that ``obj``, a parsed report, prints as a string."""
    if isinstance(obj, dict):
        group = obj.get("group", group)
        for k, v in obj.items():
            yield from printed_numbers(v, k, group)
    elif isinstance(obj, list):
        for v in obj:
            yield from printed_numbers(v, key, group)
    elif isinstance(obj, str) and (
        key in NUMBER_KEYS or key == "at" and group in ("Z", "R") or key == "count" and obj != "infinite"
    ):
        yield key, obj


def assert_numbers_read_back(obj) -> set:
    """Assert that every printed number reads back to itself; returns the keys seen."""
    seen = set()
    for key, s in printed_numbers(obj):
        back = str(read_int(s, key)) if key == "count" else num_to_str(to_number(s, key))
        assert back == s, (key, s)
        seen.add(key)
    return seen

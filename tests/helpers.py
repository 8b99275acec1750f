"""Series helpers shared by the tests."""

from frobpde.multiseries import CSeries2, norm


def max_abs_diff(f, g):
    """Largest coefficient difference up to the common order."""
    order = min(f.order, g.order)
    keys = {Q for Q in f.coeffs if norm(Q) <= order}
    keys |= {Q for Q in g.coeffs if norm(Q) <= order}
    return max((abs(f.get(Q) - g.get(Q)) for Q in keys), default=0.0)


def diff_x(f):
    """Term-wise d/dx."""
    out = {}
    for (q1, q2), v in f.coeffs.items():
        if q1 >= 1:
            out[(q1 - 1, q2)] = v * q1
    return CSeries2(f.order, out)

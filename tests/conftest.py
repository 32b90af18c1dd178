"""Shared test settings and fixtures: property tests replay a fixed example
sequence, `constant_field` builds the constant fields several modules test
against, and `_sqrt_trace` is the two-sheet square-root boundary trace."""
import numpy as np
from hypothesis import settings

from qlip import qfield as qf
from qlip.qspace import QPoint

settings.register_profile("derandomized", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("derandomized")


def constant_field(domain: qf.GridDomain, res: int, t: QPoint) -> qf.QGridFunction:
    """The field equal to the tuple t at every node."""
    vals = np.broadcast_to(t.points, (res,) * domain.m + t.points.shape).copy()
    return qf.QGridFunction(domain, res, vals)


def _sqrt_trace(p):
    """The two sheets +-sqrt(z) at the points p (..., 2), z = p_0 + i p_1,
    as values (..., 2, 2)."""
    v = np.sqrt(p[..., 0] + 1j * p[..., 1])
    sheet = np.stack([v.real, v.imag], axis=-1)
    return np.stack([sheet, -sheet], axis=-2)

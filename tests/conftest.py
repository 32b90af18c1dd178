"""Shared test settings and fixtures: property tests replay a fixed example
sequence, and `constant_field` builds the constant fields several modules
test against."""
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

"""Record the stability sub-rasters of the analyzer's reference queries.

  PYTHONPATH=<checkout>/src python tests/data/record_reference_rasters.py

evaluates ``stability_map`` for every query of
``test_vonneumann.REFERENCE_RASTERS`` on the ``REFERENCE_C`` x ``REFERENCE_R``
raster with the ``aderfv`` found on the path and writes
``reference_rasters.npz`` next to this script, one array (c, r) per query
name. Record it from the commit whose rasters the tests should hold, and
commit it with the change that records it.
"""
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from aderfv.vonneumann import stability_map  # noqa: E402
from test_vonneumann import REFERENCE_C, REFERENCE_R, REFERENCE_RASTERS  # noqa: E402

rasters = {}
for name, query in REFERENCE_RASTERS.items():
    rasters[name] = stability_map(query, REFERENCE_C, REFERENCE_R)
    print(name, rasters[name].shape, rasters[name].mean())
np.savez(os.path.join(HERE, "reference_rasters.npz"), **rasters)

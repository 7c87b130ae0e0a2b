"""Record the final cell averages of the solver's reference runs.

  PYTHONPATH=<checkout>/src python tests/data/record_reference_fields.py

runs every case of ``test_solver.REFERENCE_RUNS`` with the ``aderfv`` found
on the path and writes ``reference_fields.npz`` next to this script, one
array (cells, m) per run name. Record it from the commit whose fields the
tests should hold, and commit it with the change that records it.
"""
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from aderfv.grid import Grid  # noqa: E402
from aderfv.solver import run  # noqa: E402
from test_solver import REFERENCE_RUNS  # noqa: E402

fields = {}
for name, (make, n_cells, cfg, *_) in REFERENCE_RUNS.items():
    fields[name] = run(make(), Grid(0.0, 1.0, n_cells), cfg).field.interior
    print(name, fields[name].shape)
np.savez(os.path.join(HERE, "reference_fields.npz"), **fields)

"""Machine metadata for benchmark result files.

``benchmarks/e2e/e2e.py`` and ``benchmarks/scaling_200x.py`` stamp the
results they write with :func:`machine_metadata`.  Nothing in ``repro``
imports this module; the flight recorder's one artifact is the
decision-log file (:mod:`repro.obs.replay`).
"""

from __future__ import annotations

import os
import platform
import sys


def machine_metadata() -> dict:
    return {
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
    }

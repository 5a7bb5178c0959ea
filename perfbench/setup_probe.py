"""Set-up time of one fresh interpreter: import the package, then load
each config given as ``config:<path>`` or ``sweep:<path>`` and build its
problem through ``RunConfig.from_dict``.  Prints the seconds taken."""

import sys
import time

t0 = time.perf_counter()

import json  # noqa: E402

from biased_momentum import RunConfig  # noqa: E402

for arg in sys.argv[1:]:
    kind, path = arg.split(":", 1)
    with open(path) as fh:
        doc = json.load(fh)
    RunConfig.from_dict(doc["base"] if kind == "sweep" else doc)

print(repr(time.perf_counter() - t0))

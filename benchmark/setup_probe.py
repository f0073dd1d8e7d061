"""Print the seconds `import conekop` plus `load_variety(<variety>)` take.

Run in a fresh interpreter: python3 setup_probe.py <src dir> <variety>.
load_variety includes the sampled link-margin certificate
(attach_link_margin), the set-up work every run of the package pays.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import conekop  # noqa: E402

conekop.load_variety(sys.argv[2])
print(repr(time.perf_counter() - t0))

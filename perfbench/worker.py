"""Fresh worker process of the benchmark: times its set-up, then runs the loop.

Set-up time is measured from the start of ``import metroent.cli`` until the
import returns, the CLI being ready for its first call.  Nothing else is
imported first, so the time includes every module the CLI needs.
Usage (run.py starts it): ``python3 -I perfbench/worker.py --probe`` or
``... --workload NAME --seed N --blocks B --work-dir DIR --result FILE``.

``--reference-setup`` times instead a fixed set of imports that uses none
of metroent, the same kind of work as its set-up (numpy's extension
modules and pure-Python standard modules): run.py scales set-up times to
one machine speed with it.
"""

import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(_HERE), "src"), _HERE]

_start = time.perf_counter()
if sys.argv[1:] == ["--reference-setup"]:
    import argparse, csv, dataclasses, decimal, fractions, json, numpy  # noqa: E401, F401

    print(json.dumps({"reference_setup_s": time.perf_counter() - _start}))
    sys.exit(0)
import metroent.cli  # noqa: E402

_setup_s = time.perf_counter() - _start

import loop  # noqa: E402

sys.exit(loop.main(metroent.cli, _setup_s))

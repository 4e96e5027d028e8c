"""Run ``arens`` with the benchmark's tracer installed.

    ARENSBENCH_TRACE_OUT=spans.json ARENSBENCH_OP=3 python3 bench/launcher.py ARGS...

Equivalent to ``python3 -m arenscalc.cli ARGS...`` (with ``src`` on
``PYTHONPATH``), except that every wrapped function records spans, which
are written to ``ARENSBENCH_TRACE_OUT`` when ``main`` returns.
"""

import os
import sys

import arenscalc.cli
import tracer

if __name__ == "__main__":
    tr = tracer.Tracer()
    tr.op = int(os.environ.get("ARENSBENCH_OP", "0"))
    tr.install()
    try:
        code = arenscalc.cli.main(sys.argv[1:])
    finally:
        tr.uninstall()
        tr.dump(os.environ["ARENSBENCH_TRACE_OUT"])
    sys.exit(code)

"""Run one riskforest CLI verb with layer spans recorded around it.

    PYTHONPATH=src PERFBENCH_SPANS=spans.json python3 perfbench/traced_cli.py VERB [ARGS...]

Behaves like ``python -m riskforest.cli VERB ARGS...`` and, when the verb
ends, writes ``{"spans": [...], "absent": [...], "wrapped": [...]}`` to the
file named by PERFBENCH_SPANS. Optional variables: PERFBENCH_SPAWN, the
``time.perf_counter`` reading taken just before this process was started
(it opens the ``cli.startup`` span); PERFBENCH_PARENT, the id of the span
that started the process; PERFBENCH_WORKLOAD, the workload name spans carry.
"""

import json
import os
import sys
import time

from tracing import VERB_TARGETS, Tracer

import riskforest.cli as cli


def main(argv) -> int:
    imported = time.perf_counter()
    tracer = Tracer(os.environ.get("PERFBENCH_WORKLOAD", ""),
                    os.environ.get("PERFBENCH_PARENT"))
    spawn = os.environ.get("PERFBENCH_SPAWN")
    if spawn is not None:
        tracer.close(tracer.open("cli.startup", start=float(spawn)), end=imported)
    tracer.install(VERB_TARGETS)
    main_span = tracer.open("cli.main")
    try:
        return cli.main(argv)
    finally:
        tracer.close(main_span)
        tracer.finish()
        names = sorted(tracer.wrapped | {"cli.main"}
                       | ({"cli.startup"} if spawn is not None else set()))
        with open(os.environ["PERFBENCH_SPANS"], "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "absent": tracer.absent,
                       "wrapped": names}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

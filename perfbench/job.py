"""Run one benchmark job with spans around every call into blockspin.

    python3 perfbench/job.py JOB_ID SPANS_FILE cli|script ARG...

`cli` runs ``blockspin.cli.main(ARGS)`` as ``python -m blockspin.cli ARGS``
would; `script` runs the concatenation script's ``main(ARGS)``.  The import
of the entry module is timed as the `import` span; the wrappers are installed
after it, and the spans are written to SPANS_FILE when the job ends.
"""

from __future__ import annotations

import importlib
import sys
import time

from tracing import IMPORT, LAYERS, Recorder, install


def main(argv: list[str]) -> int:
    job_id, spans_path, entry, args = argv[0], argv[1], argv[2], argv[3:]
    rec = Recorder(job_id)
    t0 = time.perf_counter()
    module = importlib.import_module("blockspin.cli" if entry == "cli" else "concat")
    rec.add(IMPORT, t0, time.perf_counter())
    layers = {name: sys.modules[f"blockspin.{name}"] for name in LAYERS
              if f"blockspin.{name}" in sys.modules}
    extra = () if entry == "cli" else (module,)
    install(rec, layers, extra)
    run = module.main if entry == "cli" else rec.wrap("script.main", module.main)
    try:
        return run(args)
    finally:
        rec.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

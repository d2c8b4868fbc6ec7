"""One benchmark pass in a fresh process: run a list of nevlab CLI commands.

    python3 worker.py JOB.json

JOB.json holds ``{"src": ..., "commands": [[argv...], ...], "trace": bool,
"result": path}``.  Each argv goes through the public entry point
``nevlab.cli.main``; the exit codes (``null`` when a command raised) and
either the spans (traced) or the speed probe's samples (untraced, see
probe.py) are written to the result path.  Command output goes to the
``--out`` files named in the argv; diagnostics go to stderr.
"""

from __future__ import annotations

import json
import sys
import time
import traceback

from probe import SpeedProbe


def main() -> int:
    start = time.perf_counter()
    probe = None
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    if not job["trace"]:
        probe = SpeedProbe()
        probe.start()
    sys.path.insert(0, job["src"])
    import nevlab.cli
    imported = time.perf_counter()

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.record("cli.import", start, imported)
        tracer.install()
    codes = []
    for argv in job["commands"]:
        try:
            codes.append(nevlab.cli.main(argv))
        except SystemExit as e:  # argparse rejects the command line
            codes.append(e.code if isinstance(e.code, int) else 1)
        except Exception:  # a hard error in one command must not hide the rest
            traceback.print_exc()
            codes.append(None)
    result = {"codes": codes}
    if tracer is not None:
        result["spans"] = tracer.spans
    if probe is not None:
        result["probe"] = probe.stop()
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One rblie command-line call under the tracer.

    python bench/cli_child.py TOTALS_FILE COSTS rblie-arguments...

Runs `rblie.cli.main` on the arguments with the same stdout, stderr and
exit code as `python -m rblie.cli`, and writes the per-layer totals of
the call to TOTALS_FILE.  COSTS is the JSON list of the calling tracer's
calibrated wrapper costs (see spans.Tracer.calibrate), so that a call of
about 100 ms does not measure them again.  PYTHONPATH must name the
checkout's src/.
"""

import json
import sys

from spans import Tracer


def main():
    totals_file, costs, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    from rblie import cli

    tracer = Tracer()
    tracer.costs = tuple(json.loads(costs))
    tracer.install()
    build = cli._build_context
    cli._build_context = lambda args: tracer.instrument(build(args))
    try:
        code = cli.main(argv)
    finally:
        with open(totals_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.raw(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

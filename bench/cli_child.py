"""One traced CLI request: ``python3 bench/cli_child.py SPAN_FILE ARGS...``.

Imports cyclekit.cli (timed), installs the span recorders, runs
``cli_main(ARGS)``, writes the counts, calibrated self times and spans to
SPAN_FILE and exits with the command's exit code.
"""

import json
import sys
from time import perf_counter

import run

sys.path.insert(0, run.SRC)


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    before = run.kernel_seconds()
    start = perf_counter()
    import cyclekit.cli

    import_s = perf_counter() - start
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cyclekit.cli.cli_main(argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    scale = run._scale(before, run.kernel_seconds())
    with open(span_file, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "import_s": import_s,
                "scale": scale,
                "snapshot": tracer.snapshot(scale),
                "spans": tracer.span_record(),
            },
            handle,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())

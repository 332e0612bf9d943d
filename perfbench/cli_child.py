"""Traced one-shot keplor process: `cli_child.py <span file> <keplor argv...>`.

Does what the `keplor` entry point does (`sys.exit(cli.run(argv))`), but
first times `import keplor` and installs the span wrappers; the spans are
written to the span file after the command has printed its envelope.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> None:
    span_file, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter_ns()
    import keplor
    from keplor import cli

    import_ns = time.perf_counter_ns() - start
    import tracing

    tracer = tracing.Tracer()
    tracer.install(keplor)
    code = cli.run(argv)
    sys.stdout.flush()
    tracer.uninstall()
    with open(span_file, "w", encoding="utf-8") as handle:
        json.dump({"import_ns": import_ns, "spans": tracer.spans}, handle)
    sys.exit(code)


if __name__ == "__main__":
    main()

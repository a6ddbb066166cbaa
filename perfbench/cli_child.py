"""Traced `centertrans` process: python3 cli_child.py SUMMARY_JSON ARGV...

Imports the CLI (timing the import), installs the span wrappers of
spans.py, runs ``centertrans.cli.main(ARGV)`` and writes the span summary
to SUMMARY_JSON even when main raises, so the exit code and any
traceback are those of an untraced run.
"""

import json
import sys
import time

import spans


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    started = time.perf_counter()
    import centertrans.cli

    import_s = time.perf_counter() - started
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        return centertrans.cli.main(argv)
    finally:
        summary = tracer.summary()
        summary["import_s"] = import_s
        with open(out, "w") as fh:
            json.dump(summary, fh)


if __name__ == "__main__":
    sys.exit(main())

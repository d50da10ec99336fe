"""One benchmark operation in its own process.

    python3 perfbench/opshim.py [--trace DIR] cli ARG...   # srbetti CLI
    python3 perfbench/opshim.py [--trace DIR] lib NAME ARG...  # library call

Untraced CLI operations do not come here: the benchmark runs them as
`python3 -m srbetti.cli`, exactly as a user does.  This entry point exists
for library calls the CLI does not expose, and for traced runs, where the
hooks of tracer.py are installed before the operation starts and the
process's span aggregates are written to DIR when it ends.
"""

from __future__ import annotations

import json
import sys


def asymptotic_window(d, r, mode):
    """Predicted strand windows of the r-fold subdivided (d-1)-simplex."""
    from srbetti import asymptotics, complexes

    res = asymptotics.asymptotic_window(complexes.simplex(int(d) - 1), int(r), mode)
    sys.stdout.write(json.dumps(res, sort_keys=True) + "\n")
    return 0


LIB_OPS = {"asymptotic_window": asymptotic_window}


def main(argv):
    tracer = None
    if argv[:1] == ["--trace"]:
        import tracer as tracing

        tracer = tracing.install(argv[1])
        argv = argv[2:]
    kind, rest = argv[0], argv[1:]
    try:
        if kind == "cli":
            from srbetti import cli

            return cli.main(rest)
        return LIB_OPS[rest[0]](*rest[1:])
    finally:
        if tracer is not None:
            tracer.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

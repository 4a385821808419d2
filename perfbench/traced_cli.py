"""Run the lecalc CLI under the outside-in tracer.

Usage: python3 -u perfbench/traced_cli.py SPANS_OUT <lecalc arguments>

Standard output is exactly what `python -m lecalc <arguments>` prints; the
spans and counters go to SPANS_OUT when the CLI returns.
"""

import sys

from tracer import Tracer, install


def main() -> int:
    out_path = sys.argv[1]
    tracer = Tracer()
    install(tracer)
    from lecalc import cli

    code = cli.main(sys.argv[2:])
    sys.stdout.flush()
    tracer.dump(out_path)
    return code


if __name__ == "__main__":
    sys.exit(main())

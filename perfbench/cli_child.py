"""Traced CLI child: ``python cli_child.py SPANS_JSON -- <gravsim arguments>``.

Installs the span wrappers inside this process, runs ``gravsim.cli.main`` on
the remaining arguments, writes the spans and exits with the CLI's code.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer  # noqa: E402

import gravsim.cli  # noqa: E402


def main() -> int:
    spans_path, separator, *argv = sys.argv[1:]
    if separator != "--":
        raise SystemExit("usage: cli_child.py SPANS_JSON -- ARGS")
    tracer = Tracer()
    tracer.install()
    try:
        code = gravsim.cli.main(argv)
    finally:
        tracer.restore()
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())

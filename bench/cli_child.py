"""Run one detdyn CLI invocation with the tracer installed, then write its
spans as JSON. Used by the traced ``cli`` workload in place of
``python -m detdyn.cli``.

Usage: python bench/cli_child.py SPANS.json <detdyn cli arguments>
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from tracer import Tracer


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    import detdyn.cli

    tracer = Tracer()
    with tracer.installed(0):
        code = detdyn.cli.main(argv)
    if not tracer.unpatched():
        sys.stderr.write("cli_child: wrappers were not restored\n")
        return 3
    out.write_text(json.dumps(tracer.spans), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())

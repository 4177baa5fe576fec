"""Bootstrap for the traced cli-cold run: times `import spherica.cli` and
`spherica.cli.main(argv)` in a fresh interpreter, with the layer wrappers
installed after the import, and writes the spans as a JSON list.

Usage: python3 -X importtime perfbench/cli_boot.py SPANS_OUT [cli args...]
The untraced run spawns the real `python -m spherica.cli` instead.
"""

import json
import sys

import tracer

rec = tracer.Recorder()
span = rec.open("cli.import")
import spherica.cli as cli  # noqa: E402  (the import is what is timed)

rec.close(span)
restore = tracer.install(rec, tracer.CLI_TARGETS)
span = rec.open("cli.main")
try:
    code = cli.main(sys.argv[2:])
finally:
    rec.close(span)
    restore()
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump([s.to_json() for s in rec.spans], fh)
sys.stdout.flush()
sys.exit(code)

"""Run ``plasmeq.cli.main`` with the layer spans installed (traced runs).

    python -X importtime perfbench/cli_shim.py SPANS.json --out DIR <command> ...

Writes the spans and counters of this one command to SPANS.json and exits
with the command's exit code.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import plasmeq.cli  # noqa: E402

import spans  # noqa: E402

if __name__ == "__main__":
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        code = plasmeq.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        tracer.dump(sys.argv[1])
    sys.exit(code)

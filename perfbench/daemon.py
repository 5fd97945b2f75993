"""Traced ``repro serve``: install the layer wrappers, run the real CLI
entry point, and write the recorded spans once the daemon has drained.

    python3 perfbench/daemon.py SPANS.json serve --port 0 --checkpoint-dir D

Only requests that carry ``pb_op``/``pb_trace`` query parameters are traced
(see ``tracing.install_service``).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

common.use_program()

import tracing  # noqa: E402


def main(argv) -> int:
    spans_out, cli_args = argv[0], argv[1:]
    tracer = tracing.Tracer()
    tracing.install_layers(tracer)
    tracing.install_service(tracer)
    from repro.cli import main as repro_main

    code = repro_main(cli_args)
    with open(spans_out, "w") as handle:
        json.dump(tracer.dump(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

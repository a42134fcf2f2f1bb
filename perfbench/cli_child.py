"""`wulffkit` CLI under the tracer: python3 cli_child.py SUMS_JSON CLI_ARGS...

Runs wulffkit.cli.main(CLI_ARGS) in this fresh interpreter with every
layer wrapped, writes the tracer's sums to SUMS_JSON and exits with the
CLI's exit code.
"""

import json
import sys
from pathlib import Path

import common

common.add_src_to_path()
from tracer import Tracer  # noqa: E402

with Tracer() as tracer:
    import wulffkit.cli as cli
    code = cli.main(sys.argv[2:])
Path(sys.argv[1]).write_text(json.dumps(tracer.sums), encoding="utf-8")
sys.exit(code)

"""Run one `ellcm` command under the layer tracer, in a fresh interpreter.

    python3 perfbench/cli_child.py SUMMARY.json <ellcm arguments...>

Behaves like `python3 -m ellcm.cli <arguments>` (same output, same exit
code) and writes the tracer's summary, spans included, to SUMMARY.json at
exit.  The parent benchmark folds that summary into its own trace.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    import ellcm.cli
    tracer = Tracer().install()
    try:
        tracer.start()
        code = ellcm.cli.main(argv)
        tracer.stop()
    finally:
        tracer.uninstall()
        with open(out, "w") as fh:
            json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Run one stonespec CLI call with the layer tracer installed.

    python perfbench/clitrace.py <spans.json> <op id> <cli arguments...>

Standard output and the exit code are the CLI's own; the import time, the
spans and the counters go to <spans.json>.  Conditioning warnings are
counted instead of printed.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter


def main() -> int:
    out, op_id, args = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    t0 = perf_counter()
    cli = importlib.import_module("stonespec.cli")
    import_s = perf_counter() - t0
    from record import WarningCounter
    from tracer import Tracer

    tracer = Tracer().install()
    tracer.begin_op(op_id)
    warned = WarningCounter()
    code = 0
    try:
        with warned:
            cli.main.main(args=args, prog_name="stonespec", standalone_mode=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(out, "w") as fh:
            json.dump({"import_s": import_s, "band_hits": warned.band_hits,
                       **tracer.export()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Cold-start probe, run in a fresh interpreter by ``run.py``.

Times importing ``opentropy.cli`` and building its argument parser, plus,
when given ``SEED FILES_DIR TINY``, writing the compute-files matrix files.
Prints one JSON object with the elapsed seconds and, measured afterwards,
a calibration reading over twelve samples.
"""

import sys
import time

_START = time.perf_counter()

import opentropy.cli  # noqa: E402

opentropy.cli.build_parser()
if len(sys.argv) == 4:
    import workloads

    workloads.write_matrix_files(int(sys.argv[1]), sys.argv[2],
                                 sys.argv[3] == "1")
_ELAPSED = time.perf_counter() - _START

import json  # noqa: E402

import calibration  # noqa: E402

calibration.sample()  # the first call pays one-off numpy set-up
print(json.dumps({"setup_s": _ELAPSED,
                  "calibration_ms": calibration.reading(12)}))

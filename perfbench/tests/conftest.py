"""Make the benchmark's modules (``pb``) and the program (``src``)
importable when the suite runs from the repository root."""

import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_BENCH = os.path.dirname(_HERE)
for _path in (os.path.join(os.path.dirname(_BENCH), "src"), _BENCH):
    if _path not in sys.path:
        sys.path.insert(0, _path)

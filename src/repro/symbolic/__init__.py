"""Symbolic execution of M̃PY candidate spaces.

The SKETCH translation of the paper turns expression choices into functions
over integer holes (Section 2.3). Our equivalent is hole-directed concrete
execution: :class:`~repro.symbolic.recorder.RecordingInterpreter` runs the
M̃PY program under a concrete hole assignment while recording exactly which
holes the run *read* — the "cube" that generalizes a failing run into a SAT
blocking clause covering every assignment that agrees on those holes.
"""

from repro.symbolic.recorder import RecordingInterpreter

__all__ = ["RecordingInterpreter"]

"""Explorer selection: table-based blocking on, or per-candidate sweeps.

:data:`EXPLORER` is set by the CLI's ``--explorer`` flag or the
``REPRO_EXPLORER`` environment variable (see :mod:`repro.settings`), and
is **on** by default. The off state is the ablation: engines fall back to
one generalized cube per failing candidate, the per-candidate sweep the
exploration tables replace.
"""

from __future__ import annotations

from repro.settings import Setting, switch

EXPLORER = Setting("REPRO_EXPLORER", switch("explorer"), True)

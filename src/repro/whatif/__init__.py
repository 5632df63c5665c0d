"""Copy-on-write simulation snapshots and the what-if query engine.

See ``docs/WHATIF.md``.  The pieces:

* :class:`SimSnapshot` — freeze/rewind a paused simulation in
  O(changed) via the columnar copy-on-write page store;
* :class:`Perturbation` subclasses (:class:`SubmitJob`,
  :class:`SwapPolicy`, :class:`AddMemNodes`) — the counterfactual edits;
* :class:`WhatIf` / :class:`WhatIfReport` — the session API behind
  ``repro whatif``: one snapshot per session, one rollback per query,
  and reports memoized by perturbation key.
"""

from .api import WhatIf, WhatIfReport
from .perturb import AddMemNodes, Perturbation, SubmitJob, SwapPolicy
from .snapshot import SimSnapshot

__all__ = [
    "AddMemNodes",
    "Perturbation",
    "SimSnapshot",
    "SubmitJob",
    "SwapPolicy",
    "WhatIf",
    "WhatIfReport",
]

"""P2P file-sharing workload (§6.4).

* :mod:`repro.workload.files` — the file catalog: >=100k files with
  power-law copy counts (popularity rate phi = 1.2), placed on peers
  according to Saroiu ownership.
* :mod:`repro.workload.queries` — the query stream: two-segment Zipf
  popularity (0.63 for ranks <= 250, 1.24 below).
* :mod:`repro.workload.filesharing` — the simulation loop: query, flood,
  select source by policy, download, rate, refresh reputations every
  1000 queries; reports the query success rate.
"""

from repro.workload.files import FileCatalog
from repro.workload.filesharing import FileSharingSimulation, SharingResult
from repro.workload.object_reputation import ObjectReputation
from repro.workload.queries import QueryStream

__all__ = [
    "FileCatalog",
    "QueryStream",
    "FileSharingSimulation",
    "SharingResult",
    "ObjectReputation",
]

"""repro - reproduction of "Exploiting diverse observation perspectives
to get insights on the malware landscape" (Leita, Bayer, Kirda, DSN 2010).

The package rebuilds the paper's full stack:

* :mod:`repro.core` - EPM clustering, the paper's contribution,
* :mod:`repro.egpm` - the EGPM attack model and the SGNET dataset store,
* :mod:`repro.honeypot` - the SGNET deployment (ScriptGen FSM learning,
  honeyfarm hand-off, Nepenthes-style shellcode handling),
* :mod:`repro.sandbox` - Anubis-style dynamic analysis and the scalable
  LSH behaviour clustering (B-clusters),
* :mod:`repro.enrich` - VirusTotal-style AV labelling and the
  information-enrichment pipeline,
* :mod:`repro.malware`, :mod:`repro.peformat`, :mod:`repro.net` - the
  synthetic malware landscape standing in for real-world traffic,
* :mod:`repro.analysis` - the combined-perspective analyses of SS4
  (cluster relations, anomaly detection, propagation context, C&C
  correlation),
* :mod:`repro.experiments` - the paper-scale scenario and one driver per
  table/figure.

Quickstart::

    from repro.experiments import PaperScenario

    scenario = PaperScenario(seed=2010)
    run = scenario.run()
    print(run.epm.counts(), run.bclusters.n_clusters)
"""

__version__ = "1.0.0"

from repro.core import EPMClustering, EPMResult, InvariantPolicy
from repro.egpm import AttackEvent, SGNetDataset
from repro.sandbox import BehaviorClustering, ClusteringConfig

__all__ = [
    "AttackEvent",
    "BehaviorClustering",
    "ClusteringConfig",
    "EPMClustering",
    "EPMResult",
    "InvariantPolicy",
    "SGNetDataset",
    "__version__",
]

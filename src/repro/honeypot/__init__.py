"""SGNET distributed-honeypot simulation.

The components mirror Figure 1 of the paper:

* :mod:`repro.honeypot.fsm` — ScriptGen-style protocol learning: a
  Finite State Machine over message-token streams, refined by region
  analysis of buffered conversations.  Learned leaf states are the FSM
  *path identifiers* that feed the epsilon dimension of EPM clustering.
* :mod:`repro.honeypot.shellcode` — Nepenthes-style shellcode analysis
  and download emulation, including the real system's failure modes
  (unknown shellcodes, truncated downloads).
* :mod:`repro.honeypot.sensor` / :mod:`repro.honeypot.gateway` — the
  low-cost sensors and the central gateway that keeps their FSM models
  in sync, proxies the conversations the FSM cannot explain to the
  honeyfarm (the Argos-based sample factories of the real system) and
  triggers refinement.  Every attack attempt is a code injection by
  construction, so the simulation models the honeyfarm by its load:
  the sensors count what they proxy.
* :mod:`repro.honeypot.deployment` — the orchestrator: builds the
  deployment (30 networks x 5 addresses by default, as deployed at the
  time of the paper), observes an attack stream and emits the enriched
  :class:`~repro.egpm.dataset.SGNetDataset`.
"""

from repro.honeypot.fsm import FSMLearner, FSMModel, FSMNode, UNKNOWN_PATH_ID
from repro.honeypot.shellcode import DownloadOutcome, ShellcodeAnalyzer, ShellcodeConfig
from repro.honeypot.sensor import HoneypotSensor
from repro.honeypot.gateway import Gateway
from repro.honeypot.deployment import DeploymentConfig, SGNetDeployment

__all__ = [
    "DeploymentConfig",
    "DownloadOutcome",
    "FSMLearner",
    "FSMModel",
    "FSMNode",
    "Gateway",
    "HoneypotSensor",
    "SGNetDeployment",
    "ShellcodeAnalyzer",
    "ShellcodeConfig",
    "UNKNOWN_PATH_ID",
]

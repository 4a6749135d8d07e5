"""The SGNET gateway: FSM synchronisation and honeyfarm hand-off.

The gateway owns the shared FSM learner (all sensors see one model, kept
"in sync" by construction).  Sensors call :meth:`Gateway.process` for
every conversation; the gateway classifies it against the model or, if
the model cannot explain it, proxies it to the honeyfarm and feeds it
to the learner, eventually refining the model so future instances are
handled on the sensors autonomously.
"""

from __future__ import annotations

from repro.honeypot.fsm import Conversation, FSMLearner


class Gateway:
    """Central coordination point of the deployment."""

    def __init__(self, learner: FSMLearner | None = None) -> None:
        self.learner = learner or FSMLearner()

    @property
    def model(self):
        """The shared FSM model sensors classify against."""
        return self.learner.model

    def process(self, conversation: Conversation) -> int:
        """Classify-or-learn in a single FSM walk.

        Returns the path id of a conversation the model explains.  On a
        miss the conversation is proxied: the walk's terminal state
        feeds the learner directly, and the result is
        :data:`~repro.honeypot.fsm.UNKNOWN_PATH_ID`.
        """
        learner = self.learner
        node, consumed = learner.model.walk(conversation)
        if consumed == len(conversation):
            return node.node_id
        return learner.observe_prewalked(conversation, node, consumed)

    def finalize(self) -> None:
        """End-of-stream hook: flush pending refinement buffers."""
        self.learner.flush()

    def classify(self, conversation: Conversation) -> int:
        """Classify against the current shared model (no learning)."""
        return self.learner.classify(conversation)

"""ScriptGen-style FSM protocol learning over message-token streams.

The real ScriptGen performs *region analysis* over raw byte streams:
aligning samples of the same conversation state and splitting each
message into fixed regions (bytes identical across enough samples) and
mutating regions.  We reproduce the algorithm one abstraction level up,
over token sequences: a message is a tuple of string tokens, and region
analysis marks each token position as fixed (some value recurs in at
least ``min_support`` buffered samples) or wildcard.

The learned model is a tree of states.  Each edge carries a *pattern*
(tuple of fixed values and ``None`` wildcards); a conversation follows
matching edges message by message and its **FSM path identifier** is the
identifier of the state it ends in.  Conversations that fall off the
learned tree are buffered at the state where they diverged; once a
state's buffer holds ``refine_threshold`` conversations, region analysis
turns the buffer into new edges (and recursively into subtrees), which
is exactly the learn-from-the-honeyfarm loop of the SGNET gateway.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Sequence

from repro.util.validation import require

#: Path identifier for conversations the final FSM cannot classify.
UNKNOWN_PATH_ID = -1

Message = tuple[str, ...]
Conversation = Sequence[Message]
#: An edge pattern: per-position fixed value or None (mutating region).
Pattern = tuple[str | None, ...]


def pattern_matches(pattern: Pattern, message: Message) -> bool:
    """Whether ``message`` is an instance of ``pattern``."""
    if len(pattern) != len(message):
        return False
    for p, m in zip(pattern, message):
        if p is not None and p != m:
            return False
    return True


def _compile_edge(pattern: Pattern, child: "FSMNode") -> tuple:
    fixed = [i for i, token in enumerate(pattern) if token is not None]
    if not fixed:
        return None, None, child
    fixed_tokens = itemgetter(*fixed)
    return fixed_tokens, fixed_tokens(pattern), child


@dataclass
class FSMNode:
    """One state of the learned FSM."""

    node_id: int
    depth: int
    edges: list[tuple[Pattern, "FSMNode"]] = field(default_factory=list)

    # Derived edge index (see :meth:`_reindex`).  Unannotated class
    # attributes, not dataclass fields, so equality and ``repr`` ignore
    # them and an unpickled node starts from these empty defaults.
    _by_length = {}
    _indexed_edges = 0

    def match_edge(self, message: Message) -> "FSMNode | None":
        """The successor state whose pattern matches ``message``, if any.

        Edges are checked most-specific-first (fewest wildcards), so a
        message matching both a specialised and a generic edge follows
        the specialised one; among equally specific edges the first
        added wins.  This is the innermost loop of both observation
        passes, so each candidate edge is one compiled comparison of the
        message's fixed-region tokens.
        """
        if self._indexed_edges != len(self.edges):
            self._reindex()
        for fixed_tokens, expected, child in self._by_length.get(len(message), ()):
            if fixed_tokens is None or fixed_tokens(message) == expected:
                return child
        return None

    def _reindex(self) -> None:
        """Group the edges by pattern length, most specific first.

        Each edge compiles to ``(fixed_tokens, expected, child)``:
        ``fixed_tokens`` is an :func:`operator.itemgetter` over the
        pattern's fixed positions (``None`` for an all-wildcard
        pattern) and ``expected`` is what it returns on the pattern
        itself.  Edges are only ever appended (online learning), so a
        change in ``len(edges)`` marks the index stale.
        """
        by_length: dict[int, list[tuple]] = {}
        # A stable sort: equally specific edges keep their insertion order.
        for pattern, child in sorted(self.edges, key=lambda edge: edge[0].count(None)):
            by_length.setdefault(len(pattern), []).append(_compile_edge(pattern, child))
        self._by_length = by_length
        self._indexed_edges = len(self.edges)

    def __getstate__(self) -> dict:
        # The index is rebuilt on first use; a pickled node (the
        # deployment is a cached stage artifact) carries only its fields.
        state = dict(self.__dict__)
        state.pop("_by_length", None)
        state.pop("_indexed_edges", None)
        return state


class FSMModel:
    """The learned state tree shared by all sensors."""

    def __init__(self) -> None:
        self.root = FSMNode(node_id=0, depth=0)
        self._next_id = 1
        self._n_edges = 0

    def new_node(self, depth: int) -> FSMNode:
        """Allocate a fresh state."""
        node = FSMNode(node_id=self._next_id, depth=depth)
        self._next_id += 1
        return node

    def add_edge(self, parent: FSMNode, pattern: Pattern, child: FSMNode) -> None:
        """Attach ``child`` under ``parent`` via ``pattern``."""
        parent.edges.append((pattern, child))
        self._n_edges += 1

    @property
    def n_states(self) -> int:
        """Number of allocated states."""
        return self._next_id

    @property
    def n_edges(self) -> int:
        """Number of learned transitions."""
        return self._n_edges

    def walk(self, conversation: Conversation) -> tuple[FSMNode, int]:
        """Follow ``conversation`` as far as the model knows.

        Returns ``(last_state, messages_consumed)``.
        """
        node = self.root
        consumed = 0
        for message in conversation:
            child = node.match_edge(tuple(message))
            if child is None:
                break
            node = child
            consumed += 1
        return node, consumed

    def classify(self, conversation: Conversation) -> int:
        """FSM path identifier of ``conversation``.

        A conversation is classified only if the model consumes *all* its
        messages; partial matches return :data:`UNKNOWN_PATH_ID`, like an
        SGNET sensor handing the conversation over to the honeyfarm.
        """
        node, consumed = self.walk(conversation)
        if consumed == len(conversation):
            return node.node_id
        return UNKNOWN_PATH_ID


def region_analysis(messages: Sequence[Message], min_support: int) -> list[Pattern]:
    """Split a buffer of same-state messages into edge patterns.

    Token positions whose value recurs in at least ``min_support``
    samples are fixed regions; others are wildcards.  Messages are
    first partitioned by length (different message shapes can never
    share an edge), then grouped by their fixed-region signature.
    Groups smaller than ``min_support`` are discarded — the samples
    stay unexplained, as in ScriptGen, until more evidence arrives.
    """
    require(min_support >= 1, "min_support must be >= 1")
    patterns: list[Pattern] = []
    by_length: dict[int, list[Message]] = {}
    for message in messages:
        by_length.setdefault(len(message), []).append(message)
    for length, group in sorted(by_length.items()):
        position_counts: list[Counter] = [Counter() for _ in range(length)]
        for message in group:
            for position, token in enumerate(message):
                position_counts[position][token] += 1
        signatures: dict[Pattern, int] = {}
        for message in group:
            signature = tuple(
                token if position_counts[position][token] >= min_support else None
                for position, token in enumerate(message)
            )
            signatures[signature] = signatures.get(signature, 0) + 1
        for signature, support in sorted(
            signatures.items(), key=lambda kv: (-kv[1], str(kv[0]))
        ):
            if support >= min_support:
                patterns.append(signature)
    return patterns


class FSMLearner:
    """Online learner wrapping an :class:`FSMModel` with refinement buffers.

    :meth:`observe` is the sensor-facing entry point: it returns the FSM
    path identifier when the conversation is fully handled by the current
    model, or :data:`UNKNOWN_PATH_ID` after buffering the unexplained
    suffix for later refinement (the proxy-to-honeyfarm case).
    """

    def __init__(self, *, refine_threshold: int = 12, min_support: int = 4) -> None:
        require(refine_threshold >= min_support, "refine_threshold < min_support")
        self.model = FSMModel()
        self.refine_threshold = refine_threshold
        self.min_support = min_support
        self._buffers: dict[int, list[tuple[Message, ...]]] = {}
        self._nodes_by_id: dict[int, FSMNode] = {0: self.model.root}
        self._n_refinements = 0

    @property
    def n_refinements(self) -> int:
        """How many times region analysis extended the model."""
        return self._n_refinements

    def observe(self, conversation: Conversation) -> int:
        """Process one conversation, learning if it is unexplained."""
        node, consumed = self.model.walk(conversation)
        if consumed == len(conversation):
            return node.node_id
        return self.observe_prewalked(conversation, node, consumed)

    def observe_prewalked(
        self, conversation: Conversation, node: FSMNode, consumed: int
    ) -> int:
        """Buffer an unexplained conversation whose walk already ran.

        Callers that have just walked ``conversation`` (and found it
        only ``consumed`` messages deep, stopping at ``node``) hand the
        walk result over instead of paying a second identical walk —
        the buffering and refinement behaviour is exactly
        :meth:`observe`'s unexplained branch.
        """
        suffix = tuple(tuple(m) for m in conversation[consumed:])
        buffer = self._buffers.setdefault(node.node_id, [])
        buffer.append(suffix)
        if len(buffer) >= self.refine_threshold:
            self._refine(node)
        return UNKNOWN_PATH_ID

    def _refine(self, node: FSMNode) -> None:
        """Region-analyse ``node``'s buffer into new subtrees."""
        buffer = self._buffers.pop(node.node_id, [])
        if not buffer:
            return
        self._n_refinements += 1
        self._build_subtree(node, buffer)

    def _build_subtree(self, node: FSMNode, suffixes: list[tuple[Message, ...]]) -> None:
        firsts = [suffix[0] for suffix in suffixes if suffix]
        if not firsts:
            return
        patterns = region_analysis(firsts, self.min_support)
        leftovers: list[tuple[Message, ...]] = []
        claimed = [False] * len(suffixes)
        for pattern in patterns:
            matching = [
                i
                for i, suffix in enumerate(suffixes)
                if suffix and not claimed[i] and pattern_matches(pattern, suffix[0])
            ]
            if len(matching) < self.min_support:
                continue
            child = self.model.new_node(node.depth + 1)
            self._nodes_by_id[child.node_id] = child
            self.model.add_edge(node, pattern, child)
            for i in matching:
                claimed[i] = True
            tails = [suffixes[i][1:] for i in matching if len(suffixes[i]) > 1]
            if tails:
                self._build_subtree(child, tails)
        for i, suffix in enumerate(suffixes):
            if suffix and not claimed[i]:
                leftovers.append(suffix)
        if leftovers:
            self._buffers.setdefault(node.node_id, []).extend(leftovers)

    def flush(self) -> None:
        """Force refinement of every non-empty buffer.

        Used at end-of-stream so long-tail activities that never reached
        the refinement threshold still get a chance to be learned (with
        the support requirement still enforced).
        """
        for node_id in list(self._buffers.keys()):
            node = self._nodes_by_id[node_id]
            self._refine(node)

    def classify(self, conversation: Conversation) -> int:
        """Classify against the *current* model (no learning)."""
        return self.model.classify(conversation)

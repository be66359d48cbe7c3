"""The paper's primary contribution: the Optimistic Active Replication
algorithm (client, server, and the Cnsv-order conservative ordering).

Public entry points:

* :class:`~repro.core.server.OARServer` / :class:`~repro.core.server.OARConfig`
* :class:`~repro.core.client.OARClient` / :class:`~repro.core.client.AdoptedReply`
* :func:`~repro.core.cnsv_order.compute_bad_new` (Fig. 7, pure function)
* :class:`~repro.core.sequences.MessageSequence` and the Section 5.1
  operators (⊕ ⊖ ⊓ ⊎)
"""

from repro.core.client import AdoptedReply, OARClient
from repro.core.cnsv_order import (
    CnsvDecision,
    CnsvOrderResult,
    CnsvProposal,
    compute_bad_new,
    decision_from_vector,
)
from repro.core.messages import PhaseII, Reply, Request, SeqOrder
from repro.core.sequences import (
    EMPTY,
    MessageSequence,
    as_sequence,
    common_prefix,
    merge_dedup,
)
from repro.core.server import OARConfig, OARServer

__all__ = [
    "AdoptedReply",
    "CnsvDecision",
    "CnsvOrderResult",
    "CnsvProposal",
    "EMPTY",
    "MessageSequence",
    "OARClient",
    "OARConfig",
    "OARServer",
    "PhaseII",
    "Reply",
    "Request",
    "SeqOrder",
    "as_sequence",
    "common_prefix",
    "compute_bad_new",
    "decision_from_vector",
    "merge_dedup",
]

"""Consensus oracles.

The OAR algorithm's conservative phase reduces ``Cnsv-order`` to a
consensus problem with a strengthened validity property (Section 5.5):

* **Termination** -- each correct process eventually decides.
* **Agreement** -- no two correct processes decide differently.
* **Maj-validity** -- if a process decides V, then V is a sequence of
  initial values such that, for a majority of processes p_i, if p_i
  proposed v_i then v_i ∈ V.

:mod:`repro.consensus.chandra_toueg` implements the rotating-coordinator
◇S algorithm of [CT96]; the Maj-validity variant ([Fel98]) is obtained by
making the first aggregated estimate the ordered vector of initial values
collected from a majority.  OAR runs it in the paper's footnote-5 mode,
where a coordinator leaves the initial values of processes it suspects
out of that vector while the rest still meet every majority (see the
module docstring for the rules that keep it safe).
"""

from repro.consensus.chandra_toueg import (
    AGGREGATE,
    INITIAL,
    CAck,
    CDecide,
    CEstimate,
    CNack,
    ConsensusInstance,
    ConsensusManager,
    CProposal,
)

__all__ = [
    "AGGREGATE",
    "CAck",
    "CDecide",
    "CEstimate",
    "CNack",
    "CProposal",
    "ConsensusInstance",
    "ConsensusManager",
    "INITIAL",
]

"""Property-based tests for the consensus oracle under random faults.

Agreement and Maj-validity must survive any legal combination of
coordinator crashes and (transient) wrong suspicions; termination must
hold whenever a majority stays correct and the failure detector
eventually stops lying.

Besides the Hypothesis suites, the same space is swept from plain
``random.Random(seed)`` draws (:func:`draw_scenario`), so a failure is a
seed: tier-1 sweeps seed 9, and
``PYTHONPATH=src python tests/property/test_consensus_props.py 7 8 9``
sweeps any seeds (4 000 draws each; exit status 1 on a violation).
"""

import random
import sys
from typing import Any, Dict, List, Tuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.consensus.chandra_toueg import ConsensusManager
from repro.failure.detector import ScriptedFailureDetector
from repro.sim.component import ComponentProcess
from repro.sim.latency import UniformLatency
from repro.sim.loop import Simulator
from repro.sim.network import SimNetwork

import pytest

pytestmark = pytest.mark.property


FUZZ_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class Participant(ComponentProcess):
    def __init__(self, pid: str, group: List[str], collect: str) -> None:
        super().__init__(pid)
        self.fd = ScriptedFailureDetector()
        self.manager = self.add_component(
            ConsensusManager(self, group, self.fd, collect=collect)
        )
        self.decisions: Dict[Any, Any] = {}

    def propose(self, instance: Any, value: Any) -> None:
        self.manager.propose(
            instance, value, lambda k, v: self.decisions.__setitem__(k, v)
        )


@st.composite
def consensus_scenarios(draw):
    n = draw(st.sampled_from([3, 4, 5]))
    majority = n // 2 + 1
    n_crashes = draw(st.integers(0, n - majority))
    crash_victims = draw(
        st.lists(
            st.integers(0, n - 1),
            min_size=n_crashes,
            max_size=n_crashes,
            unique=True,
        )
    )
    crash_times = [draw(st.floats(0.0, 10.0)) for _ in crash_victims]
    # Transient wrong suspicions: (observer, target, start, duration).
    n_suspicions = draw(st.integers(0, 4))
    suspicions = [
        (
            draw(st.integers(0, n - 1)),
            draw(st.integers(0, n - 1)),
            draw(st.floats(0.0, 8.0)),
            draw(st.floats(1.0, 10.0)),
        )
        for _ in range(n_suspicions)
    ]
    collect = draw(st.sampled_from(["majority", "unsuspected"]))
    seed = draw(st.integers(0, 100_000))
    return n, crash_victims, crash_times, suspicions, collect, seed


def run_consensus(scenario):
    n, crash_victims, crash_times, suspicions, collect, seed = scenario
    sim = Simulator(seed=seed)
    network = SimNetwork(sim, latency=UniformLatency(0.5, 1.5))
    group = [f"p{i + 1}" for i in range(n)]
    parts = [Participant(pid, group, collect) for pid in group]
    for part in parts:
        network.add_process(part)
    network.start_all()

    crashed = set()
    for victim_index, when in zip(crash_victims, crash_times):
        victim = group[victim_index]
        crashed.add(victim)
        network.crash_at(when, victim)
        # Crashed processes must eventually be suspected by all (strong
        # completeness); schedule it shortly after the crash.
        for part in parts:
            sim.schedule_at(
                when + 3.0, lambda fd=part.fd, v=victim: fd.force_suspect(v)
            )

    for observer_index, target_index, start, duration in suspicions:
        observer, target = parts[observer_index], group[target_index]
        sim.schedule_at(
            start, lambda fd=observer.fd, t=target: fd.force_suspect(t)
        )
        if target not in crashed:
            # Eventual accuracy: wrong suspicions are retracted.
            sim.schedule_at(
                start + duration,
                lambda fd=observer.fd, t=target: fd.force_unsuspect(t),
            )

    for part in parts:
        part.propose("k", f"value-{part.pid}")

    sim.run(max_events=400_000)
    survivors = [p for p in parts if not p.crashed]
    return survivors, crashed


def min_cover(n: int, collect: str) -> int:
    """Fewest processes a decision may cover: a majority ([CT96]
    Maj-validity), or in footnote-5 mode ``n - n // 2``, the fewest that
    still meet every majority (what Cnsv-order's undo consistency needs)."""
    return n // 2 + 1 if collect == "majority" else n - n // 2


def violation(scenario) -> str:
    """``"termination"``, ``"agreement"``, ``"cover"`` (a decision below
    :func:`min_cover`) or ``""`` for one scenario."""
    survivors, _crashed = run_consensus(scenario)
    decisions = [p.decisions.get("k") for p in survivors]
    if any(d is None for d in decisions):
        return "termination"
    if len({repr(d) for d in decisions}) != 1:
        return "agreement"
    n, _v, _t, _s, collect, _seed = scenario
    if len(decisions[0]) < min_cover(n, collect):
        return "cover"
    return ""


@given(consensus_scenarios())
@FUZZ_SETTINGS
def test_agreement_and_termination(scenario):
    assert violation(scenario) == ""


def draw_scenario(r: random.Random) -> Tuple[Any, ...]:
    """One draw of :func:`consensus_scenarios`' space from a plain RNG."""
    n = r.choice([3, 4, 5])
    k = r.randint(0, n - (n // 2 + 1))
    victims = r.sample(range(n), k)
    crash_times = [r.uniform(0, 10) for _ in victims]
    suspicions = [
        (r.randrange(n), r.randrange(n), r.uniform(0, 8), r.uniform(1, 10))
        for _ in range(r.randint(0, 4))
    ]
    collect = r.choice(["majority", "unsuspected"])
    return n, victims, crash_times, suspicions, collect, r.randint(0, 100_000)


def sweep(seed: int, draws: int = 4_000) -> List[Tuple[str, Tuple[Any, ...]]]:
    """Every (violation, scenario) among ``draws`` draws of ``seed``."""
    r = random.Random(seed)
    found = []
    for _ in range(draws):
        scenario = draw_scenario(r)
        kind = violation(scenario)
        if kind:
            found.append((kind, scenario))
    return found


def test_seeded_sweep_finds_no_violation():
    # Before footnote 5's four rules this seed read 4 agreement and 1
    # termination violations, all in "unsuspected" mode; before rule (b)
    # bounded the filter by min_cover, 22 of its footnote-5 decisions
    # covered too few processes.
    assert sweep(9) == []


#: Draws that broke footnote-5 mode or an intermediate rule set of it.
#: The first made p1 decide {p1, p2, p3} while p2 and p3 decided {p2}:
#: the coordinator proposed over fewer than a majority of estimates.
REGRESSIONS = {
    "agreement": (
        3, [], [], [(1, 2, 1.0, 1.0), (0, 0, 1.0, 1.0), (1, 0, 0.0, 1.0)], "unsuspected", 1,
    ),
    # A refusal, with the coordinator waiting on a crashed process.
    "refused-coordinator-waits-on-crashed": (
        3, [0], [0.2557522838892101],
        [(2, 1, 2.3985513997263803, 5.8280047771434065),
         (1, 2, 4.9599372743563395, 4.934437756665284)],
        "unsuspected", 51054,
    ),
    # A participant waiting for a coordinator that gave the round up.
    "participant-waits-on-given-up-round": (
        4, [0], [0.50559977454536],
        [(2, 3, 4.664166970367725, 1.2736146998828828),
         (2, 1, 4.388404432691219, 1.4079282126982928)],
        "unsuspected", 2093,
    ),
    # A self-suspecting coordinator leaving its round silently.
    "self-suspecting-coordinator": (
        4, [0], [2.570937326902867],
        [(2, 1, 1.4361494430977029, 5.5901289775736265),
         (3, 2, 0.9034318067294524, 8.844806947261437),
         (2, 2, 2.4176685872246573, 6.899913941532855)],
        "unsuspected", 55325,
    ),
}


@pytest.mark.parametrize("name", sorted(REGRESSIONS))
def test_regression_draw_agrees_and_terminates(name):
    assert violation(REGRESSIONS[name]) == ""


def test_falsifying_example_decides_a_majority():
    scenario = REGRESSIONS["agreement"]
    survivors, _crashed = run_consensus(scenario)
    decisions = {p.pid: p.decisions["k"] for p in survivors}
    assert len(set(decisions.values())) == 1
    assert len(decisions["p1"]) >= scenario[0] // 2 + 1


@given(consensus_scenarios())
@FUZZ_SETTINGS
def test_decided_values_are_genuine_proposals(scenario):
    survivors, _crashed = run_consensus(scenario)
    decision = survivors[0].decisions.get("k")
    assert decision is not None
    for pid, value in decision:
        assert value == f"value-{pid}", "decision forged a proposal"


@given(consensus_scenarios())
@FUZZ_SETTINGS
def test_majority_collection_satisfies_maj_validity(scenario):
    n, _v, _t, _s, collect, _seed = scenario
    if collect != "majority":
        return  # footnote 5 weakens it to min_cover, checked by violation()
    survivors, _crashed = run_consensus(scenario)
    decision = survivors[0].decisions.get("k")
    assert decision is not None
    assert len(decision) >= n // 2 + 1


if __name__ == "__main__":
    violations = [found for seed in map(int, sys.argv[1:]) for found in sweep(seed)]
    for kind, scenario in violations:
        print(kind, scenario)
    print(f"{len(violations)} violations")
    sys.exit(1 if violations else 0)

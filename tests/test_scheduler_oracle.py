"""Assignment policies against a reference scan.

Each policy in :mod:`repro.core.scheduler` decides on a
:class:`~repro.core.queue.LoadView` with lazy heaps and cached id
lists.  The oracle below is the straightforward selection code: build
the candidate list (alive workers in id order, then the quarantine and
exclusion fallbacks), scan it.  Every test drives a policy and the
oracle through the same randomised schedule of assignments,
completions, deaths, revivals and skip sets, and requires the chosen
worker ids to match step for step.
"""

import random

import pytest

from repro.cluster.microfaas import MicroFaaSCluster
from repro.core.orchestrator import Orchestrator
from repro.core.platform import ARM, X86
from repro.core.queue import LoadView
from repro.core.scheduler import (
    HEAP_SLACK,
    CarbonAwarePolicy,
    EnergyAwarePolicy,
    LeastLoadedPolicy,
    PackingPolicy,
    RandomSamplingPolicy,
    RoundRobinPolicy,
    make_policy,
)
from repro.energy.controlplane import CarbonSignal
from repro.shard import ClusterSpec, ShardedCluster
from repro.sim.kernel import Environment


# -- the oracle -----------------------------------------------------------------------


def oracle_candidates(count, dead, quarantined, exclude):
    """Schedulable ids: alive, un-quarantined, optionally minus one.

    If every alive worker is quarantined the quarantine yields; then the
    exclusion yields if it would leave no candidate.
    """
    alive = [wid for wid in range(count) if wid not in dead]
    candidates = alive
    healthy = [wid for wid in alive if wid not in quarantined]
    if healthy:
        candidates = healthy
    if exclude is not None:
        spread = [wid for wid in candidates if wid != exclude]
        if spread:
            candidates = spread
    return candidates


def least_loaded_scan(candidates, loads):
    """First minimum of the loads in candidate order (lowest id)."""
    scanned = [loads[wid] for wid in candidates]
    return candidates[scanned.index(min(scanned))]


def energy_aware_scan(candidates, loads, platforms, preferred, spill_threshold):
    """Least-loaded of the preferred platform unless it is under pressure
    and some other platform holds a shorter queue."""
    best_pref = best_pref_load = best_other = best_other_load = None
    for wid in candidates:
        load = loads[wid]
        if platforms[wid] == preferred:
            if best_pref is None or load < best_pref_load:
                best_pref, best_pref_load = wid, load
        elif best_other is None or load < best_other_load:
            best_other, best_other_load = wid, load
    if best_pref is None:
        return best_other
    if best_other is None:
        return best_pref
    if best_pref_load >= spill_threshold and best_other_load < best_pref_load:
        return best_other
    return best_pref


def cheapest_platform(signals, weights, now, default):
    best = best_cost = None
    for platform in sorted(signals):
        cost = signals[platform].cost_at(now) * weights.get(platform, 1.0)
        if best is None or cost < best_cost - 1e-12:
            best, best_cost = platform, cost
    return best if best is not None else default


class Oracle:
    """Reference selection on its own copy of the cluster state."""

    def __init__(self, name, platforms, seed=0, spill_threshold=2,
                 signals=None, weights=None):
        self.name = name
        self.platforms = platforms
        self.loads = [0] * len(platforms)
        self.dead = set()
        self.rng = random.Random(seed)
        self.next = 0
        self.spill_threshold = spill_threshold
        self.signals = signals or {}
        self.weights = weights or {}

    def select(self, now, quarantined, exclude, is_powered, depth):
        candidates = oracle_candidates(
            len(self.loads), self.dead, quarantined, exclude
        )
        if self.name == "random-sampling":
            return candidates[self.rng.randrange(len(candidates))]
        if self.name == "round-robin":
            index = self.next % len(candidates)
            self.next += 1
            return candidates[index]
        if self.name == "least-loaded":
            return least_loaded_scan(candidates, self.loads)
        if self.name == "packing":
            powered = [wid for wid in candidates if is_powered(wid)]
            return min(powered or candidates, key=lambda wid: (depth(wid), wid))
        preferred = cheapest_platform(self.signals, self.weights, now, ARM)
        return energy_aware_scan(
            candidates, self.loads, self.platforms, preferred,
            self.spill_threshold,
        )


# -- the randomised schedule -------------------------------------------------------


def drive(policy, oracle, seed, steps=600):
    """Run policy and oracle through one randomised schedule.

    Returns how often each skip-set fallback was exercised.
    """
    platforms = oracle.platforms
    count = len(platforms)
    rng = random.Random(seed)
    view = LoadView(platforms)
    powered = set()
    depths = [0] * count
    view.is_powered = powered.__contains__
    view.depth = depths.__getitem__
    policy.bind(view)
    outstanding = []
    fallbacks = {"quarantine": 0, "exclude": 0}
    now = 0.0
    for step in range(steps):
        now += rng.expovariate(1.0) * 600.0
        powered.clear()
        powered.update(wid for wid in range(count) if rng.random() < 0.5)
        for wid in range(count):
            depths[wid] = rng.randrange(4)
        alive = [wid for wid in range(count) if wid not in oracle.dead]
        roll = rng.random()
        if roll < 0.55 or not outstanding:
            quarantined, exclude = skip_inputs(rng, alive, fallbacks)
            view.now = now
            picked = policy.select(None, view.skip_set(quarantined, exclude))
            expected = oracle.select(
                now, set(quarantined), exclude, view.is_powered, view.depth
            )
            assert picked == expected, (
                f"step {step}: policy picked {picked}, oracle {expected}"
            )
            oracle.loads[picked] += 1
            view.change_load(picked, 1)
            outstanding.append(picked)
        elif roll < 0.85:
            wid = outstanding.pop(rng.randrange(len(outstanding)))
            oracle.loads[wid] -= 1
            view.change_load(wid, -1)
        elif roll < 0.95 and len(alive) > 1:
            # A dead worker's jobs are salvaged elsewhere: its load zeroes.
            wid = alive[rng.randrange(len(alive))]
            outstanding = [w for w in outstanding if w != wid]
            oracle.loads[wid] = 0
            oracle.dead.add(wid)
            view.loads[wid] = 0
            view.mark_dead(wid)
        elif oracle.dead:
            wid = sorted(oracle.dead)[rng.randrange(len(oracle.dead))]
            oracle.dead.discard(wid)
            view.mark_alive(wid)
    assert view.loads == oracle.loads
    return fallbacks


def skip_inputs(rng, alive, fallbacks):
    """A quarantine list and an exclusion, sometimes forcing a fallback."""
    roll = rng.random()
    if roll < 0.5:
        return [], None
    if roll < 0.6:
        fallbacks["quarantine"] += 1
        return list(alive), rng.choice(alive)
    if roll < 0.7:
        # Everyone but the excluded worker is quarantined.
        fallbacks["exclude"] += 1
        exclude = rng.choice(alive)
        return [wid for wid in alive if wid != exclude], exclude
    quarantined = [wid for wid in alive if rng.random() < 0.3]
    exclude = rng.choice(alive) if rng.random() < 0.5 else None
    return quarantined, exclude


ARM_ONLY = (ARM,) * 12
MIXED = (ARM,) * 7 + (X86,) * 5


def check(policy, oracle, seed):
    fallbacks = drive(policy, oracle, seed)
    assert fallbacks["quarantine"] > 0 and fallbacks["exclude"] > 0


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_random_sampling_matches_oracle(seed):
    check(
        RandomSamplingPolicy(random.Random(seed)),
        Oracle("random-sampling", ARM_ONLY, seed=seed),
        seed + 100,
    )


@pytest.mark.parametrize("seed", [0, 3])
def test_round_robin_matches_oracle(seed):
    check(RoundRobinPolicy(), Oracle("round-robin", ARM_ONLY), seed + 200)


@pytest.mark.parametrize("seed", [0, 5, 11])
def test_least_loaded_matches_oracle(seed):
    check(LeastLoadedPolicy(), Oracle("least-loaded", ARM_ONLY), seed + 300)


@pytest.mark.parametrize("seed", [0, 5, 13])
def test_energy_aware_matches_oracle(seed):
    check(EnergyAwarePolicy(), Oracle("energy-aware", MIXED), seed + 400)


def test_energy_aware_spill_threshold_matches_oracle():
    check(
        EnergyAwarePolicy(spill_threshold=3),
        Oracle("energy-aware", MIXED, spill_threshold=3),
        seed=450,
    )


@pytest.mark.parametrize("seed", [0, 2])
def test_packing_matches_oracle(seed):
    check(PackingPolicy(), Oracle("packing", ARM_ONLY), seed + 500)


def carbon_signals():
    """Two curves half a period apart: the cheaper platform flips twice
    in every 10-minute period."""
    return {
        ARM: CarbonSignal(base=100.0, amplitude=90.0, period_s=600.0),
        X86: CarbonSignal(
            base=100.0, amplitude=90.0, period_s=600.0, phase_s=300.0
        ),
    }


@pytest.mark.parametrize("seed", [0, 4, 9])
def test_carbon_aware_matches_oracle_under_time_varying_signal(seed):
    signals = carbon_signals()
    weights = {ARM: 1.0, X86: 1.5}
    policy = CarbonAwarePolicy(signals=signals, joules_weights=weights)
    oracle = Oracle("carbon-aware", MIXED, signals=signals, weights=weights)
    check(policy, oracle, seed + 600)
    # The signal must actually have moved the preference during the run.
    assert {
        policy.preferred_platform(t * 60.0) for t in range(10)
    } == {ARM, X86}


def test_carbon_aware_without_signals_is_energy_aware():
    check(CarbonAwarePolicy(), Oracle("energy-aware", MIXED), seed=700)


# -- the lazy heap stays bounded ------------------------------------------------------


@pytest.mark.parametrize(
    "name, platforms",
    [
        ("least-loaded", (ARM,) * 128),
        ("energy-aware", (ARM,) * 96 + (X86,) * 32),
    ],
    ids=["least-loaded", "energy-aware"],
)
def test_heap_stays_bounded_over_long_steady_runs(name, platforms):
    """At 0.85 utilisation some worker always sits at load 0, so the top
    of the heap is valid and nothing stale is ever popped: only the
    rebuild keeps the heap from growing with the decision count."""
    view = LoadView(platforms)
    policy = make_policy(name)
    policy.bind(view)
    oracle = Oracle(name, platforms)
    rng = random.Random(1)
    target = int(0.85 * len(platforms))
    outstanding = []
    for step in range(100_000):
        picked = policy.select(None)
        if step % 97 == 0:
            assert picked == oracle.select(0.0, (), None, None, None)
        view.change_load(picked, 1)
        oracle.loads[picked] += 1
        outstanding.append(picked)
        while len(outstanding) > target:
            index = rng.randrange(len(outstanding))
            outstanding[index], outstanding[-1] = outstanding[-1], outstanding[index]
            wid = outstanding.pop()
            view.change_load(wid, -1)
            oracle.loads[wid] -= 1
        for heap in policy._heaps.values():
            assert len(heap.entries) <= 2 * len(heap.members) + HEAP_SLACK
    assert policy.select(None) == oracle.select(0.0, (), None, None, None)


def test_heap_top_survives_a_skip_of_every_member():
    view = LoadView((ARM,) * 3)
    policy = LeastLoadedPolicy()
    policy.bind(view)
    with pytest.raises(ValueError, match="no alive workers"):
        policy.select(None, {0, 1, 2})
    # Skipped entries went back in: the next unskipped pick still works.
    assert policy.select(None) == 0
    assert sorted(policy._heaps[None].entries) == [(0, 0), (0, 1), (0, 2)]


# -- misuse fails early ---------------------------------------------------------------


def test_policy_bound_to_a_second_cluster_raises_at_bind_time():
    policy = LeastLoadedPolicy()
    Orchestrator(Environment(), policy=policy)
    with pytest.raises(RuntimeError, match="already bound"):
        Orchestrator(Environment(), policy=policy)
    with pytest.raises(RuntimeError, match="already bound"):
        policy.bind(LoadView((ARM,) * 4))

    shared = RandomSamplingPolicy(random.Random(3))
    MicroFaaSCluster(worker_count=4, seed=3, policy=shared)
    with pytest.raises(RuntimeError, match="already bound"):
        MicroFaaSCluster(worker_count=4, seed=3, policy=shared)

    spec = ClusterSpec(kind="microfaas", worker_count=4, policy="round-robin")
    reused = spec.new_policy()
    spec.build(policy=reused)
    with pytest.raises(RuntimeError, match="already bound"):
        spec.build(policy=reused)


def test_rebinding_to_the_same_view_is_allowed():
    view = LoadView((ARM,) * 2)
    policy = RoundRobinPolicy()
    policy.bind(view)
    policy.bind(view)
    assert view.policy is policy


def test_packing_is_serial_only():
    """Packing reads board power and queue depth: the class says so, a
    coordinator-style view (no probes) refuses it, and a sharded spec
    naming it fails validation before any run starts."""
    assert not PackingPolicy.shardable
    for name in ("random-sampling", "round-robin", "least-loaded",
                 "energy-aware", "carbon-aware"):
        assert make_policy(name).shardable
    with pytest.raises(ValueError, match="board power"):
        PackingPolicy().bind(LoadView((ARM,) * 4))
    spec = ClusterSpec(kind="microfaas", worker_count=4, policy="packing")
    with pytest.raises(ValueError, match="not shardable"):
        ShardedCluster(spec, 2, executor="inline")
    with pytest.raises(KeyError, match="unknown policy"):
        ClusterSpec(kind="microfaas", worker_count=4, policy="magic").validate()

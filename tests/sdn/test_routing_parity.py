"""Randomized router parity: CSR vs the networkx reference, bit for bit.

The CSR :class:`repro.sdn.path_engine.PathEngine` replaced the
``networkx`` routing that :mod:`repro.sdn.nx_reference` keeps frozen;
replacing it must never change an experiment's output.  This suite
sweeps hundreds of ``(seeded fabric, AL mask)`` combinations and
asserts the two routers return **identical paths and identical error
messages** for all six routing entry points, then replays a full chaos
run on each router and compares the frozen reports.
"""

from __future__ import annotations

import random

import pytest

from repro.exceptions import RoutingError
from repro.sdn import nx_reference, routing
from repro.topology.generators import build_alvc_fabric
from tests.sdn.reference import reference_routing

#: 20 fabric seeds x 10 AL masks each = 200 compared combinations.
FABRIC_SEEDS = range(20)
ALS_PER_FABRIC = 10


def _outcome(fn):
    """Normalize a routing call into a comparable (status, value) pair."""
    try:
        return ("ok", fn())
    except RoutingError as exc:
        return ("err", str(exc))


def _both(fabric, fn):
    """Run ``fn(router)`` on both routers and assert identical results."""
    nx_result = _outcome(lambda: fn(nx_reference))
    csr_result = _outcome(lambda: fn(routing))
    assert csr_result == nx_result
    return nx_result


@pytest.mark.parametrize("seed", FABRIC_SEEDS)
def test_engines_agree_on_paths_and_errors(seed):
    fabric = build_alvc_fabric(
        n_racks=4, servers_per_rack=3, n_ops=5, seed=seed
    )
    rng = random.Random(seed * 7919 + 13)
    servers = fabric.servers()
    ops = fabric.optical_switches()
    nodes = servers + fabric.tors() + ops

    for _ in range(ALS_PER_FABRIC):
        al = frozenset(rng.sample(ops, rng.randint(0, len(ops))))
        a, b = rng.choice(nodes), rng.choice(nodes)
        s, t = rng.choice(servers), rng.choice(servers)
        waypoints = [rng.choice(servers) for _ in range(rng.randint(2, 4))]
        targets = rng.sample(servers, rng.randint(1, 4))
        failed = rng.sample(ops, rng.randint(0, 2))
        cut = []
        if rng.random() < 0.5:
            edge = rng.choice(list(fabric.graph.edges))
            cut = [tuple(edge)]

        _both(fabric, lambda r: r.simple_path(fabric, a, b))
        _both(
            fabric,
            lambda r: r.shortest_path_in_al(fabric, s, t, al),
        )
        _both(
            fabric,
            lambda r: r.chain_path(fabric, waypoints, al),
        )
        _both(
            fabric,
            lambda r: r.k_shortest_paths(fabric, s, t, k=3, al_switches=al),
        )
        _both(
            fabric,
            lambda r: r.routes_from(fabric, s, targets, al_switches=al),
        )
        _both(
            fabric,
            lambda r: r.shortest_surviving_path(
                fabric, s, t, failed_nodes=failed, cut_links=cut
            ),
        )

        # Occasionally probe validation paths: unknown and out-of-AL
        # endpoints must produce the same error text on both routers.
        if rng.random() < 0.3:
            _both(
                fabric,
                lambda r: r.shortest_path_in_al(
                    fabric, "no-such-node", t, al
                ),
            )
        if ops and rng.random() < 0.3:
            outsider = rng.choice(ops)
            restricted = al - {outsider}
            _both(
                fabric,
                lambda r: r.k_shortest_paths(
                    fabric, outsider, t, k=2, al_switches=restricted
                ),
            )


def test_parity_survives_topology_mutation():
    """The CSR snapshot tracks mutations: agree, mutate, agree again."""
    fabric = build_alvc_fabric(n_racks=3, servers_per_rack=2, n_ops=3, seed=1)
    servers = fabric.servers()
    s, t = servers[0], servers[-1]
    _both(fabric, lambda r: r.simple_path(fabric, s, t))
    tors = fabric.tors()
    fabric.connect(tors[0], tors[-1])  # new shortcut changes routes
    status, path = _both(fabric, lambda r: r.simple_path(fabric, s, t))
    assert status == "ok"
    assert tors[0] in path and tors[-1] in path


def _one_chaos_run(seed: int):
    """A full seeded chaos run (faults + flows) on the ambient router."""
    from repro.chaos import FaultInjector, RecoveryPolicy, run_chaos
    from repro.sim.traffic import TrafficGenerator

    from tests.chaos.testbed import build_orchestrator

    orchestrator, _ = build_orchestrator(seed=seed)
    inventory = orchestrator.cluster_manager.inventory
    injector = FaultInjector(inventory.network, seed=seed)
    injector.schedule(duration=30.0, rate=0.4, repair_after=6.0)
    flows = TrafficGenerator(inventory, seed=seed).flows(25)
    return run_chaos(
        orchestrator,
        injector.events(),
        flows,
        policy=RecoveryPolicy(max_attempts=3, seed=seed),
        seed=seed,
    )


@pytest.mark.parametrize("seed", [5, 11])
def test_chaos_replay_is_engine_invariant(seed):
    """Chaos reports are bit-identical whichever router routed them."""
    with reference_routing():
        reference = _one_chaos_run(seed)
    candidate = _one_chaos_run(seed)
    assert candidate == reference
    assert candidate.to_rows() == reference.to_rows()
    assert candidate.summary() == reference.summary()

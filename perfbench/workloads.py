"""The four benchmark workloads.

Each workload is played as a series of *repetitions*.  One repetition
builds the system it needs (timed as set-up), makes its inputs from a
seed (untimed), runs the timed calls through the public API, and checks
the outputs (untimed).  Why each workload exists is written in
``README.md`` next to this file.

The fabric and stack seeds are fixed (they are the system under test);
the benchmark seed only draws the inputs: flows, request streams and
tenant scenarios.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import math
import random
import shutil
import tempfile
import time
from pathlib import Path

from repro.config import EngineConfig
from repro.core.cluster import ClusterManager
from repro.observability.runtime import Telemetry, current_telemetry, use_telemetry
from repro.service import ProvisionRequest, TeardownRequest
from repro.service.snapshot import state_digest
from repro.sim.admission import resolve_tree_path
from repro.sim.event_simulator import EventDrivenFlowSimulator
from repro.sim.faults import FaultEvent, FaultKind
from repro.sim.flows import Flow
from repro.stack import AlvcStack
from repro.topology.generators import build_alvc_fabric
from repro.virtualization.machines import MachineInventory
from repro.virtualization.services import STANDARD_SERVICES, ServiceCatalog
from repro.workload import AdmissionPolicy, ScenarioConfig, generate_scenario
import repro.service.restore as restore_module

from checks import check_answered, check_digest, check_flows
from reference import Samples, timed

#: The data-plane path every flows workload is pinned to.
PINNED_ENGINES = EngineConfig(sim_engine="vector", admission="batched")

#: Seed of the fabric, VM placement and stack: part of the system,
#: not of the inputs.
SYSTEM_SEED = 0

#: E23 chain shapes, cycled across the standard services.
CHAIN_MIX: tuple[tuple[str, ...], ...] = (
    ("firewall", "nat"),
    ("dpi",),
    ("proxy", "ids"),
    ("nat",),
)


def restore(journal: Path):
    """``restore_stack`` into a telemetry sink of its own.

    The state digest covers the stack's counters; replaying into the
    live stack's sink would count every replayed command twice.
    """
    sink = current_telemetry()
    if sink.enabled:
        sink = Telemetry.enabled_instance()
    with use_telemetry(sink):
        return restore_module.restore_stack(journal)


@contextlib.contextmanager
def scratch_dir(workdir: Path, prefix: str):
    """A fresh directory under ``workdir``, removed afterwards."""
    root = Path(tempfile.mkdtemp(prefix=prefix, dir=workdir))
    try:
        yield root
    finally:
        shutil.rmtree(root, ignore_errors=True)


def rep_seed(seed: int, index: int) -> int:
    """Input seed of repetition ``index`` in a run with ``seed``."""
    return seed * 1_000_003 + index


@dataclasses.dataclass
class Repetition:
    """What one repetition measured and counted.

    ``units`` is the work the timed calls completed (simulator events,
    answered requests or simulated epochs) and ``wall_s`` the host time
    they took.  ``calls_ms`` holds the host latency of each public call
    the load generator waited on.  ``samples`` holds the host-speed
    reference samples taken around the timed calls (``reference.py``).
    """

    setup_s: float
    wall_s: float
    samples: Samples
    units: int
    calls_ms: list[float]
    attempted: int
    failed: int
    restore_s: float | None = None
    #: Tenants refused by admission and chains a defrag pass could not
    #: re-provision: decisions the churn policies make on purpose on an
    #: over-subscribed fabric, reported beside the failures.
    rejected: int = 0
    defrag_lost: int = 0
    #: ``(start, end)`` of every request, for the front-end wait split.
    request_spans: list[tuple[float, float]] = dataclasses.field(
        default_factory=list
    )
    #: Engine and admission the simulator reported it used.
    engines: tuple[str, str] | None = None


# ----------------------------------------------------------------------
# Data plane: E26 fabric, seven services on two racks each
# ----------------------------------------------------------------------
def build_testbed():
    """The E26 testbed: 128 racks x 8 servers and 48 OPS; seven services,
    each with 16 VMs confined to its own two racks (one VM per server)
    and one AL cluster."""
    dcn = build_alvc_fabric(
        n_racks=128, servers_per_rack=8, n_ops=48, seed=SYSTEM_SEED
    )
    inventory = MachineInventory(dcn)
    catalog = ServiceCatalog.standard()
    services = [service.name for service in STANDARD_SERVICES[:7]]
    tors = sorted(
        (tor for tor in dcn.tors() if dcn.ops_of_tor(tor)),
        key=lambda tor: (len(tor), tor),
    )
    claimed: set = set()
    for index, service in enumerate(services):
        racks = tors[2 * index : 2 * index + 2]
        servers = [
            server
            for tor in racks
            for server in sorted(dcn.servers_under(tor))
            if server not in claimed
        ]
        claimed.update(servers)
        for slot in range(16):
            vm = inventory.create_vm(catalog.get(service))
            inventory.place(vm, servers[slot % len(servers)])
    clusters = ClusterManager(inventory)
    for service in services:
        clusters.create_cluster(service)
    return inventory, clusters, services


def vms_by_service(inventory, services) -> dict[str, list[str]]:
    return {
        service: sorted(vm.vm_id for vm in inventory.vms_of_service(service))
        for service in services
    }


def poisson_flows(vms: dict, count: int, seed: int) -> list[Flow]:
    """Intra-service flows with Poisson arrivals (8000/s) and lognormal
    sizes (mean 1 GB, sigma 0.8): the E26 traffic."""
    rng = random.Random(seed)
    services = sorted(vms)
    sigma = 0.8
    mu = math.log(1e9) - sigma * sigma / 2
    now = 0.0
    flows = []
    for index in range(count):
        now += rng.expovariate(8000.0)
        source, destination = rng.sample(vms[services[rng.randrange(len(services))]], 2)
        flows.append(
            Flow(f"p{index:07d}", source, destination, rng.lognormvariate(mu, sigma), now)
        )
    return flows


def wave_flows(vms: dict, count: int, epochs: int, seed: int) -> list[Flow]:
    """Flows arriving in bulk at integer epochs, each 1-2 TB so almost
    none completes inside the ``epochs`` window."""
    rng = random.Random(seed)
    services = sorted(vms)
    flows = []
    for index in range(count):
        source, destination = rng.sample(vms[services[index % len(services)]], 2)
        flows.append(
            Flow(
                f"w{index:07d}",
                source,
                destination,
                1e12 * (1.0 + rng.random()),
                float(index % epochs),
            )
        )
    return flows


def busiest_uplinks(inventory, clusters, services) -> list[tuple[str, str]]:
    """The ToR-OPS links most intra-service routes cross.

    Cutting one of them never isolates a server (every ToR has two OPS
    uplinks), so the flows crossing it reroute instead of dropping.
    Only links within 10% of the busiest are kept, so whichever one a
    seed cuts displaces about as many flows.
    """
    dcn = inventory.network
    tors = set(dcn.tors())
    switches = set(dcn.optical_switches())
    crossings: dict = {}
    for service in services:
        al = clusters.cluster_of_service(service).al_switches
        hosts = sorted({inventory.host_of(vm.vm_id) for vm in inventory.vms_of_service(service)})
        for source in hosts:
            for destination in hosts:
                if source == destination:
                    continue
                path = resolve_tree_path(dcn, source, destination, al)
                for a, b in zip(path, path[1:]):
                    if (a in tors and b in switches) or (a in switches and b in tors):
                        link = tuple(sorted((a, b)))
                        crossings[link] = crossings.get(link, 0) + 1
    busiest = max(crossings.values())
    return sorted(link for link, count in crossings.items() if count >= 0.9 * busiest)


def cut_schedule(links, epochs: int, cuts: int) -> list[FaultEvent]:
    """``cuts`` link cut/repair pairs at evenly spaced waves, cycling
    through ``links``.

    Each window spans exactly one arrival wave, so the same number of
    arrivals is routed one by one in every run.  The schedule does not
    depend on the seed: which link is cut when decides how many active
    flows get displaced (3x apart between seeded schedules), and that
    would swamp the run-to-run spread.
    """
    events = []
    for index in range(cuts):
        epoch = round((index + 1) * epochs / (cuts + 1))
        link = links[index % len(links)]
        events.append(FaultEvent(epoch - 0.25, FaultKind.LINK_CUT, link))
        events.append(FaultEvent(epoch + 0.25, FaultKind.LINK_REPAIR, link))
    return events


class FlowsWorkload:
    """``flows-poisson`` and ``flows-waves``: one ``simulator.run`` per
    repetition on a freshly built testbed."""

    #: The traced run reads admission and route-cache counters.
    reads_telemetry = True
    #: Share of the calls' time that moves with the disk; see
    #: :func:`reference.scale`.
    io_weight = 0.0

    def __init__(self, name: str, sizes: dict) -> None:
        self.name = name
        self.sizes = sizes
        self._uplinks: list | None = None

    def prepare(self) -> None:
        if self.name == "flows-waves":
            inventory, clusters, services = build_testbed()
            self._uplinks = busiest_uplinks(inventory, clusters, services)

    def build(self):
        inventory, clusters, services = build_testbed()
        simulator = EventDrivenFlowSimulator(inventory, clusters, engines=PINNED_ENGINES)
        return inventory, services, simulator

    def setup_once(self, samples: Samples) -> float:
        return timed(self.build, samples)[1]

    def repetition(self, seed: int, tracer=None) -> Repetition:
        samples = Samples()
        (inventory, services, simulator), setup_s = timed(self.build, samples)

        vms = vms_by_service(inventory, services)
        failures: list = []
        until = None
        if self.name == "flows-poisson":
            flows = poisson_flows(vms, self.sizes["flows"], seed)
        else:
            epochs = self.sizes["epochs"]
            flows = wave_flows(vms, self.sizes["flows"], epochs, seed)
            failures = cut_schedule(self._uplinks, epochs, self.sizes["cuts"])
            until = float(epochs)

        scope = tracer.installed() if tracer is not None else contextlib.nullcontext()
        with scope:
            report, wall_s = timed(
                lambda: simulator.run(flows, failures, until=until), samples
            )

        check_flows(flows, report, simulator.capacities)
        return Repetition(
            setup_s=setup_s,
            wall_s=wall_s,
            samples=samples,
            units=report.events,
            calls_ms=[wall_s * 1e3],
            attempted=len(flows),
            failed=len(report.dropped),
            engines=(simulator.engine, simulator.admission),
        )


# ----------------------------------------------------------------------
# Control plane: E23 durable service behind the batched front end
# ----------------------------------------------------------------------
def request_plan(count: int, live: int, seed: int) -> list[tuple]:
    """``("provision", chain, service)`` or ``("teardown", k)`` items.

    The first ``live`` requests provision; after that requests alternate
    between a new provision and the teardown of the oldest live chain
    (the ``k``-th provision), so the live population stays at ``live``.
    """
    rng = random.Random(seed)
    services = [service.name for service in STANDARD_SERVICES]
    plan: list[tuple] = []
    teardowns = 0
    for index in range(count):
        if index >= live and (index - live) % 2 == 1:
            plan.append(("teardown", teardowns))
            teardowns += 1
        else:
            plan.append(
                (
                    "provision",
                    CHAIN_MIX[rng.randrange(len(CHAIN_MIX))],
                    services[rng.randrange(len(services))],
                )
            )
    return plan


async def closed_loop(frontend, plan: list[tuple], callers: int):
    """``callers`` coroutines, each sending its next request only after
    the previous one was answered.  Returns the responses and every
    request's ``(submitted, answered)`` times."""
    loop = asyncio.get_running_loop()
    #: plan index of a provision -> future of the chain id it created.
    chain_ids = {
        index: loop.create_future()
        for index, item in enumerate(plan)
        if item[0] == "provision"
    }
    provisions = sorted(chain_ids)
    responses = []
    spans: list[tuple[float, float]] = []
    cursor = iter(range(len(plan)))

    async def caller() -> None:
        for index in cursor:
            item = plan[index]
            if item[0] == "provision":
                request = ProvisionRequest(item[1], service=item[2])
            else:
                request = TeardownRequest(await chain_ids[provisions[item[1]]])
            submitted = time.perf_counter()
            response = await frontend.submit(request)
            spans.append((submitted, time.perf_counter()))
            responses.append(response)
            if item[0] == "provision":
                future = chain_ids[index]
                if response.ok:
                    future.set_result(response.detail["chain_id"])
                else:
                    future.set_exception(RuntimeError(response.error))

    tasks = [asyncio.ensure_future(caller()) for _ in range(callers)]
    await asyncio.gather(*tasks)
    return responses, spans


class ControlStreamWorkload:
    """``control-stream``: a closed loop of requests against a journaled
    stack, then crash recovery from the journal just written."""

    name = "control-stream"
    #: The traced run reads journal and front-end counters.
    reads_telemetry = True
    #: Half of the request loop's time moves with the disk: its latency
    #: moved 1.30x where the processors' reference moved 1.59x and the
    #: disk's not at all, and 0.80x where the disk's reference moved
    #: 0.75x and the processors' not at all.  The loop's own fsyncs are
    #: a quarter of it; its writes, flushes and file handling are more.
    io_weight = 0.5

    def __init__(self, sizes: dict, workdir: Path) -> None:
        self.sizes = sizes
        self.workdir = workdir

    def prepare(self) -> None:
        pass

    @staticmethod
    def build(journal: Path):
        """The E23 stack with every standard service's cluster built."""
        stack = AlvcStack.build(
            n_racks=128,
            servers_per_rack=8,
            n_ops=32,
            vms_per_service=4,
            seed=SYSTEM_SEED,
            exclusive_chains=False,
            journal=journal,
            sync="always",
        )
        for service in STANDARD_SERVICES:
            stack.cluster(service.name)
        return stack

    def setup_once(self, samples: Samples) -> float:
        with scratch_dir(self.workdir, "setup-") as root:
            stack, seconds = timed(lambda: self.build(root / "journal.alvc"), samples)
            stack.journal.close()
        return seconds

    def repetition(self, seed: int, tracer=None) -> Repetition:
        plan = request_plan(self.sizes["requests"], self.sizes["live"], seed)
        with scratch_dir(self.workdir, "control-") as root:
            journal = root / "journal.alvc"
            samples = Samples()
            stack, setup_s = timed(lambda: self.build(journal), samples)

            async def serve():
                async with stack.serve() as frontend:
                    return await closed_loop(frontend, plan, self.sizes["callers"])

            scope = tracer.installed() if tracer is not None else contextlib.nullcontext()
            with scope:
                (responses, spans), loop_s = timed(
                    lambda: asyncio.run(serve()), samples, root / "io-reference.bin"
                )
                live = state_digest(stack)
                stack.journal.close()
                began = time.perf_counter()
                restored = restore(journal)
                restore_s = time.perf_counter() - began
            check_answered(len(plan), responses)
            check_digest(live, state_digest(restored.stack), self.name)
        return Repetition(
            setup_s=setup_s,
            wall_s=loop_s,
            samples=samples,
            units=len(responses),
            calls_ms=[(end - start) * 1e3 for start, end in spans],
            attempted=len(plan),
            failed=sum(1 for response in responses if not response.ok),
            restore_s=restore_s,
            request_spans=spans,
        )


# ----------------------------------------------------------------------
# Tenant churn: the E25 fleet week plus its dense arm
# ----------------------------------------------------------------------
#: E25 arms: ``(stack build, scenario, admission policy, run options)``.
#: The fleet week never fragments enough to defragment; the dense arm
#: (an over-subscribed small fabric) is what drives defrag passes.
TENANT_ARMS = {
    "fleet": (
        dict(n_racks=128, servers_per_rack=8, n_ops=48, vms_per_service=4),
        dict(epochs_per_day=24, arrival_rate=1.0, mean_lifetime_epochs=18.0,
             slots=12, slot_cpu=1.0, slot_memory_gb=2.0, slot_storage_gb=10.0,
             demand_base=0.2, demand_amplitude=1.2),
        dict(defrag_threshold=0.5, defrag_period=12),
        dict(chaos_rate=0.03, storm_period=12, storm_size=4),
    ),
    "dense": (
        dict(n_racks=2, servers_per_rack=4, n_ops=8, vms_per_service=2),
        dict(epochs_per_day=24, arrival_rate=0.7, mean_lifetime_epochs=20.0,
             slots=6, slot_cpu=12.0, slot_memory_gb=24.0, slot_storage_gb=120.0,
             demand_base=0.2, demand_amplitude=1.2),
        dict(defrag_threshold=0.25, defrag_period=6),
        dict(chaos_rate=0.04, storm_period=8, storm_size=2),
    ),
}


class TenantWeekWorkload:
    """``tenant-week``: seeded tenant churn through ``run_workload`` on
    journaled stacks, then a journal restore with a digest check."""

    name = "tenant-week"
    #: No ratio the traced run reports comes from this workload's
    #: counters (its journals run with sync off), so telemetry stays
    #: off.  With it on, the restored digest differs from the live one:
    #: ``alvc_faults_injected_total`` counts chaos faults, and a replay
    #: does not re-inject them.
    reads_telemetry = False
    #: Its journals run with sync off; see :func:`reference.scale`.
    io_weight = 0.0

    def __init__(self, sizes: dict, workdir: Path) -> None:
        self.sizes = sizes
        self.workdir = workdir

    def prepare(self) -> None:
        pass

    @staticmethod
    def build(arm: str, journal: Path):
        return AlvcStack.build(
            seed=SYSTEM_SEED,
            exclusive_chains=False,
            journal=journal,
            sync="off",
            **TENANT_ARMS[arm][0],
        )

    def setup_once(self, samples: Samples) -> float:
        seconds = 0.0
        with scratch_dir(self.workdir, "setup-") as root:
            for arm in TENANT_ARMS:
                stack, host = timed(
                    lambda: self.build(arm, root / f"{arm}.alvc"), samples
                )
                seconds += host
                stack.journal.close()
        return seconds

    def repetition(self, seed: int, tracer=None) -> Repetition:
        setup_s = wall_s = restore_s = 0.0
        samples = Samples()
        epochs = arrived = rejected = lost = 0
        with scratch_dir(self.workdir, "tenant-") as root:
            for arm, (_, scenario, policy, options) in TENANT_ARMS.items():
                days = self.sizes["days"][arm]
                plan = generate_scenario(ScenarioConfig(days=days, **scenario), seed=seed)
                journal = root / f"{arm}.alvc"
                stack, host = timed(lambda: self.build(arm, journal), samples)
                setup_s += host

                scope = tracer.installed() if tracer is not None else contextlib.nullcontext()
                with scope:
                    report, elapsed = timed(
                        lambda: stack.run_workload(
                            plan, admission=AdmissionPolicy(**policy), **options
                        ),
                        samples,
                    )
                    stack.journal.close()
                    began = time.perf_counter()
                    restored = restore(journal)
                    restore_s += time.perf_counter() - began
                check_digest(report.state_digest, state_digest(restored.stack), f"{self.name}/{arm}")
                wall_s += elapsed
                epochs += report.epochs
                arrived += report.tenants_arrived
                rejected += report.tenants_rejected
                lost += report.reembed_losses
        return Repetition(
            setup_s=setup_s,
            wall_s=wall_s,
            samples=samples,
            units=epochs,
            calls_ms=[wall_s * 1e3],
            attempted=arrived,
            failed=0,
            restore_s=restore_s,
            rejected=rejected,
            defrag_lost=lost,
        )


# ----------------------------------------------------------------------
#: Sizes of a measured run and of the tiny runs the tests and the
#: priming step use.
SIZES = {
    "flows-poisson": {"full": {"flows": 2000}, "tiny": {"flows": 200}},
    "flows-waves": {
        "full": {"flows": 30_000, "epochs": 12, "cuts": 5},
        "tiny": {"flows": 2000, "epochs": 4, "cuts": 2},
    },
    "control-stream": {
        "full": {"requests": 1000, "live": 64, "callers": 4},
        "tiny": {"requests": 200, "live": 16, "callers": 4},
    },
    "tenant-week": {
        "full": {"days": {"fleet": 7.0, "dense": 2.0}},
        "tiny": {"days": {"fleet": 1.0, "dense": 0.5}},
    },
}

WORKLOADS = tuple(SIZES)


def make_workload(name: str, size: str, workdir: Path):
    """The workload object for ``name`` at ``size`` (``full``/``tiny``)."""
    sizes = SIZES[name][size]
    if name.startswith("flows-"):
        return FlowsWorkload(name, sizes)
    if name == "control-stream":
        return ControlStreamWorkload(sizes, workdir)
    return TenantWeekWorkload(sizes, workdir)

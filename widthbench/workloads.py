"""The two workloads: set-up, one operation, and the checks.

Every workload exposes the same surface, driven by ``run.py``:

* ``spec()`` — JSON input for the set-up (also sent to set-up probes);
* ``setup(spec)`` / ``teardown(state)`` — async; everything a user pays
  before the first operation;
* ``prepare(i)`` — benchmark-side generation of operation ``i``'s input,
  outside the timed span;
* ``op(state, prepared)`` — async; the timed operation;
* ``check(prepared, result)`` — problems found by the independent
  oracles, after each operation and outside its timed span;
* ``finish(state)`` — checks that run once, after the loop's final
  CPU and memory readings;
* ``wrap(tracer)`` and ``layers(tracer, results)`` — the traced run.

``repro`` is imported inside functions, so each workload's process
loads only what that workload calls.
"""

from __future__ import annotations

import random

import inputs
import oracles

# One kind of operation per workload, and a fixed tail percentile: the
# highest with ten samples beyond it at the workload's minimum count.
TAIL = {"service-miss": 75, "solvers": 90}


def min_ops(name: str) -> int:
    return 10 * 100 // (100 - TAIL[name])


def _mean(total: float, count: int) -> float:
    return total / count if count else 0.0


class Workload:
    """Defaults for the surface described in the module docstring."""

    name = ""
    # Whether the traced run may repeat an input: each traced operation
    # then reruns the untraced one before it, via ``again``, so the
    # tracing overhead is measured on equal work.
    paired = True
    # Whether the host must import nothing the program's set-up does not
    # (forked workers inherit the host's imports).
    checks_imports = False

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}/{seed}")

    def spec(self) -> dict:
        return {}

    async def setup(self, spec: dict):
        return {}

    def adopt(self, spec: dict, state) -> list[str]:
        """Check set-up answers the operations depend on."""
        return []

    async def teardown(self, state) -> None:
        pass

    def again(self, prepared):
        """An equal, fresh input for the traced twin of an operation."""
        return prepared

    def finish(self, state) -> list[str]:
        return []

    def server_ms(self, result):
        """Time the server reports for ``result``, or None in process."""
        return None

    def keep(self, result):
        """The part of a checked result the traced run still needs."""
        return None


# ----------------------------------------------------------------------
# Service workloads
# ----------------------------------------------------------------------


class _Service(Workload):
    """Shared set-up for the two service workloads: a default-config
    DecompositionService in this process, one client over loopback."""

    async def setup(self, spec: dict):
        from repro.service import DecompositionService, ServiceClient, ServiceConfig

        service = DecompositionService(ServiceConfig())
        await service.start()
        client = await ServiceClient.connect(port=service.port)
        pong = await client.ping()
        if pong.get("status") != "ok":
            raise RuntimeError(f"service did not answer ping: {pong}")
        return {"service": service, "client": client}

    async def teardown(self, state) -> None:
        await state["client"].close()
        await state["service"].close()

    def wrap(self, tracer) -> None:
        import repro.service.cache as cache
        import repro.service.server as server

        def portfolio_counts(span, result):
            span.append({
                "closed_ms": _closed_at(result) * 1000.0,
                "workers": len(result.reports),
                "nodes": {n: r.nodes for n, r in result.reports.items()},
            })

        tracer.wrap(server, "canonical_form", "service.canonical")
        tracer.wrap(cache.DecompositionCache, "lookup", "service.cache.lookup")
        tracer.wrap(cache.DecompositionCache, "insert", "service.cache.insert")
        tracer.wrap(cache, "certify", "verify.certify")
        tracer.wrap(server, "run_portfolio", "portfolio.run", portfolio_counts)

    def layers(self, tracer, results: list) -> dict:
        self_ms = tracer.self_times()
        total_ms = tracer.total_times()
        wire = sum(r["latency_ms"] - r["server_ms"] for r in results)
        ops = len(results)
        closed = workers = 0.0
        nodes: dict[str, float] = {}
        for span in tracer.spans:
            if span[1] == "portfolio.run" and len(span) > 5:
                counts = span[5]
                closed += counts["closed_ms"]
                workers += counts["workers"]
                for name, value in counts["nodes"].items():
                    nodes[name] = nodes.get(name, 0) + value
        run_ms = total_ms.get("portfolio.run", 0.0)
        out = {
            "service.canonical.ms": _mean(self_ms.get("service.canonical", 0.0), ops),
            "service.cache.lookup.ms": _mean(self_ms.get("service.cache.lookup", 0.0), ops),
            "service.cache.insert.ms": _mean(total_ms.get("service.cache.insert", 0.0), ops),
            "service.cache.insert.self_ms": _mean(self_ms.get("service.cache.insert", 0.0), ops),
            "service.wire.ms": _mean(wire, ops),
            "portfolio.run.ms": _mean(run_ms, ops),
            "portfolio.closed.ms": _mean(closed, ops),
            "portfolio.after_close.ms": _mean(run_ms - closed, ops),
            "portfolio.workers": _mean(workers, ops),
            "verify.certify.ms": _mean(self_ms.get("verify.certify", 0.0), ops),
        }
        for name in PORTFOLIO_BACKENDS:
            out[f"portfolio.backend.{name}.nodes"] = _mean(nodes.get(name, 0), ops)
        return out


PORTFOLIO_BACKENDS = ("astar-tw", "bb-tw", "ga-tw", "min-fill")


def _closed_at(result) -> float:
    """Seconds into the race at which the merged bound events first had
    the lower bound meet the upper bound (the whole race if never)."""
    upper = lower = None
    for event in sorted(result.events, key=lambda e: e.at):
        if event.kind == "ub":
            upper = event.value if upper is None else min(upper, event.value)
        else:
            lower = event.value if lower is None else max(lower, event.value)
        if upper is not None and lower is not None and lower >= upper:
            return event.at
    return result.elapsed_seconds


class ServiceMiss(_Service):
    """tw solves of hypergraphs the service has not seen.

    The metric is tw, not ghw: at their default settings the ghw
    portfolio's BB-ghw and A*-ghw return "exact" widths above the
    optimum on about one input in a thousand of this kind (see README),
    so a ghw miss stream fails on some seeds and not on others.
    """

    name = "service-miss"
    paired = False  # a repeated input would be a hit
    checks_imports = True

    def __init__(self, seed: int):
        super().__init__(seed)
        self.seen: set = set()

    def prepare(self, i: int) -> dict:
        while True:
            n = self.rng.randint(8, 12)
            edges = inputs.random_hypergraph(
                self.rng, n, self.rng.randint(n - 1, n + 1), (2, 4), f"m{i}_"
            )
            key = inputs.signature(edges)
            if key not in self.seen:
                self.seen.add(key)
                return edges

    async def op(self, state, edges: dict) -> dict:
        return await state["client"].solve({"edges": edges}, metric="tw")

    def check(self, edges: dict, response: dict) -> list[str]:
        if (response.get("status"), response.get("cache"), response.get("exact")) != ("ok", "miss", True):
            return [f"not an exact miss: {response.get('status')} {response.get('cache')} "
                    f"{response.get('code')} {response.get('error')}"]
        expected = oracles.tw_exact(edges)
        problems = []
        if response["width"] != expected:
            problems.append(f"tw {response['width']} != oracle {expected}")
        problems += oracles.check_ordering(edges, response["ordering"], response["width"], "tw")
        return problems

    def server_ms(self, response: dict) -> float:
        return response.get("elapsed_ms", 0.0)


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------


# A fixed conflict count, never a wall-clock limit.  On 10-vertex inputs
# building the encoding takes most of CDCL's time, the conflicts a third.
CDCL_CONFLICTS = 50
# The cover engine's counters opt-k-decomp fills: exact covers and the
# cross-component memo.
COVER_COUNTERS = ("cover.exact.hit", "cover.exact.dominance", "cover.exact.computed")
COMPONENT_HITS = "cache.cross_component_hit"


class SolveExact(Workload):
    """The certified tw and hw of one seeded hypergraph, in process:
    the first half of the ``solvers`` operation.

    BB-ghw and A*-fhw are left out while, at their default settings,
    they return "exact" widths above the optimum on some inputs (see
    README): such failures would depend on the seed.
    """

    name = "solve-exact"

    async def setup(self, spec: dict):
        import repro.decomposition  # noqa: F401
        import repro.sat  # noqa: F401
        import repro.search  # noqa: F401
        import repro.telemetry  # noqa: F401
        import repro.verify  # noqa: F401
        return {}

    def prepare(self, i: int):
        return self.again((inputs.random_hypergraph(self.rng, 10, 10, (3, 3), f"x{i}_"), None))

    def again(self, prepared):
        from repro.hypergraph import Hypergraph

        edges, _ = prepared
        hypergraph = Hypergraph()
        for name, members in edges.items():
            hypergraph.add_edge(members, name=name)
        return edges, hypergraph

    async def op(self, state, prepared) -> dict:
        from repro import decomposition, sat, search, telemetry, verify

        _, h = prepared
        metrics = telemetry.Metrics()
        primal = h.primal_graph()
        tw = search.astar_treewidth(primal)
        optk = search.opt_k_decomp(h, metrics=metrics)
        cdcl = sat.cdcl_hypertree_width(h, max_conflicts=CDCL_CONFLICTS)
        certificate = verify.certify(
            decomposition.bucket_elimination(primal, tw.ordering), primal, tw.width)
        problems = [str(v) for v in certificate.violations]
        problems += [str(v) for v in verify.check_htd(optk.decomposition, h, claimed_width=optk.upper)]
        if cdcl.decomposition is not None:
            problems += [str(v) for v in verify.check_htd(cdcl.decomposition, h, claimed_width=cdcl.upper)]
        return {
            "tw": tw, "optk": optk, "cdcl": cdcl,
            "certify_problems": problems,
            "counters": metrics.snapshot()["counters"],
        }

    def check(self, prepared, r: dict) -> list[str]:
        edges, _ = prepared
        tw, optk, cdcl = r["tw"], r["optk"], r["cdcl"]
        problems = [f"repro.verify: {p}" for p in r["certify_problems"]]
        if not (tw.exact and optk.exact):
            return problems + ["a search did not finish exact"]
        hw, ghw = optk.upper, oracles.ghw_exact(edges)
        if tw.width != oracles.tw_exact(edges):
            problems.append(f"tw {tw.width} != oracle")
        if not ghw <= hw <= min(3 * ghw + 1, tw.width + 1):
            problems.append(f"chain broken: oracle ghw {ghw} hw {hw} tw {tw.width}")
        if not cdcl.lower <= hw <= cdcl.upper:
            problems.append(f"CDCL bracket [{cdcl.lower}, {cdcl.upper}] misses hw {hw}")
        problems += oracles.check_ordering(edges, list(tw.ordering), tw.width, "tw")
        for label, result in (("opt-k", optk), ("cdcl", cdcl)):
            if result.decomposition is not None:
                problems += [f"{label}: {p}" for p in _check_tree(
                    edges, result.decomposition, result.upper, "hw")]
        return problems

    def keep(self, result: dict) -> dict:
        return result["counters"]

    def wrap(self, tracer) -> None:
        from repro import decomposition, sat, search, verify

        def count(attribute):
            return lambda span, result: span.append(
                {"n": attribute(result)})

        tracer.wrap(search, "astar_treewidth", "search.astar_tw",
                    count(lambda r: r.stats.nodes_expanded))
        tracer.wrap(search, "opt_k_decomp", "search.optk", count(lambda r: r.subproblems))
        tracer.wrap(sat, "cdcl_hypertree_width", "sat.cdcl", count(lambda r: r.conflicts))
        tracer.wrap(verify, "certify", "verify.certify")
        tracer.wrap(verify, "check_htd", "verify.certify")
        tracer.wrap(decomposition, "bucket_elimination", "decomposition.build")

    def layers(self, tracer, results: list) -> dict:
        ops = len(results)
        self_ms = tracer.self_times()
        counts: dict[str, int] = {}
        for span in tracer.spans:
            if len(span) > 5 and "n" in span[5]:
                counts[span[1]] = counts.get(span[1], 0) + span[5]["n"]
        out = {}
        for layer, key in (("search.astar_tw", "nodes"), ("search.optk", "subproblems"),
                           ("sat.cdcl", "conflicts")):
            out[f"{layer}.ms"] = _mean(self_ms.get(layer, 0.0), ops)
            out[f"{layer}.{key}"] = _mean(counts.get(layer, 0), ops)
        out["verify.certify.ms"] = _mean(self_ms.get("verify.certify", 0.0), ops)
        out["decomposition.build.ms"] = _mean(self_ms.get("decomposition.build", 0.0), ops)
        totals: dict[str, int] = {}
        for r in results:
            for name, value in r["kept"].items():
                totals[name] = totals.get(name, 0) + value
        for name in COVER_COUNTERS + (COMPONENT_HITS,):
            out[f"setcover.{name}"] = _mean(totals.get(name, 0), ops)
        lookups = sum(totals.get(name, 0) for name in COVER_COUNTERS)
        answered = lookups - totals.get("cover.exact.computed", 0)
        out["setcover.cover.hit_ratio"] = answered / lookups if lookups else 0.0
        return out


def _check_tree(edges: dict, decomposition, width, measure: str) -> list[str]:
    """A repro decomposition object, read through its public accessors,
    put through the independent checker."""
    nodes = {
        node: (list(decomposition.bag(node)), list(decomposition.cover(node)))
        for node in decomposition.nodes
    }
    root = decomposition.effective_root() if measure == "hw" else None
    return oracles.check_decomposition(
        edges, nodes, decomposition.tree_edges(), width, root=root, measure=measure
    )


# One mid-size registry circuit, so every operation does the same work
# and the median sits in one band.
UPPER_BOUND_INSTANCE = "adder_10"
GA_POPULATION = 20
GA_GENERATIONS = 20
POOL_WORKERS = 2


class UpperBound(Workload):
    """GA-ghw with fixed work, then balanced splitting in process: the
    second half of the ``solvers`` operation.

    The pooled half (``workers=2``) left the timed operation: its median
    moved by a fifth between runs.  It runs once per run, after the
    loop's readings, as the deterministic-mode check instead — its width
    must equal the in-process width — and the traced run reports its
    counts.
    """

    name = "upper-bound"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.hypergraph = None
        self.edges: dict = {}
        self.exact = None
        self.widths: set = set()
        self.pool_runs: list[dict] = []

    async def setup(self, spec: dict):
        import repro.genetic  # noqa: F401
        import repro.parallel  # noqa: F401
        from repro.genetic import GAParameters, ga_ghw
        from repro.hypergraph import Hypergraph

        # The GA's population kernel loads lazily on its first call.
        warm = Hypergraph()
        for name, members in inputs.cycle(6).items():
            warm.add_edge(members, name=name)
        ga_ghw(warm, GAParameters(population_size=4, generations=1), rng=random.Random(0))
        return {}

    def adopt(self, spec: dict, state) -> list[str]:
        from repro.instances import get_instance

        self.hypergraph = get_instance(UPPER_BOUND_INSTANCE).build()
        self.edges = {
            edge: list(members) for edge, members in self.hypergraph.edges.items()
        }
        self.exact = oracles.ghw_exact(self.edges)
        return []

    def prepare(self, i: int) -> int:
        return self.rng.randrange(2**31)

    async def op(self, state, seed: int) -> dict:
        from repro import genetic, parallel

        ga = genetic.ga_ghw(
            self.hypergraph,
            genetic.GAParameters(population_size=GA_POPULATION, generations=GA_GENERATIONS),
            rng=random.Random(seed),
        )
        balanced = parallel.balanced_ghw(
            self.hypergraph, parallel.BalancedConfig(workers=0, deterministic=True))
        return {"ga": ga, "balanced": balanced}

    def check(self, seed: int, r: dict) -> list[str]:
        ga, balanced = r["ga"], r["balanced"]
        self.widths.add(balanced.width)
        problems = []
        for label, width in (("GA", ga.best_fitness), ("balanced", balanced.width)):
            if width < self.exact:
                problems.append(f"{label} width {width} below ghw {self.exact}")
        problems += oracles.check_ordering(self.edges, list(ga.best_individual), ga.best_fitness, "ghw")
        problems += _check_tree(self.edges, balanced.decomposition, balanced.width, "ghw")
        return problems

    def finish(self, state) -> list[str]:
        """Deterministic mode: the pool returns the in-process width."""
        import time

        from repro import parallel

        if len(self.widths) != 1:
            return [f"workers=0 widths differ between operations: {sorted(self.widths)}"]
        started = time.perf_counter()
        pool = parallel.balanced_ghw(
            self.hypergraph, parallel.BalancedConfig(workers=POOL_WORKERS, deterministic=True))
        self.pool_runs.append(dict(pool.stats, ms=(time.perf_counter() - started) * 1000.0))
        problems = _check_tree(self.edges, pool.decomposition, pool.width, "ghw")
        if {pool.width} != self.widths:
            problems.append(f"pool width {pool.width} != workers=0 width {sorted(self.widths)}")
        return problems

    def wrap(self, tracer) -> None:
        from repro import genetic, parallel

        tracer.wrap(genetic, "ga_ghw", "genetic.ga_ghw",
                    lambda span, r: span.append({"evaluations": r.evaluations}))
        tracer.wrap(parallel, "balanced_ghw", "parallel.balanced")

    def layers(self, tracer, results: list) -> dict:
        ops = len(results)
        self_ms = tracer.self_times()
        evaluations = sum(
            span[5]["evaluations"] for span in tracer.spans if span[1] == "genetic.ga_ghw"
        )
        ga_ms = self_ms.get("genetic.ga_ghw", 0.0)
        runs = len(self.pool_runs)
        return {
            "genetic.ga_ghw.ms": _mean(ga_ms, ops),
            "genetic.evals_per_s": evaluations / (ga_ms / 1000.0) if ga_ms else 0.0,
            "parallel.balanced.ms": _mean(self_ms.get("parallel.balanced", 0.0), ops),
            "parallel.pool.ms": _mean(sum(r["ms"] for r in self.pool_runs), runs),
            "parallel.pool.tasks": _mean(sum(r.get("parallel.tasks", 0) for r in self.pool_runs), runs),
            "parallel.pool.steals": _mean(sum(r.get("parallel.steals", 0) for r in self.pool_runs), runs),
        }


class Solvers(Workload):
    """The two in-process halves as one operation: the certified tw and
    hw of a fresh seeded hypergraph, then GA-ghw and balanced splitting
    on the fixed circuit.  Each half keeps its own input stream."""

    name = "solvers"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.halves = (SolveExact(seed), UpperBound(seed))

    async def setup(self, spec: dict):
        return [await half.setup(spec) for half in self.halves]

    def adopt(self, spec: dict, state) -> list[str]:
        return [p for half, s in zip(self.halves, state) for p in half.adopt(spec, s)]

    def prepare(self, i: int):
        return tuple(half.prepare(i) for half in self.halves)

    def again(self, prepared):
        return tuple(half.again(p) for half, p in zip(self.halves, prepared))

    async def op(self, state, prepared):
        return [await half.op(s, p) for half, s, p in zip(self.halves, state, prepared)]

    def check(self, prepared, result) -> list[str]:
        return [p for half, q, r in zip(self.halves, prepared, result) for p in half.check(q, r)]

    def finish(self, state) -> list[str]:
        return [p for half, s in zip(self.halves, state) for p in half.finish(s)]

    def keep(self, result):
        return self.halves[0].keep(result[0])

    def wrap(self, tracer) -> None:
        for half in self.halves:
            half.wrap(tracer)

    def layers(self, tracer, results: list) -> dict:
        out = {}
        for half in self.halves:
            out.update(half.layers(tracer, results))
        return out


WORKLOADS = {cls.name: cls for cls in (ServiceMiss, Solvers)}


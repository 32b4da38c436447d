"""SABRE-style heuristic routing (Li, Ding, Xie -- ASPLOS 2019).

Given a circuit over *logical* qubits and an initial layout onto the device's
physical qubits, insert SWAP gates so that every two-qubit gate acts on
physically coupled qubits.  The router keeps a *front layer* of gates whose
per-qubit predecessors have all been executed; when no front gate is
executable it inserts the SWAP that minimises a distance heuristic with a
look-ahead term over the next few pending gates and a decay factor that
discourages ping-ponging the same qubits.  Per SABRE, the extended
(look-ahead) set contains only successors *beyond* the front layer -- front
gates already carry full weight in the front term and must not be counted
twice.

The high SWAP count this pass produces on sparse lattices is exactly why the
paper prioritises SWAP synthesis when choosing basis gates.

The router has one engine.  It keeps the logical<->physical mapping as
plain and numpy int arrays, maintains the front layer and dependency state
incrementally (a min-heap of ready gates plus a linked list over pending
two-qubit gates) and scores all candidate SWAPs at once with batch lookups
into the metric's dense distance and swap-bias matrices
(:meth:`~repro.compiler.cost.MappingMetric.distance_matrix`, which every
metric has).  Per-gate distances accumulate in the same order and with the
same float64 association as a scalar ``sum()``, so its SWAP choices, RNG
draws and routed circuits match the original dict-based SABRE bit for bit:
the mapping test suite keeps that implementation frozen as ``_SeedRouter``
and asserts gate-by-gate identity across topologies, seeds and metrics.
"""

from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import dataclass, field

import numpy as np

from repro.circuits.circuit import Gate, QuantumCircuit
from repro.compiler.cost import HopCountMetric


@dataclass
class RoutingResult:
    """Outcome of routing a circuit onto the device."""

    circuit: QuantumCircuit
    initial_layout: dict[int, int]
    final_layout: dict[int, int]
    swap_count: int


@dataclass
class SabreRouter:
    """A SABRE-style router over an arbitrary coupling graph.

    Args:
        device: object exposing ``n_qubits`` and ``neighbors(q)``, plus
            ``distance_matrix()`` for the default metric (e.g.
            :class:`repro.device.device.Device`).
        lookahead_size: number of not-yet-routable two-qubit gates included in
            the extended (look-ahead) set.
        lookahead_weight: weight of the extended set in the heuristic.
        decay_increment: decay added to a qubit each time it is swapped.
        seed: tie-breaking randomness seed.
        metric: a :class:`~repro.compiler.cost.MappingMetric` supplying the
            distance heuristic and per-edge SWAP costs.  ``None`` (default)
            uses the legacy uniform hop-count metric, which is byte-identical
            to the pre-metric router.
    """

    device: object
    lookahead_size: int = 20
    lookahead_weight: float = 0.5
    decay_increment: float = 0.001
    seed: int = 17
    metric: object = None
    _rng: np.random.Generator = field(init=False, repr=False)
    _device_arrays: dict | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)
        if self.metric is None:
            self.metric = HopCountMetric(self.device)

    def _device_state(self) -> dict:
        """Per-device adjacency state the router reuses across runs.

        ``coupled[p]`` is a plain-list adjacency row (list indexing beats
        numpy scalar indexing in the gate-execution loop); ``cand_keys[p]``
        holds the candidate-SWAP keys (``min * n + max``) of every edge at
        ``p`` -- a sorted set-union of these reproduces ``sorted(set(...))``
        over the equivalent ``(a, b)`` tuples exactly.

        The state depends only on the coupling graph (immutable after device
        construction), so it is parked on the device object itself when
        possible -- every router over the same device then shares one copy
        instead of rebuilding it per router instance.
        """
        if self._device_arrays is None:
            cached = getattr(self.device, "_sabre_adjacency", None)
            if cached is not None:
                self._device_arrays = cached
                return cached
            n_phys = self.device.n_qubits
            coupled = [[False] * n_phys for _ in range(n_phys)]
            cand_keys = []
            for p in range(n_phys):
                neighbors = self.device.neighbors(p)
                for nb in neighbors:
                    coupled[p][nb] = True
                cand_keys.append(
                    [
                        (p * n_phys + nb) if p < nb else (nb * n_phys + p)
                        for nb in neighbors
                    ]
                )
            self._device_arrays = {"coupled": coupled, "cand_keys": cand_keys}
            try:
                self.device._sabre_adjacency = self._device_arrays
            except AttributeError:
                pass  # __slots__ or read-only device: keep the per-router copy
        return self._device_arrays

    # -- public API ---------------------------------------------------------

    def run(
        self, circuit: QuantumCircuit, initial_layout: dict[int, int]
    ) -> RoutingResult:
        """Route ``circuit`` starting from ``initial_layout``.

        The returned circuit acts on *physical* qubit indices and contains the
        original gates (re-indexed) plus inserted ``swap`` gates.

        Raises:
            ValueError: on an invalid layout, or when a SWAP must be scored
                against a pair the metric's hop matrix marks unreachable
                (a disconnected device); gates that need no SWAP route
                anyway.
        """
        layout = dict(initial_layout)
        self._validate_layout(circuit, layout)
        dist = np.asarray(self.metric.distance_matrix())
        bias = np.asarray(self.metric.swap_bias_matrix())
        # An integer hop matrix marks unreachable pairs with -1; only then
        # must scoring look for them.  An all-zero bias (the uniform metric)
        # adds nothing, so scoring skips it.
        unreachable = dist.dtype.kind in "iu" and bool((dist < 0).any())
        bias = bias if bias.any() else None
        n_phys = self.device.n_qubits
        gates = list(circuit.gates)
        n = len(gates)
        state = self._device_state()
        coupled = state["coupled"]
        cand_keys = state["cand_keys"]

        # Logical<->physical mapping in both directions, as plain lists
        # (list indexing beats numpy scalar indexing in the gate-execution
        # loop).  Both update on every SWAP; -1 marks "no logical qubit
        # here".
        phys_list = [-1] * ((max(layout) + 1) if layout else 0)
        log_on = [-1] * n_phys
        for logical, phys in layout.items():
            phys_list[logical] = phys
            log_on[phys] = logical

        # Endpoint lists for two-qubit gates; scoring assembles position
        # vectors for whole front/extended index lists from these.
        q0 = [0] * n
        q1 = [0] * n
        is_2q = [False] * n
        for i, gate in enumerate(gates):
            if gate.is_two_qubit:
                q0[i], q1[i] = gate.qubits
                is_2q[i] = True

        # Dependency state: a gate is ready when it heads every one of its
        # qubits' gate lists.  Successors always have a *higher* index than
        # the gate that unblocks them (per-qubit lists are in circuit order),
        # so a min-heap of ready gates pops in exactly the order SABRE's
        # ascending rescan of pending gates executes them.
        per_qubit: list[list[int]] = [[] for _ in range(circuit.n_qubits)]
        for i, gate in enumerate(gates):
            for q in gate.qubits:
                per_qubit[q].append(i)
        next_ptr = [0] * circuit.n_qubits
        indegree = [len(gate.qubits) for gate in gates]
        for order in per_qubit:
            if order:
                indegree[order[0]] -= 1
        ready = [i for i in range(n) if indegree[i] == 0]
        heapq.heapify(ready)

        # The front layer: ready two-qubit gates currently blocked on an
        # uncoupled pair, kept sorted by gate index (ascending = the order
        # an ascending rescan discovers them).
        front_blocked: list[int] = []
        in_front = [False] * n

        # Linked list over pending two-qubit gates in circuit order -- the
        # extended set is its first ``lookahead_size`` non-front entries.
        nxt = [-1] * n
        prv = [-1] * n
        head_2q = -1
        last = -1
        for i in range(n):
            if not is_2q[i]:
                continue
            if head_2q < 0:
                head_2q = i
            else:
                nxt[last] = i
                prv[i] = last
            last = i

        def unlink_2q(i: int) -> None:
            nonlocal head_2q
            before, after = prv[i], nxt[i]
            if before >= 0:
                nxt[before] = after
            else:
                head_2q = after
            if after >= 0:
                prv[after] = before

        routed = QuantumCircuit(n_phys, name=f"{circuit.name}_routed")
        # Hot path: gates are emitted straight onto the list.  Validation in
        # QuantumCircuit.append would be redundant -- positions come from a
        # validated layout permuted by SWAPs, so they stay in-range and
        # distinct by construction.
        emit = routed.gates.append
        executed_count = 0

        heappush = heapq.heappush
        heappop = heapq.heappop

        def drain() -> bool:
            """Execute every currently executable gate, cascading readiness."""
            nonlocal executed_count
            progressed = False
            while ready:
                i = heappop(ready)
                gate = gates[i]
                if is_2q[i]:
                    p0 = phys_list[q0[i]]
                    p1 = phys_list[q1[i]]
                    if not coupled[p0][p1]:
                        insort(front_blocked, i)
                        in_front[i] = True
                        continue
                    emit(Gate(gate.name, (p0, p1), gate.params))
                    unlink_2q(i)
                else:
                    emit(
                        Gate(
                            gate.name,
                            tuple(phys_list[q] for q in gate.qubits),
                            gate.params,
                        )
                    )
                executed_count += 1
                progressed = True
                for q in gate.qubits:
                    next_ptr[q] += 1
                    order = per_qubit[q]
                    if next_ptr[q] < len(order):
                        successor = order[next_ptr[q]]
                        indegree[successor] -= 1
                        if indegree[successor] == 0:
                            heappush(ready, successor)
            return progressed

        swap_count = 0
        decay = np.ones(n_phys)
        stall_guard = 0
        max_stall = 10 * n + 1000

        drain()
        while executed_count < n:
            stall_guard += 1
            if stall_guard > max_stall:
                raise RuntimeError("router failed to make progress (internal error)")
            if not front_blocked:
                raise RuntimeError("no two-qubit gate in the front layer while stalled")

            extended: list[int] = []
            cursor = head_2q
            while cursor >= 0 and len(extended) < self.lookahead_size:
                if not in_front[cursor]:
                    extended.append(cursor)
                cursor = nxt[cursor]

            a_phys, b_phys = self._choose_swap(
                front_blocked, extended, phys_list, decay, dist, bias,
                unreachable, q0, q1, cand_keys, n_phys,
            )
            emit(Gate("swap", (a_phys, b_phys), ()))
            swap_count += 1
            decay[a_phys] += self.decay_increment
            decay[b_phys] += self.decay_increment
            la, lb = log_on[a_phys], log_on[b_phys]
            if la >= 0:
                phys_list[la] = b_phys
            if lb >= 0:
                phys_list[lb] = a_phys
            log_on[a_phys], log_on[b_phys] = lb, la

            # Only front gates touching the swapped pair can have become
            # executable; everything else kept its endpoint positions.
            released = [
                i for i in front_blocked if coupled[phys_list[q0[i]]][phys_list[q1[i]]]
            ]
            if released:
                for i in released:
                    front_blocked.remove(i)
                    in_front[i] = False
                    heapq.heappush(ready, i)
                if drain():
                    decay[:] = 1.0

        final_layout = {logical: phys_list[logical] for logical in layout}
        return RoutingResult(
            circuit=routed,
            initial_layout=dict(initial_layout),
            final_layout=final_layout,
            swap_count=swap_count,
        )

    def _choose_swap(
        self,
        front_blocked: list[int],
        extended: list[int],
        phys_list: list[int],
        decay: np.ndarray,
        dist: np.ndarray,
        bias: np.ndarray | None,
        unreachable: bool,
        q0: list[int],
        q1: list[int],
        cand_keys: list[list[int]],
        n_phys: int,
    ) -> tuple[int, int]:
        """Score every candidate SWAP at once against the dense matrices.

        Float distances accumulate gate-by-gate (vectorized over candidates)
        so the float64 operation order matches a scalar ``sum()`` exactly --
        identical scores, identical ties, identical RNG draws.  Integer hop
        matrices sum in one C reduction instead: integer sums are
        order-independent and stay exact in float64.
        """
        key_set: set[int] = set()
        for i in front_blocked:
            key_set.update(cand_keys[phys_list[q0[i]]])
            key_set.update(cand_keys[phys_list[q1[i]]])
        keys = sorted(key_set)
        a, b = np.divmod(np.fromiter(keys, dtype=np.intp, count=len(keys)), n_phys)

        n_front = len(front_blocked)
        combined = front_blocked + extended
        n_gates = len(combined)
        # Trial endpoint positions under each candidate SWAP: one remap over
        # both endpoints of every front+extended gate, one distance gather.
        pos = [phys_list[q0[i]] for i in combined]
        pos += [phys_list[q1[i]] for i in combined]
        positions = np.array(pos, dtype=np.intp)[:, None]
        trial = np.where(positions == a, b, np.where(positions == b, a, positions))
        pair_dist = dist[trial[:n_gates], trial[n_gates:]]  # (gates, swaps)
        if unreachable and (pair_dist < 0).any():
            # The first offender in (candidate, gate) order names the pair.
            swap, gate = np.argwhere(pair_dist.T < 0)[0]
            raise ValueError(
                f"qubits {trial[gate, swap]} and {trial[n_gates + gate, swap]} "
                "are not connected on the device"
            )

        if pair_dist.dtype.kind in "iu":
            front_cost = pair_dist[:n_front].sum(axis=0) / max(n_front, 1)
            extended_cost: np.ndarray | float = 0.0
            if extended:
                extended_cost = pair_dist[n_front:].sum(axis=0) / len(extended)
        else:
            front_cost = pair_dist[0].copy()
            for g in range(1, n_front):
                front_cost += pair_dist[g]
            front_cost /= max(n_front, 1)
            extended_cost = 0.0
            if extended:
                ext = pair_dist[n_front].copy()
                for g in range(n_front + 1, n_gates):
                    ext += pair_dist[g]
                extended_cost = ext / len(extended)
        inner = front_cost + self.lookahead_weight * extended_cost
        if bias is not None:
            # The bias charges the candidate SWAP its own edge cost.
            inner = inner + bias[a, b]
        scores = np.maximum(decay[a], decay[b]) * inner
        best = np.flatnonzero(scores <= scores.min() + 1e-12)
        choice = int(best[self._rng.integers(len(best))]) if len(best) > 1 else int(best[0])
        key = keys[choice]
        return key // n_phys, key % n_phys

    # -- internals -----------------------------------------------------------

    def _validate_layout(self, circuit: QuantumCircuit, layout: dict[int, int]) -> None:
        if len(layout) < circuit.n_qubits:
            raise ValueError("layout must map every logical qubit")
        physical = list(layout.values())
        if len(set(physical)) != len(physical):
            raise ValueError("layout maps two logical qubits to one physical qubit")
        for p in physical:
            if not 0 <= p < self.device.n_qubits:
                raise ValueError(f"physical qubit {p} outside the device")

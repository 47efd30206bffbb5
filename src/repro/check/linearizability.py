"""Wing–Gong linearizability checker for single-object histories.

Given the client-observed history of one replicated object and a
sequential specification, the checker searches for a *linearization*:
a total order of the operations that (a) respects real time — an
operation that completed before another was invoked must precede
it — and (b) makes every observed return value equal the value the
sequential spec produces at that point in the order.

Pending operations (no observed reply: the client crashed or gave
up) may take effect at any point after their invocation *or never* —
both must be explored, because a primary may have executed a request
whose reply was lost.

The search is the classic Wing–Gong enumeration with memoization on
``(state, remaining-operations)``.  It tries candidates in a fixed
order (invocation time, then op id), so its cost does not depend on
the interpreter's string-hash seed.  Histories larger than
``max_operations``, and searches that reach ``MAX_CONFIGURATIONS``
configurations, are reported as *skipped* rather than silently
truncated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.check.history import Operation

#: Configurations the search may reach before it gives up and reports
#: the history as skipped.  A canonical check-scenario walk reaches
#: about ten; a fault-trial history with a hundred overlapping
#: operations could otherwise grow the search past gigabytes.
MAX_CONFIGURATIONS = 10_000


class CounterSpec:
    """Sequential spec of :class:`repro.orb.CounterServant`:
    ``add(x)`` returns the post-increment value, any other operation
    (``read``) returns the current value unchanged."""

    initial_state = 0

    def apply(self, state: int, op: Operation) -> Tuple[int, int]:
        """Return ``(next_state, expected_return)`` for ``op``."""
        if op.operation == "add":
            next_state = state + int(op.payload)
            return next_state, next_state
        return state, state


class IncrementSpec:
    """Sequential spec of :class:`repro.orb.BusyServant`: *every*
    operation increments the request counter and returns it."""

    initial_state = 0

    def apply(self, state: int, op: Operation) -> Tuple[int, int]:
        """Return ``(next_state, expected_return)`` for ``op``."""
        next_state = state + 1
        return next_state, next_state


@dataclass
class LinearizabilityResult:
    """Outcome of one linearizability check."""

    ok: bool
    skipped: bool = False
    reason: str = ""
    #: A witness order of op ids when ``ok`` (completed operations
    #: plus any pending ones the witness takes effect for).
    linearization: Tuple[str, ...] = ()
    #: On failure: operations whose return value no explored order
    #: could explain (the deepest-blocked frontier).
    blocked_ops: Tuple[str, ...] = ()
    configurations_explored: int = 0


def _members(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def check_linearizability(operations: Sequence[Operation], spec,
                          max_operations: int = 400
                          ) -> LinearizabilityResult:
    """Check one single-object history against a sequential spec.

    ``spec`` provides ``initial_state`` (hashable) and
    ``apply(state, op) -> (next_state, expected_return)``.
    """
    if len(operations) > max_operations:
        return LinearizabilityResult(
            ok=True, skipped=True,
            reason=f"history has {len(operations)} operations "
                   f"(> max_operations={max_operations}); not checked")
    # Bit i of a remaining-set stands for ops[i], so walking the set
    # bits lowest first tries candidates in invocation order.
    ops: List[Operation] = sorted(
        operations, key=lambda op: (op.invoked_at, op.op_id))
    completed_mask = 0
    for index, op in enumerate(ops):
        if not op.pending:
            completed_mask |= 1 << index

    Config = Tuple[object, int]
    initial: Config = (spec.initial_state, (1 << len(ops)) - 1)
    visited = {initial}
    parents: Dict[Config, Tuple[Config, str]] = {}
    stack: List[Config] = [initial]
    explored = 0
    best_frontier = completed_mask

    while stack:
        state, remaining = stack.pop()
        explored += 1
        remaining_completed = remaining & completed_mask
        if bin(remaining_completed).count("1") \
                < bin(best_frontier).count("1"):
            best_frontier = remaining_completed
        if not remaining_completed:
            # Every observed return is explained; any still-remaining
            # pending operations simply never took effect.
            order: List[str] = []
            config: Config = (state, remaining)
            while config in parents:
                config, op_id = parents[config]
                order.append(op_id)
            order.reverse()
            return LinearizabilityResult(
                ok=True, linearization=tuple(order),
                configurations_explored=explored)
        # Real-time bound: an operation may be linearized next only if
        # no *other remaining completed* operation finished before it
        # was invoked.
        min_completion = min(ops[index].completed_at
                             for index in _members(remaining_completed))
        successors: List[Config] = []
        for index in _members(remaining):
            op = ops[index]
            if op.invoked_at > min_completion:
                break  # so is every later-invoked candidate
            next_state, expected = spec.apply(state, op)
            if not op.pending and op.result != expected:
                continue  # this order cannot explain the return value
            successor: Config = (next_state, remaining ^ (1 << index))
            if successor in visited:
                continue
            if len(visited) >= MAX_CONFIGURATIONS:
                return LinearizabilityResult(
                    ok=True, skipped=True,
                    reason=f"search reached {MAX_CONFIGURATIONS} "
                           f"configurations; not checked",
                    configurations_explored=explored)
            visited.add(successor)
            parents[successor] = ((state, remaining), op.op_id)
            successors.append(successor)
        # Pushed in reverse, so the earliest-invoked candidate is
        # popped (tried) first.
        stack.extend(reversed(successors))

    return LinearizabilityResult(
        ok=False,
        reason="no operation order explains the observed returns",
        blocked_ops=tuple(sorted(ops[index].op_id
                                 for index in _members(best_frontier))),
        configurations_explored=explored)

"""Wing–Gong checker unit tests over hand-built histories."""

import os
import pathlib
import subprocess
import sys

from repro.check import CounterSpec, IncrementSpec, Operation, check_linearizability
from repro.check.linearizability import MAX_CONFIGURATIONS

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def _op(op_id, operation, payload, invoked, completed=None, result=None):
    return Operation(op_id=op_id, object_key="counter",
                     operation=operation, payload=payload,
                     invoked_at=invoked, client="c1",
                     result=result, completed_at=completed)


class TestCounterHistories:
    def test_sequential_history_is_linearizable(self):
        ops = [
            _op("a", "add", 1, 0.0, 1.0, result=1),
            _op("b", "add", 1, 2.0, 3.0, result=2),
            _op("c", "read", 0, 4.0, 5.0, result=2),
        ]
        verdict = check_linearizability(ops, CounterSpec())
        assert verdict.ok
        assert list(verdict.linearization) == ["a", "b", "c"]

    def test_concurrent_adds_commute(self):
        ops = [
            _op("a", "add", 1, 0.0, 10.0, result=2),
            _op("b", "add", 1, 0.0, 10.0, result=1),
        ]
        assert check_linearizability(ops, CounterSpec()).ok

    def test_double_applied_add_is_rejected(self):
        # One add acknowledged as 1, yet a later read observes 2:
        # the increment took effect twice (the retry double-apply bug).
        ops = [
            _op("a", "add", 1, 0.0, 1.0, result=1),
            _op("b", "read", 0, 2.0, 3.0, result=2),
        ]
        verdict = check_linearizability(ops, CounterSpec())
        assert not verdict.ok
        assert verdict.blocked_ops

    def test_stale_read_is_rejected(self):
        # The read started after the add completed, so real-time order
        # forbids linearizing it before the add.
        ops = [
            _op("a", "add", 1, 0.0, 1.0, result=1),
            _op("b", "read", 0, 2.0, 3.0, result=0),
        ]
        assert not check_linearizability(ops, CounterSpec()).ok

    def test_pending_op_may_take_effect(self):
        # The pending add's reply was lost, but a later read proves it
        # executed — legal, the primary may have died after applying.
        ops = [
            _op("a", "add", 1, 0.0),  # no reply observed
            _op("b", "read", 0, 5.0, 6.0, result=1),
        ]
        assert check_linearizability(ops, CounterSpec()).ok

    def test_pending_op_may_never_take_effect(self):
        ops = [
            _op("a", "add", 1, 0.0),
            _op("b", "read", 0, 5.0, 6.0, result=0),
        ]
        assert check_linearizability(ops, CounterSpec()).ok

    def test_large_history_is_skipped_not_truncated(self):
        ops = [_op(f"a{i}", "add", 1, float(i), float(i) + 0.5,
                   result=i + 1)
               for i in range(30)]
        verdict = check_linearizability(ops, CounterSpec(),
                                        max_operations=10)
        assert verdict.ok and verdict.skipped


class TestIncrementSpec:
    def test_every_operation_increments(self):
        ops = [
            _op("a", "ping", 0, 0.0, 1.0, result=1),
            _op("b", "ping", 0, 2.0, 3.0, result=2),
        ]
        assert check_linearizability(ops, IncrementSpec()).ok

    def test_lost_increment_is_rejected(self):
        ops = [
            _op("a", "ping", 0, 0.0, 1.0, result=1),
            _op("b", "ping", 0, 2.0, 3.0, result=1),
        ]
        assert not check_linearizability(ops, IncrementSpec()).ok


class TestSearchBounds:
    def test_search_budget_reports_skipped(self):
        # Twenty pending adds may each take effect or not before the one
        # completed read, and no subset explains its return value: the
        # search would visit 2**20 configurations without the budget.
        ops = [_op(f"p{i:02d}", "add", 1, float(i)) for i in range(20)]
        ops.append(_op("r", "read", 0, 0.0, 100.0, result=50))
        verdict = check_linearizability(ops, CounterSpec())
        assert verdict.ok and verdict.skipped
        assert str(MAX_CONFIGURATIONS) in verdict.reason
        assert verdict.configurations_explored <= MAX_CONFIGURATIONS

    def test_search_order_does_not_depend_on_input_order(self):
        ops = [_op(f"a{i}", "add", 1, 0.0, 10.0, result=i + 1)
               for i in range(6)]
        ops.append(_op("p", "add", 1, 0.0))
        ops.append(_op("r", "read", 0, 11.0, 12.0, result=7))
        forward = check_linearizability(ops, CounterSpec())
        backward = check_linearizability(ops[::-1], CounterSpec())
        assert forward.ok and not forward.skipped
        assert forward == backward

    def test_loss_burst_trial_history_stays_under_address_cap(self):
        # A warm-passive loss-burst trial leaves 400 operations, 114 of
        # them pending; its search once grew past 1.5 GB and raised
        # MemoryError.  It must now end in a verdict within that cap.
        code = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1536 << 20,) * 2)\n"
            "from repro.campaign import CampaignSpec, execute_trial\n"
            "trial = CampaignSpec(name='perfbench', "
            "styles=['warm_passive'], replica_counts=[3], "
            "fault_loads=['loss_burst'], seeds=[1], base_seed=1, "
            "rate_per_s=200.0, settle_us=5e5).expand()[0]\n"
            "check = execute_trial(trial, check=True).metrics['check']\n"
            "assert check['operations'] == 400, check\n"
            "assert check['linearizability_skipped'] is True, check\n"
            "print('verdict', check['ok'])\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH")
            else "")
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True,
                                timeout=300)
        assert result.returncode == 0, result.stderr[-2000:]
        assert "verdict True" in result.stdout

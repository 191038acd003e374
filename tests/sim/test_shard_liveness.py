"""A shard worker that dies must fail the subprocess run fast and by name.

Before the ring waits polled the child's exit code, a SIGKILLed shard
left the coordinator blocked in ``ShmRing.recv`` for its 600 s timeout.
Each test kills shard 1 at one point of the window protocol and asserts
:class:`ShardWorkerDied` names it within a few seconds.
"""

import os
import signal
import time

import pytest

from repro.sim import ShardEnvironment, ShardWorkerDied, run_sharded_subprocesses

#: Generous bound on detection + teardown; the poll interval is 0.05 s.
PROMPT_S = 5.0


class _StubClient:
    """Minimal shard client: a few local timeouts, no traffic."""

    def __init__(self, shard_id: int, kill_at: str) -> None:
        self.env = env = ShardEnvironment(shard_id)
        self.kill_at = kill_at if shard_id == 1 else None
        self.done = None
        if shard_id == 0:
            self.done = env.timeout(50.0)
        if self.kill_at == "window":
            env.timeout(5.0).callbacks = [lambda _ev: _die()]
        else:
            env.timeout(5.0)

    def apply_external(self, rec) -> None:  # pragma: no cover - no traffic
        raise AssertionError("stub shards exchange no traffic")

    def drain_requests(self) -> list:
        return []

    def result(self):
        if self.kill_at == "finish":
            _die()
        return self.env.now


class _StubFabric:
    def process(self, requests):
        return {}, {}


def _die() -> None:
    os.kill(os.getpid(), signal.SIGKILL)


def _run(kill_at: str) -> dict:
    def build_client(shard_id: int, nshards: int) -> _StubClient:
        if kill_at == "build" and shard_id == 1:
            _die()
        return _StubClient(shard_id, kill_at)

    try:
        return run_sharded_subprocesses(2, 10.0, build_client, _StubFabric())
    except (ImportError, PermissionError) as exc:  # pragma: no cover
        pytest.skip(f"shared-memory subprocess transport unavailable: {exc}")


def test_stub_run_completes_when_no_shard_dies():
    results = _run("never")
    assert results[0] == 50.0


@pytest.mark.parametrize("kill_at", ["build", "window", "finish"])
def test_killed_shard_raises_shard_worker_died_promptly(kill_at):
    t0 = time.monotonic()  # repro-lint: disable=D1
    with pytest.raises(ShardWorkerDied) as info:
        _run(kill_at)
    elapsed = time.monotonic() - t0  # repro-lint: disable=D1
    assert info.value.shard == 1
    assert info.value.exitcode == -signal.SIGKILL
    assert elapsed < PROMPT_S, f"took {elapsed:.2f}s to notice the dead shard"

"""Shared scaffolding for fabric child processes (shard and store node).

Both child kinds follow the same shape: parse a config JSON from argv,
dial the coordinator's control port, announce themselves with a HELLO, and
then run a *paced* event loop that advances their discrete-event simulator
against real wall-clock time.

Pacing is the bridge between the two time domains. Inside a process the
engine is still the deterministic :class:`~repro.simnet.engine.Simulator`;
across processes, messages travel on real sockets with real latencies and
real failures. The :class:`Pacer` maps wall-clock to virtual microseconds
at a fixed ``time_scale`` (real microseconds per virtual microsecond), and
the loop only runs the simulator up to the current virtual time. That
keeps virtual timeouts meaningful against real-world delays: at the
default scale of 20, the store client's ~56 virtual-ms blocking retry
budget spans more than a real second — enough to ride out a SIGKILL'd
store node being respawned, which is exactly the fidelity the fabric is
built to exercise.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Any, Dict, List, Optional

from repro.dist.transport import Connection, ControlFrame

#: Real microseconds per virtual microsecond. 20x dilation keeps the
#: engine's hardcoded virtual budgets (root clock persist at 200 virtual
#: us, blocking store retries totalling ~56 virtual ms) comfortably above
#: real socket RTTs and fault windows of a few hundred real ms.
DEFAULT_TIME_SCALE = 20.0

#: Upper bound on one select() sleep: even with an idle simulator the loop
#: wakes often enough to notice control commands and reconnect deadlines.
MAX_IDLE_WAIT_S = 0.002


class Pacer:
    """Maps monotonic wall-clock time onto virtual simulator time."""

    def __init__(self, time_scale: float = DEFAULT_TIME_SCALE) -> None:
        self.time_scale = time_scale
        self._start_real = time.perf_counter()

    def now_real(self) -> float:
        """Seconds since the pacer started (monotonic)."""
        return time.perf_counter() - self._start_real

    def virtual_now(self) -> float:
        """The virtual time (us) the simulator is allowed to reach."""
        return self.now_real() * 1e6 / self.time_scale

    def real_wait_for(self, virtual_due: Optional[float]) -> float:
        """Seconds to sleep until ``virtual_due`` is reachable (bounded)."""
        if virtual_due is None:
            return MAX_IDLE_WAIT_S
        ahead_virtual = virtual_due - self.virtual_now()
        if ahead_virtual <= 0:
            return 0.0
        return min(MAX_IDLE_WAIT_S, ahead_virtual * self.time_scale / 1e6)


class ControlLink:
    """The child's side of the coordinator's control channel.

    A reconnecting :class:`Connection` that replays its HELLO after every
    (re)connect, splits inbound control frames into command dicts, and
    offers a ``reply`` helper that echoes the command's ``cmd_id`` so the
    fabric can match responses to requests.
    """

    def __init__(
        self,
        host: str,
        port: int,
        role: str,
        name: str,
        seed: int = 0,
        extra_hello: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.role = role
        self.name = name
        self._hello_extra = dict(extra_hello or {})
        self._parent_pid = os.getppid()
        self.conn = Connection(
            host,
            port,
            seed=seed,
            label=f"control:{name}",
            on_connect=self._send_hello,
        )

    def _send_hello(self, conn: Connection) -> None:
        body = {
            "type": "hello",
            "role": self.role,
            "name": self.name,
            "pid": os.getpid(),
        }
        body.update(self._hello_extra)
        conn.send_obj(ControlFrame(body))

    def set_hello_extra(self, **fields: Any) -> None:
        """Update HELLO fields replayed on future reconnects (and announce
        them now if currently connected)."""
        self._hello_extra.update(fields)
        if self.conn.alive:
            self._send_hello(self.conn)

    def poll(self, now_real: float) -> List[Dict[str, Any]]:
        """Pump the socket; return inbound control command bodies.

        A child whose parent changed has outlived its coordinator (SIGKILL,
        a timed-out CI job): nobody is left to command or collect it, so it
        is told to shut down here instead of redialling forever."""
        commands: List[Dict[str, Any]] = [
            frame.body
            for frame in self.conn.pump(now_real)
            if isinstance(frame, ControlFrame)
        ]
        if os.getppid() != self._parent_pid:
            commands.append({"type": "shutdown"})
        return commands

    def reply(self, command: Dict[str, Any], body: Dict[str, Any]) -> None:
        self.conn.send_obj(
            ControlFrame(
                {"type": "reply", "cmd_id": command.get("cmd_id"), "body": body}
            )
        )

    def notify(self, kind: str, **fields: Any) -> None:
        """Unsolicited event toward the fabric (no cmd_id)."""
        body: Dict[str, Any] = {"type": kind}
        body.update(fields)
        self.conn.send_obj(ControlFrame(body))

    def fileno(self) -> Optional[int]:
        return self.conn.fileno()

    def close(self) -> None:
        self.conn.close()


def load_config() -> Dict[str, Any]:
    """Child-process config: a single JSON object as argv[1]."""
    if len(sys.argv) < 2:
        raise SystemExit(f"usage: {sys.argv[0]} '<config json>'")
    config = json.loads(sys.argv[1])
    if not isinstance(config, dict):
        raise SystemExit("config must be a JSON object")
    # post-mortem hook: the fabric (or a human) can SIGUSR1 a wedged child
    # to get a stack dump in its log file without killing it
    import faulthandler
    import signal

    faulthandler.register(signal.SIGUSR1)
    return config

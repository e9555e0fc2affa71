"""Single-board computer worker-node model.

An SBC is a passive hardware model: it owns a power-state machine and a
spec sheet, and exposes the state transitions that the cluster's worker
process and the orchestrator's GPIO lines drive (power on/off, boot,
busy/IO phases).  It deliberately contains no scheduling logic — the
paper's point is that the worker is dumb, single-tenant hardware.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.hardware.power import PowerState, PowerStateMachine
from repro.hardware.specs import BEAGLEBONE_BLACK, SbcSpec


#: Per-spec state→watts tables, built once: every board of a fleet
#: shares its spec, and rebuilding the enum-keyed dict per board was a
#: measurable slice of 100k-worker cold-build time.  The state machine
#: copies the table, so sharing the template is safe.
_STATE_WATTS_CACHE: dict = {}


def _state_watts_for(power) -> dict:
    try:
        cached = _STATE_WATTS_CACHE.get(power)
    except TypeError:  # unhashable custom power spec
        cached = None
    if cached is not None:
        return cached
    table = {
        PowerState.OFF: power.off,
        PowerState.BOOT: power.boot,
        PowerState.IDLE: power.idle,
        PowerState.CPU_BUSY: power.cpu_busy,
        PowerState.IO_WAIT: power.io_wait,
    }
    try:
        _STATE_WATTS_CACHE[power] = table
    except TypeError:
        pass
    return table


#: Members bound once: enum member access goes through the metaclass
#: (~150 ns a time), and the phase methods run several times per job.
_OFF = PowerState.OFF
_BOOT = PowerState.BOOT
_IDLE = PowerState.IDLE
_CPU_BUSY = PowerState.CPU_BUSY
_IO_WAIT = PowerState.IO_WAIT
#: Execution phases, and the states one may start from.
_PHASES = (_CPU_BUSY, _IO_WAIT)
_PHASE_FROM = (_IDLE, _CPU_BUSY, _IO_WAIT)


class SingleBoardComputer:
    """A bare-metal SBC worker node (default: BeagleBone Black).

    Parameters
    ----------
    clock:
        Zero-argument callable returning current simulated time.
    spec:
        Hardware spec sheet.
    node_id:
        Identifier within the cluster.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        spec: SbcSpec = BEAGLEBONE_BLACK,
        node_id: int = 0,
    ):
        self.spec = spec
        self.node_id = node_id
        self._clock = clock
        self.psm = PowerStateMachine(
            clock,
            state_watts=_state_watts_for(spec.power),
            initial_state=_OFF,
        )
        self.boot_count = 0
        self.jobs_completed = 0
        self.ip_address: Optional[str] = None
        #: True when the board has booted and run no code since — the
        #: clean-state guarantee a fresh tenant requires (Sec. III-a).
        self.clean = False
        #: Active DVFS step, or None at nominal frequency.  Workers
        #: stretch execute-phase CPU time by ``1 / perf_scale`` when set.
        self.dvfs_step = None
        #: True from :meth:`commit_window` to :meth:`finish_job`: the
        #: worker planned this job's phases ahead and no outside actor
        #: may cut power or step DVFS until the result is returned.
        self.in_window = False

    # -- power control (driven by GPIO / worker process) ----------------------

    @property
    def state(self) -> PowerState:
        return self.psm.state

    @property
    def is_powered(self) -> bool:
        return self.psm.state is not _OFF

    def power_on(self) -> None:
        """Assert the PWR_BUT line: the board enters its boot sequence."""
        if self.is_powered:
            raise RuntimeError(f"node {self.node_id} is already powered on")
        self.boot_count += 1
        self.psm.set_state(_BOOT)

    def boot_complete(self) -> None:
        """Boot finished; the worker idles awaiting a job."""
        self._require(_BOOT)
        self.clean = True
        self.psm.set_state(_IDLE)

    def begin_reboot(self) -> None:
        """Warm reboot between jobs (clean-state guarantee, Sec. III-a)."""
        if self.psm.state is _OFF:
            raise RuntimeError(f"node {self.node_id} is off; use power_on()")
        self.boot_count += 1
        self.clean = False
        self.psm.set_state(_BOOT)

    def power_off(self) -> None:
        """Cut power (energy-proportional idle, Sec. III-b)."""
        self._require_no_window("power cut")
        self.clean = False
        self.psm.set_state(_OFF)

    # -- DVFS / power capping --------------------------------------------------

    def apply_dvfs(self, step) -> None:
        """Clock the board down (or back up) to ``step``.

        Active-state draws scale by the step's ``power_scale``; standby,
        boot, and idle draws are frequency-independent (the boot chain
        runs before the governor, standby power is leakage).  The shared
        per-spec watts template is never mutated — each capped board
        gets its own scaled copy.
        """
        self._require_no_window("DVFS step")
        base = _state_watts_for(self.spec.power)
        scaled = dict(base)
        scaled[_CPU_BUSY] = base[_CPU_BUSY] * step.power_scale
        scaled[_IO_WAIT] = base[_IO_WAIT] * step.power_scale
        self.psm.rescale(scaled)
        self.dvfs_step = step

    def clear_dvfs(self) -> None:
        """Return to nominal frequency."""
        if self.dvfs_step is None:
            return
        self._require_no_window("DVFS step")
        self.psm.rescale(_state_watts_for(self.spec.power))
        self.dvfs_step = None

    # -- execution phases ------------------------------------------------------

    def start_compute(self) -> None:
        """The CPU is executing function code."""
        self._require(*_PHASE_FROM)
        self.clean = False
        self.psm.set_state(_CPU_BUSY)

    def start_io_wait(self) -> None:
        """The function is blocked on network/service I/O."""
        self._require(*_PHASE_FROM)
        self.clean = False
        self.psm.set_state(_IO_WAIT)

    def commit_window(self, transitions: list) -> None:
        """Commit one job's planned phase transitions in one call.

        ``transitions`` holds ``(time, state)`` pairs: ``IDLE`` is a
        :meth:`boot_complete`, ``CPU_BUSY`` a :meth:`start_compute` and
        ``IO_WAIT`` a :meth:`start_io_wait` at that time.  The sequence
        is checked here as the one-by-one calls would check it, and the
        power state machine applies it with their arithmetic (see
        :meth:`PowerStateMachine.commit_window`).  The window stays
        open until :meth:`finish_job`.
        """
        state = self.psm.state
        for _when, target in transitions:
            if target is _IDLE:
                legal = state is _BOOT
            else:
                legal = state in _PHASE_FROM and target in _PHASES
            if not legal:
                raise RuntimeError(
                    f"node {self.node_id}: invalid transition from {state}"
                )
            state = target
        if state not in _PHASES:
            raise ValueError("a job window must end in an execution phase")
        # The board is dirty from the first execution phase on, and
        # before it it is booting or already dirty, so the flag can be
        # set now: only the boot's end makes it True, for no time.
        self.clean = False
        self.in_window = True
        self.psm.commit_window(transitions)

    def finish_job(self) -> None:
        """A job's result has been returned to the orchestrator."""
        self.in_window = False
        self.jobs_completed += 1
        self.psm.set_state(_IDLE)

    # -- helpers ---------------------------------------------------------------

    @property
    def watts(self) -> float:
        """Instantaneous power draw."""
        return self.psm.watts

    @property
    def trace(self):
        """The node's power trace."""
        return self.psm.trace

    def _require_no_window(self, action: str) -> None:
        if self.in_window:
            raise RuntimeError(
                f"node {self.node_id}: {action} inside a committed job "
                f"window; attach the actor to the environment "
                f"(Environment.attach_actor) before the run"
            )

    def _require(self, *states: PowerState) -> None:
        if self.psm.state not in states:
            raise RuntimeError(
                f"node {self.node_id}: invalid transition from {self.psm.state}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SBC #{self.node_id} {self.spec.name} state={self.state.value} "
            f"boots={self.boot_count} jobs={self.jobs_completed}>"
        )


__all__ = ["SingleBoardComputer"]

"""Inverted pendulum on a cart, balanced by a fuzzy controller.

The plant is the classic pole-balancing model with a first-order
actuator lag: the controller commands a force f, the force actually
applied follows d(fa)/dt = -100 fa + 100 f.  The control loop scales
angle error and error rate into the engine's [-1, 1] input range, runs
one inference, and scales the crisp output up to a commanded force.

Integration is classical fixed-step RK4 with the commanded force held
constant across the four stages of each step (the controller runs once
per step, zero-order hold).  The actuator pole at -100 1/s puts the RK4
stability limit near h = 0.0278 s; LoopConfig rejects steps that large.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .engine import InferenceResult

__all__ = [
    "GRAVITY",
    "ACTUATOR_RATE",
    "RK4_MAX_STEP",
    "LoopConfig",
    "SimTrace",
    "NumericalBlowup",
    "plant_derivatives",
    "controller_step",
    "simulate",
    "settle_time",
    "write_trace_csv",
]

GRAVITY = 9.81
ACTUATOR_RATE = 100.0
# RK4 is stable for |h * lambda| < 2.785; with lambda = -100 that means
# h < 0.02785 s.  Configs at or above this bound are rejected.
RK4_MAX_STEP = 0.0278
BLOWUP_LIMIT = 1e6

# Controller scaling: angle error (rad) and error rate (rad/s) map onto the
# engine's [-1, 1] inputs, the crisp output onto a commanded force (N).
ERROR_GAIN = 4.0 / math.pi
RATE_GAIN = 0.4 / math.pi
FORCE_GAIN = 100.0
SETPOINT = 0.0
# |angle| below this counts as settled (rad).
SETTLE_THRESHOLD = 0.01


class NumericalBlowup(RuntimeError):
    """State left the sane range; carries the partial trace as .trace."""

    def __init__(self, message: str, trace: "SimTrace"):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class LoopConfig:
    step: float = 1e-3
    duration: float = 5.0
    initial_angle: float = 0.1
    initial_velocity: float = 0.0

    def __post_init__(self) -> None:
        for name in ("step", "duration", "initial_angle", "initial_velocity"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.step > 0.0:
            raise ValueError("step must be positive")
        if self.step >= RK4_MAX_STEP:
            raise ValueError(
                f"step {self.step} is at or above the RK4 stability bound {RK4_MAX_STEP}"
            )
        if self.duration < self.step:
            raise ValueError("duration must cover at least one step")


@dataclass
class SimTrace:
    """Fixed-step simulation record; all arrays share one length."""

    times: np.ndarray
    angles: np.ndarray
    angular_velocities: np.ndarray
    forces: np.ndarray
    controller_inputs: np.ndarray  # shape (n, 2), scaled (x1, x2)
    controller_outputs: np.ndarray  # crisp engine outputs, pre force gain
    degenerate_flags: np.ndarray
    failed: bool = False


def plant_derivatives(angle: float, velocity: float, lagged: float,
                      commanded: float) -> tuple[float, float, float]:
    """Time derivatives (d_angle, d_velocity, d_force) at a state.

    ``angle`` is in rad (0 = upright) and ``lagged`` is the force actually
    applied to the cart; ``commanded`` is the controller output it
    follows.
    """
    s = math.sin(angle)
    c = math.cos(angle)
    accel = (GRAVITY * s + c * ((-lagged - 0.25 * velocity * velocity * s) / 1.5)) \
        / (2.0 / 3.0 - c * c / 6.0)
    return velocity, accel, -ACTUATOR_RATE * lagged + ACTUATOR_RATE * commanded


def _clamp(v: float) -> float:
    return min(1.0, max(-1.0, v))


def controller_step(engine, error: float,
                    error_rate: float) -> tuple[float, float, float, float, bool]:
    """One controller evaluation: scaled inputs -> inference -> commanded force.

    Inputs are clamped to [-1, 1] after gain scaling.  Returns the scaled
    inputs (x1, x2), the crisp output u, the commanded force and the
    engine's degeneracy flag; engines never raise here, so the loop
    always keeps running.
    """
    x1 = _clamp(ERROR_GAIN * error)
    x2 = _clamp(RATE_GAIN * error_rate)
    result: InferenceResult = engine.infer((x1, x2))
    return x1, x2, result.value, FORCE_GAIN * result.value, result.degenerate


def simulate(engine, cfg: LoopConfig | None = None) -> SimTrace:
    """Closed-loop run over floor(duration / step) RK4 steps.

    The trace has one row per step boundary including t = 0, with the
    controller quantities evaluated at that row's state.  Raises
    NumericalBlowup (carrying the partial trace) if any state magnitude
    passes 1e6 or stops being finite.
    """
    cfg = cfg if cfg is not None else LoopConfig()
    n_steps = int(math.floor(cfg.duration / cfg.step))
    # One row per step boundary, in the trace CSV's column order: t, angle,
    # velocity, force, x1, x2, u, and the degenerate flag as 0.0 or 1.0.
    rows = np.empty((n_steps + 1, 8))

    h = cfg.step
    y = float(cfg.initial_angle)
    w = float(cfg.initial_velocity)
    fa = 0.0
    for i in range(n_steps + 1):
        # NaN and +-inf fail <= as well.
        if not (abs(y) <= BLOWUP_LIMIT and abs(w) <= BLOWUP_LIMIT and abs(fa) <= BLOWUP_LIMIT):
            raise NumericalBlowup(
                f"state left the sane range at t = {i * h:.6g} s "
                f"(angle {y:.6g}, velocity {w:.6g}, force {fa:.6g})",
                _trace(rows[:i].copy(), failed=True),
            )
        x1, x2, u, f, degenerate = controller_step(engine, SETPOINT - y, -w)
        rows[i] = (i * h, y, w, f, x1, x2, u, degenerate)
        if i == n_steps:
            break
        # Classical RK4; the commanded force f is held for the whole step.
        k1 = plant_derivatives(y, w, fa, f)
        k2 = plant_derivatives(y + 0.5 * h * k1[0], w + 0.5 * h * k1[1], fa + 0.5 * h * k1[2], f)
        k3 = plant_derivatives(y + 0.5 * h * k2[0], w + 0.5 * h * k2[1], fa + 0.5 * h * k2[2], f)
        k4 = plant_derivatives(y + h * k3[0], w + h * k3[1], fa + h * k3[2], f)
        y += h * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]) / 6.0
        w += h * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]) / 6.0
        fa += h * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2]) / 6.0

    return _trace(rows)


def _trace(rows: np.ndarray, failed: bool = False) -> SimTrace:
    """A SimTrace whose float columns are views of simulate's row array."""
    times, angles, velocities, forces = rows[:, :4].T
    return SimTrace(times, angles, velocities, forces, rows[:, 4:6], rows[:, 6],
                    rows[:, 7] != 0.0, failed)


def settle_time(trace: SimTrace) -> float | None:
    """First trace time after which |angle| stays below SETTLE_THRESHOLD.

    Returns 0.0 if the whole trace is below the threshold and None if
    the final sample is not.
    """
    above = np.abs(trace.angles) >= SETTLE_THRESHOLD
    if above[-1]:
        return None
    idx = np.nonzero(above)[0]
    if idx.size == 0:
        return 0.0
    return float(trace.times[idx[-1] + 1])


# One trace CSV row: the seven float columns at 17 significant digits,
# then the degenerate flag as 0 or 1.
_TRACE_ROW = "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%d\n"


def write_trace_csv(trace: SimTrace, path: str | Path) -> None:
    """Write the trace with a fixed header at 17 significant digits."""
    # Whole columns convert to Python numbers at once, and the rows are
    # streamed so no second copy of the file is held in memory.
    columns = (trace.times.tolist(), trace.angles.tolist(),
               trace.angular_velocities.tolist(), trace.forces.tolist(),
               trace.controller_inputs[:, 0].tolist(), trace.controller_inputs[:, 1].tolist(),
               trace.controller_outputs.tolist(), trace.degenerate_flags.astype(int).tolist())
    with open(path, "w") as fh:
        fh.write("t,angle,angular_velocity,force,x1,x2,u,degenerate\n")
        fh.writelines(map(_TRACE_ROW.__mod__, zip(*columns)))

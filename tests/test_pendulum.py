"""Inverted-pendulum loop: plant model, controller wiring, RK4 integration."""

import math

import numpy as np
import pytest

from it2fuzz import (
    ACTUATOR_RATE,
    GRAVITY,
    RK4_MAX_STEP,
    ClosedFormEngine,
    LoopConfig,
    NumericalBlowup,
    SimTrace,
    controller_step,
    default_rulebase,
    plant_derivatives,
    settle_time,
    simulate,
    write_trace_csv,
)
from it2fuzz.pendulum import FORCE_GAIN

from helpers import ConstantEngine
from oracles import D_VELOCITY_AT_TENTH

RB = default_rulebase()
ENGINE = ClosedFormEngine(RB)

# cart mass 1 kg, pendulum mass 0.5 kg, half length 0.5 m
CART_MASS = 1.0
POLE_MASS = 0.5
HALF_LENGTH = 0.5


def expected_angular_accel(angle, velocity, force):
    total = CART_MASS + POLE_MASS
    num = GRAVITY * math.sin(angle) + math.cos(angle) * (
        (-force - POLE_MASS * HALF_LENGTH * velocity * velocity * math.sin(angle))
        / total
    )
    den = HALF_LENGTH * (4.0 / 3.0 - POLE_MASS * math.cos(angle) ** 2 / total)
    return num / den


def test_upright_rest_is_a_fixed_point():
    assert plant_derivatives(0.0, 0.0, 0.0, 0.0) == (0.0, 0.0, 0.0)


def test_actuator_lag_pulls_toward_command():
    d = plant_derivatives(0.0, 0.0, 0.0, 1.0)
    assert d == (0.0, 0.0, ACTUATOR_RATE)
    d = plant_derivatives(0.0, 0.0, 2.0, 0.0)
    assert d[2] == -ACTUATOR_RATE * 2.0


def test_gravity_torque_at_small_angle():
    d = plant_derivatives(0.1, 0.0, 0.0, 0.0)
    assert d[0] == 0.0
    assert d[1] == expected_angular_accel(0.1, 0.0, 0.0)
    assert d[1] == pytest.approx(D_VELOCITY_AT_TENTH, abs=1e-15)


def test_plant_derivatives_match_formula_with_force():
    d = plant_derivatives(0.3, -1.2, 4.0, 9.0)
    assert d[0] == -1.2
    # the plant sees the lagged force, not the commanded one
    assert d[1] == expected_angular_accel(0.3, -1.2, 4.0)
    assert d[2] == ACTUATOR_RATE * (9.0 - 4.0)


def test_controller_zero_error_gives_zero_force():
    assert controller_step(ENGINE, 0.0, 0.0) == (0.0, 0.0, 0.0, 0.0, False)


def test_controller_input_clamp_saturates():
    # pi/4 already scales to 1.0, so any larger error gives the same force
    x1_quarter, _, _, f_quarter, _ = controller_step(ENGINE, math.pi / 4.0, 0.0)
    x1_full, _, _, f_full, _ = controller_step(ENGINE, math.pi, 0.0)
    assert x1_quarter == x1_full == 1.0
    assert f_quarter == f_full
    assert f_full == FORCE_GAIN * ENGINE.infer((1.0, 0.0)).value


def test_loop_config_validation():
    with pytest.raises(ValueError, match=str(RK4_MAX_STEP)):
        LoopConfig(step=0.05)
    with pytest.raises(ValueError):
        LoopConfig(step=0.0)
    with pytest.raises(ValueError):
        LoopConfig(step=1e-3, duration=5e-4)
    with pytest.raises(ValueError):
        LoopConfig(initial_angle=math.inf)


def test_trace_shape_and_time_axis():
    trace = simulate(ENGINE, LoopConfig(step=1e-3, duration=0.05))
    assert trace.times.size == 51
    assert trace.times[0] == 0.0
    assert trace.times[-1] == pytest.approx(0.05, abs=1e-12)
    assert trace.angles.size == trace.forces.size == trace.times.size
    assert trace.controller_inputs.shape == (51, 2)
    assert not trace.failed


# Durations a whole number of steps long whose quotient falls short of it
# (0.043 / 0.001 is 42.99999999999999), and one half a step past 43 steps.
@pytest.mark.parametrize("step, duration, steps", [
    (1e-3, 0.043, 43), (1e-3, 0.051, 51), (1e-3, 0.102, 102),
    (1e-2, 0.29, 29), (1e-2, 1.16, 116), (1e-3, 0.0435, 43)])
def test_a_whole_number_of_steps_keeps_its_last_step(step, duration, steps):
    trace = simulate(ConstantEngine(0.0), LoopConfig(step=step, duration=duration))
    assert trace.times.size == steps + 1
    assert trace.times[-1] == pytest.approx(steps * step, abs=1e-12)


def test_equilibrium_trace_is_identically_zero():
    trace = simulate(ENGINE, LoopConfig(duration=0.5, initial_angle=0.0))
    assert np.all(trace.angles == 0.0)
    assert np.all(trace.angular_velocities == 0.0)
    assert np.all(trace.forces == 0.0)
    assert not trace.degenerate_flags.any()


def test_trace_odd_symmetry():
    cfg_pos = LoopConfig(duration=1.0, initial_angle=0.1)
    cfg_neg = LoopConfig(duration=1.0, initial_angle=-0.1)
    a = simulate(ENGINE, cfg_pos)
    b = simulate(ENGINE, cfg_neg)
    assert float(np.max(np.abs(a.angles + b.angles))) <= 1e-9
    assert float(np.max(np.abs(a.forces + b.forces))) <= 1e-9


def test_demo_loop_settles_quickly():
    trace = simulate(ENGINE, LoopConfig())
    assert settle_time(trace) == pytest.approx(0.196, abs=1e-9)
    assert float(np.max(np.abs(trace.angles))) < 0.11
    assert abs(trace.angles[-1]) < 1e-6


def test_settle_time_semantics():
    def trace_with(angles):
        n = len(angles)
        return SimTrace(np.arange(n, dtype=float), np.asarray(angles, dtype=float),
                        np.zeros(n), np.zeros(n), np.zeros((n, 2)), np.zeros(n),
                        np.zeros(n, dtype=bool))

    assert settle_time(trace_with([0.5, 0.2, 0.05])) is None
    assert settle_time(trace_with([0.005, -0.002, 0.001])) == 0.0
    # first time after the last sample at or above threshold
    assert settle_time(trace_with([0.5, 0.02, 0.005, 0.001])) == 2.0
    assert settle_time(trace_with([0.5, 0.02, 0.005, 0.02, 0.001])) == 4.0
    # a start beyond the sane range fails before the t = 0 row is recorded
    with pytest.raises(NumericalBlowup) as exc:
        simulate(ENGINE, LoopConfig(initial_angle=1e300))
    assert exc.value.trace.times.size == 0
    assert settle_time(exc.value.trace) is None


def test_rk4_convergence_is_fourth_order():
    # constant control keeps the trajectory smooth and libm-independent
    # of the controller, so halving the step divides the error by ~16
    finals = []
    for h in (1.0 / 128.0, 1.0 / 256.0, 1.0 / 512.0):
        trace = simulate(ConstantEngine(0.003), LoopConfig(step=h, duration=0.5))
        finals.append(float(trace.angles[-1]))
    d01 = abs(finals[0] - finals[1])
    d12 = abs(finals[1] - finals[2])
    assert d12 > 1e-12  # far above rounding noise
    assert 8.0 < d01 / d12 < 32.0


def test_blowup_raises_with_partial_trace():
    with pytest.raises(NumericalBlowup, match="sane range") as exc:
        simulate(ConstantEngine(1e5), LoopConfig(duration=1.0))
    trace = exc.value.trace
    assert trace.failed
    assert 0 < trace.times.size < 1001
    assert trace.angles.size == trace.times.size == trace.forces.size


def test_non_finite_force_raises_with_one_row_trace():
    # a NaN, infinite or overflowing force reaches the state in the first
    # RK4 step, so only the t = 0 row is recorded
    for u in (math.nan, math.inf, -math.inf, 1e306):
        with pytest.raises(NumericalBlowup, match="sane range") as exc:
            simulate(ConstantEngine(u), LoopConfig(duration=1.0))
        trace = exc.value.trace
        assert trace.failed
        assert trace.times.size == 1 and trace.angles[0] == 0.1
        assert trace.forces[0].hex() == (FORCE_GAIN * u).hex(), u


def test_write_trace_csv_round_trips(tmp_path):
    trace = simulate(ENGINE, LoopConfig(duration=0.02))
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,angle,angular_velocity,force,x1,x2,u,degenerate"
    assert len(lines) == trace.times.size + 1
    cells = lines[5].split(",")
    assert len(cells) == 8
    assert float(cells[1]) == trace.angles[4]  # 17 digits survive the round trip
    assert cells[7] in ("0", "1")


def _reference_csv(trace):
    """The trace file as a per-element loop over the arrays formats it."""
    lines = ["t,angle,angular_velocity,force,x1,x2,u,degenerate"]
    for i in range(trace.times.size):
        lines.append(
            f"{trace.times[i]:.17g},{trace.angles[i]:.17g},"
            f"{trace.angular_velocities[i]:.17g},{trace.forces[i]:.17g},"
            f"{trace.controller_inputs[i, 0]:.17g},{trace.controller_inputs[i, 1]:.17g},"
            f"{trace.controller_outputs[i]:.17g},{int(trace.degenerate_flags[i])}"
        )
    return ("\n".join(lines) + "\n").encode()


def _blowup_trace(engine, cfg):
    with pytest.raises(NumericalBlowup) as exc:
        simulate(engine, cfg)
    return exc.value.trace


@pytest.mark.parametrize("make, rows", [
    (lambda: simulate(ENGINE, LoopConfig(duration=0.2, initial_angle=-0.0)), 201),
    (lambda: _blowup_trace(ConstantEngine(math.nan), LoopConfig(duration=1.0)), 1),
    (lambda: _blowup_trace(ENGINE, LoopConfig(initial_angle=2e6)), 0),
], ids=["negative_zero_start", "nan_force", "empty"])
def test_write_trace_csv_matches_per_element_formatting(make, rows, tmp_path):
    trace = make()
    assert trace.times.size == rows
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    data = path.read_bytes()
    assert data == _reference_csv(trace)
    if rows == 0:
        assert data == b"t,angle,angular_velocity,force,x1,x2,u,degenerate\n"
    elif rows == 1:
        assert b",nan," in data
    else:
        assert b"\n0,-0," in data

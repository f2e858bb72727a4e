"""Times at reference speed: bracketing and scaling."""
import pytest

from perfbench import hostspeed


def test_each_unit_gets_the_mean_of_the_kernels_around_it():
    assert hostspeed.bracketed([1.0, 3.0, 2.0]) == [2.0, 2.5]
    assert hostspeed.bracketed([1.0]) == []


def test_a_slow_host_phase_cancels():
    # The host runs at half speed: the unit and its kernels take twice
    # as long, and the time at reference speed does not move.
    fast = hostspeed.at_reference_speed(4.0, hostspeed.REFERENCE_S)
    slow = hostspeed.at_reference_speed(8.0, 2 * hostspeed.REFERENCE_S)
    assert fast == slow == 4.0


def test_a_faster_program_reads_faster_on_the_same_host():
    kernel_s = 0.8
    assert hostspeed.at_reference_speed(3.0, kernel_s) < hostspeed.at_reference_speed(4.0, kernel_s)
    assert hostspeed.at_reference_speed(3.0, kernel_s) == pytest.approx(3.0 * hostspeed.REFERENCE_S / 0.8)


def test_the_kernel_is_deterministic_work():
    assert hostspeed.kernel() == hostspeed.kernel()
    assert hostspeed.reference_s() > 0

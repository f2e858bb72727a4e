"""The /proc and rusage readers behind cpu_s and peak_rss_mb."""
import os
import subprocess
import sys
import time

import pytest

from perfbench import procfs

TICK = os.sysconf("SC_CLK_TCK")


def test_parse_stat_skips_a_command_name_with_spaces_and_parens():
    fields = ["S"] + ["0"] * 10 + [str(3 * TICK), str(TICK)] + ["0"] * 30
    line = "4242 (odd (name) x) " + " ".join(fields)
    assert procfs.parse_stat_cpu_s(line) == pytest.approx(4.0)


def test_parse_status_reads_vmhwm():
    text = "Name:\tpython\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n"
    assert procfs.parse_status_hwm_mb(text) == 2.0
    with pytest.raises(ValueError):
        procfs.parse_status_hwm_mb("Name:\tpython\n")


def test_live_child_is_read_from_proc():
    burn = "import time\nt = time.process_time()\nwhile time.process_time() - t < 0.3: pass\nx = bytearray(64 << 20)\nprint('ok', flush=True)\ntime.sleep(30)\n"
    child = subprocess.Popen([sys.executable, "-c", burn], stdout=subprocess.PIPE)
    try:
        assert child.stdout.readline().strip() == b"ok"
        assert procfs.proc_cpu_s(child.pid) >= 0.25
        assert procfs.proc_hwm_mb(child.pid) >= 64
        # Not reaped yet, so RUSAGE_CHILDREN cannot see it.
        assert procfs.rusage_cpu_s() < procfs.rusage_cpu_s() + procfs.proc_cpu_s(child.pid)
    finally:
        child.kill()
        child.wait()
        child.stdout.close()


def test_rusage_grows_with_own_work():
    before = procfs.rusage_cpu_s()
    t = time.process_time()
    while time.process_time() - t < 0.1:
        pass
    assert procfs.rusage_cpu_s() - before >= 0.09
    assert procfs.rusage_peak_mb() > 1

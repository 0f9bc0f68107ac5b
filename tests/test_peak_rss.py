"""``repro.ooc.peak_rss_bytes`` measures the calling process only.

``ru_maxrss`` keeps the peak of the image a process replaced at
``exec``, so a child spawned from a large parent reported the parent's
peak.  The Linux reading (``VmHWM``) must not.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.ooc import peak_rss_bytes

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="needs Linux /proc"
)
def test_child_reports_its_own_smaller_peak():
    ballast = np.ones(16 * 2**20)  # 128 MiB, every page touched
    assert peak_rss_bytes() >= ballast.nbytes
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            "from repro.ooc import peak_rss_bytes; print(peak_rss_bytes())",
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    child_peak = int(out.stdout)
    assert 0 < child_peak < ballast.nbytes
    del ballast

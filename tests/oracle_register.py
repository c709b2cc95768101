"""Dense full-register schedule execution: the test oracle for ``execute``.

The package runs a schedule by applying each two-dot exponential or pulse
locally (``entpipe.spin_register.execute``).  This module instead embeds
every generator and pulse in the full 2^n register space and multiplies
dense Pade exponentials, so the fast path's axis bookkeeping is checked
against an independent route.  Only tests import it.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg

from entpipe.hilbert import StateVector, embed_operator, qubits
from entpipe.spin_register import Schedule, plus_register, rotation


def dense_execute(schedule: Schedule) -> StateVector:
    """Run a schedule from |+>^n through full-space dense exponentials only."""
    layout = qubits(schedule.n_dots)
    amps = plus_register(schedule.n_dots).amplitudes.copy()
    for st in schedule.steps:
        if st.coupling is not None:
            h = embed_operator(layout, st.coupling.matrix(), st.coupling.pair)
            amps = scipy.linalg.expm(-1j * st.duration * h) @ amps
        elif st.pulse.z_corrections is not None:
            amps = amps * np.exp(1j * st.pulse.global_phase)
            for dot, phi in st.pulse.z_corrections.items():
                g = embed_operator(layout, np.diag([1, np.exp(1j * phi)]), (dot,))
                amps = g @ amps
        else:
            u = rotation(st.pulse.angle, st.pulse.axis_phase)
            amps = embed_operator(layout, u, (st.pulse.target,)) @ amps
    return StateVector(amps, layout)

"""References shared by the tests: quantities the package computes in
stacked passes, computed the long way for one topology or ON set."""
import numpy as np

from sbsched import network


def compute_gains(bs, ue_xy):
    """(n_ue, n_bs) gains from the UEs at `ue_xy` to the BSs `bs`, by the
    placement's gain kernel, each `channel_gain` of its distance bit for bit."""
    return network._gains([b.kind for b in bs], np.array([[b.x, b.y] for b in bs]), ue_xy)


def ue_rates(state, topo):
    """Each UE's achievable rate in the association `state` of one ON set,
    elementwise: its server's bandwidth split equally over the server's
    members, times log2(1 + its SINR)."""
    serving = state.serving
    return topo.bandwidths[serving] / state.counts[serving] * np.log2(1.0 + state.sinr)

"""Configs drawn for property tests: every scenario key, with ordinary and
extreme values, as the text of a config file."""
from hypothesis import strategies as st

from sbsched.engine import MAX_SLOT_CELLS


# Values for every scenario key, kept tiny: at most 3 SBSs, 2 replications
# and 20 slots (period and dt are always set). A key takes an ordinary value,
# or, in one config in two, an extreme one a time in four, which may be
# invalid.
KEY_VALUES = {
    "period": (["1", "2", "0.5"], ["0", "inf", "-1"]),
    "dt": (["0.1", "0.25", "0.5"], ["0.3", "0", "nan"]),
    "horizon_periods": (["1", "2"], ["0"]),
    "n_sbs": (["1", "2", "3"], ["0", "-1"]),
    "n_ue": (["5", "20"], ["1", "0"]),
    "network.mbs_tx_power": (["33 dBm", "20 W"], ["1e-30 W", "-300 dBm", "0 W"]),
    "network.sbs_tx_power": (["23 dBm", "33 dBm", "0 dBm"], ["1e-30 W", "-300 dBm"]),
    "network.mbs_op_power": (["20 W", "40 W"], ["1 W", "1e300 W"]),
    "network.sbs_op_power": (["10 W", "8 W", "20 W"], ["1 W", "1e300 W"]),
    "network.mbs_bandwidth": (["10e6", "1e5"], ["1", "1e300", "0"]),
    "network.sbs_bandwidth": (["10e6", "1e5"], ["1", "1e300", "0"]),
    "network.mbs_max_users": (["50", "5"], ["1", "0"]),
    "network.sbs_max_users": (["10", "2"], ["1", "0"]),
    "network.noise_power": (["-104 dBm", "-90 dBm"], ["-300 dBm", "1 W", "0 W"]),
    "network.sbs_tx_schedule": (["0:30 dBm, 1:0 dBm", "0.2:0.6 W, 0.4:2 W", "0:23 dBm"],
                                ["0:1e300 W", "1:30 dBm, 0:20 dBm", "5:20 dBm"]),
    "network.file_bits": (["1e5", "1e7"], ["1", "1e300", "0"]),
    "energy.rate": (["20", "0", "100"], ["1e300", "-1"]),
    "energy.quantum": (["0.2", "5"], ["0", "1e308", "nan"]),
    "energy.initial": (["60", "0", "10", "100"], ["200", "-1"]),
    "energy.capacity": (["100", "150"], ["0", "50", "1e300"]),
    "power.q": (["0.9", "0", "1"], ["2"]),
    "cost.alpha_d": (["0.05", "0", "1"], ["1e308", "-1"]),
    "cost.alpha_p": (["0.05", "0", "1"], ["1e308"]),
    "cost.alpha_b": (["0.05", "0", "1"], ["1e308"]),
    "price_mode": (["live", "frozen"], ["other"]),
}
AREAS = ([None, ("500", "500"), ("2000", "300")],
         [("1e300", "1e300"), ("0", "500"), ("1000", None)])
ALWAYS_SET = ("period", "dt", "n_sbs")
POLICY_SPECS = ["roa", "doa", "adaptive", "fixed:0", "fixed:0.5", "fixed:1e9",
                "threshold:0", "threshold:50", "threshold:100"]
# the lines a cr_study rejects, kept in one config in five
CR_STUDY_STRAYS = ("policies", "sweep.parameter", "sweep.values", "price_mode",
                   "horizon_periods", "network.sbs_tx_schedule")


ZERO_SLOTS = {"period": "1e-10", "dt": "1"}
ONE_SLOT = {"period": "0.5", "dt": "0.5"}
# one record of exactly MAX_SLOT_CELLS slot-cells (a study draws one period),
# which is parsed and not run, and which no sweep moves
AT_CAP = {"period": str(MAX_SLOT_CELLS), "dt": "1", "n_sbs": "1", "horizon_periods": "1"}


@st.composite
def config_texts(draw, sweeps=False):
    """The text of a config: every key is set or not. With `sweeps`, a sweep
    whose keys take ordinary values only, which has a slot and is under the
    slot-cell cap."""
    wild = not sweeps and draw(st.booleans())

    def pick(ordinary, extreme):
        if not wild:
            return st.sampled_from(ordinary)
        return st.integers(0, 3).flatmap(
            lambda i: st.sampled_from(extreme if i == 0 else ordinary))

    keys = draw(st.fixed_dictionaries(
        {key: pick(*KEY_VALUES[key]) for key in ALWAYS_SET},
        optional={key: pick(*values) for key, values in KEY_VALUES.items()
                  if key not in ALWAYS_SET}))
    area = draw(pick(*AREAS))
    if area is not None:
        keys["area.width"] = area[0]
        if area[1] is not None:
            keys["area.height"] = area[1]
    # a period/dt pair that rounds to 0 slots (rejected when parsed), one of
    # exactly 1 slot, and a record at the slot-cell cap
    slots = draw(st.sampled_from([{}, {}, ONE_SLOT] if sweeps
                                 else [{}, {}, ZERO_SLOTS, ONE_SLOT, AT_CAP]))
    keys.update(slots)
    keys["seed"] = str(draw(st.integers(0, 3)))
    if draw(st.booleans()):
        keys["policies"] = ", ".join(draw(st.lists(
            st.sampled_from(POLICY_SPECS), min_size=1, max_size=3, unique=True)))
    if draw(st.booleans()):
        unswept = set(AT_CAP) if slots is AT_CAP else set()  # keep the record at the cap
        param = draw(st.sampled_from(sorted(set(KEY_VALUES) - unswept)))
        keys["sweep.parameter"] = param
        keys["sweep.values"] = ", ".join(draw(st.lists(pick(*KEY_VALUES[param]),
                                                       min_size=1, max_size=2)))
    count = str(draw(st.integers(1, 2)))
    if not sweeps and draw(st.integers(0, 3)) == 0:
        keys.update({"kind": "cr_study", "runs": count})
        if draw(st.integers(0, 4)):
            for key in CR_STUDY_STRAYS:
                keys.pop(key, None)
    else:
        keys["replications"] = count
    return "".join(f"{key} = {value}\n" for key, value in keys.items())
